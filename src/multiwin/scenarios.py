"""Scenario instances and good/bad-outcome predicates.

A scenario restricts how the designated voter set W (the ballot groups
flagged in the profile) votes, and defines what counts as a good outcome
for W: getting at least ell representatives in the sense the scenario
cares about.  The supported scenarios are:

- party:   all voters vote for disjoint identical lists; W on one list.
- same:    W votes one common list A (ordered: one common sequence).
- tactic:  no ballot restriction; W aims at ell target candidates and the
           strategy optimization lives in the verifier's bounded search.
- pjr:     every W ballot contains A; good when at least ell candidates
           approved by someone in W are elected.
- ejr:     every W ballot contains A; good when some W ballot has at
           least ell of its names elected.
- psc:     (ordered) every W ballot lists exactly the set A as its top
           |A| names; good when at least ell of A are elected.
- wpsc:    psc with |A| = ell; good when all of A is elected.

`settle` is the one bound on goal pairs over an interval of committees:
goal counts, the score family's tie and the search's skip all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .ballots import OutcomeSet, Profile


class ScenarioId(Enum):
    PARTY = "party"
    SAME = "same"
    TACTIC = "tactic"
    PJR = "pjr"
    EJR = "ejr"
    PSC = "psc"
    WPSC = "wpsc"


def check_ell(ell: int, seats: int) -> None:
    if not 1 <= ell <= seats:
        raise ValueError("need 1 <= ell <= seats (got ell=%s, S=%s)"
                         % (ell, seats))


class ScenarioTypeError(TypeError):
    """Scenario applied to an incompatible ballot kind."""


class IndeterminateOutcome(RuntimeError):
    """A truncated OutcomeSet whose listed committees are all good, or a
    goal count the branch cap left undecided, cannot answer a
    possibility question."""


@dataclass(frozen=True)
class ScenarioInstance:
    """A profile with W's target set, ell and the scenario.

    `goal` states the scenario's good test as pairs (names, ell): a
    committee is good for W iff some pair has at least ell of its names
    elected.
    - party, same, pjr: the union of W's ballots, which under party and
      same is W's own list (it may be a superset of the target);
    - tactic, psc: (target, ell);
    - wpsc: (target, |target|);
    - ejr: one pair per W ballot.
    Electing more names never makes a good committee bad, which the goal
    counts of the engines rely on (`unordered.branch`).
    """

    profile: Profile
    target: frozenset
    ell: int
    scenario: ScenarioId
    goal: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, profile: Profile, target, ell: int,
                 scenario: ScenarioId):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "target", frozenset(target))
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "scenario", scenario
                           if type(scenario) is ScenarioId
                           else ScenarioId(scenario))
        check_ell(self.ell, profile.seats)
        # The generator reads W's ballots only where the goal does.
        object.__setattr__(self, "goal", _goal(
            self.scenario, self.target, self.ell,
            (b.content.members for b in profile.ballots if b.in_w)))

    @property
    def fraction(self) -> Fraction:
        """W's share of the total vote weight."""
        return self.profile.w_weight / self.profile.total_weight


def _goal(scenario: ScenarioId, target: frozenset, ell: int,
          w_names) -> tuple:
    """The goal pairs of an instance whose W ballots name the sets
    `w_names` (see `ScenarioInstance`); only party, same, pjr and ejr
    read them."""
    if scenario in (ScenarioId.PARTY, ScenarioId.SAME, ScenarioId.PJR):
        return ((frozenset().union(*w_names), ell),)
    if scenario in (ScenarioId.TACTIC, ScenarioId.PSC):
        return ((target, ell),)
    if scenario is ScenarioId.WPSC:
        return ((target, len(target)),)
    if scenario is ScenarioId.EJR:
        return tuple((names, ell) for names in w_names)
    raise AssertionError("unhandled scenario %s" % scenario)  # pragma: no cover


def settle(goal: tuple, seats: int, sure: frozenset, possible: frozenset):
    """Are the `seats`-sets between `sure` and `possible` good for the goal
    pairs?  True when every one is, False when none is, None when this
    bound cannot tell (sure <= possible, |sure| <= seats <= |possible|).

    Such a set takes open = seats - |sure| of the free names, possible -
    sure, and leaves out spare = |free| - open of them.  A pair (names,
    ell) with k names in `sure` and m free ones has at least
    k + max(0, m - spare) and at most k + min(m, open) of its names in
    such a set, each attained by leaving out as many, or as few, of its
    free names as the set can.  So True (some pair's least reaches ell)
    and False (no pair's greatest does) are sound, and False is exact.
    For a single pair True is exact too; with several, every set may
    meet some pair while no pair is met by all, and the answer is None.
    """
    open_seats = seats - len(sure)
    spare = len(possible) - seats
    bad = True
    for names, ell in goal:
        k = len(names & sure)
        m = len(names & possible) - k
        if k + max(0, m - spare) >= ell:
            return True
        if k + min(m, open_seats) >= ell:
            bad = False
    return False if bad else None


def require_kind(scenario: ScenarioId, kind: str) -> None:
    """Raise ScenarioTypeError unless ballots of `kind` ("party", "set" or
    "list") can express the scenario: party and tactic take every kind,
    the others candidate ballots, pjr and ejr unordered ones and psc and
    wpsc ordered ones."""
    if scenario in (ScenarioId.PARTY, ScenarioId.TACTIC):
        return
    if kind == "party":
        raise ScenarioTypeError("scenario %s needs candidate ballots"
                                % scenario.value)
    if scenario in (ScenarioId.PJR, ScenarioId.EJR) and kind != "set":
        raise ScenarioTypeError("%s needs unordered ballots" % scenario.value)
    if scenario in (ScenarioId.PSC, ScenarioId.WPSC) and kind != "list":
        raise ScenarioTypeError("%s needs ordered ballots" % scenario.value)


def is_instance(inst: ScenarioInstance) -> bool:
    """Does the profile satisfy the scenario's ballot restriction?"""
    profile = inst.profile
    scenario = inst.scenario
    if scenario is ScenarioId.TACTIC:
        return True
    w_ballots = profile.w_ballots()
    if not w_ballots:
        return False
    kind = profile.kind

    if scenario is ScenarioId.PARTY:
        lists = {}
        for b in profile.ballots:
            names = b.content.members
            for prior in lists:
                if prior != names and prior & names:
                    return False
            # Members of one party must cast identical ballots; for
            # ordered ballots that means the same sequence, not merely
            # the same support set.
            if lists.setdefault(names, b.content) != b.content:
                return False
        w_lists = {b.content.members for b in w_ballots}
        if len(w_lists) != 1:
            return False
        w_list = next(iter(w_lists))
        if kind == "party":
            return inst.target == w_list
        return inst.target <= w_list and len(w_list) >= inst.ell

    require_kind(scenario, kind)

    if scenario is ScenarioId.SAME:
        contents = {b.content for b in w_ballots}
        if len(contents) != 1:
            return False
        names = w_ballots[0].content.members
        return len(names) >= inst.ell and inst.target == names

    if scenario in (ScenarioId.PJR, ScenarioId.EJR):
        if len(inst.target) < inst.ell:
            return False
        return all(inst.target <= b.content.members for b in w_ballots)

    if scenario in (ScenarioId.PSC, ScenarioId.WPSC):
        m = len(inst.target)
        if scenario is ScenarioId.WPSC and m != inst.ell:
            return False
        if m < inst.ell:
            return False
        for b in w_ballots:
            ranking = b.content.ranking
            if frozenset(ranking[:m]) != inst.target:
                return False
        return True

    raise AssertionError("unhandled scenario %s" % scenario)  # pragma: no cover


def _bad(pairs: tuple, committees) -> list:
    """The committees that meet no goal pair."""
    for names, ell in pairs:
        committees = [c for c in committees if len(names & c) < ell]
    return committees


def is_good(inst: ScenarioInstance, committee) -> bool:
    """Is this committee a good outcome for W under the scenario?"""
    return not _bad(inst.goal, (frozenset(committee),))


def is_bad_outcome_possible(inst: ScenarioInstance,
                            outcomes: OutcomeSet) -> bool:
    """Is some reachable committee bad for W?

    A truncated outcome set lists only some of the reachable committees
    (never one that is not reachable), so a bad committee on it answers
    yes; only when every listed committee is good is the answer unknown.
    A set an engine counted for the instance's goal answers from its
    verdict (`OutcomeSet.decided`), unknown when the verdict is, without
    listing its committees.
    """
    if outcomes.goal == inst.goal:
        bad = outcomes.bad
    elif _bad(inst.goal, outcomes.committees):
        return True
    else:
        bad = None if outcomes.truncated else False
    if bad is None:
        raise IndeterminateOutcome(
            "outcome set truncated by the branch cap; badness undecidable")
    return bad
