"""Counting engines for ordered (preference-list) ballots.

Engines: ideal fractional single-vote transfer (unrounded quota, uniform
surplus transfer), ordered min-max load balancing (a ballot counts only
for its highest-ranked unelected name), ordered sequential weights (the
first unelected name at position k receives weight 1/k), and positional
scoring with a configurable weight scheme.

All engines branch ties and return tie-complete OutcomeSets.  Transfer
counting, ordered load balancing and ordered sequential weights run on
the package's one breadth-first round loop, `unordered.branch`, which
owns dedup, the per-round `branch_cap`, the `truncated` flag and a goal
count's settled states: a truncated result is a non-empty subset of the
full answer whose committees all have S members.  Ordered load
balancing reports LoadStates as the unordered one does: per committee,
the least load vector with the history of the first path to it, each
round's elected level (`unordered._sequential_loads`).
Once every ballot is exhausted, ordered load balancing and ordered
sequential weights fill the open seats in every way (`unordered._fill`).
Positional scoring resolves its boundary tie with
`unordered.boundary_committees`.

Counting is exact integer arithmetic over a common denominator: the
ballot weights, the 1/k position weights and the w_k rates are scaled to
ints once per call (the w_k once per scheme and length), a transfer-count
state carries its group values as ints over one reduced denominator
(`_stv_step`), and only the reported values (loads, load history) become
Fractions again, when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .ballots import (DEFAULT_BRANCH_CAP, OutcomeSet, Profile, ProfileError,
                      WeightScheme)
from .numerics import common_denominator
from .unordered import (_count, _rates, _sequential_loads,
                        boundary_committees, sequential_max)


@dataclass(frozen=True)
class StvSpec:
    """Unrounded quota Q = V / (S + delta); delta = 1 is the Droop quota,
    delta = 0 the Hare quota."""

    delta: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.delta > 1:
            raise ValueError("delta must be <= 1")


@dataclass(frozen=True)
class BordaWeights:
    scheme: WeightScheme


def _list_ballots(profile: Profile) -> list:
    if profile.kind != "list":
        raise ProfileError("engine requires ordered (list) ballots")
    return [(b.content.ranking, b.weight) for b in profile.ballots]


def stv_count(spec: StvSpec, profile: Profile,
              branch_cap: int = DEFAULT_BRANCH_CAP,
              goal=None) -> OutcomeSet:
    """Fractional transfer counting; see _stv_step for the procedure.  A
    goal makes it a goal count (`unordered._count`): a state can still
    elect every candidate it has not eliminated."""
    candidates = profile.candidates

    def finish(finals):
        return dict.fromkeys(elected if len(elected) == profile.seats
                             else candidates - eliminated
                             for elected, eliminated, _, _ in finals), False

    return _count(*_stv_step(spec, profile), branch_cap, finish, goal,
                  profile.seats,
                  lambda state: (state[0], candidates - state[1]))[0]


def _reduced(den: int, groups: tuple) -> tuple:
    """(den, groups) with den and every group value divided by their gcd."""
    g = gcd(den, *(value for _, value in groups))
    if g == 1:
        return den, groups
    return den // g, tuple((ranking, value // g) for ranking, value in groups)


def _stv_step(spec: StvSpec, profile: Profile):
    """The transfer count as a (start, step) pair for `branch`.

    A state is (elected, eliminated, den, groups), groups being the live
    ballot groups (ranking, value), one per ranking, in ranking order,
    each holding the positive value value / den.  The ints are kept
    reduced, gcd(den, *values) == 1, so every rational state has one
    representation and `branch` dedups exactly the equal states.  Each
    ballot counts for its first non-elected, non-eliminated name.  A
    candidate whose count reaches the quota Q is elected and every ballot
    counting for it is rescaled by (v - Q) / v; otherwise a minimum-count
    candidate is eliminated at full value.  Both choices branch on ties.
    When the remaining candidates only just fill the remaining seats, all
    of them are elected: that state is final, and stv_count reads its
    committee as every candidate not eliminated.  The remaining candidates
    never fall short of the open seats: a Profile has at least S, an
    election takes one of each, and an elimination, made only while they
    outnumber the seats, takes at most the excess.  The surplus of the
    last elected candidate is not transferred.

    With Q = qn / qd, a count V (over den) reaches the quota iff
    V * qd >= qn * den.  A reacher's transfer multiplies its groups by
    V * qd - qn * den, every other group by V * qd, and den by V * qd;
    the result is then reduced.

    Eliminating a candidate whose count is 0 moves no vote, so when the
    minimum count is 0 the other zero-count candidates stay at the
    minimum and every order of eliminating them leads to the same state.
    The step therefore eliminates all z of them at once, or, when only
    `spare` of them may go before the remaining candidates just fill the
    seats, returns the C(z, spare) choices of who goes, each of them final.
    """
    ballots = _list_ballots(profile)
    seats = profile.seats
    dn, dd = spec.delta.as_integer_ratio()
    if seats * dd + dn <= 0:
        raise ValueError("need S + delta > 0")
    weights, unit = common_denominator(weight for _, weight in ballots)
    merged: dict = {}
    for (ranking, _), value in zip(ballots, weights):
        merged[ranking] = merged.get(ranking, 0) + value
    start = (frozenset(), frozenset()) + _reduced(
        unit, tuple(sorted(merged.items())))
    # Q = total / (S + delta) = qn / qd, not necessarily in lowest terms.
    qn = sum(weights) * dd
    qd = unit * (seats * dd + dn)

    def step(state, _):
        elected, eliminated, den, groups = state
        if len(elected) == seats:
            return None
        out = elected | eliminated
        remaining = profile.candidates - out
        unfilled = seats - len(elected)
        if len(remaining) == unfilled:
            return None
        # Every group holds a positive value, so a count is positive and
        # the candidates missing from `votes` are exactly those at 0.
        heads = []
        votes: dict = {}
        for ranking, value in groups:
            for head in ranking:
                if head not in out:
                    votes[head] = votes.get(head, 0) + value
                    break
            else:
                head = None
            heads.append(head)
        bar = qn * den
        reachers = sorted(c for c, v in votes.items() if v * qd >= bar)
        if not reachers:
            unvoted = remaining.difference(votes)
            if unvoted:
                tied = sorted(unvoted)
                size = min(len(tied), len(remaining) - unfilled)
            else:
                worst = min(votes.values())
                tied = sorted(c for c, v in votes.items() if v == worst)
                size = 1
            return [((elected, eliminated.union(gone), den, groups), None)
                    for gone in combinations(tied, size)]
        successors = []
        for cand in reachers:
            # Rescaling keeps the groups in ranking order; a group whose
            # value drops to 0 goes.
            whole = votes[cand] * qd
            surplus = whole - bar
            new_groups = tuple(
                (ranking, value * (surplus if head == cand else whole))
                for (ranking, value), head in zip(groups, heads)
                if surplus or head != cand)
            successors.append(((elected | {cand}, eliminated)
                               + _reduced(den * whole, new_groups), None))
        return successors

    return (start, None), step


def phragmen_ordered(profile: Profile,
                     branch_cap: int = DEFAULT_BRANCH_CAP, goal=None):
    """Min-max-load rule where each ballot supports only its
    highest-ranked unelected candidate."""
    rankings = [ranking for ranking, _ in _list_ballots(profile)]

    def supporters(elected):
        found: dict = {}
        for idx, ranking in enumerate(rankings):
            for name in ranking:
                if name not in elected:
                    found.setdefault(name, []).append(idx)
                    break
        return found

    return _sequential_loads(profile, supporters, branch_cap, goal=goal)


def thiele_ordered(profile: Profile,
                   branch_cap: int = DEFAULT_BRANCH_CAP,
                   goal=None) -> OutcomeSet:
    """Sequential max-score election where a ballot counts for its first
    unelected name with weight 1/k, k being that name's position."""
    ballots = _list_ballots(profile)
    weights, unit = common_denominator(weight for _, weight in ballots)
    # Credits in units of 1 / (unit * share): weight / k for every k.
    rates, share = _rates(WeightScheme.harmonic(),
                          max(len(ranking) for ranking, _ in ballots))
    credits = [(ranking, [weight * rate for rate in rates[:len(ranking)]])
               for (ranking, _), weight in zip(ballots, weights)]

    def scores_of(elected):
        scores: dict = {}
        for ranking, table in credits:
            for pos, name in enumerate(ranking):
                if name not in elected:
                    scores[name] = scores.get(name, 0) + table[pos]
                    break
        return scores

    return sequential_max(scores_of, profile.candidates, profile.seats,
                          unit * share, branch_cap, goal=goal)[0]


def borda_count(weights: BordaWeights, profile: Profile,
                branch_cap: int = DEFAULT_BRANCH_CAP,
                goal=None) -> OutcomeSet:
    """Positional scoring: the name at position k earns weight * w_k."""
    ballots = _list_ballots(profile)
    ints, _ = common_denominator(weight for _, weight in ballots)
    longest = max(len(ranking) for ranking, _ in ballots)
    rates, _ = _rates(weights.scheme, longest)
    scores = dict.fromkeys(profile.candidates, 0)
    for (ranking, _), weight in zip(ballots, ints):
        for name, rate in zip(ranking, rates):
            scores[name] += weight * rate
    return boundary_committees(scores, profile.seats, branch_cap, goal)
