"""Counting engines for ordered (preference-list) ballots.

Engines: ideal fractional single-vote transfer (unrounded quota, uniform
surplus transfer), ordered min-max load balancing (a ballot counts only
for its highest-ranked unelected name), ordered sequential weights (the
first unelected name at position k receives weight 1/k), and positional
scoring with a configurable weight scheme.

All engines branch ties and return tie-complete OutcomeSets.  Transfer
counting, ordered load balancing and ordered sequential weights run on
the breadth-first branching loop `unordered.branch`, which owns dedup,
the per-round `branch_cap` and the `truncated` flag: a truncated result
is a non-empty subset of the full answer whose committees all have S
members.  Ordered load balancing reports LoadStates as the unordered one
does: per committee, the least load vector with the history of the first
path to it.  Positional scoring resolves its boundary tie with
`unordered.boundary_committees`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .ballots import (DEFAULT_BRANCH_CAP, OutcomeSet, Profile, ProfileError,
                      WeightScheme)
from .unordered import (InsufficientSupportError, boundary_committees, branch,
                        sequential_loads, sequential_max)


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


def _first_choice(ranking, excluded) -> Optional[str]:
    for name in ranking:
        if name not in excluded:
            return name
    return None


def stv_count(spec: StvSpec, profile: Profile,
              branch_cap: int = DEFAULT_BRANCH_CAP) -> OutcomeSet:
    """Fractional transfer counting; see _stv_step for the procedure."""
    finals, truncated = branch(*_stv_step(spec, profile), branch_cap)
    return OutcomeSet((elected if len(elected) == profile.seats
                       else profile.candidates - eliminated
                       for elected, eliminated, _ in finals), truncated)


def _stv_step(spec: StvSpec, profile: Profile):
    """The transfer count as a (start, step) pair for `branch`.

    A state is (elected, eliminated, groups), groups being the live
    ballot groups (ranking, remaining value), one per ranking, in ranking
    order and of positive value.  Each ballot counts for its first
    non-elected, non-eliminated name.  A candidate whose count
    reaches the quota Q is elected and every ballot counting for it is
    rescaled by (v - Q) / v; otherwise a minimum-count candidate is
    eliminated at full value.  Both choices branch on ties.  When the
    remaining candidates only just fill the remaining seats, all of them
    are elected: that state is final, and stv_count reads its committee
    as every candidate not eliminated.  The surplus of the last elected
    candidate is not transferred.

    Eliminating a candidate whose count is 0 moves no vote, so when the
    minimum count is 0 the other zero-count candidates stay at the
    minimum and every order of eliminating them leads to the same state.
    The step therefore eliminates all z of them at once, or, when only
    `spare` of them may go before the remaining candidates just fill the
    seats, returns the C(z, spare) choices of who goes, each of them final.
    """
    ballots = _list_ballots(profile)
    seats = profile.seats
    total = profile.total_weight
    if seats + spec.delta <= 0:
        raise ValueError("need S + delta > 0")
    quota = total / (seats + spec.delta)

    def canonical(groups):
        merged: dict = {}
        for ranking, value in groups:
            if value > 0:
                merged[ranking] = (merged[ranking] + value
                                   if ranking in merged else value)
        return tuple(sorted(merged.items()))

    def step(state, _):
        elected, eliminated, groups = state
        if len(elected) == seats:
            return None
        out = elected | eliminated
        remaining = profile.candidates - out
        unfilled = seats - len(elected)
        if len(remaining) < unfilled:
            raise InsufficientSupportError(
                "only %d candidates left for %d open seats"
                % (len(remaining), unfilled))
        if len(remaining) == unfilled:
            return None
        # Every group holds a positive value, so a count is positive and
        # the candidates missing from `votes` are exactly those at 0.
        heads = [_first_choice(ranking, out) for ranking, _ in groups]
        votes: dict = {}
        for (_, value), head in zip(groups, heads):
            if head is not None:
                votes[head] = votes[head] + value if head in votes else value
        reachers = sorted(c for c, v in votes.items() if v >= quota)
        if not reachers:
            unvoted = remaining.difference(votes)
            if unvoted:
                tied = sorted(unvoted)
                size = min(len(tied), len(remaining) - unfilled)
            else:
                worst = min(votes.values())
                tied = sorted(c for c, v in votes.items() if v == worst)
                size = 1
            return [((elected, eliminated.union(gone), groups), None)
                    for gone in combinations(tied, size)]
        successors = []
        for cand in reachers:
            # Rescaling keeps the groups in ranking order; a group whose
            # value drops to 0 goes.
            factor = (votes[cand] - quota) / votes[cand]
            new_groups = tuple(
                (ranking, value * factor if head == cand else value)
                for (ranking, value), head in zip(groups, heads)
                if factor or head != cand)
            successors.append(((elected | {cand}, eliminated, new_groups),
                               None))
        return successors

    start = (frozenset(), frozenset(), canonical(ballots))
    return (start, None), step


def phragmen_ordered(profile: Profile,
                     branch_cap: int = DEFAULT_BRANCH_CAP):
    """Min-max-load rule where each ballot supports only its
    highest-ranked unelected candidate."""
    _list_ballots(profile)

    def supporters_of(content, elected):
        head = _first_choice(content.ranking, elected)
        return () if head is None else (head,)

    return sequential_loads(profile, supporters_of, branch_cap)


def thiele_ordered(profile: Profile,
                   branch_cap: int = DEFAULT_BRANCH_CAP) -> OutcomeSet:
    """Sequential max-score election where a ballot counts for its first
    unelected name with weight 1/k, k being that name's position."""
    ballots = _list_ballots(profile)

    def scores_of(elected):
        scores: dict = {}
        for ranking, weight in ballots:
            for pos, name in enumerate(ranking):
                if name not in elected:
                    scores[name] = (scores.get(name, Fraction(0))
                                    + weight / (pos + 1))
                    break
        return scores

    return sequential_max(scores_of, profile.seats, branch_cap)[0]


def borda_count(weights: BordaWeights, profile: Profile,
                branch_cap: int = DEFAULT_BRANCH_CAP) -> OutcomeSet:
    """Positional scoring: the name at position k earns weight * w_k."""
    ballots = _list_ballots(profile)
    scores = {c: Fraction(0) for c in profile.candidates}
    for ranking, weight in ballots:
        for pos, name in enumerate(ranking):
            scores[name] += weight * weights.scheme.w(pos + 1)
    return boundary_committees(scores, profile.seats, branch_cap)
