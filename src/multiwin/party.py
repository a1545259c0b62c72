"""Seat apportionment among parties: linear divisor methods and quota methods.

Divisor methods use the divisor sequence d(n) = n - 1 + gamma, awarding
seats sequentially to the party with the largest quotient v_i / d(s_i + 1);
gamma = 1 is D'Hondt, gamma = 1/2 is Sainte-Lague, gamma = 0 is Adams.

Quota methods use the unrounded quota Q = V / (S + delta); a seat vector
(s_i) is valid when some t in [0, 1] satisfies
    s_i - 1 + t <= v_i / Q <= s_i + t   for every party i,
which is the largest-remainder rule with ties yielding several vectors.
delta = 0 is the Hare quota, delta = 1 the Droop quota.  quota_apportion
builds the valid vectors directly from the few t that can decide them,
so its cost follows the number of vectors, not 3^n in the parties.

Both apportionments are tie-aware: they return every seat vector reachable
under some tie resolution.  divisor_apportion runs on the engines' round
loop, `unordered.branch`, under a cap that no round can reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .numerics import common_denominator
from .unordered import branch

SeatVector = tuple


class AdamsIllDefined(ValueError):
    """gamma = 0 with more supported parties than seats: every unseated
    party has an infinite quotient, so the method cannot choose."""


@dataclass(frozen=True)
class DivisorSpec:
    gamma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class QuotaSpec:
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 <= self.delta <= 1:
            raise ValueError("delta must lie in [0, 1]")


def divisor_apportion(spec: DivisorSpec, votes: Sequence, seats: int) -> set:
    """All seat vectors reachable by the sequential highest-quotient rule."""
    votes = [Fraction(v) for v in votes]
    if any(v < 0 for v in votes):
        raise ValueError("votes must be non-negative")
    if not any(v > 0 for v in votes):
        raise ValueError("at least one party needs positive votes")
    if seats < 1:
        raise ValueError("seats must be positive")
    gamma = spec.gamma
    supported = sum(1 for v in votes if v > 0)
    if gamma == 0 and supported > seats:
        raise AdamsIllDefined(
            "gamma=0 with %d supported parties but only %d seats"
            % (supported, seats))

    # Votes and divisors scaled to ints (divisors by gamma's denominator):
    # quotients v / d with d >= 0 compare by cross-multiplying, so a zero
    # divisor (Adams' first seat) ties only with another zero divisor and
    # beats every positive one.
    ints, _ = common_denominator(votes)
    gn, gd = gamma.as_integer_ratio()

    def step(state, given):
        if given == seats:
            return None
        best = None   # (votes, divisor) of the largest quotient so far
        winners = []
        for i, v in enumerate(ints):
            if v == 0:
                continue
            divisor = state[i] * gd + gn    # gd * (s_i + gamma)
            if best is None or v * best[1] > best[0] * divisor:
                best = (v, divisor)
                winners = [i]
            elif v * best[1] == best[0] * divisor:
                winners.append(i)
        successors = []
        for i in winners:
            bumped = list(state)
            bumped[i] += 1
            successors.append((tuple(bumped), given + 1))
        return successors

    # A state is a seat vector, its payload the seats given so far.  No
    # round holds more than the C(S + p - 1, S) vectors of S seats.
    finals, _ = branch(((0,) * len(votes), 0), step,
                       comb(seats + len(votes) - 1, seats))
    return set(finals)


def quota_apportion(spec: QuotaSpec, votes: Sequence, seats: int) -> set:
    """All seat vectors admitted by the quota feasibility condition.

    With shares x_i = v_i / Q, a vector s is admitted iff some t in [0, 1]
    has x_i - s_i <= t <= x_i - s_i + 1 for every i.  Those t form an
    interval whose left end L = max(0, max_i (x_i - s_i)) is itself
    feasible, so s is admitted at t = L.  L is 0, or some x_j - s_j in
    (0, 1]: that is x_j mod 1, or 1 when x_j - s_j is a whole number.  So
    trying t in {0, 1} and every x_i mod 1 finds every admitted vector.
    At one t, s_i ranges over the whole numbers >= 0 in [x_i - t,
    x_i - t + 1]: ceil(x_i - t), clamped at 0, and one more when x_i - t
    is a whole number >= 0.  The vectors at t give every way to hand the
    seats left over to the parties with that second choice, one each.

    Exactly, with votes scaled to ints n_i and delta = dn / dd, the share
    x_i is n_i (S dd + dn) over den = (sum n) dd.
    """
    votes = [Fraction(v) for v in votes]
    if any(v < 0 for v in votes):
        raise ValueError("votes must be non-negative")
    if sum(votes) <= 0:
        raise ValueError("total votes must be positive")
    if seats < 1:
        raise ValueError("seats must be positive")
    ints, _ = common_denominator(votes)
    dn, dd = spec.delta.as_integer_ratio()
    den = sum(ints) * dd
    shares = [n * (seats * dd + dn) for n in ints]
    result = set()
    for t in {0, den}.union(x % den for x in shares):
        base = [max(0, -((t - x) // den)) for x in shares]
        loose = [i for i, x in enumerate(shares)
                 if x >= t and (x - t) % den == 0]
        spare = seats - sum(base)
        for extra in combinations(loose, spare) if spare >= 0 else ():
            vector = list(base)
            for i in extra:
                vector[i] += 1
            result.add(tuple(vector))
    return result
