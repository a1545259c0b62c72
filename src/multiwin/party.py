"""Seat apportionment among parties: linear divisor methods and quota methods.

Divisor methods use the divisor sequence d(n) = n - 1 + gamma, awarding
seats sequentially to the party with the largest quotient v_i / d(s_i + 1);
gamma = 1 is D'Hondt, gamma = 1/2 is Sainte-Lague, gamma = 0 is Adams.

Quota methods use the unrounded quota Q = V / (S + delta); a seat vector
(s_i) is valid when some t in [0, 1] satisfies
    s_i - 1 + t <= v_i / Q <= s_i + t   for every party i,
which is the largest-remainder rule with ties yielding several vectors.
delta = 0 is the Hare quota, delta = 1 the Droop quota.

Both apportionments are tie-aware: they return every seat vector reachable
under some tie resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .numerics import common_denominator

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
    states = {tuple(0 for _ in votes)}
    for _ in range(seats):
        next_states = set()
        for state in states:
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
            for i in winners:
                bumped = list(state)
                bumped[i] += 1
                next_states.add(tuple(bumped))
        states = next_states
    return states


def quota_apportion(spec: QuotaSpec, votes: Sequence, seats: int) -> set:
    """All seat vectors admitted by the quota feasibility condition."""
    votes = [Fraction(v) for v in votes]
    if any(v < 0 for v in votes):
        raise ValueError("votes must be non-negative")
    total = sum(votes, Fraction(0))
    if total <= 0:
        raise ValueError("total votes must be positive")
    if seats < 1:
        raise ValueError("seats must be positive")
    quota = total / (seats + spec.delta)
    shares = [v / quota for v in votes]

    # With t in [0, 1], feasible s_i satisfy x_i - 1 <= s_i <= x_i + 1.
    ranges = []
    for x in shares:
        lo = max(0, math.ceil(x - 1))
        hi = math.floor(x + 1)
        ranges.append(range(lo, hi + 1))
    result = set()
    for vector in product(*ranges):
        if sum(vector) != seats:
            continue
        t_lo = max(x - s for x, s in zip(shares, vector))
        t_hi = min(x - s + 1 for x, s in zip(shares, vector))
        if max(t_lo, Fraction(0)) <= min(t_hi, Fraction(1)):
            result.add(vector)
    return result
