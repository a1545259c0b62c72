"""Seat apportionment among parties: linear divisor methods and quota methods.

Both families give the S seats to the S best claims.  Seat k of party i
claims a value, each party's claims strictly fall as k grows, and a seat
vector is returned iff its seats are S best claims, any choice being
made among the claims tied with the last one given.  One body,
`_best_seats`, lists those vectors from the score family's top-S
boundary, `unordered.boundary`.  Each method lists only the claims that
can reach the boundary, as exact ints, so the cost follows the seats
and parties, not the tie orders.

Divisor methods use the divisor sequence d(k) = k - 1 + gamma, and seat k
claims the quotient v_i / d(k); gamma = 1 is D'Hondt, gamma = 1/2 is
Sainte-Lague, gamma = 0 is Adams.

Quota methods use the unrounded quota Q = V / (S + delta) and shares
x_i = v_i / Q, and seat k claims what is left of the share, x_i - k + 1.
A seat vector (s_i) is valid when some t in [0, 1] satisfies
    s_i - 1 + t <= x_i <= s_i + t   for every party i,
which is the largest-remainder rule with ties yielding several vectors.
delta = 0 is the Hare quota, delta = 1 the Droop quota.

Both apportionments are tie-aware: they return every seat vector reachable
under some tie resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from .numerics import common_denominator
from .unordered import boundary


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


def _int_votes(votes: Sequence, seats: int, no_votes: str) -> list:
    """The votes as ints over their least common denominator, once they
    and the seats are checked; `no_votes` is the error when all are 0."""
    votes = [Fraction(v) for v in votes]
    if any(v < 0 for v in votes):
        raise ValueError("votes must be non-negative")
    if not any(votes):
        raise ValueError(no_votes)
    if seats < 1:
        raise ValueError("seats must be positive")
    return common_denominator(votes)[0]


def _best_seats(claims: dict, parties: int, seats: int) -> set:
    """Every seat vector whose seats are `seats` best of `claims`, any
    choice being made among the claims tied with the last one given.

    `claims` maps (party, k) to the value of the party's seat k + 1, and
    must hold every claim at or above the boundary.  Each party's claims
    strictly fall in k, so the claims given to a party are its first ones
    and at most one of them ties at the boundary.  So every vector is the
    one of the claims above the boundary plus one seat for the party of
    each chosen tied claim, and each choice gives a distinct vector.
    """
    fixed, tied, need = boundary(claims, seats)
    base = [0] * parties
    for party, _ in fixed:
        base[party] += 1
    vectors = set()
    for chosen in combinations([party for party, _ in tied], need):
        vector = base.copy()
        for party in chosen:
            vector[party] += 1
        vectors.add(tuple(vector))
    return vectors


def divisor_apportion(spec: DivisorSpec, votes: Sequence, seats: int) -> set:
    """All seat vectors reachable by the sequential highest-quotient rule.

    Each party's quotients v_i / d(k) strictly fall as k grows.  So the
    sequential rule awards the S largest quotients, and at most one
    quotient per party ties at the boundary.  Every choice of the needed
    number among the tied parties is some tie order.  Seat k claims
    -d(k) / v_i, which ranks the quotients exactly and ranks Adams' zero
    divisor first.

    Only quotients at or above mu = V / (S + p), over the p supported
    parties, are listed: party i has floor(v_i / mu - gamma) + 1 of them.
    Summed over the parties, that is more than V / mu - p gamma >= S, so
    no lower quotient is given a seat or ties.

    Exactly, with votes scaled to ints n_i (sum N, least common multiple
    L over the supported parties) and gamma = gn / gd, seat k + 1 claims
    the int -(k gd + gn) L / n_i, which is -d(k + 1) / v_i times a
    positive constant, and party i lists
    floor((n_i (S + p) gd - N gn) / (N gd)) + 1 claims.
    """
    ints = _int_votes(votes, seats, "at least one party needs positive votes")
    supported = len(ints) - ints.count(0)
    if spec.gamma == 0 and supported > seats:
        raise AdamsIllDefined(
            "gamma=0 with %d supported parties but only %d seats"
            % (supported, seats))
    gn, gd = spec.gamma.as_integer_ratio()
    total = sum(ints)
    scale = lcm(*filter(None, ints))
    claims = {}
    for i, n in enumerate(ints):
        if n:
            reach = (n * (seats + supported) * gd - total * gn) \
                // (total * gd)
            for k in range(reach + 1):
                claims[i, k] = -(k * gd + gn) * (scale // n)
    return _best_seats(claims, len(ints), seats)


def quota_apportion(spec: QuotaSpec, votes: Sequence, seats: int) -> set:
    """All seat vectors admitted by the quota feasibility condition.

    A vector s gives party i its claims down to x_i - s_i + 1 and holds
    back those from x_i - s_i down (with s_i = 0 it gives none, and
    t <= x_i + 1 holds for every t in [0, 1]).  So s is admitted,
    x_i - s_i <= t <= x_i - s_i + 1 for every i, iff its seats are S best
    claims, taking t as the largest claim held back.  That t lies in
    [0, 1]:
    - at most S claims exceed 1, because sum(ceil(x_i) - 1) < S + delta
      <= S + 1, so every claim above 1 is given and t <= 1;
    - more than S claims are >= 0, because sum(floor(x_i) + 1) > S +
      delta >= S, so one of them is held back and t >= 0.  So no claim
      below 0 is given or tied, and only the claims >= 0 are listed.

    Exactly, with votes scaled to ints n_i and delta = dn / dd, seat k + 1
    claims n_i (S dd + dn) - k den over den = (sum n) dd.
    """
    ints = _int_votes(votes, seats, "total votes must be positive")
    dn, dd = spec.delta.as_integer_ratio()
    den = sum(ints) * dd
    claims = {}
    for i, n in enumerate(ints):
        share = n * (seats * dd + dn)
        for k in range(share // den + 1):
            claims[i, k] = share - k * den
    return _best_seats(claims, len(ints), seats)
