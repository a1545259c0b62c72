"""Extremal vote-mass sequences and the LP-defined quantities alpha_n(w).

b_n is defined by the recursion b_n = 1 - sum_{i<n} b_i / (n + 1 - i)
(equivalently sum_{i<=n} b_i / (n + 1 - i) = 1), a_n is its prefix sum,
and c_n = floor((n+1)/2) * ceil((n+1)/2).  These drive the thresholds of
the ordered sequential-weight method.

alpha_n(w) is the minimum total vote mass that elects n fixed candidates
C_1, ..., C_n in that order under sequential weighted addition, each with
score >= 1 at its election step.  It is the optimum of an exact linear
program over variables x_sigma, one per non-empty subset of candidates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .ballots import WeightScheme
from .lp import LinearProgram, LpOutcome, solve

ALPHA_CAP = 7

_b_cache: list = [None, Fraction(1)]


def seq_b(n: int) -> Fraction:
    """b_n by the defining recursion, exactly."""
    if n < 1:
        raise ValueError("seq_b requires n >= 1")
    while len(_b_cache) <= n:
        m = len(_b_cache)
        total = sum((_b_cache[i] / (m + 1 - i) for i in range(1, m)),
                    Fraction(0))
        _b_cache.append(1 - total)
    return _b_cache[n]


def seq_a(n: int) -> Fraction:
    """a_n = b_1 + ... + b_n."""
    if n < 1:
        raise ValueError("seq_a requires n >= 1")
    seq_b(n)
    return sum(_b_cache[1:n + 1], Fraction(0))


def seq_c(n: int) -> int:
    """c_n = floor((n+1)/2) * ceil((n+1)/2)."""
    if n < 1:
        raise ValueError("seq_c requires n >= 1")
    return ((n + 1) // 2) * ((n + 2) // 2)


def subsets(n: int) -> list:
    """All non-empty subsets of {0, ..., n-1}, by size then lexicographic."""
    out = []
    for size in range(1, n + 1):
        out.extend(combinations(range(n), size))
    return out


def build_alpha_lp(n: int, scheme: WeightScheme) -> LinearProgram:
    """The program whose optimum is alpha_n(scheme).

    Variables x_sigma >= 0 for every non-empty subset sigma of the n
    candidates, in the order of `subsets`.  With candidates elected in
    the order C_1, ..., C_n, a ballot sigma gives each of its
    not-yet-elected members the weight w_{1+|sigma intersect elected|}.
    Constraints: at step k, C_k's score is >= the score of every later
    C_j (ties allowed), and >= 1.

    The rows are built directly, each subset keyed by its bitmask.  At
    step k every member of sigma gets the same weight, so the row
    "C_k >= C_j" is +w where sigma holds k and not j, -w where it holds
    j and not k, and 0 where it holds both or neither; the row
    "C_k >= 1" is w where sigma holds k and 0 elsewhere.
    """
    if n < 1:
        raise ValueError("alpha requires n >= 1")
    if n > ALPHA_CAP:
        raise ValueError("alpha LP capped at n <= %d (got %d)" % (ALPHA_CAP, n))
    masks = [sum(1 << i for i in sigma) for sigma in subsets(n)]
    weights = [scheme.w(i) for i in range(1, n + 1)]
    zero = Fraction(0)
    constraints = []
    for k in range(n):                       # electing C_{k+1}
        bit, elected = 1 << k, (1 << k) - 1
        step = [weights[(mask & elected).bit_count()] for mask in masks]
        for j in range(k + 1, n):
            other = 1 << j
            pair = bit | other
            diff = [w if (mask & pair) == bit else
                    -w if (mask & pair) == other else zero
                    for mask, w in zip(masks, step)]
            constraints.append((diff, ">=", zero))
        own = [w if mask & bit else zero for mask, w in zip(masks, step)]
        constraints.append((own, ">=", Fraction(1)))
    objective = [Fraction(1)] * len(masks)
    return LinearProgram(len(masks), objective, constraints)


def alpha(n: int, scheme: WeightScheme = None) -> Fraction:
    """alpha_n(scheme); scheme defaults to harmonic weights."""
    return solve_alpha(n, scheme or WeightScheme.harmonic()).value


@lru_cache(maxsize=None)
def solve_alpha(n: int, scheme: WeightScheme) -> LpOutcome:
    """The solved alpha program, one per (n, scheme) per process: the
    outcome is frozen and its point a tuple, so callers share it."""
    outcome = solve(build_alpha_lp(n, scheme))
    if outcome.status != "optimal":
        raise RuntimeError("alpha LP not optimal: %s" % outcome.status)
    return outcome
