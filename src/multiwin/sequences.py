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
    candidates.  With candidates elected in the order C_1, ..., C_n, a
    ballot sigma gives each of its not-yet-elected members the weight
    w_{1+|sigma intersect elected|}.  Constraints: at step k, C_k's score
    is >= the score of every later C_j (ties allowed), and >= 1.
    """
    if n < 1:
        raise ValueError("alpha requires n >= 1")
    if n > ALPHA_CAP:
        raise ValueError("alpha LP capped at n <= %d (got %d)" % (ALPHA_CAP, n))
    sigmas = subsets(n)
    index = {sigma: j for j, sigma in enumerate(sigmas)}
    nvars = len(sigmas)

    def score_row(candidate: int, step: int) -> list:
        # Coefficients of candidate's score at step `step` (0-based: the
        # first `step` candidates are already elected).
        row = [Fraction(0)] * nvars
        for sigma, j in index.items():
            if candidate in sigma:
                elected = sum(1 for i in sigma if i < step)
                row[j] = scheme.w(elected + 1)
        return row

    constraints = []
    for k in range(n):                       # electing C_{k+1}
        own = score_row(k, k)
        for j in range(k + 1, n):
            other = score_row(j, k)
            diff = [a - b for a, b in zip(own, other)]
            constraints.append((diff, ">=", Fraction(0)))
        constraints.append((own, ">=", Fraction(1)))
    objective = [Fraction(1)] * nvars
    return LinearProgram(nvars, objective, constraints)


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
