"""Extremal vote-mass sequences and the sequential-addition LP values.

Golden values are frozen from independent derivations: the b_n oracle
below recomputes the sequence as power-series coefficients, a route that
shares no code with the defining recursion.
"""

from fractions import Fraction

import pytest

from multiwin.ballots import WeightScheme
from multiwin.lp import check_solution, dual_program, solve
from multiwin.sequences import (ALPHA_CAP, alpha, build_alpha_lp, seq_a,
                                seq_b, seq_c, solve_alpha, subsets)

B_GOLDEN = {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(5, 12),
            4: Fraction(3, 8), 5: Fraction(251, 720), 6: Fraction(95, 288)}
A_GOLDEN = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(23, 12),
            4: Fraction(55, 24), 5: Fraction(1901, 720),
            6: Fraction(4277, 1440)}
C_GOLDEN = {1: 1, 2: 2, 3: 4, 4: 6, 5: 9, 6: 12}


@pytest.mark.parametrize("n, value", sorted(B_GOLDEN.items()))
def test_b_golden(n, value):
    assert seq_b(n) == value


@pytest.mark.parametrize("n, value", sorted(A_GOLDEN.items()))
def test_a_golden(n, value):
    assert seq_a(n) == value


@pytest.mark.parametrize("n, value", sorted(C_GOLDEN.items()))
def test_c_golden(n, value):
    assert seq_c(n) == value


def test_b_defining_identity_holds_up_to_200():
    for n in range(1, 201):
        total = sum(seq_b(i) / (n + 1 - i) for i in range(1, n + 1))
        assert total == 1


def test_b_positive_and_strictly_decreasing_up_to_200():
    previous = None
    for n in range(1, 201):
        value = seq_b(n)
        assert value > 0
        if previous is not None:
            assert value < previous
        previous = value


def _b_series_oracle(count):
    """b_n via power series, independently of the recursion.

    The defining identity says the convolution of (b_n) with the
    sequence (1/(m+1)) is the all-ones sequence; equivalently the b's
    are the coefficients of the reciprocal series of sum_m x^m/(m+1),
    accumulated by partial sums.
    """
    log_series = [Fraction(1, m + 1) for m in range(count)]
    inverse = [Fraction(1)]
    for n in range(1, count):
        inverse.append(-sum(log_series[k] * inverse[n - k]
                            for k in range(1, n + 1)))
    values = []
    running = Fraction(0)
    for n in range(count):
        running += inverse[n]
        values.append(running)
    return values           # values[k] = b_{k+1}

def test_b_matches_series_oracle_up_to_50():
    oracle = _b_series_oracle(50)
    for n in range(1, 51):
        assert seq_b(n) == oracle[n - 1]


def test_a_is_prefix_sum_of_b():
    for n in range(1, 30):
        assert seq_a(n) == sum(seq_b(i) for i in range(1, n + 1))


def test_c_closed_form():
    for n in range(1, 50):
        assert seq_c(n) == ((n + 1) // 2) * ((n + 2) // 2)


def test_domain_errors():
    for fn in (seq_a, seq_b, seq_c):
        with pytest.raises(ValueError):
            fn(0)
    with pytest.raises(ValueError, match="alpha requires n >= 1"):
        build_alpha_lp(0, WeightScheme.harmonic())


def test_subsets_enumeration():
    out = subsets(3)
    assert len(out) == 7
    assert out[0] == (0,)
    assert out[-1] == (0, 1, 2)


ALPHA_GOLDEN = {1: Fraction(1), 2: Fraction(2), 3: Fraction(8, 3),
                4: Fraction(24, 7), 5: Fraction(180, 43),
                6: Fraction(3240, 661), 7: Fraction(16500, 2923)}

# The weight schemes of the benchmark's alpha-lp workload.
CERTIFIED_SCHEMES = (
    WeightScheme.harmonic(),
    WeightScheme.explicit([1, Fraction(1, 2), Fraction(1, 2)], Fraction(1, 3)),
    WeightScheme.explicit([1, Fraction(1, 3)], Fraction(1, 5)),
)


@pytest.mark.parametrize("n, value", sorted(ALPHA_GOLDEN.items()))
def test_alpha_golden(n, value):
    assert alpha(n) == value


def test_alpha_certificate_is_exact():
    for scheme in CERTIFIED_SCHEMES:
        for n in range(1, 8):
            outcome = solve_alpha(n, scheme)
            lp = build_alpha_lp(n, scheme)
            assert check_solution(lp, outcome.point)
            assert sum(outcome.point, Fraction(0)) == outcome.value


def test_alpha_program_is_solved_once():
    scheme = WeightScheme.explicit([1, Fraction(1, 2)], Fraction(1, 4))
    assert solve_alpha(4, scheme) is solve_alpha(4, scheme)
    assert alpha(4, scheme) == solve_alpha(4, scheme).value
    assert alpha(4) == solve_alpha(4, WeightScheme.harmonic()).value
    for _ in range(2):      # a refused order raises every time
        with pytest.raises(ValueError, match="capped"):
            solve_alpha(ALPHA_CAP + 1, scheme)


@pytest.mark.parametrize("scheme", CERTIFIED_SCHEMES, ids=WeightScheme.label)
def test_alpha_6_strong_duality(scheme):
    dual_lp = dual_program(build_alpha_lp(6, scheme))
    dual = solve(dual_lp)
    assert check_solution(dual_lp, dual.point)
    assert -dual.value == alpha(6, scheme)


def test_alpha_3_vertex_structure():
    # At n = 3 an optimal vertex puts weight 2/3 on each of the ballots
    # {C1,C2}, {C1,C3}, {C2}, {C3} (candidate indices 0-based below).
    scheme = WeightScheme.harmonic()
    outcome = solve_alpha(3, scheme)
    sigmas = subsets(3)
    support = {sigmas[j]: x for j, x in enumerate(outcome.point) if x != 0}
    assert support == {(1,): Fraction(2, 3), (2,): Fraction(2, 3),
                       (0, 1): Fraction(2, 3), (0, 2): Fraction(2, 3)}


def test_alpha_bounds_and_monotone():
    previous = Fraction(0)
    for n in range(1, 5):
        value = alpha(n)
        assert Fraction(n) / WeightScheme.harmonic().psi(n) <= value <= n
        assert value > previous
        previous = value


def test_alpha_subadditive_small():
    for m in range(1, 3):
        for n in range(1, 3):
            assert alpha(m + n) <= alpha(m) + alpha(n)


def test_alpha_other_schemes():
    assert alpha(3, WeightScheme.weak()) == 3
    assert alpha(3, WeightScheme.constant()) == 1


def test_alpha_cap_enforced():
    with pytest.raises(ValueError):
        build_alpha_lp(ALPHA_CAP + 1, WeightScheme.harmonic())
