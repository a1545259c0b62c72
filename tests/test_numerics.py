"""Rational text format, small numeric helpers and harmonic numbers."""

import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from multiwin.ballots import WeightScheme
from multiwin.numerics import (common_denominator, format_rational,
                               parse_rational, to_decimal_str)

# H_n = psi(n) under harmonic weights.
_HARMONIC = WeightScheme.harmonic()


def test_parse_integer():
    assert parse_rational("7") == Fraction(7)


def test_parse_fraction():
    assert parse_rational("3/5") == Fraction(3, 5)


def test_parse_negative_numerator():
    assert parse_rational("-3/5") == Fraction(-3, 5)


def test_parse_whitespace():
    assert parse_rational("  409/2409 ") == Fraction(409, 2409)


@pytest.mark.parametrize("bad", ["", "1/0", "3/-5", "1.5", "a/b", "1 / 2 / 3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", ["1.5", "a/b", "1 / 2 / 3", "1/", "/2", "1e3"])
def test_parse_names_a_malformed_literal_and_the_grammar(bad):
    with pytest.raises(ValueError, match=r"^bad rational %s: expected an "
                       r"integer or p/q$" % re.escape(repr(bad))):
        parse_rational(bad)


def test_format_integer():
    assert format_rational(Fraction(4)) == "4"


def test_format_fraction():
    assert format_rational(Fraction(48, 71)) == "48/71"


def test_format_normalizes():
    assert format_rational(Fraction(6, 4)) == "3/2"


@pytest.mark.parametrize("text", ["0", "1", "-2/7", "4277/1440", "95/288"])
def test_round_trip(text):
    assert format_rational(parse_rational(text)) == text


def test_decimal_rendering():
    assert to_decimal_str(Fraction(3, 5), 3) == "0.600"
    assert to_decimal_str(Fraction(1, 3), 4) == "0.3333"
    with pytest.raises(ValueError, match="digits must be >= 0"):
        to_decimal_str(Fraction(1, 3), -1)


def test_harmonic_small():
    with pytest.raises(ValueError, match=">= 1"):
        _HARMONIC.w(0)
    assert _HARMONIC.psi(1) == 1
    assert _HARMONIC.psi(2) == Fraction(3, 2)
    assert _HARMONIC.psi(6) == Fraction(49, 20)


def test_harmonic_exact_sum():
    n = 40
    assert _HARMONIC.psi(n) == sum(Fraction(1, k) for k in range(1, n + 1))


_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@given(st.lists(st.one_of(st.integers(-50, 50), _RATIONALS), max_size=6))
def test_common_denominator_is_least(values):
    ints, den = common_denominator(values)
    assert den >= 1 and all(type(n) is int for n in ints)
    assert [Fraction(n, den) for n in ints] == values
    assert gcd(den, *ints) == 1


def test_common_denominator_of_ints_is_one():
    assert common_denominator(iter([3, 0, -2])) == ([3, 0, -2], 1)
    assert common_denominator([]) == ([], 1)
    assert common_denominator([2, Fraction(1, 3)]) == ([6, 1], 3)
