"""Exact rational arithmetic helpers.

Every value the package reports is a fractions.Fraction
(arbitrary-precision, always in canonical form).  The counting engines
run their inner loops on Python ints over one positive common
denominator (`common_denominator`), which is exact as well, and turn
their results back into Fractions.  This module adds the "p/q" text
convention of the file formats, method labels and CLI, the "name:arg"
split of method text, and decimal rendering for display only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def common_denominator(values) -> tuple[list, int]:
    """Fractions (or ints) as ints over their least common denominator
    d: ([value * d, ...], d).  No d' < d makes every value * d' an int,
    so gcd(d, *ints) == 1.  Ints alone come back as they are, over 1."""
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values, 1
    pairs = [value.as_integer_ratio() for value in values]
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (sign on the numerator only) into a Fraction."""
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    num, slash, den = text.partition("/")
    if den.lstrip().startswith(("+", "-")):
        raise ValueError("sign must be on the numerator: %r" % text)
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError("bad rational %r: expected an integer or p/q"
                         % text) from None
    if den == 0:
        raise ValueError("zero denominator: %r" % text)
    return Fraction(num, den)


def split_arg(text: str, missing: str = "nothing") -> tuple[str, str]:
    """"name:arg" text as (name, arg), arg "" when there is no colon; a
    colon with nothing after it is refused ("<missing> after 'name:'")."""
    name, colon, arg = text.partition(":")
    if colon and not arg:
        raise ValueError("%s after '%s:'" % (missing, name))
    return name, arg


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def to_decimal_str(value: Fraction, digits: int = 3) -> str:
    """Display-only decimal rendering, rounded half-up to `digits` places."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value * 10**digits
    whole = scaled.numerator // scaled.denominator
    rem = scaled - whole
    if rem * 2 >= 1:
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return "%s%s.%s" % (sign, text[:-digits], text[-digits:])
