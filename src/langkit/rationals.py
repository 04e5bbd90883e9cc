"""Exact rational helpers shared across the package.

Everything numeric in this library is a `fractions.Fraction`.  Scenario
files store rationals as strings like "3/2", "-1/2" or "2"; these helpers
round-trip that format losslessly.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


def rat(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_str(x: Fraction) -> str:
    """Canonical "p/q" (or "p") rendering used in scenario files and reports."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def is_half_integer(x: Fraction) -> bool:
    """True iff x lies in (1/2)Z."""
    return (2 * Fraction(x)).denominator == 1
