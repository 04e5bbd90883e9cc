"""Exact rational helpers shared across the package.

Every general rational in this library's interfaces is a
`fractions.Fraction`.  A half-integer x (a Weyl weight coordinate, a
ladder shift, a Satake q-exponent, an infinitesimal character entry) is
held as the int 2x instead, converted once where the value is parsed:
`doubled` converts a Fraction, and `doubled_str` reads a string in the
`RATIONAL` grammar with int arithmetic alone, as the scenario reader
(`cli._check`) does for every half-integer entry.  `half_str` renders
the int 2x as `rat_str` renders x, without building the Fraction.
Scenario files store rationals as strings like "3/2", "-1/2" or "2", the
grammar `RATIONAL` matches; these helpers round-trip that format
losslessly.
"""

from __future__ import annotations

import re
from fractions import Fraction

HALF = Fraction(1, 2)
RATIONAL = re.compile(r"\s*[-+]?[0-9]+(/[0-9]+)?\s*")  # "p/q" or "p": no decimals or exponents


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
    """Canonical "p/q" (or "p") rendering of a Fraction or an int, as used in
    scenario files and reports."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def half_str(x2: int) -> str:
    """`rat_str` of x2/2 for an int x2, without building the Fraction."""
    return f"{x2}/2" if x2 % 2 else str(x2 // 2)


def doubled(x: Fraction):
    """2x as an int when x lies in (1/2)Z, else None."""
    if 2 % x.denominator:
        return None
    return x.numerator * (2 // x.denominator)


def doubled_str(text: str):
    """`doubled(rat(text))` for a string in the `RATIONAL` grammar, read
    with int arithmetic and no Fraction.  As in `rat`, a zero denominator
    raises ZeroDivisionError and a part past int's digit limit ValueError."""
    p, _, q = text.strip().partition("/")
    if not q:
        return 2 * int(p)
    x2, r = divmod(2 * int(p), int(q))
    return None if r else x2
