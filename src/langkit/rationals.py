"""Exact rational helpers shared across the package.

Every rational in this library's interfaces is a `fractions.Fraction`.
The kernels that only ever see half-integers (`weyl`, the `spectra`
ladders, `satake` q-exponents and the `arch` infinitesimal characters)
hold a half-integer x as the int 2x instead: `doubled` is the one
conversion into that form, applied once where a value is parsed, and a
Fraction is built again only at the edges, in `rat_str` output, report
strings and where the ledger or pole layer reads a value.  In `weyl` the
roots, 2ρ and the shifted weights are ints from the moment a `Weight` is
passed in until `kostant_weights` returns, and `Weight.coords` stay
Fractions at the interface: `Weight(coords)` passes each coordinate
through `rat` and `doubled`, while `kostant_weights` builds x/2 once per
distinct doubled value x in a call, through a table local to that call,
and skips the check on values it made half-integral.  Scenario files
store rationals as strings like "3/2", "-1/2" or "2"; these helpers
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


def doubled(x: Fraction):
    """2x as an int when x lies in (1/2)Z, else None."""
    if 2 % x.denominator:
        return None
    return x.numerator * (2 // x.denominator)

