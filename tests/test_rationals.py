from fractions import Fraction

from langkit.rationals import half_str, rat_str


def test_half_str_renders_as_rat_str():
    big = 10**30
    for x2 in [*range(-1000, 1001), big, -big, big + 1, -big - 1]:
        assert half_str(x2) == rat_str(Fraction(x2, 2)), x2
