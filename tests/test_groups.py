from fractions import Fraction

import pytest

from langkit import groups, selftest
from langkit.groups import (
    GroupError,
    borel_modulus_compose,
    maximal_levi,
    modulus_borel,
    modulus_levi,
    so_even,
    so_odd,
    sp,
    unitary,
)
from langkit.selftest import _borel_root_sum, _levi_root_sum


class TestModulusLevi:
    def test_unitary_small(self):
        # block 1 over core U_1 inside U_3
        assert modulus_levi(maximal_levi(unitary(3), 1)) == 2
        # block 2 over core U_1 inside U_5
        assert modulus_levi(maximal_levi(unitary(5), 2)) == 3

    def test_siegel_symplectic(self):
        assert modulus_levi(maximal_levi(sp(2), 2)) == 3

    @pytest.mark.parametrize("n", range(1, 5))
    def test_split_families_against_root_sum(self, n):
        for r in range(1, n + 1):
            for make in (sp, so_odd, so_even):
                levi = maximal_levi(make(n), r)
                assert modulus_levi(levi) == _levi_root_sum(make(n), r)

    @pytest.mark.parametrize("N", range(2, 10))
    def test_unitary_against_root_sum(self, N):
        for r in range(1, N // 2 + 1):
            levi = maximal_levi(unitary(N), r)
            assert modulus_levi(levi) == _levi_root_sum(unitary(N), r)

    def test_needs_maximal(self):
        from langkit.groups import LeviDescriptor

        levi = LeviDescriptor(((1, "F"), (1, "F")), sp(1), sp(3))
        with pytest.raises(GroupError):
            modulus_levi(levi)


class TestModulusBorel:
    def test_unitary_values(self):
        assert modulus_borel(unitary(2)) == (Fraction(1),)
        assert modulus_borel(unitary(5)) == (Fraction(4), Fraction(2))
        assert modulus_borel(unitary(9)) == tuple(map(Fraction, (8, 6, 4, 2)))

    def test_symplectic(self):
        assert modulus_borel(sp(2)) == (Fraction(4), Fraction(2))

    @pytest.mark.parametrize("N", range(1, 10))
    def test_unitary_oracle(self, N):
        assert modulus_borel(unitary(N)) == _borel_root_sum(unitary(N))

    def test_split_oracle(self):
        for n in range(1, 5):
            for g in (sp(n), so_odd(n), so_even(n)):
                assert modulus_borel(g) == _borel_root_sum(g)

    def test_compositionality(self):
        for N in range(2, 10):
            for r in range(1, N // 2 + 1):
                assert borel_modulus_compose(unitary(N), r)
        for n in range(1, 5):
            for r in range(1, n + 1):
                assert borel_modulus_compose(sp(n), r)
                assert borel_modulus_compose(so_odd(n), r)
                assert borel_modulus_compose(so_even(n), r)


@pytest.mark.parametrize(
    "name,family",
    [
        ("modulus_levi", groups.SP),
        ("modulus_levi", groups.UNITARY),
        ("modulus_borel", groups.SO_ODD),
    ],
)
def test_modulus_suite_catches_an_off_by_one(monkeypatch, name, family):
    """An off-by-one closed form for one family fails the root-sum oracle of
    `selftest`, and only the modulus suite."""
    closed = getattr(groups, name)

    def wrong(arg):  # a maximal Levi or a group
        value = closed(arg)
        if getattr(arg, "ambient", arg).family != family:
            return value
        return value - 1 if name == "modulus_levi" else value[:-1] + (value[-1] + 1,)

    monkeypatch.setattr(groups, name, wrong)
    lines, ok = selftest.run_all()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert not ok and len(failed) == 1
    assert failed[0].startswith("FAIL _suite_modulus: ") and "mismatch" in failed[0]
