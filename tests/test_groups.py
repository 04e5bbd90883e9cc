from fractions import Fraction

import pytest

from langkit import groups, selftest
from langkit.groups import (
    SO_EVEN,
    SO_ODD,
    SP,
    UNITARY,
    GroupDescriptor,
    GroupError,
    ambient_with_block,
    borel_modulus_compose,
    dual_radical,
    modulus_borel,
    modulus_levi,
)
from langkit.selftest import _borel_root_sum, _levi_root_sum


class TestModulusLevi:
    def test_unitary_small(self):
        # block 1 over core U_1 inside U_3
        assert modulus_levi(GroupDescriptor(UNITARY, 3), 1) == 2
        # block 2 over core U_1 inside U_5
        assert modulus_levi(GroupDescriptor(UNITARY, 5), 2) == 3

    def test_siegel_symplectic(self):
        assert modulus_levi(GroupDescriptor(SP, 2), 2) == 3

    @pytest.mark.parametrize("n", range(1, 5))
    def test_split_families_against_root_sum(self, n):
        for r in range(1, n + 1):
            for group in (GroupDescriptor(fam, n) for fam in (SP, SO_ODD, SO_EVEN)):
                assert modulus_levi(group, r) == _levi_root_sum(group, r)

    @pytest.mark.parametrize("N", range(2, 10))
    def test_unitary_against_root_sum(self, N):
        for r in range(1, N // 2 + 1):
            group = GroupDescriptor(UNITARY, N)
            assert modulus_levi(group, r) == _levi_root_sum(group, r)

    @pytest.mark.parametrize(
        "family,size,r",
        [("Sp", 3, 0), ("Sp", 3, 4), ("SOodd", 2, -1), ("SOeven", 2, 3), ("U", 5, 3),
         ("U", 1, 1), ("GL", 3, 1)],
    )
    def test_block_out_of_range(self, family, size, r):
        group = GroupDescriptor(family, size)
        with pytest.raises(GroupError, match="has no maximal Levi"):
            modulus_levi(group, r)
        with pytest.raises(GroupError, match="has no maximal Levi"):
            borel_modulus_compose(group, r)


class TestModulusBorel:
    def test_unitary_values(self):
        assert modulus_borel(GroupDescriptor(UNITARY, 2)) == (Fraction(1),)
        assert modulus_borel(GroupDescriptor(UNITARY, 5)) == (Fraction(4), Fraction(2))
        assert modulus_borel(GroupDescriptor(UNITARY, 9)) == tuple(map(Fraction, (8, 6, 4, 2)))

    def test_symplectic(self):
        assert modulus_borel(GroupDescriptor(SP, 2)) == (Fraction(4), Fraction(2))

    @pytest.mark.parametrize("N", range(1, 10))
    def test_unitary_oracle(self, N):
        group = GroupDescriptor(UNITARY, N)
        assert modulus_borel(group) == _borel_root_sum(group)

    def test_split_oracle(self):
        for n in range(1, 5):
            for g in (GroupDescriptor(fam, n) for fam in (SP, SO_ODD, SO_EVEN)):
                assert modulus_borel(g) == _borel_root_sum(g)

    def test_compositionality(self):
        for N in range(2, 10):
            for r in range(1, N // 2 + 1):
                assert borel_modulus_compose(GroupDescriptor(UNITARY, N), r)
        for n in range(1, 5):
            for r in range(1, n + 1):
                for fam in (SP, SO_ODD, SO_EVEN):
                    assert borel_modulus_compose(GroupDescriptor(fam, n), r)


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

    def wrong(group, *block):  # modulus_levi also takes the block size
        value = closed(group, *block)
        if group.family != family:
            return value
        return value - 1 if name == "modulus_levi" else value[:-1] + (value[-1] + 1,)

    for module in (groups, selftest):  # selftest binds the name at import
        monkeypatch.setattr(module, name, wrong)
    lines, ok = selftest.run_all()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert not ok and len(failed) == 1
    assert failed[0].startswith("FAIL _suite_modulus: ") and "mismatch" in failed[0]


@pytest.mark.parametrize("family", sorted(groups.SQUARE))
def test_grading_suite_catches_a_wrong_square(monkeypatch, family):
    """Sym² read for ∧², ∧² for Sym², or n² − n for the Asai square, in one
    family, fails the root oracle of `selftest`'s grading suite."""

    def wrong(fam, n, c):
        grading = dual_radical(fam, n, c)
        if fam == family:
            grading[2] = grading.get(2, 0) + (n if groups.SQUARE[fam] == "wedge2" else -n)
        return grading

    monkeypatch.setattr(selftest, "dual_radical", wrong)
    with pytest.raises(AssertionError, match=f"grading mismatch \\('{family}'"):
        selftest._suite_grading_and_operator()


@pytest.mark.parametrize("duality", ["symplectic", "orthogonal"])
def test_ambient_with_block_fills_degree_one_of_the_dual_radical(duality):
    """The block GL_r and the degree-t core record fill degree 1 of the dual
    radical of the ambient group that `ambient_with_block` picks, for every
    core degree t of its domain: a symplectic record has even degree."""
    accepted = 0
    for r in range(1, 5):
        for t in range(1, 10):
            if duality == "symplectic" and t % 2:
                continue
            amb = ambient_with_block(duality, r, t)
            assert dual_radical(amb.family, r, amb.size - r)[1] == r * t
            accepted += 1
    assert accepted == (16 if duality == "symplectic" else 36)


def test_even_orthogonal_has_one_descriptor():
    for n in range(4):
        group = GroupDescriptor(groups.SO_EVEN, n)
        again = GroupDescriptor(SO_EVEN, n)
        assert group == again and hash(group) == hash(again)
        assert group.label() == f"SO{2 * n}^1"
    assert GroupDescriptor._fields == ("family", "size")
    # the core of a maximal Levi is the split form again
    assert groups._levi_core(GroupDescriptor(groups.SO_EVEN, 3), 1) == GroupDescriptor(SO_EVEN, 2)
