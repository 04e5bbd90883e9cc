"""Descriptors for the ambient groups, and the moduli of their parabolics.

Covers the split symplectic and orthogonal families, general linear groups
(possibly restricted from a quadratic extension), and quasi-split unitary
groups, each built as `GroupDescriptor(family, size)` from one of the
family constants below.  A standard maximal Levi GL_r × core is named by
its ambient group and r.  The operations compute modular characters as
exact exponents and the grading of the dual group's unipotent radical
(`dual_radical`).

Unitary-group modulus exponents are exponents of the extension-field
absolute value |·|_E; for the split families the Borel exponents are the
coordinates of the positive-root sum.  `selftest` checks every closed form
against the radical roots that `weyl` enumerates.
"""

from __future__ import annotations

from fractions import Fraction

from .record import Record

GL = "GL"
RES_GL = "ResGL"
SP = "Sp"
SO_ODD = "SOodd"
SO_EVEN = "SOeven"
UNITARY = "U"

_FAMILIES = (GL, RES_GL, SP, SO_ODD, SO_EVEN, UNITARY)


class GroupError(ValueError):
    pass


class GroupDescriptor(Record):
    """One of GL(N), Res_{E/F}GL(N), Sp(2n), SO(2n+1), SO(2n), U(N).

    ``size`` is an int, as the scenario reader checks it: N for the linear
    and unitary families, n for Sp/SO (so the matrix size is 2n resp.
    2n±1).  SO(2n) is the split form, the one the Eisenstein constructions
    induce from, labelled SO{2n}^1 after its trivial discriminant.
    """

    _fields = ("family", "size")

    def __init__(self, family: str, size: int):
        if family not in _FAMILIES:
            raise GroupError(f"unknown family {family!r}")
        if family in (GL, RES_GL):
            if size < 1:
                raise GroupError("linear groups need size ≥ 1")
        elif size < 0:
            raise GroupError("size must be ≥ 0")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "size", size)

    def label(self) -> str:
        if self.family == SP:
            return f"Sp{2 * self.size}"
        if self.family == SO_ODD:
            return f"SO{2 * self.size + 1}"
        if self.family == SO_EVEN:
            return f"SO{2 * self.size}^1"
        if self.family == UNITARY:
            return f"U{self.size}"
        if self.family == RES_GL:
            return f"ResGL{self.size}"
        return f"GL{self.size}"


# how many coordinates of the ambient rank (for U(N), of N) a GL_r block takes, per r
_BLOCK_STEP = {SP: 1, SO_ODD: 1, SO_EVEN: 1, UNITARY: 2}


def _levi_core(group: GroupDescriptor, r: int) -> GroupDescriptor:
    """The core of the standard maximal Levi GL_r × core of a classical or
    unitary group; raises when the group has no such Levi."""
    step = _BLOCK_STEP.get(group.family)
    if step is None or not 1 <= r <= group.size // step:
        raise GroupError(f"{group.label()} has no maximal Levi with a block of size {r}")
    return GroupDescriptor(group.family, group.size - step * r)


def modulus_levi(group: GroupDescriptor, r: int) -> Fraction:
    """Exponent x with δ_P = |det|^x on the GL_r block of the standard
    maximal parabolic of ``group``.

    Unitary case: x = r + m with core U_m (exponent of |·|_E).  Split
    families: the positive-root sum over the unipotent radical, restricted
    to the block determinant.
    """
    core = _levi_core(group, r)
    if group.family == UNITARY:
        return Fraction(r + core.size)
    return Fraction(2 * group.size - r + {SP: 1, SO_ODD: 0, SO_EVEN: -1}[group.family])


def modulus_borel(group: GroupDescriptor) -> tuple:
    """Borel modulus exponents per torus coordinate.

    U_N: (N-1, N-3, ..., ε+1) as exponents of |·|_E, N = 2m+ε.  Split
    families: the coordinates of the positive-root sum.
    """
    if group.family == UNITARY:
        N = group.size
        m = N // 2
        return tuple(Fraction(N - 1 - 2 * i) for i in range(m))
    if group.family == SP:
        n = group.size
        return tuple(Fraction(2 * n - 2 * i) for i in range(n))
    if group.family == SO_ODD:
        n = group.size
        return tuple(Fraction(2 * n - 1 - 2 * i) for i in range(n))
    if group.family == SO_EVEN:
        n = group.size
        return tuple(Fraction(2 * n - 2 - 2 * i) for i in range(n))
    N = group.size  # GL, RES_GL
    return tuple(Fraction(N - 1 - 2 * i) for i in range(N))


def borel_modulus_compose(group: GroupDescriptor, r: int) -> bool:
    """δ_B = δ_P · δ_{B∩M}^M on the torus, for the maximal Levi of block r."""
    full = modulus_borel(group)
    core = _levi_core(group, r)
    x = modulus_levi(group, r)
    # on the torus the GL_r block contributes δ_P exponent x on each of the
    # first r coordinates, and δ^M_{B∩M} the GL_r and core Borel exponents
    gl_part = modulus_borel(GroupDescriptor(RES_GL if group.family == UNITARY else GL, r))
    core_part = modulus_borel(core) if core.size else ()
    composed = tuple(x + g for g in gl_part) + tuple(core_part)
    return composed == full


# the square factor of a block by ambient family, degree 2 of the dual radical
SQUARE = {SP: "wedge2", SO_ODD: "sym2", SO_EVEN: "wedge2", UNITARY: "asai"}


def dual_radical(family: str, n: int, c: int) -> dict:
    """Grading of the dual group's unipotent radical for a GL_n block over a
    core of size c, as {degree: dimension} without the empty degrees: degree
    1 is the block times the core's standard representation (n·(2c+1) for
    Sp, n·2c for SO, 2nc for U), degree 2 the block's square `SQUARE`."""
    if family not in SQUARE or n < 1 or c < 0:
        raise GroupError(f"no dual radical for {family} with block {n} over core {c}")
    one = n * (2 * c + 1 if family == SP else 2 * c)
    two = {"wedge2": n * (n - 1) // 2, "sym2": n * (n + 1) // 2, "asai": n * n}[SQUARE[family]]
    return {degree: dim for degree, dim in ((1, one), (2, two)) if dim}


def ambient_with_block(rho_duality: str, r: int, t: int) -> GroupDescriptor:
    """Ambient group containing GL_r × (core of the degree-t parameter), by
    the duality type of that parameter: symplectic ⇒ odd orthogonal;
    orthogonal of odd degree ⇒ symplectic; orthogonal of even degree ⇒
    split even orthogonal.  A symplectic parameter has even degree t, as
    `spectra.CuspidalRecord` makes it."""
    n = r + t // 2
    if rho_duality == "symplectic":
        return GroupDescriptor(SO_ODD, n)
    if rho_duality == "orthogonal":
        return GroupDescriptor(SP if t % 2 == 1 else SO_EVEN, n)
    raise GroupError(f"no ambient group for duality {rho_duality!r}")
