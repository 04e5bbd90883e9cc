"""Descriptors for the ambient groups and their maximal Levis.

Covers the split symplectic and orthogonal families, general linear groups
(possibly restricted from a quadratic extension), and quasi-split unitary
groups.  The operations compute modular characters as exact exponents.

Unitary-group modulus exponents are exponents of the extension-field
absolute value |·|_E; for the split families the Borel exponents are the
coordinates of the positive-root sum.  `selftest` checks every closed form
against root sums enumerated by `weyl`.
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
    """One of GL(N), Res_{E/F}GL(N), Sp(2n), SO(2n+1), SO(2n)^α, U(N).

    ``size`` is N for the linear and unitary families, n for Sp/SO (so the
    matrix size is 2n resp. 2n±1).  ``alpha`` tags the even orthogonal
    discriminant; ``extension`` tags E/F where one is involved.  Both tags
    are opaque labels, only compared for equality.
    """

    _fields = ("family", "size", "alpha", "extension")

    def __init__(self, family: str, size: int, alpha: str = "", extension: str = ""):
        if family not in _FAMILIES:
            raise GroupError(f"unknown family {family!r}")
        if family in (GL, RES_GL):
            if size < 1:
                raise GroupError("linear groups need size ≥ 1")
        elif size < 0:
            raise GroupError("size must be ≥ 0")
        if family in (RES_GL, UNITARY) and not extension:
            extension = "E/F"
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "extension", extension)

    def label(self) -> str:
        if self.family == SP:
            return f"Sp{2 * self.size}"
        if self.family == SO_ODD:
            return f"SO{2 * self.size + 1}"
        if self.family == SO_EVEN:
            return f"SO{2 * self.size}^{self.alpha or '1'}"
        if self.family == UNITARY:
            return f"U{self.size}"
        if self.family == RES_GL:
            return f"ResGL{self.size}"
        return f"GL{self.size}"


def sp(n: int) -> GroupDescriptor:
    return GroupDescriptor(SP, n)


def so_odd(n: int) -> GroupDescriptor:
    return GroupDescriptor(SO_ODD, n)


def so_even(n: int, alpha: str = "1") -> GroupDescriptor:
    return GroupDescriptor(SO_EVEN, n, alpha=alpha)


def unitary(N: int) -> GroupDescriptor:
    return GroupDescriptor(UNITARY, N)


class LeviDescriptor(Record):
    """GL blocks (with base-field tags) times a core of the ambient type."""

    _fields = ("gl_blocks", "core", "ambient")

    def __init__(self, gl_blocks: tuple, core: GroupDescriptor, ambient: GroupDescriptor):
        """``gl_blocks`` is a tuple of (size, field tag)."""
        blocks = tuple((int(b), str(f)) for b, f in gl_blocks)
        if any(b < 1 for b, _ in blocks):
            raise GroupError("block sizes must be positive")
        total = sum(b for b, _ in blocks)
        if ambient.family == UNITARY:
            if ambient.size != 2 * total + core.size:
                raise GroupError("blocks do not fit the unitary ambient group")
        elif ambient.family in (SP, SO_ODD, SO_EVEN):
            if ambient.size != total + core.size:
                raise GroupError("blocks do not fit the ambient rank")
        else:
            if ambient.size != total + (core.size if core.family in (GL, RES_GL) else 0):
                raise GroupError("blocks do not fit the ambient group")
        object.__setattr__(self, "gl_blocks", blocks)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "ambient", ambient)

    @property
    def is_maximal(self) -> bool:
        return len(self.gl_blocks) == 1


def maximal_levi(ambient: GroupDescriptor, r: int) -> LeviDescriptor:
    """The standard maximal Levi with one GL block of size r."""
    if ambient.family == UNITARY:
        core = unitary(ambient.size - 2 * r)
        field = ambient.extension
    elif ambient.family == SP:
        core = sp(ambient.size - r)
        field = "F"
    elif ambient.family == SO_ODD:
        core = so_odd(ambient.size - r)
        field = "F"
    elif ambient.family == SO_EVEN:
        core = so_even(ambient.size - r, ambient.alpha)
        field = "F"
    else:
        raise GroupError("maximal_levi needs a classical or unitary ambient group")
    return LeviDescriptor(((r, field),), core, ambient)


def modulus_levi(levi: LeviDescriptor) -> Fraction:
    """Exponent x with δ_P = |det|^x on the GL block of a maximal Levi.

    Unitary case: x = n + r with block size n and core U_r (exponent of
    |·|_E).  Split families: the positive-root sum over the unipotent
    radical, restricted to the block determinant.
    """
    if not levi.is_maximal:
        raise GroupError("modulus_levi needs a maximal Levi (one GL block)")
    r_block = levi.gl_blocks[0][0]
    amb = levi.ambient
    if amb.family == UNITARY:
        return Fraction(r_block + levi.core.size)
    if amb.family == SP:
        n = amb.size
        return Fraction(2 * n - r_block + 1)
    if amb.family == SO_ODD:
        n = amb.size
        return Fraction(2 * n - r_block)
    if amb.family == SO_EVEN:
        n = amb.size
        return Fraction(2 * n - r_block - 1)
    raise GroupError(f"unsupported ambient family {amb.family}")


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
    if group.family in (GL, RES_GL):
        N = group.size
        return tuple(Fraction(N - 1 - 2 * i) for i in range(N))
    raise GroupError(f"unsupported family {group.family}")


def borel_modulus_compose(group: GroupDescriptor, r: int) -> bool:
    """δ_B = δ_P · δ_{B∩M}^M on the torus, for the maximal Levi of block r."""
    full = modulus_borel(group)
    levi = maximal_levi(group, r)
    x = modulus_levi(levi)
    # on the torus the GL_r block contributes δ_P exponent x on each of the
    # first r coordinates, and δ^M_{B∩M} the GL_r and core Borel exponents
    gl_part = modulus_borel(GroupDescriptor(RES_GL if group.family == UNITARY else GL, r))
    core_part = modulus_borel(levi.core) if levi.core.size else ()
    composed = tuple(x + g for g in gl_part) + tuple(core_part)
    return composed == full


def ambient_with_block(rho_duality: str, r: int, t: int) -> GroupDescriptor:
    """Ambient group containing GL_r × (core of the degree-t parameter), by
    the duality type of that parameter: symplectic ⇒ odd orthogonal;
    orthogonal of odd degree ⇒ symplectic; orthogonal of even degree ⇒ even
    orthogonal with discriminant tag "1"."""
    n = r + t // 2
    if rho_duality == "symplectic":
        if t % 2 != 0:
            raise GroupError("symplectic factors have even degree")
        return so_odd(n)
    if rho_duality == "orthogonal":
        return sp(n) if t % 2 == 1 else so_even(n)
    raise GroupError(f"no ambient group for duality {rho_duality!r}")
