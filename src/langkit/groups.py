"""Descriptors for the ambient groups and their maximal Levis.

Covers the split symplectic and orthogonal families, general linear groups
(possibly restricted from a quadratic extension), and quasi-split unitary
groups.  The operations compute modular characters as exact exponents.

Unitary-group modulus exponents are exponents of the extension-field
absolute value |·|_E; for the split families the Borel exponents are the
coordinates of the positive-root sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

GL = "GL"
RES_GL = "ResGL"
SP = "Sp"
SO_ODD = "SOodd"
SO_EVEN = "SOeven"
UNITARY = "U"

_FAMILIES = (GL, RES_GL, SP, SO_ODD, SO_EVEN, UNITARY)


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class GroupDescriptor:
    """One of GL(N), Res_{E/F}GL(N), Sp(2n), SO(2n+1), SO(2n)^α, U(N).

    ``size`` is N for the linear and unitary families, n for Sp/SO (so the
    matrix size is 2n resp. 2n±1).  ``alpha`` tags the even orthogonal
    discriminant; ``extension`` tags E/F where one is involved.  Both tags
    are opaque labels, only compared for equality.
    """

    family: str
    size: int
    alpha: str = ""
    extension: str = ""

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise GroupError(f"unknown family {self.family!r}")
        if self.family in (GL, RES_GL):
            if self.size < 1:
                raise GroupError("linear groups need size ≥ 1")
        elif self.size < 0:
            raise GroupError("size must be ≥ 0")
        if self.family in (RES_GL, UNITARY) and not self.extension:
            object.__setattr__(self, "extension", "E/F")

    @property
    def std_degree(self) -> int:
        """Degree of the standard representation of the dual side."""
        if self.family in (GL, RES_GL, UNITARY):
            return self.size
        if self.family == SP:
            return 2 * self.size + 1  # dual is odd orthogonal
        if self.family == SO_ODD:
            return 2 * self.size  # dual is symplectic
        return 2 * self.size

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


def res_gl(N: int) -> GroupDescriptor:
    return GroupDescriptor(RES_GL, N)


@dataclass(frozen=True)
class LeviDescriptor:
    """GL blocks (with base-field tags) times a core of the ambient type."""

    gl_blocks: tuple  # tuple of (size, field tag)
    core: GroupDescriptor
    ambient: GroupDescriptor

    def __post_init__(self):
        blocks = tuple((int(b), str(f)) for b, f in self.gl_blocks)
        object.__setattr__(self, "gl_blocks", blocks)
        if any(b < 1 for b, _ in blocks):
            raise GroupError("block sizes must be positive")
        total = sum(b for b, _ in blocks)
        amb = self.ambient
        if amb.family == UNITARY:
            if amb.size != 2 * total + self.core.size:
                raise GroupError("blocks do not fit the unitary ambient group")
        elif amb.family in (SP, SO_ODD, SO_EVEN):
            if amb.size != total + self.core.size:
                raise GroupError("blocks do not fit the ambient rank")
        else:
            if amb.size != total + (self.core.size if self.core.family in (GL, RES_GL) else 0):
                raise GroupError("blocks do not fit the ambient group")

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


def modulus_levi_root_sum(levi: LeviDescriptor) -> Fraction:
    """Independent computation of the same exponent by enumerating the roots
    of the unipotent radical and reading off the block-determinant
    coefficient.  Unitary groups use the relative roots with their root
    space dimensions (halved to land on |·|_E)."""
    if not levi.is_maximal:
        raise GroupError("modulus_levi_root_sum needs a maximal Levi")
    r = levi.gl_blocks[0][0]
    amb = levi.ambient
    if amb.family in (SP, SO_ODD, SO_EVEN):
        n = amb.size
        coeff = 0
        # e_i ± e_j with i ≤ r < j
        coeff += 2 * (n - r)
        # e_i + e_j with i < j ≤ r
        coeff += r - 1
        if amb.family == SP:
            coeff += 2  # 2e_i
        elif amb.family == SO_ODD:
            coeff += 1  # e_i
        return Fraction(coeff)
    if amb.family == UNITARY:
        N = amb.size
        m = N // 2
        eps = N % 2
        # relative roots in the radical, with F-dimensions of their spaces;
        # coefficient of e_1 among coordinates 1..r of the block
        coeff_f = 0
        # e_1 - e_j and e_1 + e_j for r < j ≤ m: dimension 2 each
        coeff_f += 2 * 2 * (m - r)
        # e_1 + e_j for 1 < j ≤ r: dimension 2
        coeff_f += 2 * (r - 1)
        # 2e_1: dimension 1
        coeff_f += 2 * 1
        if eps:
            # short root e_1: dimension 2
            coeff_f += 2
        return Fraction(coeff_f, 2)  # |·|_F exponent = 2 × |·|_E exponent
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


def modulus_borel_root_sum(group: GroupDescriptor) -> tuple:
    """Positive-root-sum oracle for `modulus_borel` (unitary groups via
    relative roots with dimensions, halved onto |·|_E)."""
    from .weyl import RootDatum

    fam = group.family
    if fam in (SP, SO_ODD, SO_EVEN):
        datum = RootDatum({SP: "C", SO_ODD: "B", SO_EVEN: "D"}[fam], group.size)
        roots = datum.positive_roots()
        return tuple(sum(r[i] for r in roots) for i in range(group.size))
    if fam in (GL, RES_GL):
        datum = RootDatum("A", group.size - 1)
        roots = datum.positive_roots()
        return tuple(sum(r[i] for r in roots) for i in range(group.size))
    if fam == UNITARY:
        N = group.size
        m = N // 2
        eps = N % 2
        coords = [Fraction(0)] * m
        for i in range(m):
            for j in range(i + 1, m):
                coords[i] += 2
                coords[j] += -2 + 2  # e_i - e_j and e_i + e_j, dim 2 each
                coords[i] += 2
            coords[i] += 2  # 2e_i, dim 1, coefficient 2
            if eps:
                coords[i] += 2  # short root e_i, dim 2
        return tuple(c / 2 for c in coords)
    raise GroupError(f"unsupported family {fam}")


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
