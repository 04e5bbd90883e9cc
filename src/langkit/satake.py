"""Symbolic Satake-eigenvalue calculus with a modeled coefficient action.

An eigenvalue is sign·q^e·u where e is an exact half-integer, q a formal
residue-cardinality symbol attached to a place, and u a word in a free
abelian group of opaque unit symbols.  The kernel holds e doubled, as the
int 2e, and u in normal form; `ev` and `parse_eigenvalue` take e as a
rational and u as tokens or pairs, and normalize both once.  A field
automorphism is modeled by the only data the computations use: a
permutation of the unit symbols (compatible with inversion) and the sign
eps = a(q^{1/2})/q^{1/2}, the same at every place.  Equality of
eigenvalues is syntactic on the normal form.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction

from .groups import GL, RES_GL, SO_EVEN, SO_ODD, SP, UNITARY, GroupDescriptor
from .rationals import doubled, rat, rat_str
from .record import Record


class SatakeError(ValueError):
    pass


_UNIT_TOKEN = re.compile(r"^(?P<sym>[A-Za-z_][A-Za-z_0-9]*)(\^(?P<exp>-?\d+))?$")


def _normalize_unit(unit) -> tuple:
    """Normal form of tokens "u^k" or (symbol, exponent) pairs: the sorted
    tuple of (symbol, nonzero exponent), equal symbols merged."""
    acc: dict = {}
    if isinstance(unit, str):
        unit = [unit] if unit else []
    for item in unit:
        if isinstance(item, str):
            m = _UNIT_TOKEN.match(item)
            if not m:
                raise SatakeError(f"bad unit token {item!r}")
            sym, exp = m.group("sym"), int(m.group("exp") or 1)
        else:
            sym, exp = item
        acc[sym] = acc.get(sym, 0) + int(exp)
    return tuple(sorted((s, e) for s, e in acc.items() if e != 0))


class Eigenvalue(Record):
    """sign · q^{q2/2} · unit, in normal form.

    The half-integral q-exponent is held doubled as the int ``q2``, so the
    products, inverses and transports below never build a `Fraction`; one
    appears only in `serialize` and in the read-only view `q_exp`.  The
    ``unit`` must already be in normal form: it is normalized only where it
    is parsed (`ev`, `parse_eigenvalue`) or merged (`__mul__`, `apply_unit`).
    """

    _fields = ("q2", "unit", "sign")

    def __init__(self, q2: int, unit: tuple = (), sign: int = 1):
        if type(q2) is not int:
            raise SatakeError(f"doubled q-exponent must be an int, not {q2!r}")
        if type(unit) is not tuple or not all(
            type(p) is tuple and len(p) == 2 and type(p[0]) is str and type(p[1]) is int and p[1]
            for p in unit
        ) or any(a[0] >= b[0] for a, b in zip(unit, unit[1:])):
            raise SatakeError(
                f"unit must be a sorted tuple of (symbol, nonzero int) pairs: {unit!r}"
            )
        if sign not in (1, -1):
            raise SatakeError("sign must be ±1")
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "sign", sign)

    @property
    def q_exp(self) -> Fraction:
        return Fraction(self.q2, 2)

    def __mul__(self, other: "Eigenvalue") -> "Eigenvalue":
        unit = _normalize_unit(self.unit + other.unit)
        return Eigenvalue(self.q2 + other.q2, unit, self.sign * other.sign)

    def inverse(self) -> "Eigenvalue":
        return Eigenvalue(-self.q2, tuple((s, -e) for s, e in self.unit), self.sign)

    def scaled(self, sign: int = 1, shift2: int = 0) -> "Eigenvalue":
        """Multiply by sign·q^{shift2/2}."""
        return Eigenvalue(self.q2 + shift2, self.unit, self.sign * sign)

    def serialize(self) -> str:
        parts = []
        if self.q2:
            parts.append(f"q^{rat_str(self.q_exp)}")
        for s, e in self.unit:
            parts.append(s if e == 1 else f"{s}^{e}")
        body = "*".join(parts) if parts else "1"
        return body if self.sign == 1 else "-" + body

    def sort_key(self):
        return (self.q2, self.unit, self.sign)

    def __str__(self):
        return self.serialize()


def _doubled(q_exp: Fraction) -> int:
    """2·q_exp as an int; the q-exponent must be a half-integer."""
    q2 = doubled(q_exp)
    if q2 is None:
        raise SatakeError(f"q-exponent {q_exp} is not half-integral")
    return q2


def ev(q_exp=0, unit=(), sign=1) -> Eigenvalue:
    """The eigenvalue sign·q^{q_exp}·unit, for a rational q_exp."""
    return Eigenvalue(_doubled(rat(q_exp)), _normalize_unit(unit), sign)


ONE = ev()


def parse_eigenvalue(text: str) -> Eigenvalue:
    """Inverse of `Eigenvalue.serialize`: "[-]q^<p/q>*u1*u2^-1" and "1"."""
    s = text.strip()
    sign = 1
    if s.startswith("-"):
        sign, s = -1, s[1:].strip()
    if s in ("", "1"):
        return Eigenvalue(0, (), sign)
    q_exp = Fraction(0)
    unit = []
    for token in s.split("*"):
        token = token.strip()
        if token.startswith("q^"):
            try:
                q_exp += rat(token[2:])
            except ZeroDivisionError:
                raise SatakeError(f"q-exponent {token[2:]} has a zero denominator") from None
        elif token == "q":
            q_exp += 1
        elif token == "1":
            continue
        else:
            unit.append(token)
    return Eigenvalue(_doubled(q_exp), _normalize_unit(unit), sign)


class SatakeClass(Record):
    """Multiset of eigenvalues tagged by group family and place."""

    _fields = ("eigenvalues", "family", "place")

    def __init__(self, eigenvalues: tuple, family: GroupDescriptor, place: str = "v"):
        object.__setattr__(self, "eigenvalues", tuple(sorted(eigenvalues, key=Eigenvalue.sort_key)))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "place", place)

    def multiset(self):
        return sorted(e.sort_key() for e in self.eigenvalues)

    def map_eigenvalues(self, fn) -> "SatakeClass":
        return SatakeClass(tuple(fn(e) for e in self.eigenvalues), self.family, self.place)

    def is_inversion_stable(self) -> bool:
        """Multiset equality with its eigenvalue-wise inverse."""
        inv = sorted(e.inverse().sort_key() for e in self.eigenvalues)
        return inv == self.multiset()

    def serialize(self) -> list:
        return [e.serialize() for e in self.eigenvalues]

    def __str__(self):
        return "{" + ", ".join(self.serialize()) + "}"


class AutModel(Record):
    """Coefficient automorphism through its effect on unit symbols and on
    the square root of the residue cardinality at each place.

    ``unit_map`` permutes unit symbols; ``eps`` is the sign 1 or -1 (an
    int, never a bool), the same at every place.
    """

    _fields = ("unit_map", "eps")

    def __init__(self, unit_map: tuple = (), eps: int = 1):
        """``unit_map`` is a tuple of (symbol, image) pairs whose images are
        its symbols; a missing symbol is fixed, and fixed pairs are dropped,
        so equal models act alike."""
        table = dict(unit_map)
        if set(table) != set(table.values()):
            raise SatakeError("unit_map must be a bijection on symbols")
        if type(eps) is not int or eps not in (1, -1):
            raise SatakeError(f"eps must be the int 1 or -1, not {eps!r}")
        pairs = tuple(sorted((s, d) for s, d in table.items() if s != d))
        object.__setattr__(self, "unit_map", pairs)
        object.__setattr__(self, "eps", eps)

    def map_symbol(self, sym: str) -> str:
        return dict(self.unit_map).get(sym, sym)

    def apply_unit(self, unit: tuple) -> tuple:
        return _normalize_unit([(self.map_symbol(s), e) for s, e in unit])

    def raw(self, e: Eigenvalue) -> Eigenvalue:
        """Plain coefficient transport a(sign·q^e·u): q^{1/2} ↦ eps·q^{1/2},
        units permuted."""
        twist = -1 if (self.eps == -1 and e.q2 % 2 == 1) else 1
        return Eigenvalue(e.q2, self.apply_unit(e.unit), e.sign * twist)

    def compose(self, other: "AutModel") -> "AutModel":
        """self ∘ other: unit maps compose, eps values multiply."""
        table = dict(other.unit_map)
        composed = {}
        syms = set(table) | set(dict(self.unit_map))
        for s in syms:
            composed[s] = self.map_symbol(other.map_symbol(s))
        return AutModel(tuple(sorted(composed.items())), self.eps * other.eps)


IDENTITY_AUT = AutModel()


def eps_m(aut: AutModel, m: int) -> int:
    """Sign a(q^{(m-1)/2})·q^{-(m-1)/2}: +1 for m odd, eps for m even."""
    return aut.eps ** ((m - 1) % 2)


def _twist_parity(family: GroupDescriptor) -> int:
    """0 when plain transport is exact, 1 when the determinant-type square
    root twist is needed (even linear and even unitary families, and odd
    orthogonal groups through their similitude cover)."""
    fam = family.family
    if fam == SP:
        return 0
    if fam in (GL, RES_GL, UNITARY):
        return 0 if family.size % 2 == 1 else 1
    if fam == SO_EVEN:
        return 0
    if fam == SO_ODD:
        return 1
    raise SatakeError(f"unsupported family {fam}")


def act(aut: AutModel, cls: SatakeClass) -> SatakeClass:
    """Transport of a Satake class along the modeled automorphism.

    Families whose transform is rational without a twist (symplectic, odd
    linear/unitary, even orthogonal) transport eigenvalue atoms plainly:
    q-exponents and signs unchanged, units mapped.  The twisted families
    (even linear/unitary, odd orthogonal through the similitude cover)
    acquire the square-root normalization sign eps^{2e-1} on sign·q^e·u.
    """
    twist = _twist_parity(cls.family)
    eps = aut.eps

    def one(e: Eigenvalue) -> Eigenvalue:
        # eps^{2e-1} is -1 exactly when eps = -1 and 2e is even
        sign = -1 if (twist and eps == -1 and e.q2 % 2 == 0) else 1
        return Eigenvalue(e.q2, aut.apply_unit(e.unit), e.sign * sign)

    return cls.map_eigenvalues(one)


# ---------------------------------------------------------------------------
# the base-change transport chain


def _scale_class(evs: Iterable[Eigenvalue], sign: int) -> list:
    return [e.scaled(sign=sign) for e in evs]


def bc_chain_check(
    n: int,
    r: int,
    aut: AutModel,
    pi_units: Iterable[Eigenvalue] | None = None,
    rho_units: Iterable[Eigenvalue] | None = None,
):
    """Replay the sign bookkeeping that identifies the transported residual
    parameter, and compare with the direct target form.

    Left side: the base change of the transported degree-(2n+r) class,
    computed step by step through the eps_m twists.  Right side:
    diag(q^{1/2}, q^{-1/2}) ⊗ (twisted transport of the degree-n class)
    ⊕ (transport of the degree-r class).  Returns (ok, steps, mismatch).
    """
    if n < 1 or r < 0:
        raise SatakeError("need n ≥ 1 and r ≥ 0")
    N = 2 * n + r
    Mpi = (
        list(pi_units)
        if pi_units is not None
        else [Eigenvalue(0, ((f"u{i}", 1),)) for i in range(1, n + 1)]
    )
    Mrho = (
        list(rho_units)
        if rho_units is not None
        else [Eigenvalue(0, ((f"w{j}", 1),)) for j in range(1, r + 1)]
    )
    e_N, e_n, e_r, e_0 = (eps_m(aut, m) for m in (N, n, r, 0))

    def rawA(evs):
        return [aut.raw(e) for e in evs]

    steps = []
    # base change of the residual class: the two half shifts of the degree-n
    # part plus the degree-r part
    bc_residual = (
        [e.scaled(shift2=1) for e in Mpi]
        + [e.scaled(shift2=-1) for e in Mpi]
        + list(Mrho)
    )
    steps.append("push the residual class through base change: two half shifts plus the core")
    lhs = _scale_class(rawA(bc_residual), e_N)
    steps.append("transport and absorb the degree-(2n+r) normalization sign")

    # target form, built from the per-factor transports
    a_pi = _scale_class(rawA(Mpi), e_n)  # transported degree-n class
    a_pi_tilde = _scale_class(a_pi, eps_m(aut, n + r))  # half-twisted transport
    a_rho = _scale_class(rawA(Mrho), e_r)
    rhs = (
        [e.scaled(shift2=1) for e in a_pi_tilde]
        + [e.scaled(shift2=-1) for e in a_pi_tilde]
        + _scale_class(a_rho, e_N * e_r)
    )
    steps.append(
        "target: half shifts of the twisted transported degree-n class plus the "
        "transported degree-r class"
    )
    steps.append(f"sign identities used: e_N*e_n*e_0 = e_{{n+r}} ({e_N*e_n*e_0} = "
                 f"{eps_m(aut, n + r)}), e_N*e_r = 1 ({e_N * e_r})")

    left = sorted(e.sort_key() for e in lhs)
    right = sorted(e.sort_key() for e in rhs)
    if left == right:
        return True, steps, None
    mism = [k for k in left if k not in right] + [k for k in right if k not in left]
    return False, steps, mism


def eps_identities_hold(aut: AutModel, n: int, r: int) -> bool:
    """e_N·e_n·e_0 = e_{n+r} and e_N·e_r = 1 for N = 2n+r."""
    N = 2 * n + r
    lhs1 = eps_m(aut, N) * eps_m(aut, n) * eps_m(aut, 0)
    ok1 = lhs1 == eps_m(aut, n + r)
    ok2 = eps_m(aut, N) * eps_m(aut, r) == 1
    return ok1 and ok2
