"""Symbolic Satake-eigenvalue calculus with a modeled coefficient action.

An eigenvalue is sign·q^e·u where e is an exact half-integer, q a formal
residue-cardinality symbol attached to a place, and u a word in a free
abelian group of opaque unit symbols.  The kernel holds e doubled, as the
int 2e, and u in normal form; `parse_eigenvalue` reads e as a rational and
u as tokens, and normalizes both once.  A field automorphism σ is modeled
by the only data the computations use: a permutation of the unit symbols
(compatible with inversion), the sign eps = σ(q^{1/2})/q^{1/2}, the same
at every place, and the relabeling of the archimedean embeddings ι ↦ σ∘ι,
which moves infinitesimal characters.  `AutModel` is the one record for σ.
Equality of eigenvalues is syntactic on the normal form.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from fractions import Fraction

from .groups import GL, RES_GL, SO_EVEN, SO_ODD, SP, UNITARY, GroupDescriptor
from .rationals import RATIONAL, doubled, half_str, rat
from .record import Record


class SatakeError(ValueError):
    pass


_UNIT_TOKEN = re.compile(r"^(?P<sym>[A-Za-z_][A-Za-z_0-9]*)(\^(?P<exp>-?\d+))?$")


def _normalize_unit(unit) -> tuple:
    """Normal form of tokens "u^k" or (symbol, exponent) pairs: the sorted
    tuple of (symbol, nonzero exponent), equal symbols merged."""
    acc: dict = {}
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
    transports below never build a `Fraction` and `serialize` renders it
    with `half_str`.  The ``unit`` is in normal form and ``sign`` is ±1:
    every eigenvalue is parsed (`parse_eigenvalue` normalizes), transported
    (`AutModel.apply_unit` keeps the normal form) or a generic unit of
    `bc_chain_check`.
    """

    _fields = ("q2", "unit", "sign")

    def __init__(self, q2: int, unit: tuple = (), sign: int = 1):
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "sign", sign)

    def scaled(self, sign: int = 1, shift2: int = 0) -> "Eigenvalue":
        """Multiply by sign·q^{shift2/2}."""
        return Eigenvalue(self.q2 + shift2, self.unit, self.sign * sign)

    def serialize(self) -> str:
        parts = []
        if self.q2:
            parts.append(f"q^{half_str(self.q2)}")
        for s, e in self.unit:
            parts.append(s if e == 1 else f"{s}^{e}")
        body = "*".join(parts) if parts else "1"
        return body if self.sign == 1 else "-" + body

    def sort_key(self):
        return (self.q2, self.unit, self.sign)


def parse_eigenvalue(text: str) -> Eigenvalue:
    """Inverse of `Eigenvalue.serialize`: "[-]q^<p/q>*u1*u2^-1" and "1";
    each q-exponent is a scenario rational, in the `RATIONAL` grammar."""
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
            if not RATIONAL.fullmatch(token[2:]):
                raise SatakeError(f'q-exponent {token[2:]} must be an integer or a "p/q" string')
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
    q2 = doubled(q_exp)
    if q2 is None:
        raise SatakeError(f"q-exponent {q_exp} is not half-integral")
    return Eigenvalue(q2, _normalize_unit(unit), sign)


class SatakeClass(Record):
    """Multiset of eigenvalues tagged by group family, one per dimension of
    the family's standard dual representation: N for GL(N), ResGL(N) and
    U(N), 2n+1 for Sp(2n), 2n for SO(2n+1) and SO(2n).  It names no place:
    eps, the one datum of the action a place could change, is the same
    sign at every place."""

    _fields = ("eigenvalues", "family")

    def __init__(self, eigenvalues: tuple, family: GroupDescriptor):
        eigenvalues = tuple(sorted(eigenvalues, key=Eigenvalue.sort_key))
        n = family.size
        dim = {SP: 2 * n + 1, SO_ODD: 2 * n, SO_EVEN: 2 * n}.get(family.family, n)
        if len(eigenvalues) != dim:
            raise SatakeError(f"{family.label()} takes {dim} eigenvalues, not {len(eigenvalues)}")
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "family", family)

    def map_eigenvalues(self, fn) -> "SatakeClass":
        return SatakeClass(tuple(fn(e) for e in self.eigenvalues), self.family)

    def serialize(self) -> list:
        return [e.serialize() for e in self.eigenvalues]


class AutModel(Record):
    """Coefficient automorphism σ through its effect on unit symbols, on
    the square root of the residue cardinality at each place and on the
    archimedean embeddings.

    ``unit_map`` permutes unit symbols; ``eps`` is the sign 1 or -1 (an
    int, never a bool, as the scenario reader checks it), the same at every
    place; ``embedding_map`` permutes embedding labels.
    """

    _fields = ("unit_map", "eps", "embedding_map")

    def __init__(self, unit_map: tuple = (), eps: int = 1, embedding_map: tuple = ()):
        """``unit_map`` and ``embedding_map`` are tuples of (symbol, image)
        and (label, image) pairs whose images are the symbols or labels
        they map; a missing one is fixed, and fixed pairs are dropped, so
        equal models act alike."""
        maps = (("unit_map", unit_map, "symbols"), ("embedding_map", embedding_map, "labels"))
        for name, pairs, domain in maps:
            table = dict(pairs)
            if set(table) != set(table.values()):
                raise SatakeError(f"{name} must be a bijection on {domain}")
            moved = sorted((x, y) for x, y in table.items() if x != y)
            object.__setattr__(self, name, tuple(moved))
        object.__setattr__(self, "eps", eps)

    def apply_unit(self, unit: tuple) -> tuple:
        """The unit with its symbols mapped, in normal form.  With no moved
        symbol it is returned as it is: an `Eigenvalue`'s unit is already
        in normal form."""
        if not self.unit_map:
            return unit
        table = dict(self.unit_map)
        return _normalize_unit([(table.get(s, s), e) for s, e in unit])

    def raw(self, e: Eigenvalue) -> Eigenvalue:
        """Plain coefficient transport a(sign·q^e·u): q^{1/2} ↦ eps·q^{1/2},
        units permuted."""
        twist = -1 if (self.eps == -1 and e.q2 % 2 == 1) else 1
        return Eigenvalue(e.q2, self.apply_unit(e.unit), e.sign * twist)


def eps_m(aut: AutModel, m: int) -> int:
    """Sign a(q^{(m-1)/2})·q^{-(m-1)/2}: +1 for m odd, eps for m even."""
    return aut.eps ** ((m - 1) % 2)


def _twist_parity(family: GroupDescriptor) -> int:
    """0 when plain transport is exact, 1 when the determinant-type square
    root twist is needed (even linear and even unitary families, and odd
    orthogonal groups through their similitude cover)."""
    fam = family.family
    if fam in (GL, RES_GL, UNITARY):
        return 0 if family.size % 2 == 1 else 1
    return 1 if fam == SO_ODD else 0


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


def bc_chain_check(n: int, r: int, aut: AutModel):
    """Replay the sign bookkeeping that identifies the transported residual
    parameter, and compare with the direct target form.

    The degree-n and degree-r classes are the generic units u1…un, w1…wr.
    Left side: the base change of the transported degree-(2n+r) class,
    computed step by step through the eps_m twists.  Right side:
    diag(q^{1/2}, q^{-1/2}) ⊗ (twisted transport of the degree-n class)
    ⊕ (transport of the degree-r class).  Returns (ok, steps, mismatch).
    ``n`` ≥ 1 and ``r`` ≥ 0: two record degrees, or a point of `selftest`'s grid.
    """
    N = 2 * n + r
    Mpi = [Eigenvalue(0, ((f"u{i}", 1),)) for i in range(1, n + 1)]
    Mrho = [Eigenvalue(0, ((f"w{j}", 1),)) for j in range(1, r + 1)]
    e_N, e_n, e_r, e_0 = (eps_m(aut, m) for m in (N, n, r, 0))

    def rawA(evs):
        return [aut.raw(e) for e in evs]

    steps = []
    # base change of the residual class: the two half shifts of the degree-n
    # part plus the degree-r part
    bc_residual = (
        [e.scaled(shift2=1) for e in Mpi]
        + [e.scaled(shift2=-1) for e in Mpi]
        + Mrho
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
