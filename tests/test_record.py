"""The value records behave as the stdlib dataclasses they replaced.

Each record class is checked against a twin built by
`dataclasses.make_dataclass` from its `_fields`: repr, equality (also
across the two classes) and hash agree on sample instances.  Fields cannot
be reassigned or deleted, and the constructor takes exactly its fields.
"""

import ast
import dataclasses
import importlib
import inspect
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from langkit.arch import EmbeddingSet, InfChar
from langkit.eisenstein import (
    AnalyticLedger,
    LFactorRef,
    LQuotient,
    PoleDecision,
)
from langkit.groups import SP, GroupDescriptor
from langkit.normalizer import (
    DiscreteSegment,
    QuasiTemperedGL,
    QuasiTemperedSelfdual,
    Ratio,
)
from langkit.record import Record
from langkit.satake import AutModel, Eigenvalue, SatakeClass
from langkit.spectra import (
    TRIVIAL,
    ArthurParameter,
    CuspidalRecord,
    CuspidalSum,
    LeviCandidate,
    Verdict,
    expand,
)
from langkit.weyl import ParabolicShape, RootDatum, SignedPerm, Weight

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "langkit"


def _pi():
    infchar = InfChar((("r1", (3, 1, -1, -3)),))
    return CuspidalRecord(
        "pi", 4, duality="symplectic", algebraicity="algebraic", infchar=infchar
    )


def _ratio(slope=1):
    return Ratio("ii-", ("rankin", "p1", "r1"), slope, Fraction(-1, 4))


def _ledger():
    ledger = AnalyticLedger()
    ledger.set(("wedge2", "pi"), 1, -1, "default")
    return ledger


# class -> builders of sample instances that differ from one another
SAMPLES = {
    EmbeddingSet: (
        lambda: EmbeddingSet(real=("r1",), complex_pairs=(("c1", "c1b"),)),
        lambda: EmbeddingSet(real=("r1", "r2")),
    ),
    InfChar: (
        lambda: InfChar((("r1", (-3, 3)),)),
        lambda: InfChar((("r2", (1, -1)), ("r1", (1, -1)))),
    ),
    Weight: (lambda: Weight((1, "1/2")), lambda: Weight((0, 0))),
    SignedPerm: (lambda: SignedPerm((2, -1)), lambda: SignedPerm.identity(3)),
    RootDatum: (lambda: RootDatum("C", 3), lambda: RootDatum("A", 2)),
    ParabolicShape: (
        lambda: ParabolicShape((2,), 1, RootDatum("C", 3)),
        lambda: ParabolicShape((1, 2), 0, RootDatum("A", 2)),
    ),
    CuspidalRecord: (
        lambda: CuspidalRecord("1", 1, duality="orthogonal"),
        _pi,
        lambda: CuspidalRecord("x", 2, weight="1/2"),
    ),
    ArthurParameter: (
        lambda: ArthurParameter(((TRIVIAL, 1), (_pi(), 2))),
        lambda: ArthurParameter(((TRIVIAL, 1),)),
    ),
    CuspidalSum: (
        lambda: expand(ArthurParameter(((TRIVIAL, 1), (_pi(), 2)))),
        lambda: CuspidalSum(((TRIVIAL, 0),)),
    ),
    LeviCandidate: (
        lambda: LeviCandidate(((_pi(), 1),), ArthurParameter(((TRIVIAL, 1),))),
        lambda: LeviCandidate((), ArthurParameter(((TRIVIAL, 3),))),
    ),
    Verdict: (
        lambda: Verdict("matched", (_pi(), 1)),
        lambda: Verdict("cuspidal count"),
    ),
    DiscreteSegment: (
        lambda: DiscreteSegment("p1", "1/4"),
        lambda: DiscreteSegment("p2"),
    ),
    QuasiTemperedGL: (
        lambda: QuasiTemperedGL(
            (DiscreteSegment("p2"), DiscreteSegment("p1", "1/4"))
        ),
        lambda: QuasiTemperedGL((DiscreteSegment("p2"),)),
    ),
    QuasiTemperedSelfdual: (
        lambda: QuasiTemperedSelfdual(["s"], (("r1", "1/4"),)),
        lambda: QuasiTemperedSelfdual(("s", "t"), ()),
    ),
    Ratio: (_ratio, lambda: _ratio(2), lambda: Ratio("iii", ("wedge2", "p1"), 2, 0)),
    Eigenvalue: (lambda: Eigenvalue(1, (("u", 1),), -1), lambda: Eigenvalue(0)),
    SatakeClass: (
        lambda: SatakeClass((Eigenvalue(1), Eigenvalue(-1)), GroupDescriptor("GL", 2)),
        lambda: SatakeClass(
            (Eigenvalue(1), Eigenvalue(0), Eigenvalue(-1)), GroupDescriptor(SP, 1)
        ),
    ),
    AutModel: (
        lambda: AutModel((("v", "u"), ("u", "v")), -1, (("b", "a"), ("a", "b"))),
        lambda: AutModel(),
    ),
    GroupDescriptor: (
        lambda: GroupDescriptor("SOeven", 2),
        lambda: GroupDescriptor("U", 3),
    ),
    LFactorRef: (
        lambda: LFactorRef(("std", "pi"), 1, "1/2"),
        lambda: LFactorRef(("asai", 1, "pi"), 2, 0),
    ),
    LQuotient: (
        lambda: LQuotient(("std", "pi"), ("wedge2", "pi")),
        lambda: LQuotient(("bc_rankin", "pi", "rho"), ("asai", -1, "pi")),
    ),
    AnalyticLedger: (AnalyticLedger, _ledger),
    PoleDecision: (
        lambda: PoleDecision(-1, ("L(s, pi)",), (("a pole", "rule"),)),
        lambda: PoleDecision(0, (), ()),
    ),
}


def _record_classes():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"langkit.{path.stem}")
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, Record) and value is not Record:
                found.add(value)
    return found


def _twin(cls):
    return dataclasses.make_dataclass(
        cls.__name__, cls._fields, frozen=cls.__hash__ is not None
    )


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return f"TypeError: {exc}"


def test_no_module_imports_dataclasses():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "dataclasses" for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# the attributes an instance caches, each with why; a value-keyed cache
# (functools.lru_cache or functools.cache) would hand one result to every
# equal argument and keep both alive for the life of the process
CACHED_PROPERTIES = {
    "weyl.ParabolicShape._windows": (
        "kostant_reps and kostant_weights on one shape read one level search"
    ),
}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_no_value_keyed_cache():
    """No module uses `lru_cache` or `functools.cache`, and each
    `cached_property` decorates a method listed above."""
    value_keyed, cached, uses = [], set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute) and _name(node.value) == "functools":
                names = [node.attr]
            else:
                names = [_name(node)] if _name(node) == "lru_cache" else []
            value_keyed += [f"{path.name}:{node.lineno}" for n in names if n in ("cache", "lru_cache")]
            uses += _name(node) == "cached_property"
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and any(
                        _name(d) == "cached_property" for d in fn.decorator_list
                    ):
                        cached.add(f"{path.stem}.{node.name}.{fn.name}")
    assert value_keyed == []
    assert sorted(cached) == sorted(CACHED_PROPERTIES)
    assert uses == len(cached)  # a cached_property is only ever a method's decorator


def test_every_record_class_has_samples():
    assert _record_classes() == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    objs = [build() for build in SAMPLES[cls]]
    again = [build() for build in SAMPLES[cls]]
    twins = [twin(*(getattr(o, f) for f in cls._fields)) for o in objs]
    assert len(set(map(repr, objs))) == len(objs), "samples must differ"
    for obj, copy, tw in zip(objs, again, twins):
        assert type(obj) is cls and obj is not copy
        assert repr(obj) == repr(tw)
        assert _hash_or_error(obj) == _hash_or_error(tw)
        assert obj == copy and not obj != copy
        assert obj != tw and tw != obj and not obj == tw
        assert obj.__eq__(tw) is NotImplemented
    for (a, ta), (b, tb) in itertools.product(zip(objs, twins), repeat=2):
        assert (a == b, a != b) == (ta == tb, ta != tb)
    other = next(build() for c, (build, *_) in SAMPLES.items() if c is not cls)
    assert objs[0] != other and objs[0].__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_fields_are_fixed(cls):
    obj = SAMPLES[cls][0]()
    before = repr(obj)
    assert set(vars(obj)) == set(cls._fields)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == before


# records built from other values than the fields they hold: a `Weight`
# holds its coordinates doubled and is built from the coordinates, which
# its `coords` property gives back; an `AnalyticLedger` is built empty and
# filled by `set`
CONSTRUCTED_FROM = {Weight: ("coords",), AnalyticLedger: ()}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_takes_exactly_its_fields(cls):
    names = CONSTRUCTED_FROM.get(cls, cls._fields)
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    obj = SAMPLES[cls][0]()
    values = [getattr(obj, f) for f in names]
    assert cls(*values) == obj
    assert cls(**dict(zip(names, values))) == obj
    required = sum(p.default is inspect.Parameter.empty for p in params.values())
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
