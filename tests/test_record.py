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

from langkit.arch import I4, AutOnEmbeddings, EmbeddingSet, InfChar
from langkit.dual import GradedNilradical, RepDescriptor, grade_nilradical
from langkit.eisenstein import (
    AnalyticLedger,
    AutSpec,
    LFactorRef,
    LQuotient,
    PipelineResult,
    PoleDecision,
)
from langkit.groups import GroupDescriptor, LeviDescriptor, maximal_levi, sp, unitary
from langkit.normalizer import (
    DiscreteSegment,
    FactorClassification,
    HolomorphyVerdict,
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
    return Ratio("ii-", ("pair", "p1", "r1"), slope, Fraction(-1, 4))


def _ledger():
    ledger = AnalyticLedger()
    ledger.set(("wedge2", "pi"), 1, -1, "default")
    return ledger


# class -> builders of sample instances that differ from one another
SAMPLES = {
    EmbeddingSet: (
        lambda: EmbeddingSet.build(real=("r1",), complex_pairs=(("c1", "c1b"),)),
        lambda: EmbeddingSet.build(real=("r1", "r2")),
    ),
    InfChar: (
        lambda: InfChar((("r1", (-3, 3)),)),
        lambda: InfChar((("r2", (1, -1)), ("r1", (1, -1)))),
    ),
    AutOnEmbeddings: (
        lambda: AutOnEmbeddings((("b", "a"), ("a", "b"))),
        lambda: AutOnEmbeddings.identity(("a", "b")),
    ),
    I4: (lambda: I4(1), lambda: I4(6)),
    Weight: (lambda: Weight((1, "1/2")), lambda: Weight((0, 0), "C2")),
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
        lambda: LeviCandidate(((_pi(), "1/2"),), ArthurParameter(((TRIVIAL, 1),))),
        lambda: LeviCandidate((), ArthurParameter(((TRIVIAL, 3),))),
    ),
    Verdict: (
        lambda: Verdict(True, "matched", (_pi(), Fraction(1, 2))),
        lambda: Verdict(False, "cuspidal count"),
    ),
    DiscreteSegment: (
        lambda: DiscreteSegment("p1", 1, 2, "1/4"),
        lambda: DiscreteSegment("p2", 2, 1),
    ),
    QuasiTemperedGL: (
        lambda: QuasiTemperedGL(
            (DiscreteSegment("p2", 2, 1), DiscreteSegment("p1", 1, 2, "1/4"))
        ),
        lambda: QuasiTemperedGL((DiscreteSegment("p2", 2, 1),)),
    ),
    QuasiTemperedSelfdual: (
        lambda: QuasiTemperedSelfdual(["s"], (("r1", "1/4"),)),
        lambda: QuasiTemperedSelfdual(("s", "t"), ()),
    ),
    Ratio: (_ratio, lambda: _ratio(2), lambda: Ratio("iii", ("p1", "wedge2"), 2, 0)),
    FactorClassification: (
        lambda: FactorClassification(_ratio(), "pole_candidate", Fraction(1, 4), "r1"),
        lambda: FactorClassification(_ratio(2), "holo_nonzero", Fraction(3, 4), "r2"),
    ),
    HolomorphyVerdict: (
        lambda: HolomorphyVerdict("holomorphic", [{"part": "a"}], {"full": 3}, ["w"]),
        lambda: HolomorphyVerdict("holomorphic", [], {}, []),
    ),
    Eigenvalue: (lambda: Eigenvalue(1, (("u", 1),), -1), lambda: Eigenvalue(0)),
    SatakeClass: (
        lambda: SatakeClass((Eigenvalue(1), Eigenvalue(-1)), GroupDescriptor("GL", 2)),
        lambda: SatakeClass((), sp(1), "w"),
    ),
    AutModel: (
        lambda: AutModel((("v", "u"), ("u", "v")), {"w": -1, "v": 1}),
        lambda: AutModel(),
    ),
    GroupDescriptor: (
        lambda: GroupDescriptor("SOeven", 2, "d"),
        lambda: GroupDescriptor("U", 3),
    ),
    LeviDescriptor: (lambda: maximal_levi(sp(3), 1), lambda: maximal_levi(unitary(5), 2)),
    RepDescriptor: (lambda: RepDescriptor("asai", 4, 1), lambda: RepDescriptor("std", 3)),
    GradedNilradical: (lambda: grade_nilradical(2, 1), lambda: grade_nilradical(1, 0)),
    LFactorRef: (
        lambda: LFactorRef(("std", "pi"), 1, "1/2"),
        lambda: LFactorRef(("asai", 1, "pi"), 2, 0),
    ),
    LQuotient: (
        lambda: LQuotient((LFactorRef(("std", "pi"), 1, 0),), ()),
        lambda: LQuotient((), ()),
    ),
    AnalyticLedger: (_ledger, AnalyticLedger),
    PoleDecision: (
        lambda: PoleDecision(True, -1, ("L(s, pi)",), (("a pole", "rule"),)),
        lambda: PoleDecision(False, 0, (), ()),
    ),
    AutSpec: (
        lambda: AutSpec(AutModel(eps=-1), AutOnEmbeddings.identity(("r1",))),
        lambda: AutSpec(AutModel()),
    ),
    PipelineResult: (
        lambda: PipelineResult("YES", [{"step": 1}], ["w"], {"k": 1}),
        lambda: PipelineResult("NO", [], [], {}),
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


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_takes_exactly_its_fields(cls):
    params = inspect.signature(cls).parameters
    assert tuple(params) == cls._fields
    obj = SAMPLES[cls][0]()
    values = [getattr(obj, f) for f in cls._fields]
    assert cls(*values) == obj
    assert cls(**dict(zip(cls._fields, values))) == obj
    required = sum(p.default is inspect.Parameter.empty for p in params.values())
    if required:
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown=None)
