"""The benchmark's tracer patches langkit by name from outside the package
(`perfbench/tracing.py`): a renamed entry point would crash `--trace 1`
without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracing = _tracing()
    missing = [
        f"{modname}.{name}"
        for modname, names in tracing.ENTRY_POINTS.values()
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert missing == []
    for name in tracing.RESULT_COUNTERS:
        assert any(name in names for _, names in tracing.ENTRY_POINTS.values()), name


def test_counted_constructors_are_defined_where_they_are_patched():
    from langkit import selftest, weyl

    assert callable(weyl.SignedPerm.__dict__["__post_init__"])
    assert callable(weyl.RootDatum.__dict__["positive_roots"])
    assert all(s.__name__.startswith("_suite_") for s in selftest.SUITES)


def test_counting_sees_each_construction_and_root_build():
    """A constructor that bound the hook when its class was created would
    leave `perms_built` unset while every other test passed."""
    from langkit import weyl

    tracing = _tracing()
    datum = weyl.RootDatum("C", 2)
    with tracing.counting():
        weyl.SignedPerm((2, -1))
        datum.positive_roots()
    counts = tracing.REC.counts
    assert (counts["perms_built"], counts["positive_roots"]) == (1, 1)
