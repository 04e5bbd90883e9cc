"""The benchmark's tracer patches langkit by name from outside the package
(`perfbench/tracing.py`): a renamed entry point would crash `--trace 1`
without failing any other test."""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_kostant_ladder_reads_resolve():
    """What the `kostant-ladder` workload reads back from the kernel: a
    renamed read would show only as incorrect outputs in the benchmark."""
    from fractions import Fraction

    from langkit import weyl

    lam = tuple(Fraction(x, 2) for x in (7, 5, 3, 1))
    assert weyl.Weight(lam).coords == lam
    datum = weyl.RootDatum("C", 4)
    reps = weyl.kostant_reps(datum, weyl.ParabolicShape((2,), 2, datum))
    assert all(type(p.images) is tuple for p, _ in reps)


def test_classify_layer_counts_through_the_rebound_names():
    """The tracer rebinds `candidate_family` and `classify_levi_support` by
    name; `classify` reaches them only through `spectra.classify_support`.
    Run in a fresh interpreter, so the rebinding stays out of this one."""
    code = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracing.install(["langkit.cli"])
from langkit import cli
with tracing.recording("classify thmB"):
    cli.run("classify", "thmB")
rec = tracing.REC
print(json.dumps([rec.calls["candidate_family"], rec.calls["classify_levi_support"],
                  rec.counts["classify.accepted"]]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [1, 26, 2]
