import argparse
import ast
import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from langkit import cli
from langkit.rationals import RATIONAL, doubled

LIBRARY = (
    "thmA",
    "thmB",
    "thmC",
    "thmD",
    "thmE",
    "thmF",
    "appendix_block",
    "appendix_pair",
    "appendix_mixed",
)


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "langkit.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc


@pytest.mark.parametrize("name", LIBRARY)
def test_library_scenarios_pass(name):
    report = cli.run("check-scenario", name)
    assert report["schema"] == "1"
    verdict = report.get("verdict", report.get("statement", ""))
    assert verdict
    assert "FAIL" not in verdict


@pytest.mark.parametrize("name", LIBRARY)
def test_reports_are_deterministic(name):
    a = cli.render_json(cli.run("check-scenario", name))
    b = cli.render_json(cli.run("check-scenario", name))
    assert a == b


def test_round_trip_canonical_serialization(tmp_path):
    src = cli.scenario_dir() / "thmB.json"
    parsed = json.loads(src.read_text())
    canonical = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
    p = tmp_path / "thmB.json"
    p.write_text(canonical)
    reparsed = json.loads(p.read_text())
    assert json.dumps(reparsed, indent=2, sort_keys=True) + "\n" == canonical


def test_every_derivation_step_cites_a_known_rule():
    from langkit import rules

    for name in LIBRARY:
        report = cli.run("check-scenario", name)
        steps = report.get("derivation", []) + report.get("certificate", [])
        assert steps
        for step in steps:
            assert step["citation"] in rules.RULES
        for rid in report["citations"]:
            assert rid in rules.RULES


def _package_modules() -> dict:
    src = Path(cli.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}


def test_every_rule_is_named_by_the_code():
    from langkit import rules

    literals = {
        node.value
        for name, tree in _package_modules().items()
        if name != "rules"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(set(rules.RULES) - literals) == []


# rule and open-choice ids that no golden cites, each with the reason; an id
# that a golden comes to cite must leave this table
UNCITED_IDS = {
    "dichotomy": "no library scenario declares a central zero (central_order >= 1)",
    "complex-place-count-parity": "no library target-D scenario has a complex place",
}


def _golden_reports():
    """Each JSON report under tests/golden/: a file that is one, and each
    string value of a file that renders one."""
    for path in sorted((Path(__file__).parent / "golden").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        yield data
        for value in data.values():
            if isinstance(value, str) and value.startswith("{"):
                yield json.loads(value)


def test_every_rule_and_open_choice_is_cited_by_a_golden():
    """A golden cites a rule by a "citation" or "rule" value and an open
    choice by a "warnings" item."""
    from langkit import rules

    cited = set()
    for report in _golden_reports():
        cli._rule_ids(report, cited)
        cited.update(report.get("warnings", []))
    uncited = (set(rules.RULES) | set(rules.OPEN_CHOICES)) - cited
    assert sorted(uncited) == sorted(UNCITED_IDS)


# public functions with no caller in the package: the kostant command shares
# their private cores (one level search for the representatives and the
# weights), and the benchmark calls them by name
EXTERNAL_ENTRY_POINTS = {("weyl", "kostant_reps"), ("weyl", "kostant_weights")}

# public methods and properties that no code in the package reads and the
# benchmark does: a `Weight` holds its coordinates doubled, and `coords`
# gives them back as Fractions for the benchmark's checker
EXTERNAL_READS = {("weyl", "Weight.coords")}


def test_external_entry_points_have_their_caller():
    worker = (Path(__file__).resolve().parents[1] / "perfbench" / "worker.py").read_text(
        encoding="utf-8"
    )
    for module, name in EXTERNAL_ENTRY_POINTS:
        assert f".{name}(" in worker, name
        assert callable(getattr(importlib.import_module(f"langkit.{module}"), name))
    for module, name in EXTERNAL_READS:
        cls, attr = name.split(".")
        assert f".{attr}" in worker, name
        assert hasattr(getattr(importlib.import_module(f"langkit.{module}"), cls), attr)


def _defined_name(node):
    """The name a module-level function, class or single-name assignment
    defines, else None."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign):
        target = node.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def test_every_public_name_is_used_by_the_package():
    """Functions, classes and module-level constants: each public one is
    read somewhere in the package outside its own definition."""
    defined, used = [], set()
    for module, tree in _package_modules().items():
        for node in tree.body:
            owner = _defined_name(node)
            if owner is not None and not owner.startswith("_"):
                defined.append((module, owner))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    used.add((module, owner, sub.id))
                elif isinstance(sub, ast.Attribute):
                    used.add((module, owner, sub.attr))
    referenced = {
        (module, name)
        for module, name in defined
        if any(n == name and (m, o) != (module, name) for m, o, n in used)
    }
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if (module, name) not in referenced
        and (module, name) != ("cli", "main")  # the console-script entry point
        and (module, name) not in EXTERNAL_ENTRY_POINTS
    ]
    assert unused == []
    assert EXTERNAL_ENTRY_POINTS.isdisjoint(referenced)  # the pin goes once a caller comes


# parameters of public functions that the package always passes, or never
# passes, and why each stays
TEST_ONLY_PARAMETERS = {
    "cli.run.args": "perfbench and the tests call cli.run(command, scenario) without args",
    "cli.main.argv": "the console entry point reads sys.argv; the tests pass argv",
}


def _defaults(func) -> list:
    args = func.args
    positional = args.posonlyargs + args.args
    return [a.arg for a in positional[len(positional) - len(args.defaults):]] + [
        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
    ]


def _passed_and_omitted(func, call) -> tuple:
    """The parameters of ``func`` that ``call`` passes and the defaults it
    omits; a ``**kwargs`` argument both passes and omits every default."""
    positional = [a.arg for a in func.args.posonlyargs + func.args.args]
    if any(isinstance(a, ast.Starred) for a in call.args):
        passed = set(positional)
    else:
        passed = set(positional[: len(call.args)])
    passed |= {k.arg for k in call.keywords if k.arg is not None}
    omitted = set(_defaults(func)) - passed
    if any(k.arg is None for k in call.keywords):
        passed |= set(_defaults(func))
    return passed, omitted


def test_no_parameter_exists_for_the_tests_alone():
    """Each public module-level function that the package calls by name:
    some call passes each parameter, and some call omits each default."""
    modules = _package_modules()
    functions = {
        node.name: (module, node)
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    passed, omitted = {}, {}
    for tree in modules.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name in functions:
                got, left = _passed_and_omitted(functions[name][1], call)
                passed.setdefault(name, set()).update(got)
                omitted.setdefault(name, set()).update(left)
    flagged = set()
    for name in passed:
        module, func = functions[name]
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        flagged |= {f"{module}.{name}.{p}" for p in params if p not in passed[name]}
        flagged |= {f"{module}.{name}.{p}" for p in _defaults(func) if p not in omitted[name]}
    assert sorted(flagged - set(TEST_ONLY_PARAMETERS)) == []
    assert sorted(set(TEST_ONLY_PARAMETERS) - flagged) == []  # a stale entry goes


# functions that no command reaches and the benchmark calls, each with the
# text of its call in perfbench/worker.py
BENCHMARK_CALLS = {
    "weyl.kostant_reps": ".kostant_reps(",
    "weyl.kostant_weights": ".kostant_weights(",
    "weyl.Weight.__init__": ".Weight(",
    "weyl.Weight.coords": ".coords",
}

# functions that no command reaches and Python's data model calls, with why
DATA_MODEL_METHODS = {
    "record.Record.__init_subclass__": "runs where a record class is defined, at import",
    "record.Record.__hash__": "records are hashable values, though no command hashes one",
    "record.Record.__repr__": "shows a record in a failure message or a debugger",
    "record.Record.__setattr__": "refuses a field assignment",
    "record.Record.__delattr__": "refuses a field deletion",
}


def _function_starts(tree, prefix) -> dict:
    """(first line, qualified name) of every def below tree: a decorated
    function's code starts at its first decorator."""
    out = {}
    for node in ast.iter_child_nodes(tree):
        named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
        name = f"{prefix}.{node.name}" if named else prefix
        if isinstance(node, ast.FunctionDef):
            out[min([node.lineno] + [d.lineno for d in node.decorator_list])] = name
        out.update(_function_starts(node, name))
    return out


def test_every_function_is_reached_by_a_command(capsys):
    """Every def in the package runs under some library invocation, kostant
    golden or selftest format, or is listed above."""
    src = Path(cli.__file__).parent
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    runs = [
        [command, "--scenario", name, "--format", fmt, *strict]
        for command, name, fmt, *strict in map(str.split, INVOCATIONS)
    ]
    runs += [argv.split() for argv in (*KOSTANT_GOLDEN, *SELFTEST_GOLDEN)]
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in runs:
            cli.main(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    unreached = {
        name
        for path in sorted(src.glob("*.py"))
        for line, name in _function_starts(
            ast.parse(path.read_text(encoding="utf-8")), path.stem
        ).items()
        if (str(path), line) not in called
    }
    listed = set(BENCHMARK_CALLS) | set(DATA_MODEL_METHODS)
    assert sorted(unreached - listed) == []
    assert sorted(listed - unreached) == []  # a stale entry goes
    worker = (Path(__file__).resolve().parents[1] / "perfbench" / "worker.py").read_text(
        encoding="utf-8"
    )
    assert [name for name, call in BENCHMARK_CALLS.items() if call not in worker] == []


# public methods that only tests call: none, a method ships with a caller
TEST_ONLY_METHODS = set()

# public method names that several classes define: a read of the name counts
# for every one of them, so the guard below cannot see a dead one.  Each was
# checked for a caller in the package.
SHARED_METHOD_NAMES = {
    "labels": {"EmbeddingSet", "InfChar"},
    "order": {"AnalyticLedger", "RootDatum"},
    "serialize": {
        "AnalyticLedger",
        "ArthurParameter",
        "CuspidalRecord",
        "Eigenvalue",
        "InfChar",
        "LFactorRef",
        "LQuotient",
        "PoleDecision",
        "SatakeClass",
        "Verdict",
    },
}


def _public_methods(modules) -> list:
    return [
        (cls, node)
        for tree in modules.values()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def test_every_public_method_is_used_by_the_package():
    """A method counts as used when its name is read as an attribute
    somewhere in the package outside its own body."""

    def attrs(tree) -> Counter:
        return Counter(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))

    modules = _package_modules()
    everywhere = sum((attrs(tree) for tree in modules.values()), Counter())
    unused = {
        f"{cls.name}.{node.name}"
        for cls, node in _public_methods(modules)
        if everywhere[node.name] == attrs(node)[node.name]
    }
    # an external read that gains a reader in the package leaves the pin
    assert unused == TEST_ONLY_METHODS | {name for _, name in EXTERNAL_READS}


# record fields that no code reads by name, which would enter only the
# record's equality, hash and repr: none, a field ships with a reader
UNREAD_FIELDS = set()

# field names that several record classes list: a read of the name counts for
# every one of them, so the guard below cannot see an unread one.  Each was
# checked for a read in the package.
SHARED_FIELD_NAMES = {
    "alpha": {"LFactorRef", "Ratio"},
    "beta": {"LFactorRef", "Ratio"},
    "family": {"GroupDescriptor", "Ratio", "RootDatum", "SatakeClass"},
    "kind": {"LFactorRef", "Ratio"},
    "label": {"CuspidalRecord", "DiscreteSegment"},
}


def _record_fields(modules) -> list:
    """(class, its __init__, field name) for every `_fields` entry."""
    rows = []
    for tree in modules.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            init = next(
                (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"),
                None,
            )
            for node in cls.body:
                if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "_fields" for t in node.targets
                ):
                    rows += [(cls, init, name) for name in ast.literal_eval(node.value)]
    return rows


def _attribute_reads(tree) -> Counter:
    return Counter(
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    )


def test_every_record_field_is_read_by_the_package():
    """A field counts as read when its name is read as an attribute
    somewhere in the package outside its class's ``__init__``."""
    modules = _package_modules()
    everywhere = sum((_attribute_reads(tree) for tree in modules.values()), Counter())
    unread = {
        f"{cls.name}.{name}"
        for cls, init, name in _record_fields(modules)
        if everywhere[name] == (_attribute_reads(init)[name] if init else 0)
    }
    assert unread == UNREAD_FIELDS


def test_shared_field_names_are_pinned():
    """A new collision hides an unread field from the guard above, so it
    fails here until its classes are checked and added."""
    owners: dict = {}
    for cls, _, name in _record_fields(_package_modules()):
        owners.setdefault(name, set()).add(cls.name)
    assert {name: c for name, c in owners.items() if len(c) > 1} == SHARED_FIELD_NAMES


def test_shared_method_names_are_pinned():
    """A new collision hides a dead method from the guard above, so it
    fails here until its classes are checked and added."""
    owners: dict = {}
    for cls, node in _public_methods(_package_modules()):
        owners.setdefault(node.name, set()).add(cls.name)
    assert {name: c for name, c in owners.items() if len(c) > 1} == SHARED_METHOD_NAMES


def test_cited_steps_are_built_by_the_rules_function():
    """No dict display in eisenstein or normalizer writes a "citation" key:
    every cited step goes through `rules.cited`."""
    modules = _package_modules()
    offenders = [
        f"{name}:{node.lineno}"
        for name in ("eisenstein", "normalizer")
        for node in ast.walk(modules[name])
        if isinstance(node, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "citation" for k in node.keys)
    ]
    assert offenders == []


def test_scenario_types_are_checked_in_one_place():
    """Type errors are raised by the checker only, and the sign pipeline coerces nothing."""
    modules = _package_modules()
    outside = [
        func.name
        for func in modules["cli"].body
        if isinstance(func, ast.FunctionDef) and func.name not in ("_check", "_field")
        for node in ast.walk(func)
        if isinstance(node, ast.Raise)
        and isinstance(node.exc, ast.Call)
        and getattr(node.exc.func, "id", None) == "ScenarioError"
        and any(
            isinstance(c, ast.Constant) and "must be" in str(c.value) for c in ast.walk(node.exc)
        )
    ]
    assert outside == []
    (pipeline,) = [
        node
        for node in modules["eisenstein"].body
        if isinstance(node, ast.FunctionDef) and node.name == "sign_pipeline"
    ]
    coercions = [
        node.func.id
        for node in ast.walk(pipeline)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("int", "bool")
    ]
    assert coercions == []


def test_pole_command():
    report = cli.run("pole", "thmB")
    assert report["verdict"] == "pole"
    assert report["residual_parameter"]


def test_classify_command():
    report = cli.run("classify", "thmB")
    assert report["accepted"] == [{"label": "pi", "shift": "1/2"}]


def test_root_number_commands():
    assert cli.run("root-number", "thmD")["details"]["sign"] in (1, -1)
    assert cli.run("root-number", "thmF")["details"]["ratio"] == 1


def test_normalize_command():
    report = cli.run("normalize", "appendix_pair")
    assert report["statement"].startswith("holomorphic")


def test_satake_act_command(tmp_path):
    scn = {
        "schema": "1",
        "name": "act",
        "satake_class": {
            "family": "ResGL",
            "size": 2,
            "eigenvalues": ["q^1/2*u1", "q^-1/2*u1^-1"],
        },
        "aut_spec": {"eps": -1, "unit_map": {}},
    }
    p = tmp_path / "act.json"
    p.write_text(json.dumps(scn))
    report = cli.run("satake-act", str(p))
    assert report["output"] == report["input"]


def test_satake_act_on_thmE_is_the_twisted_transport():
    """thmE's class lies on an even linear family, which takes the square-root
    twist: with eps = -1 an eigenvalue flips its sign exactly when its doubled
    q-exponent is even, and the empty unit map moves no unit."""
    scn = json.loads((cli.scenario_dir() / "thmE.json").read_text())
    raw, aut = scn["satake_class"], scn["aut_spec"]
    assert (raw["family"], raw["size"] % 2, aut["eps"], aut["unit_map"]) == ("ResGL", 0, -1, {})
    twice_q = {}
    for e in raw["eigenvalues"]:
        exponent = [t[2:] for t in e.split("*") if t.startswith("q^")]
        twice_q[e] = sum(2 * Fraction(x) for x in exponent)
    assert {x % 2 for x in twice_q.values()} == {0, 1}  # both parities shown
    expected = ["-" + e if x % 2 == 0 else e for e, x in twice_q.items()]
    report = cli.run("satake-act", "thmE")
    assert sorted(report["input"]) == sorted(raw["eigenvalues"])
    assert sorted(report["output"]) == sorted(expected)


def test_satake_act_reads_but_does_not_apply_the_embedding_map(tmp_path, capsys):
    """The embedding relabeling moves no eigenvalue: with and without it the
    report is the same."""
    scn = json.loads((cli.scenario_dir() / "thmE.json").read_text())
    scn["satake_class"] = {"family": "GL", "size": 2, "eigenvalues": ["q^1/2*u1", "-u2"]}
    scn["aut_spec"] = {"eps": -1, "unit_map": {"u1": "u2", "u2": "u1"}}
    outputs = []
    for embedding_map in (None, {"c1": "c1b", "c1b": "c1"}):
        if embedding_map is not None:
            scn["aut_spec"]["embedding_map"] = embedding_map
        p = tmp_path / "act.json"
        p.write_text(json.dumps(scn))
        assert cli.main(["satake-act", "--scenario", str(p)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["output"] == ["u1", "q^1/2*u2"]


@pytest.mark.parametrize("name", [n for n in LIBRARY if n.startswith("thm")])
def test_a_label_with_no_pair_is_fixed(name):
    """Relabeling a library record's infinitesimal character by a partial
    map equals relabeling it by the map completed with its fixed labels."""
    scn = json.loads((cli.scenario_dir() / f"{name}.json").read_text())
    emb = cli.parse_embeddings(scn)
    infchars = [r.infchar for r in cli.resolve_records(scn, emb) if r.infchar is not None]
    assert infchars
    for infchar in infchars:
        assert infchar.permuted(()) == infchar
        for images in itertools.permutations(infchar.labels):
            full = tuple(zip(infchar.labels, images))
            partial = tuple((a, b) for a, b in full if a != b)
            assert infchar.permuted(partial) == infchar.permuted(full)


def test_schema_error_paths(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": "1", "records": [{"label": "x"}]}))
    with pytest.raises(cli.ScenarioError, match="/records/0/degree"):
        cli.run("check-scenario", str(p))


def test_exit_codes(tmp_path):
    ok = run_cli("check-scenario", "--scenario", "thmB")
    assert ok.returncode == 0
    strict = run_cli("check-scenario", "--scenario", "thmB", "--strict")
    assert strict.returncode != 0
    missing = run_cli("check-scenario", "--scenario", str(tmp_path / "nope.json"))
    assert missing.returncode != 0


@pytest.mark.parametrize("raw", [b'{"schema": "1"', b'{"schema": "1", "name": "\xff"}'])
def test_undecodable_scenario_is_a_usage_error(tmp_path, raw):
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    proc = run_cli("pole", "--scenario", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: /: invalid JSON ("), proc.stderr


def test_text_format_mentions_warnings():
    proc = run_cli("check-scenario", "--scenario", "thmB", "--format", "text")
    assert proc.returncode == 0
    assert "warning: open-question choice" in proc.stdout


def test_scenario_dir_env(tmp_path, monkeypatch):
    custom = tmp_path / "lib"
    custom.mkdir()
    src = cli.scenario_dir() / "thmB.json"
    (custom / "mine.json").write_text(src.read_text())
    monkeypatch.setenv(cli.SCENARIO_DIR_ENV, str(custom))
    report = cli.run("check-scenario", "mine")
    assert report["verdict"] == "nonvanishing invariant: YES"


def test_library_names_resolve_beside_the_package(tmp_path, monkeypatch):
    shipped = Path(cli.__file__).parent / "scenarios"
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.SCENARIO_DIR_ENV, raising=False)
    assert cli.scenario_dir() == shipped
    assert sorted(p.stem for p in shipped.glob("*.json")) == sorted(LIBRARY)
    for name in LIBRARY:
        assert cli._resolve_scenario_path(name) == shipped / f"{name}.json"
    monkeypatch.setenv(cli.SCENARIO_DIR_ENV, str(tmp_path))
    assert cli.scenario_dir() == tmp_path
    with pytest.raises(cli.ScenarioError, match="not found"):
        cli._resolve_scenario_path("thmB")


def test_selftest_passes():
    report = cli.run("selftest", None)
    assert report["verdict"] == "all oracle suites pass"
    assert all(line.startswith("PASS") for line in report["checks"])
    # a faster round trip must not come from a smaller grid
    round_trip = "PASS parameter round trips: 3124 exhaustive cases (<= 5 summands, ladders <= 4)"
    assert round_trip in report["checks"]
    # nor a faster grading from a smaller grid
    grading = (
        "PASS dual radical grading = radical roots of the dual datum (U: n,c <= 6; "
        "Sp, SO: n,c <= 4); conjugation operator trace and involution"
    )
    assert grading in report["checks"]
    assert len(report["checks"]) == 9


def test_selftest_suites_are_the_benchmark_suites():
    """The benchmark reads one metric per suite, named after the suite."""
    from langkit import selftest

    source = (Path(__file__).resolve().parents[1] / "perfbench" / "run.py").read_text(
        encoding="utf-8"
    )
    (bench,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SUITES"
    ]
    assert tuple(s.__name__.removeprefix("_suite_") for s in selftest.SUITES) == bench


SELFTEST_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "selftest.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("argv", sorted(SELFTEST_GOLDEN))
def test_selftest_matches_golden(capsys, argv):
    """selftest prints byte-for-byte as recorded in each format, keyed by argv."""
    assert sorted(SELFTEST_GOLDEN) == [f"selftest --format {f}" for f in ("json", "text")]
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == SELFTEST_GOLDEN[argv].encode()


def test_ledger_override_flag(tmp_path):
    override = {
        "schema": "1",
        "ledger_overrides": [
            {"factor": ["wedge2", "pi"], "point": "1", "order": 0, "provenance": "test"}
        ],
    }
    p = tmp_path / "override.json"
    p.write_text(json.dumps(override))
    proc = run_cli(
        "pole", "--scenario", "thmB", "--ledger-override", str(p), "--format", "json"
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "no pole"


def test_ledger_override_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    import tempfile

    override = {"schema": "1", "ledger_overrides": [
        {"factor": ["wedge2", "pi"], "point": "1", "order": 0, "provenance": "test"}
    ]}
    p = tmp_path / "override.json"
    p.write_text(json.dumps(override))
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    assert cli.main(["pole", "--scenario", "thmB", "--ledger-override", str(p)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "no pole"
    assert list(scratch.iterdir()) == []


def test_ledger_override_errors_point_into_the_override_file(tmp_path):
    """The file's entries are read after the scenario's own, at their own
    indices, and an entry without provenance is traced to the file."""
    scn = json.loads((cli.scenario_dir() / "thmB.json").read_text())
    scn["ledger_overrides"] = [{"factor": ["wedge2", "pi"], "point": "1", "order": 0}]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    override = tmp_path / "override.json"
    entry = {"factor": ["wedge2", "pi"], "point": "1", "order": 1.5}
    override.write_text(json.dumps({"schema": "1", "ledger_overrides": [entry]}))
    proc = run_cli("pole", "--scenario", str(path), "--ledger-override", str(override))
    assert proc.returncode == 2
    pointer = f"{override}#/ledger_overrides/0/order"
    assert proc.stderr == f"error: {pointer}: must be an integer, not 1.5\n"
    override.write_text(json.dumps({"schema": "1", "ledger_overrides": "x"}))
    proc = run_cli("pole", "--scenario", str(path), "--ledger-override", str(override))
    assert proc.stderr == f"error: {override}#/ledger_overrides: must be a list\n"
    override.write_text(json.dumps({"schema": "2"}))
    proc = run_cli("pole", "--scenario", str(path), "--ledger-override", str(override))
    assert proc.stderr == f'error: {override}#/schema: must be one of "1", not "2"\n'
    entry["order"] = -1  # the file's entry wins over the scenario's order 0
    override.write_text(json.dumps({"schema": "1", "ledger_overrides": [entry]}))
    proc = run_cli("check-scenario", "--scenario", str(path), "--ledger-override", str(override))
    assert proc.returncode == 0, proc.stderr
    ledger = json.loads(proc.stdout)["details"]["ledger"]
    assert f"override:{override}#/ledger_overrides/0" in [e["provenance"] for e in ledger]


# thmA with its auxiliary factor's order at 1 overridden to k, and the
# central order it declares: with no pole and no central zero the auxiliary
# pole is missing; a declared central zero vanishes on both sides whatever k is
LEDGER_CASES = {"thmA aux 0 central 0": (0, 0), "thmA aux -2 central 1": (-2, 1)}


def _ledger_case(tmp_path, name) -> str:
    k, central = LEDGER_CASES[name]
    scn = json.loads((cli.scenario_dir() / "thmA.json").read_text())
    scn["ledger_overrides"] = [{"factor": ["wedge2", "pi"], "point": 1, "order": k}]
    scn["central_order"] = central
    path = tmp_path / "case.json"
    path.write_text(json.dumps(scn))
    return str(path)


def _main(capsys, *argv) -> tuple:
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, json.loads(out) if code == 0 else None, err


def test_no_auxiliary_pole_and_no_central_zero_is_a_failed_hypothesis(tmp_path, capsys):
    path = _ledger_case(tmp_path, "thmA aux 0 central 0")
    assert _main(capsys, "check-scenario", "--scenario", path) == (
        2, None, "error: auxiliary pole missing: L(2s, pi, wedge2) has order 0 at 1, "
        "and no central zero is declared\n",
    )
    code, report, _ = _main(capsys, "pole", "--scenario", path)
    assert (code, report["verdict"], report["decision"]["contributing_factors"]) == (
        0, "no pole", [])


def test_a_declared_central_zero_vanishes_on_both_sides(tmp_path, capsys):
    path = _ledger_case(tmp_path, "thmA aux -2 central 1")
    code, report, _ = _main(capsys, "check-scenario", "--scenario", path)
    assert (code, report["verdict"]) == (0, "both sides vanish (order >= 1 on each side)")
    assert [s["citation"] for s in report["derivation"]] == [
        "central-nonvanishing-gate", "dichotomy"]
    code, report, _ = _main(capsys, "pole", "--scenario", path)
    decision = report["decision"]
    assert (code, report["verdict"], decision["total_order"]) == (0, "pole", -1)
    assert decision["contributing_factors"] == ["L(2s, pi, wedge2)"]


def _central_orders(report) -> set:
    """The central orders in 0..7 that a `pole` or `check-scenario` report
    allows: the declared order its pole decision restates, a nonzero
    central value, a central zero on both sides, or an order parity."""
    orders = set(range(8))
    for decision in (report.get("decision"), report.get("details", {}).get("pole")):
        if decision is None:
            continue
        for step in decision["derivation"]:
            head, _, declared = step["claim"].rpartition(" at 1/2 is ")
            if head.startswith("declared central order of "):
                orders &= {int(declared)}
        if any(f.startswith("central value nonzero: ") for f in decision["contributing_factors"]):
            orders &= {0}
    verdict = report.get("verdict", "")
    if verdict == "nonvanishing invariant: YES":
        orders &= {0}
    if verdict.startswith("both sides vanish"):
        orders -= {0}
    for step in report.get("derivation", []):
        for parity, rest in (("even", 0), ("odd", 1)):
            if step["claim"] == f"central vanishing order is {parity} on both sides":
                orders &= {c for c in range(8) if c % 2 == rest}
    return orders


@pytest.mark.parametrize("name", LIBRARY + tuple(LEDGER_CASES))
def test_pole_and_check_scenario_agree_on_the_central_order(tmp_path, capsys, name):
    """No two claims of the two reports on one scenario about its central
    order contradict each other; a refused command makes no claim.
    `root-number`'s parity (ROADMAP item 2(a)) is left out."""
    scenario = _ledger_case(tmp_path, name) if name in LEDGER_CASES else name
    orders = set(range(8))
    for command in ("pole", "check-scenario"):
        code, report, _ = _main(capsys, command, "--scenario", scenario)
        if code == 0:
            orders &= _central_orders(report)
    assert orders


@pytest.mark.parametrize("command", ["check-scenario", "root-number"])
@pytest.mark.parametrize(
    "table,message",
    [
        ({"r1": ["1/2"]}, "/records/0/infchar/r1: has length 1, not the degree 2"),
        ({"x1": ["1/2", "-1/2"]}, "/records/0/infchar: does not cover exactly the embeddings r1"),
    ],
)
def test_infchar_must_fit_the_degree_and_the_embeddings(tmp_path, command, table, message):
    """A short infinitesimal character used to give thmD the sign -1 with exit 0,
    and foreign labels an exit 3 without a pointer."""
    scn = json.loads((cli.scenario_dir() / "thmD.json").read_text())
    scn["records"][0]["infchar"] = table
    path = tmp_path / "thmD.json"
    path.write_text(json.dumps(scn))
    proc = run_cli(command, "--scenario", str(path))
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")


@pytest.mark.parametrize("command", ["classify", "root-number", "normalize", "satake-act"])
def test_ledger_override_is_refused_where_no_ledger_is_read(tmp_path, command):
    """Only check-scenario and pole read the ledger; elsewhere the flag used
    to be accepted and silently ignored."""
    p = tmp_path / "override.json"
    p.write_text(json.dumps({"schema": "1", "ledger_overrides": []}))
    proc = run_cli(command, "--scenario", "thmB", "--ledger-override", str(p))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: ")
    assert "unrecognized arguments: --ledger-override" in proc.stderr


def test_missing_ledger_override_is_a_usage_error(tmp_path):
    proc = run_cli(
        "pole", "--scenario", "thmB", "--ledger-override", str(tmp_path / "nope.json")
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: /")
    assert "Traceback" not in proc.stderr


def test_imports_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); "
        "import langkit.cli, langkit.selftest, langkit.dual; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['langkit']"


def test_clean_interpreter_start_up_does_not_import_typing():
    """Without `site` (``python -S``) nothing else loads `typing`, which
    costs a cold process several milliseconds."""
    code = "import sys, langkit.cli; print('typing' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    """Both cost a cold process about ten milliseconds before any work."""
    code = (
        "import sys, langkit.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "patch,pointer",
    [
        ({"records": [{"label": "pi", "degree": 0}]}, "/records/0"),
        ({"aut_spec": {"eps": 3}}, "/aut_spec"),
        ({"embeddings": {"real": ["r1"], "complex_pairs": [["r1", "r1"]]}}, "/embeddings"),
        ({"records": [{"label": "x", "degree": 2, "infchar": {"r1": ["1/3"]}}]}, "/records/0/infchar"),
    ],
)
def test_schema_errors_carry_pointers(tmp_path, patch, pointer):
    base = json.loads((cli.scenario_dir() / "thmB.json").read_text())
    base.update(patch)
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(base))
    with pytest.raises(cli.ScenarioError, match=pointer.replace("/", "/")):
        cli.run("check-scenario", str(p))


HUGE_INT = "9" * 5000


@pytest.mark.parametrize(
    "name,command,patch,pointer",
    [
        ("thmB", "check-scenario", lambda s: s["records"][0].update(weight=1.5),
         "/records/0/weight"),
        ("thmB", "pole", lambda s: s.update(ledger_overrides=[
            {"factor": ["wedge2", "pi"], "point": "1", "order": "x"}]),
         "/ledger_overrides/0/order"),
        ("appendix_pair", "check-scenario",
         lambda s: s["quasi_tempered"]["rho"]["pairs"][0].update(b="1/0"),
         "/quasi_tempered/rho/pairs/0/b"),
        ("thmE", "check-scenario", lambda s: s["records"][0].update(eta=True), "/records/0/eta"),
        ("thmF", "root-number",
         lambda s: s["ratio_flags"].update(discriminant_consistency="yes"),
         "/ratio_flags/discriminant_consistency"),
        ("thmF", "root-number", lambda s: s["ratio_flags"].update(eps_i=1.5), "/ratio_flags/eps_i"),
        ("thmF", "check-scenario", lambda s: s["ratio_flags"].update(eps_i="x"),
         "/ratio_flags/eps_i"),
        ("thmF", "root-number", lambda s: s.update(ratio_flags=[1]), "/ratio_flags"),
        ("thmE", "check-scenario", lambda s: s["aut_spec"]["embedding_map"].update(c1=1),
         "/aut_spec/embedding_map/c1"),
        ("thmF", "check-scenario", lambda s: s["aut_spec"]["embedding_map"].update(c1b=None),
         "/aut_spec/embedding_map/c1b"),
        # an integer literal past the interpreter's 4,300-digit conversion limit
        ("thmB", "pole", lambda s: s.update(central_order=HUGE_INT), "/"),
    ],
)
def test_malformed_numbers_are_usage_errors(tmp_path, name, command, patch, pointer):
    scn = json.loads((cli.scenario_dir() / f"{name}.json").read_text())
    patch(scn)
    p = tmp_path / "malformed.json"
    # json.dumps cannot write HUGE_INT as a number, so it goes in as a string and is unquoted
    p.write_text(json.dumps(scn).replace(f'"{HUGE_INT}"', HUGE_INT))
    proc = run_cli(command, "--scenario", str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {pointer}: "), proc.stderr
    assert "Traceback" not in proc.stderr


TARGET_ERROR = (
    '/theorem_target: must be one of "A", "B", "C", "D", "E", "F", "appendix", "custom", not "Z"'
)
SEGMENT = {"pi": {"segments": []}, "rho": {"selfdual": ["r0"]}}
PI_B, RHO_B = json.loads((cli.scenario_dir() / "thmB.json").read_text())["records"]
THM_E = json.loads((cli.scenario_dir() / "thmE.json").read_text())  # overrides every thmB key
SHARED_PI = [PI_B, {**RHO_B, "label": "pi"}]  # thmB's rho relabelled pi
SATAKE = {"family": "GL", "size": 2, "eigenvalues": ["1", "1"]}
FACTOR_KINDS = '"std", "rankin", "bc_rankin", "wedge2", "sym2", "asai"'
DROP = object()  # a patch value that removes its key from the scenario


@pytest.mark.parametrize(
    "command,patch,message",
    [
        ("check-scenario", {"embeddings": [1]}, "/embeddings: must be an object"),
        ("root-number", {"embeddings": [1]}, "/embeddings: must be an object"),
        ("check-scenario", {"records": "x"}, "/records: must be a list"),
        ("pole", {"records": [1]}, "/records/0: must be an object"),
        ("check-scenario", {"theorem_target": "Z"}, TARGET_ERROR),
        ("pole", {"theorem_target": "Z"}, TARGET_ERROR),
        ("root-number", {"theorem_target": "Z"}, TARGET_ERROR),
        ("check-scenario", {"aut_spec": [1]}, "/aut_spec: must be an object"),
        ("check-scenario", {"aut_spec": {"unit_map": [1]}}, "/aut_spec/unit_map: must be an object"),
        ("check-scenario", {"aut_spec": {"embedding_map": [1]}},
         "/aut_spec/embedding_map: must be an object"),
        ("check-scenario", {"roles": "x"}, "/roles: must be an object"),
        ("pole", {"roles": {"pi": [1], "rho": "rho"}}, "/roles/pi: must be a string"),
        ("check-scenario", {"records": [{"label": [1], "degree": 4}]},
         "/records/0/label: must be a string"),
        ("check-scenario", {"records": [{"label": "pi", "degree": 4, "infchar": [1]}]},
         "/records/0/infchar: must be an object"),
        ("pole", {"ledger_overrides": [1]}, "/ledger_overrides/0: must be an object"),
        ("pole", {"ledger_overrides": "x"}, "/ledger_overrides: must be a list"),
        ("normalize", {"quasi_tempered": {"pi": {"segments": [1]}}},
         "/quasi_tempered/pi/segments/0: must be an object"),
        ("satake-act", {"satake_class": [1]}, "/satake_class: must be an object"),
        ("check-scenario", {"central_order": -1},
         "/central_order: must be a non-negative integer, got -1"),
        ("pole", {"central_order": -1}, "/central_order: must be a non-negative integer, got -1"),
        ("check-scenario", {"central_order": True}, "/central_order: must be an integer, not true"),
        ("pole", {"central_order": True}, "/central_order: must be an integer, not true"),
        ("check-scenario", {"records": [{"label": "pi", "degree": True}]},
         "/records/0/degree: must be an integer, not true"),
        ("pole", {"ledger_overrides": [{"factor": ["wedge2", "pi"], "point": "1", "order": True}]},
         "/ledger_overrides/0/order: must be an integer, not true"),
        ("pole", {"central_order": 1.5}, "/central_order: must be an integer, not 1.5"),
        ("pole", {"central_order": "1"}, '/central_order: must be an integer, not "1"'),
        ("pole", {"ledger_overrides": [{"factor": ["wedge2", "pi"], "point": "1", "order": -1.5}]},
         "/ledger_overrides/0/order: must be an integer, not -1.5"),
        ("check-scenario", {"aut_spec": {"eps": True}},
         "/aut_spec/eps: must be one of 1, -1, not true"),
        ("check-scenario", {"records": [{"label": "pi", "degree": 4, "base": [1]}]},
         "/records/0/base: must be a string"),
        ("normalize", {"quasi_tempered": {**SEGMENT, "pi": {"segments": [{"m": 1.5}]}}},
         "/quasi_tempered/pi/segments/0/m: must be an integer, not 1.5"),
        ("normalize", {"quasi_tempered": {**SEGMENT, "pi": {"segments": [{"label": [1]}]}}},
         "/quasi_tempered/pi/segments/0/label: must be a string"),
        ("check-scenario", {"aut_spec": {"unit_map": {"u1": 5}}},
         "/aut_spec/unit_map/u1: must be a string"),
        ("pole", {"name": 5}, "/name: must be a string"),
        ("satake-act", {"satake_class": {**SATAKE, "size": 2.5}},
         "/satake_class/size: must be an integer, not 2.5"),
        ("satake-act", {"satake_class": {**SATAKE, "eigenvalues": "11"}},
         "/satake_class/eigenvalues: must be a list"),
        ("check-scenario", {"records": [{"label": "pi", "degree": 4, "weight": True}]},
         '/records/0/weight: must be an integer or a "p/q" string, not true'),
        ("check-scenario", {"embeddings": {"real": "r1"}}, "/embeddings/real: must be a list"),
        ("check-scenario", {"records": [{"label": "pi", "degree": 4, "infchar": {"r1": "9"}}]},
         "/records/0/infchar/r1: must be a list"),
        ("normalize", {"quasi_tempered": {**SEGMENT, "rho": {"selfdual": [[1]]}}},
         "/quasi_tempered/rho/selfdual/0: must be a string"),
        ("satake-act", {"satake_class": {**SATAKE, "eigenvalues": [1, 2]}},
         "/satake_class/eigenvalues/0: must be a string"),
        ("normalize", {"quasi_tempered": {**SEGMENT, "aux": "bogus"}},
         '/quasi_tempered/aux: must be one of "wedge2", "sym2", "asai+", "asai-", not "bogus"'),
        ("normalize", {"quasi_tempered": {**SEGMENT, "aux": 5}},
         '/quasi_tempered/aux: must be one of "wedge2", "sym2", "asai+", "asai-", not 5'),
        ("satake-act", {"satake_class": {**SATAKE, "family": 5}},
         "/satake_class/family: must be a string"),
        ("normalize", {}, "/quasi_tempered: missing"),
        ("satake-act", {}, "/satake_class: missing"),
        ("check-scenario", {"records": [{"label": "pi", "degree": 4, "weight": "1e9"}]},
         '/records/0/weight: must be an integer or a "p/q" string, not "1e9"'),
        ("satake-act", {"satake_class": {**SATAKE, "eigenvalues": ["q^1/0", "1"]}},
         "/satake_class: q-exponent 1/0 has a zero denominator"),
        ("check-scenario", {"records": [{"label": "pi", "degree": 2, "infchar": {"r1": ["1/2"]}}]},
         "/records/0/infchar/r1: has length 1, not the degree 2"),
        ("root-number", {"records": [{"label": "pi", "degree": 1, "infchar": {"x1": ["1/2"]}}]},
         "/records/0/infchar: does not cover exactly the embeddings r1"),
        ("pole", {"records": [{"label": "pi", "degree": 1, "infchar": {"r1": ["1/3"]}}]},
         '/records/0/infchar/r1/0: must be a half-integer, not "1/3"'),
        ("check-scenario", {"embeddings": {"complex_pairs": [["c1", "c2", "c3"]]}},
         "/embeddings/complex_pairs/0: has length 3, not 2"),
        ("root-number", {"embeddings": {"complex_pairs": [["c1"]]}},
         "/embeddings/complex_pairs/0: has length 1, not 2"),
        ("pole", {"ledger_overrides": [{"factor": ["bogus", "pi"], "point": "1", "order": 0}]},
         f'/ledger_overrides/0/factor/0: must be one of {FACTOR_KINDS}, not "bogus"'),
        ("pole", {"ledger_overrides": [{"factor": ["asai", "pi"], "point": "1", "order": 0}]},
         '/ledger_overrides/0/factor/1: must be one of 1, -1, not "pi"'),
        ("pole", {"ledger_overrides": [{"factor": ["wedge2"], "point": "1", "order": 0}]},
         "/ledger_overrides/0/factor: has length 1, not 2"),
        ("pole", {"ledger_overrides": [{"factor": [], "point": "1", "order": 0}]},
         "/ledger_overrides/0/factor: must name a factor kind"),
        ("pole", {"ledger_overrides": [{"factor": ["wedge2", "pi", "x"], "point": "1", "order": 0}]},
         "/ledger_overrides/0/factor: has length 3, not 2"),
        ("pole", {"ledger_overrides": [{"factor": [1, "pi"], "point": "1", "order": 0}]},
         f"/ledger_overrides/0/factor/0: must be one of {FACTOR_KINDS}, not 1"),
        ("pole", {"ledger_overrides": [{"factor": ["asai", 1, 2], "point": "1", "order": 0}]},
         "/ledger_overrides/0/factor/2: must be a string"),
        ("satake-act", {"satake_class": SATAKE, "aut_spec": {"unit_map": {"u1": "u2"}}},
         "/aut_spec: unit_map must be a bijection on symbols"),
        # segment sizes: range-checked at the boundary though no report reads them
        *(
            ("normalize", {"quasi_tempered": {**SEGMENT, "pi": {"segments": [{}, {key: bad}]}}},
             f"/quasi_tempered/pi/segments/1/{key}: {message}")
            for key in ("m", "h")
            for bad, message in (
                (0, "must be a positive integer, got 0"),
                (-1, "must be a positive integer, got -1"),
                (True, "must be an integer, not true"),
                ("2", 'must be an integer, not "2"'),
            )
        ),
        # the ledger is keyed by label: pi and rho are one record or have two labels
        *(
            (command, {"records": SHARED_PI, "roles": {}},
             "/records/1/label: 'pi' is also the label of /records/0")
            for command in ("pole", "check-scenario", "classify", "root-number")
        ),
        ("pole", {"records": [{**PI_B, "label": "1"}], "roles": {}},
         "/records/0/label: '1' is the trivial core's label"),
        ("pole", {"records": SHARED_PI, "roles": {"pi": "pi", "rho": "pi"}},
         "/roles/pi: label 'pi' names several records"),
        ("check-scenario", {"records": [*SHARED_PI, RHO_B]},
         "/roles/pi: label 'pi' names several records"),
        ("pole", {"roles": {"pi": "rho", "rho": "rho"}},
         "/roles/rho: names the same record as /roles/pi"),
        ("root-number", {"roles": {"pi": "pi", "rho": "pi"}},
         "/roles/rho: names the same record as /roles/pi"),
        # segment labels, and pair labels, name one block each
        ("normalize",
         {"quasi_tempered": {**SEGMENT, "pi": {"segments": [{"label": "a"}, {"label": "a"}]}}},
         "/quasi_tempered/pi/segments/1/label: 'a' is also the label of "
         "/quasi_tempered/pi/segments/0"),
        ("normalize",
         {"quasi_tempered": {"pi": {"segments": [{}]}, "rho": {
             "selfdual": ["r0"], "pairs": [{"label": "x", "b": "1/4"}, {"label": "x", "b": "1/5"}]
         }}},
         "/quasi_tempered/rho/pairs/1/label: 'x' is also the label of /quasi_tempered/rho/pairs/0"),
        ("normalize",
         {"quasi_tempered": {**SEGMENT, "pi": {"segments": [{"label": "p2"}, {}]}}},
         "/quasi_tempered/pi/segments/1: 'p2' is also the label of /quasi_tempered/pi/segments/0"),
        ("check-scenario",
         {**THM_E, "aut_spec": {**THM_E["aut_spec"], "embedding_map": {"c1": "c1", "c1b": "c1"}}},
         "/aut_spec: embedding_map must be a bijection on labels"),
        # segments, self-dual parts and pairs share one label table
        ("normalize",
         {"quasi_tempered": {"pi": {"segments": [{}]}, "rho": {
             "selfdual": ["r0"], "pairs": [{"label": "r0", "b": "1/4"}]
         }}},
         "/quasi_tempered/rho/pairs/0/label: 'r0' is also the label of "
         "/quasi_tempered/rho/selfdual/0"),
        ("normalize", {"quasi_tempered": {**SEGMENT, "rho": {"selfdual": ["r0", "r0"]}}},
         "/quasi_tempered/rho/selfdual/1: 'r0' is also the label of /quasi_tempered/rho/selfdual/0"),
        ("normalize",
         {"quasi_tempered": {"pi": {"segments": [{}]}, "rho": {"selfdual": ["p1"]}}},
         "/quasi_tempered/rho/selfdual/0: 'p1' is also the label of /quasi_tempered/pi/segments/0"),
        ("normalize",
         {"quasi_tempered": {"pi": {"segments": [{}]}, "rho": {
             "selfdual": ["r1"], "pairs": [{"b": "1/4"}]
         }}},
         "/quasi_tempered/rho/pairs/0: 'r1' is also the label of /quasi_tempered/rho/selfdual/0"),
        # a hypothesis check names which of the two inputs it lacks
        ("check-scenario", {"embeddings": DROP}, "regularity: no embeddings supplied"),
        ("check-scenario",
         {"records": [{k: v for k, v in PI_B.items() if k != "infchar"}, RHO_B]},
         "regularity: record pi lacks an infinitesimal character"),
        # an empty product of discrete blocks is malformed, as an empty self-dual part is
        ("normalize", {"quasi_tempered": SEGMENT},
         "/quasi_tempered: need at least one discrete block"),
        ("check-scenario", {"theorem_target": "appendix", "quasi_tempered": SEGMENT},
         "/quasi_tempered: need at least one discrete block"),
        # a q-exponent is read in the grammar of every scenario rational
        *(
            ("satake-act", {"satake_class": {**SATAKE, "eigenvalues": [token, "1"]}},
             f'/satake_class: q-exponent {exponent} must be an integer or a "p/q" string')
            for token, exponent in (
                ("q^1_0", "1_0"), ("q^1.5*u", "1.5"), ("q^1e1", "1e1"), ("q^1/-2", "1/-2"),
            )
        ),
        # a class holds one eigenvalue per dimension of the standard dual representation
        *(
            ("satake-act",
             {**THM_E, "satake_class": {**THM_E["satake_class"], "eigenvalues": eigenvalues}},
             f"/satake_class: ResGL2 takes 2 eigenvalues, not {len(eigenvalues)}")
            for eigenvalues in (["u1"], ["u1", "u2", "u3", "u4", "u5"])
        ),
        # the ratio signs are read as signs whatever the target
        *(
            ("root-number", {"ratio_flags": {key: bad}},
             f"/ratio_flags/{key}: must be one of 1, -1, not {bad}")
            for key, bad in (("eps_sqrt_disc", 2), ("eps_i", 0))
        ),
    ],
)
def test_malformed_structure_is_a_usage_error(tmp_path, command, patch, message):
    scn = json.loads((cli.scenario_dir() / "thmB.json").read_text())
    scn.update(patch)
    p = tmp_path / "malformed.json"
    p.write_text(json.dumps({k: v for k, v in scn.items() if v is not DROP}))
    proc = run_cli(command, "--scenario", str(p))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"


def test_the_trivial_core_may_be_given_explicitly(tmp_path):
    """thmA lists the core "1" as a record; read without roles, it is the
    second record, not a collision with the implied core."""
    scn = json.loads((cli.scenario_dir() / "thmA.json").read_text())
    scn.pop("roles")
    p = tmp_path / "thmA.json"
    p.write_text(json.dumps(scn))
    proc = run_cli("pole", "--scenario", str(p))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli("pole", "--scenario", "thmA").stdout


@pytest.mark.parametrize("name", [n for n in LIBRARY if n.startswith("appendix_")])
def test_segment_sizes_are_checked_but_unread(tmp_path, name):
    """Every segment's m and h moved to other positive ints: the normalize
    and check-scenario reports stay byte-identical in both formats."""
    scn = json.loads((cli.scenario_dir() / f"{name}.json").read_text())
    for seg in scn["quasi_tempered"]["pi"]["segments"]:
        seg["m"], seg["h"] = seg["m"] + 6, seg["h"] + 8
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(scn))
    for command in ("normalize", "check-scenario"):
        want, got = cli.run(command, name), cli.run(command, str(p))
        assert cli.render_json(got) == cli.render_json(want)
        assert cli.render_text(got) == cli.render_text(want)


def test_override_accepts_every_factor_kind(tmp_path):
    """One override per kind of the table, at a point no verdict reads."""
    scn = json.loads((cli.scenario_dir() / "thmB.json").read_text())
    factors = (
        ["std", "pi"],
        ["rankin", "pi", "rho"],
        ["bc_rankin", "pi", "rho"],
        ["wedge2", "pi"],
        ["sym2", "rho"],
        ["asai", -1, "pi"],
    )
    scn["ledger_overrides"] = [{"factor": f, "point": "7", "order": 0} for f in factors]
    p = tmp_path / "kinds.json"
    p.write_text(json.dumps(scn))
    proc = run_cli("pole", "--scenario", str(p))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli("pole", "--scenario", "thmB").stdout


@pytest.mark.parametrize(
    "family,blocks,weight",
    [("C", "2", "-1,-2"), ("A", "1,2", "-1,-2,-3"), ("A", "2,1", "-1/2,-1/2,-5/2")],
)
def test_negative_weight_is_a_value(family, blocks, weight):
    """``--weight -1,-2`` reads as ``--weight=-1,-2``, not as an option."""
    common = ("kostant", "--family", family, "--rank", "2", "--blocks", blocks)
    spaced = run_cli(*common, "--weight", weight)
    joined = run_cli(*common, f"--weight={weight}")
    assert "usage:" not in joined.stderr
    assert (spaced.stdout, spaced.stderr, spaced.returncode) == (
        joined.stdout,
        joined.stderr,
        joined.returncode,
    )


def test_non_integer_blocks_is_a_usage_error():
    proc = run_cli("kostant", "--family", "C", "--rank", "4", "--blocks", "x")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: langkit kostant")
    assert "argument --blocks" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("fmt,suffix", [("json", "json"), ("text", "txt")])
def test_kostant_matches_golden(fmt, suffix):
    golden = Path(__file__).parent / "golden" / f"kostant_C4_2_2.{suffix}"
    proc = subprocess.run(
        [sys.executable, "-m", "langkit.cli", "kostant", "--family", "C", "--rank", "4",
         "--blocks", "2", "--core", "2", "--weight", "3,2,1,0", "--format", fmt],
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.read_bytes()


KOSTANT_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "kostant.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("argv", sorted(KOSTANT_GOLDEN))
def test_kostant_half_integral_weights_match_golden(capsys, argv):
    """B3, D4 and A3 shapes with half-integral weights, keyed by argv."""
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out == KOSTANT_GOLDEN[argv]


@pytest.mark.parametrize(
    "family,weight",
    [("C", "10,9,8,7,6,5,4,3,2,1"), ("D", "19/2,17/2,15/2,13/2,11/2,9/2,7/2,5/2,3/2,1/2")],
)
def test_kostant_renders_each_coordinate_as_rat_str(family, weight):
    """At C10(5|5) and D10(5|5) every rendered weight entry is `rat_str` of
    the coordinate `kostant_weights` returns, in the same order."""
    from langkit.rationals import rat_str
    from langkit.weyl import ParabolicShape, RootDatum, Weight, kostant_weights

    args = cli.build_parser().parse_args(
        ["kostant", "--family", family, "--rank", "10", "--blocks", "5", "--core", "5",
         "--weight", weight]
    )
    assert all(type(x) is int for x in args.weight)  # --weight is read doubled
    lam = Weight(tuple(Fraction(x, 2) for x in args.weight))
    datum = RootDatum(family, 10)
    want = [
        {"degree": d, "weight": [rat_str(c) for c in wt.coords]}
        for d, wt in kostant_weights(lam, datum, ParabolicShape((5,), 5, datum))
    ]
    assert len(want) == 8064
    assert cli.run("kostant", None, args=args)["weights"] == want


@pytest.mark.parametrize(
    "weight,message",
    [
        ("1.5", '/0: must be an integer or a "p/q" string, not "1.5"'),
        ("3e0", '/0: must be an integer or a "p/q" string, not "3e0"'),
        ("1_0", '/0: must be an integer or a "p/q" string, not "1_0"'),
        ("1.0,0,0,0", '/0: must be an integer or a "p/q" string, not "1.0"'),
        ("1/3", '/0: must be a half-integer, not "1/3"'),
        ("3,2,1/3,0", '/2: must be a half-integer, not "1/3"'),
        ("-1/4,-2", '/0: must be a half-integer, not "-1/4"'),
        ("1/0", '/0: must be an integer or a "p/q" string, not "1/0"'),
        ("3,,1,0", '/1: must be an integer or a "p/q" string, not ""'),
        ("x", '/0: must be an integer or a "p/q" string, not "x"'),
    ],
)
def test_bad_weight_is_a_usage_error(weight, message):
    """A weight entry outside the scenario grammar for half-integers is an
    argparse error naming --weight and the entry."""
    proc = run_cli("kostant", "--family", "C", "--rank", "4", "--blocks", "2", "--core", "2",
                   "--weight", weight)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: langkit kostant")
    assert proc.stderr.endswith(f"error: argument --weight: {message}\n")
    assert "Traceback" not in proc.stderr


def _half_integer_oracle(value):
    """("ok", 2x) or ("refused", the text after the pointer), read through
    Fraction's own parser and `doubled`: the reference for the int reader."""
    if type(value) is int:
        return "ok", 2 * value
    try:
        if type(value) is str and RATIONAL.fullmatch(value):
            x2 = doubled(Fraction(value.strip()))
            if x2 is None:
                return "refused", f": must be a half-integer, not {json.dumps(value)}"
            return "ok", x2
    except (ValueError, ZeroDivisionError):
        pass
    return "refused", f': must be an integer or a "p/q" string, not {json.dumps(value)}'


BIG = "1" * 4301  # one digit past int's default string-conversion limit
HALF_INTEGER_GRID = (
    *(0, 1, -1, 7, -12, 10**40),
    *(True, False, None, 1.5, 2.0, -0.5, [], {}, ["1/2"]),
    *("0", "3", "-3", "+3", "3/2", "-3/2", "+3/2", "-7/2", "4/2", "-4/2", "3/6", "-3/6"),
    *(" 5/2", "5/2 ", "\t-1/2\n", " +4 ", " 1/2 ", "- 1/2", "1 /2", "1/ 2"),
    *("\x1c3/2\x1f", "\u20037\u3000", "\x1d-4"),  # Unicode spaces: int refuses \x1c-\x1f
    *("-0/2", "+0/7", "00/02", "007", "0/1", "1/3", "-2/3", "5/4", "1/0", "0/0", "-1/0"),
    *("1_0", "1e9", "1E9", "1.5", "1.", ".5", "", " ", "x", "3/-2", "3/+2", "1//2"),
    *("1/2/3", "++1", "0x10", "١", "½", "inf", "nan"),
    *(BIG, f"-{BIG}", f"{BIG}/2", f"1/{BIG}", f"{BIG}/{BIG}", f"{BIG}/0"),
    *("1" * 4300, f"{'1' * 4300}/2", f"2/{'1' * 4300}", f"{'4' * 4300}/2"),
)


@pytest.mark.parametrize("key", ["r1", "a/b~c"])
def test_half_integer_reader_agrees_with_the_fraction_oracle(key):
    """A half-integer entry read straight to 2x, with no Fraction, agrees
    with Fraction's parser and `doubled` on the value or on the exact
    refusal text, pointer included, both in a scenario and in --weight."""
    parent = "/records/0/infchar"
    at = f"{parent}/{key.replace('~', '~0').replace('/', '~1')}/2"
    mismatches = []
    for value in HALF_INTEGER_GRID:
        outcome, want = _half_integer_oracle(value)
        try:
            got = "ok", cli._field({key: ["1/2", 3, value]}, key, [cli.HALF_INTEGER], parent)
        except cli.ScenarioError as exc:
            got = "refused", str(exc)
        expected = ("ok", [1, 6, want]) if outcome == "ok" else ("refused", f"{at}{want}")
        if got != expected:
            mismatches.append((value, got, expected))
        if type(value) is not str or key != "r1":
            continue
        try:
            got = "ok", cli._weight(f"1/2,3,{value}")
        except argparse.ArgumentTypeError as exc:
            got = "refused", str(exc)
        expected = ("ok", (1, 6, want)) if outcome == "ok" else ("refused", f"/2{want}")
        if got != expected:
            mismatches.append(("--weight", value, got, expected))
    assert mismatches == []
    reached = {want.split(",")[0] for _, want in map(_half_integer_oracle, HALF_INTEGER_GRID)
               if type(want) is str}
    assert reached == {": must be a half-integer", ': must be an integer or a "p/q" string'}


RETYPES = (None, True, 1.5, "x", [], {})
DROPPED = object()


def _pointers(node, at=""):
    """Every JSON pointer below node (its objects, lists and leaves)."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield f"{at}/{key}", child
        yield from _pointers(child, f"{at}/{key}")


def _mutate(scn, pointer, value):
    *parents, last = pointer.split("/")[1:]
    node = scn
    for key in parents:
        node = node[int(key) if isinstance(node, list) else key]
    last = int(last) if isinstance(node, list) else last
    if value is DROPPED:
        del node[last]
    else:
        node[last] = value


def _mutants(name, values):
    """(pointer, value, mutated scenario) for every field of a library scenario and
    every value of another type than the field's own."""
    text = (cli.scenario_dir() / f"{name}.json").read_text()
    for pointer, original in _pointers(json.loads(text)):
        for value in values:
            if type(value) is type(original):
                continue
            scn = json.loads(text)
            _mutate(scn, pointer, value)
            yield pointer, value, scn


# the command that reads a top-level key check-scenario does not read
READER = {"satake_class": "satake-act"}


@pytest.mark.parametrize("name", LIBRARY)
def test_every_retyped_field_is_a_usage_error_with_its_pointer(tmp_path, capsys, name):
    path = tmp_path / "mutant.json"
    violations = []
    for pointer, value, scn in _mutants(name, RETYPES):
        path.write_text(json.dumps(scn))
        command = READER.get(pointer.split("/")[1], "check-scenario")
        try:
            code = cli.main([command, "--scenario", str(path)])
        except Exception as exc:  # noqa: BLE001 - any escape breaks the exit-code contract
            code = repr(exc)
        err = capsys.readouterr().err
        parts = pointer.split("/")
        ancestors = ["/".join(parts[:k]) for k in range(2, len(parts))]
        accepted = [f"error: {pointer}:", f"error: {pointer}/"]
        accepted += [f"error: {a}:" for a in ancestors]
        if code != 2 or not err.startswith(tuple(accepted)):
            violations.append((pointer, value, code, err))
    assert violations == []


@pytest.mark.parametrize("name", LIBRARY)
def test_every_dropped_field_keeps_the_exit_code_contract(tmp_path, capsys, name):
    path = tmp_path / "mutant.json"
    violations = []
    for pointer, _, scn in _mutants(name, (DROPPED,)):
        path.write_text(json.dumps(scn))
        try:
            code = cli.main(["check-scenario", "--scenario", str(path)])
        except Exception as exc:  # noqa: BLE001 - any escape breaks the exit-code contract
            code = repr(exc)
        err = capsys.readouterr().err
        if code not in (0, 2, 3) or (code and not err.startswith("error: ")):
            violations.append((pointer, code, err))
    assert violations == []


SCENARIO_COMMANDS = ("check-scenario", "pole", "classify", "root-number", "normalize", "satake-act")
# exit code with --strict, per command, over LIBRARY in order
STRICT_EXIT_CODES = {
    "check-scenario": (2, 2, 2, 0, 2, 0, 2, 2, 2),
    "pole": (0, 0, 0, 3, 0, 0, 2, 2, 2),
    "classify": (0, 0, 0, 0, 0, 0, 2, 2, 2),
    "root-number": (0, 0, 0, 0, 0, 0, 2, 2, 2),
    "normalize": (2, 2, 2, 2, 2, 2, 2, 2, 2),
    "satake-act": (2, 2, 2, 2, 0, 2, 2, 2, 2),
}


@pytest.mark.parametrize("name", LIBRARY)
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_strict_exit_code(capsys, command, name):
    """--strict meeting an open-question choice is exit 2 on every command,
    with the one refusal message."""
    code = cli.main([command, "--scenario", name, "--strict"])
    err = capsys.readouterr().err
    assert code == STRICT_EXIT_CODES[command][LIBRARY.index(name)], err
    if command in ("check-scenario", "normalize") and name.startswith("appendix"):
        refusal = "strict mode: open-question choices relied upon: word-length-additivity"
        assert err == f"error: {refusal}\n"


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("name", LIBRARY)
@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_no_report_prints_a_fraction_repr(capsys, command, name, fmt):
    """Exact values render as "p/q" strings, never as a `Fraction(...)` repr."""
    code = cli.main([command, "--scenario", name, "--format", fmt])
    out = capsys.readouterr().out
    assert code != 0 or "Fraction(" not in out


REPORTS_GOLDEN = Path(__file__).parent / "golden" / "reports.json"
REPORTS = json.loads(REPORTS_GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_library_report_matches_golden(capsys, key):
    """Every library (command, scenario) pair that exits 0, in both formats,
    renders byte-for-byte as recorded."""
    command, name, fmt = key.split()
    assert cli.main([command, "--scenario", name, "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == REPORTS[key].encode()


INVOCATIONS = json.loads(
    (Path(__file__).parent / "golden" / "invocations.json").read_text(encoding="utf-8")
)


def test_invocations_golden_covers_every_library_run():
    assert sorted(INVOCATIONS) == sorted(
        f"{command} {name} {fmt}{strict}"
        for command in SCENARIO_COMMANDS
        for name in LIBRARY
        for fmt in ("json", "text")
        for strict in ("", " --strict")
    )


@pytest.mark.parametrize("key", sorted(INVOCATIONS))
def test_library_invocation_matches_golden(capsys, key):
    """Every library invocation, with and without --strict, ends with the
    recorded exit code and stderr; one that exits 0 prints the plain run's
    recorded report."""
    command, name, fmt, *strict = key.split()
    code = cli.main([command, "--scenario", name, "--format", fmt, *strict])
    captured = capsys.readouterr()
    assert {"exit": code, "stderr": captured.err} == INVOCATIONS[key]
    if code == 0:
        assert captured.out.encode() == REPORTS[f"{command} {name} {fmt}"].encode()


# render_json: byte-equal to the stdlib's indent encoder on the report domain


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# quote, backslash, control characters, the line and paragraph separators,
# non-ASCII and astral characters (written as surrogate pairs)
_JSON_TEXT = st.text(
    st.sampled_from('"\\\x00\x08\x1f\x7f\n\t/ a\u2028\u2029≥σ\U0001d11e\U0001f600') | st.characters()
)
_JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((0, -1, 2**64, 2**64 + 1, -(2**64) - 1, 10**30))
    | _JSON_TEXT
    | st.sampled_from(([], {})),  # empty containers as leaves, at any depth
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=40,
)


@given(st.dictionaries(_JSON_TEXT, _JSON_TREES, max_size=5))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_render_json_is_the_stdlib_encoder(report):
    assert cli.render_json(report) == _stdlib_json(report)


@pytest.mark.parametrize(
    "family,weight,sha256",
    [
        ("C", "10,9,8,7,6,5,4,3,2,1", "2b3786a8"),
        ("D", "19/2,17/2,15/2,13/2,11/2,9/2,7/2,5/2,3/2,1/2", "4ee13840"),
    ],
)
def test_large_kostant_report_is_the_stdlib_encoding(capsys, family, weight, sha256):
    """C10(5|5) and D10(5|5), the largest reports the tests run, print as the
    stdlib encoder renders them, with the recorded sha256s."""
    argv = ["kostant", "--family", family, "--rank", "10", "--blocks", "5", "--core", "5",
            "--weight", weight]
    assert cli.main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    # a bare bool: pytest's diff of two ~3 MB strings would take minutes
    same = out == _stdlib_json(cli.run("kostant", None, cli.build_parser().parse_args(argv)))
    assert same
    assert hashlib.sha256(out.encode()).hexdigest().startswith(sha256)


def _off_domain(node, at=""):
    """The pointers below node to a value render_json refuses."""
    if type(node) is dict:
        for key, value in node.items():
            if type(key) is not str:
                yield f"{at}: key {key!r}"
            else:
                yield from _off_domain(value, f"{at}/{key}")
    elif type(node) is list:
        for i, value in enumerate(node):
            yield from _off_domain(value, f"{at}/{i}")
    elif type(node) not in (str, int, bool, type(None)):
        yield f"{at}: {type(node).__name__}"


def test_golden_reports_hold_only_the_writers_types():
    """The report behind every reports.json row, every kostant.json row and
    selftest holds only values render_json writes."""
    parser = cli.build_parser()
    reports = {
        f"{command} {name}": cli.run(command, name)
        for command, name in {tuple(key.split()[:2]) for key in REPORTS}
    }
    for argv in KOSTANT_GOLDEN:
        reports[argv] = cli.run("kostant", None, parser.parse_args(argv.split()))
    reports["selftest"] = cli.run("selftest", None)
    assert len(reports) == 43
    assert {key: off for key, r in reports.items() if (off := list(_off_domain(r)))} == {}


@pytest.mark.parametrize(
    "report,name",
    [
        ({"x": [0.5]}, "float"),
        ({"x": {"y": (1, 2)}}, "tuple"),
        ({"x": Fraction(1, 2)}, "Fraction"),
        ({"x": {1: "y"}}, "int"),
    ],
)
def test_render_json_refuses_values_outside_the_report_domain(report, name):
    """json would write the float, the tuple and the int key; the writer
    refuses them with json's own text, so a stray one fails loudly."""
    with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
        cli.render_json(report)
    if name != "Fraction":
        assert _stdlib_json(report)
