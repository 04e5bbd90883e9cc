"""Scenario files, command dispatch and report emission.

Scenario files are JSON with exact rationals as "p/q" strings.  Reports
are deterministic: JSON output uses sorted keys, and every derivation step
carries exactly one rule citation resolvable through the shipped registry.
Exit code is 0 only when no error occurred and no hypothesis was violated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources
from pathlib import Path

from . import __version__, rules
from .arch import AutOnEmbeddings, EmbeddingSet, InfChar
from .eisenstein import (
    AnalyticLedger,
    AutSpec,
    EisensteinError,
    HypothesisError,
    constant_term_quotient,
    default_ledger,
    pole_at_half,
    residual_parameter,
    sign_pipeline,
    theorem_pipeline,
)
from .groups import SP, GroupDescriptor, ambient_with_block, unitary
from .normalizer import (
    DiscreteSegment,
    NormalizerError,
    QuasiTemperedGL,
    QuasiTemperedSelfdual,
    holomorphy_verdict,
)
from .rationals import rat, rat_str
from .satake import AutModel, SatakeClass, act, parse_eigenvalue
from .spectra import (
    CONJ_SELFDUAL,
    TRIVIAL,
    ArthurParameter,
    CuspidalRecord,
    SpectraError,
    candidate_family,
    classify_levi_support,
)

SCHEMA = "1"
SCENARIO_DIR_ENV = "LANGKIT_SCENARIO_DIR"
THEOREM_TARGETS = ("A", "B", "C", "D", "E", "F", "appendix", "custom")


class ScenarioError(ValueError):
    """Schema violation, reported with a JSON-pointer-style path."""


# ---------------------------------------------------------------------------
# scenario parsing


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(f"{path}/{key}: missing")
    return obj[key]


def _rational(value, pointer: str):
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{pointer}: {exc}") from exc


def _integer(value, pointer: str) -> int:
    if isinstance(value, bool):
        raise ScenarioError(f"{pointer}: must be an integer, not {json.dumps(value)}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{pointer}: {exc}") from exc


def _object(value, pointer: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{pointer}: must be an object")
    return value


def _list(value, pointer: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{pointer}: must be a list")
    return value


def load_scenario(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"/: cannot read {path} ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"/: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("/: scenario must be an object")
    if str(raw.get("schema", SCHEMA)) != SCHEMA:
        raise ScenarioError(f"/schema: unsupported version {raw.get('schema')!r}")
    return raw


def parse_embeddings(raw: dict, path: str = "/embeddings") -> EmbeddingSet:
    _object(raw, path)
    real = raw.get("real", [])
    pairs = raw.get("complex_pairs", [])
    try:
        return EmbeddingSet.build(real=tuple(real), complex_pairs=tuple(tuple(p) for p in pairs))
    except Exception as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_record(raw: dict, path: str) -> CuspidalRecord:
    _object(raw, path)
    label = _need(raw, "label", path)
    if not isinstance(label, str):
        raise ScenarioError(f"{path}/label: must be a string")
    degree = _need(raw, "degree", path)
    if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
        raise ScenarioError(f"{path}/degree: must be a positive integer")
    infchar = None
    if "infchar" in raw:
        table = _object(raw["infchar"], f"{path}/infchar")
        try:
            infchar = InfChar(tuple((k, tuple(v)) for k, v in sorted(table.items())))
        except Exception as exc:
            raise ScenarioError(f"{path}/infchar: {exc}") from exc
    weight = _rational(raw.get("weight", 0), f"{path}/weight")
    try:
        return CuspidalRecord(
            label=label,
            degree=degree,
            base=raw.get("base", "F"),
            duality=raw.get("duality", "none"),
            eta=raw.get("eta", 0),
            weight=weight,
            algebraicity=raw.get("algebraicity", "none"),
            infchar=infchar,
        )
    except (SpectraError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_aut_spec(raw: dict, emb: EmbeddingSet | None, path: str = "/aut_spec") -> AutSpec:
    _object(raw, path)
    eps = raw.get("eps", 1)
    unit_map = tuple(sorted(_object(raw.get("unit_map", {}), f"{path}/unit_map").items()))
    try:
        model = AutModel(unit_map=unit_map, eps=eps)
    except Exception as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    emb_map = raw.get("embedding_map")
    if emb_map is None:
        action = AutOnEmbeddings.identity(emb.labels) if emb is not None else None
    else:
        _object(emb_map, f"{path}/embedding_map")
        try:
            action = AutOnEmbeddings(tuple(sorted(emb_map.items())))
        except Exception as exc:
            raise ScenarioError(f"{path}/embedding_map: {exc}") from exc
    return AutSpec(model, action)


def parse_ledger_overrides(entries, ledger: AnalyticLedger, path: str = "/ledger_overrides"):
    for idx, entry in enumerate(_list(entries, path)):
        _object(entry, f"{path}/{idx}")
        for key in ("factor", "point", "order"):
            _need(entry, key, f"{path}/{idx}")
        factor = entry["factor"]
        if not isinstance(factor, list):
            raise ScenarioError(f"{path}/{idx}/factor: must be a list")
        ledger.set(
            tuple(factor),
            _rational(entry["point"], f"{path}/{idx}/point"),
            _integer(entry["order"], f"{path}/{idx}/order"),
            entry.get("provenance", f"override:{path}/{idx}"),
        )
    return ledger


def parse_quasi_tempered(raw: dict, path: str = "/quasi_tempered"):
    _object(raw, path)
    block = _object(_need(raw, "pi", path), f"{path}/pi")
    segments = []
    for i, seg in enumerate(_list(_need(block, "segments", f"{path}/pi"), f"{path}/pi/segments")):
        at = f"{path}/pi/segments/{i}"
        _object(seg, at)
        segments.append(
            DiscreteSegment(
                seg.get("label", f"p{i + 1}"),
                _integer(seg.get("m", 1), f"{at}/m"),
                _integer(seg.get("h", 1), f"{at}/h"),
                _rational(seg.get("a", 0), f"{at}/a"),
            )
        )
    core = _object(_need(raw, "rho", path), f"{path}/rho")
    selfdual = tuple(_list(_need(core, "selfdual", f"{path}/rho"), f"{path}/rho/selfdual"))
    pairs = tuple(
        (
            _object(p, f"{path}/rho/pairs/{i}").get("label", f"r{i + 1}"),
            _rational(_need(p, "b", f"{path}/rho/pairs/{i}"), f"{path}/rho/pairs/{i}/b"),
        )
        for i, p in enumerate(_list(core.get("pairs", []), f"{path}/rho/pairs"))
    )
    try:
        pi = QuasiTemperedGL(tuple(segments))
        rho = QuasiTemperedSelfdual(selfdual, pairs)
    except NormalizerError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return pi, rho, raw.get("aux", "wedge2")


def resolve_records(scn: dict):
    records = _list(scn.get("records", []), "/records")
    parsed = [parse_record(r, f"/records/{i}") for i, r in enumerate(records)]
    by_label = {r.label: r for r in parsed}
    roles = _object(scn.get("roles", {}), "/roles")
    if roles:
        try:
            pi = by_label[roles["pi"]]
            rho = by_label[roles["rho"]]
        except KeyError as exc:
            raise ScenarioError(f"/roles: unresolved label {exc}") from exc
        except TypeError as exc:
            raise ScenarioError("/roles: labels must be strings") from exc
    elif len(parsed) >= 2:
        pi, rho = parsed[0], parsed[1]
    elif len(parsed) == 1:
        pi, rho = parsed[0], TRIVIAL
    else:
        raise ScenarioError("/records: need at least one record")
    return pi, rho


def theorem_target(scn: dict) -> str:
    target = scn.get("theorem_target", "custom")
    if target not in THEOREM_TARGETS:
        raise ScenarioError(
            f"/theorem_target: unknown target {target!r}, expected one of "
            + ", ".join(THEOREM_TARGETS)
        )
    return target


def scenario_ambient(scn: dict, pi: CuspidalRecord, rho: CuspidalRecord) -> GroupDescriptor:
    target = theorem_target(scn)
    if target == "A":
        return GroupDescriptor(SP, pi.degree)
    if target == "E" or pi.duality == CONJ_SELFDUAL:
        return unitary(2 * pi.degree + rho.degree)
    return ambient_with_block(rho.duality, pi.degree, rho.degree)


# ---------------------------------------------------------------------------
# commands


def _report(command: str, scn_name: str, payload: dict) -> dict:
    used = set()

    def collect(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "citation" and isinstance(v, str):
                    used.add(v)
                elif k == "rule" and isinstance(v, str):
                    used.add(v)
                else:
                    collect(v)
        elif isinstance(node, list):
            for v in node:
                collect(v)

    collect(payload)
    report = {
        "schema": SCHEMA,
        "command": command,
        "scenario": scn_name,
        "citations": {rid: rules.RULES[rid] for rid in sorted(used) if rid in rules.RULES},
    }
    report.update(payload)
    return report


def _holomorphy(scn: dict, strict: bool) -> dict:
    pi, rho, aux = parse_quasi_tempered(_need(scn, "quasi_tempered", "/"))
    return holomorphy_verdict(pi, rho, aux_kind=aux, strict=strict).serialize()


def _ledger_and_central_order(scn: dict, pi: CuspidalRecord, rho: CuspidalRecord):
    """The analytic ledger with the scenario's overrides applied, and the
    declared central vanishing order."""
    ledger = parse_ledger_overrides(scn.get("ledger_overrides", []), default_ledger(pi, rho))
    order = _integer(scn.get("central_order", 0), "/central_order")
    if order < 0:
        raise ScenarioError(f"/central_order: must be a non-negative integer, got {order}")
    return ledger, order


def cmd_check_scenario(scn: dict, strict: bool) -> dict:
    target = theorem_target(scn)
    name = scn.get("name", "")
    if target == "appendix":
        return _report("check-scenario", name, {"target": target, **_holomorphy(scn, strict)})
    pi, rho = resolve_records(scn)
    emb = parse_embeddings(scn["embeddings"]) if "embeddings" in scn else None
    aut = parse_aut_spec(scn.get("aut_spec", {}), emb)
    if target in ("D", "F"):
        res = sign_pipeline(target, pi, rho, emb, scn.get("ratio_flags"), strict=strict)
        return _report("check-scenario", name, {"target": target, **res.serialize()})
    effective = target
    if target == "custom":
        effective = "E" if pi.duality == CONJ_SELFDUAL else "C"
    ledger, central = _ledger_and_central_order(scn, pi, rho)
    res = theorem_pipeline(
        effective, pi, rho, emb, aut, central_order=central, ledger=ledger, strict=strict
    )
    return _report("check-scenario", name, {"target": target, **res.serialize()})


def cmd_pole(scn: dict, strict: bool) -> dict:
    pi, rho = resolve_records(scn)
    ambient = scenario_ambient(scn, pi, rho)
    quotient = constant_term_quotient(ambient, pi, rho)
    ledger, central = _ledger_and_central_order(scn, pi, rho)
    decision = pole_at_half(quotient, ledger, central)
    payload = {
        "target": theorem_target(scn),
        "verdict": "pole" if decision.has_pole else "no pole",
        "ambient": ambient.label(),
        "quotient": quotient.serialize(),
        "decision": decision.serialize(),
    }
    if decision.has_pole:
        payload["residual_parameter"] = residual_parameter(pi, rho, decision).serialize()
    return _report("pole", scn.get("name", ""), payload)


def cmd_classify(scn: dict, strict: bool) -> dict:
    pi, rho = resolve_records(scn)
    target = ArthurParameter(((pi, 2), (rho, 1)))
    verdicts = [
        {"candidate": i, **classify_levi_support(target, cand).serialize()}
        for i, cand in enumerate(candidate_family(target))
    ]
    accepted = [v for v in verdicts if v["accepted"]]
    keys = sorted({(v["block"]["label"], v["block"]["shift"]) for v in accepted})
    payload = {
        "verdict": f"{len(keys)} induction datum accepted"
        + ("" if len(keys) == 1 else " (not unique)"),
        "accepted": [{"label": l, "shift": s} for l, s in keys],
        "candidates": verdicts,
        "citation": rules.cite("support-uniqueness"),
    }
    return _report("classify", scn.get("name", ""), payload)


def cmd_root_number(scn: dict, strict: bool) -> dict:
    pi, rho = resolve_records(scn)
    emb = parse_embeddings(scn["embeddings"]) if "embeddings" in scn else None
    target = theorem_target(scn)
    if target not in ("D", "F"):
        target = "F" if pi.duality == CONJ_SELFDUAL else "D"
    res = sign_pipeline(target, pi, rho, emb, scn.get("ratio_flags"), strict=strict)
    return _report("root-number", scn.get("name", ""), {"target": target, **res.serialize()})


def cmd_normalize(scn: dict, strict: bool) -> dict:
    return _report("normalize", scn.get("name", ""), _holomorphy(scn, strict))


def cmd_satake_act(scn: dict, strict: bool) -> dict:
    raw = _object(_need(scn, "satake_class", "/"), "/satake_class")
    fam = _need(raw, "family", "/satake_class")
    size = _integer(_need(raw, "size", "/satake_class"), "/satake_class/size")
    group = GroupDescriptor(fam, size)
    evs = tuple(parse_eigenvalue(e) for e in _need(raw, "eigenvalues", "/satake_class"))
    cls = SatakeClass(evs, group, raw.get("place", "v"))
    aut = parse_aut_spec(scn.get("aut_spec", {}), None)
    moved = act(aut.model, cls)
    return _report(
        "satake-act",
        scn.get("name", ""),
        {
            "verdict": "transported",
            "family": group.label(),
            "input": cls.serialize(),
            "output": moved.serialize(),
        },
    )


# name -> (help, handler) for the commands that read a scenario
SCENARIO_COMMANDS = {
    "check-scenario": ("run the full invariance pipeline for a scenario", cmd_check_scenario),
    "pole": ("decide the constant-term pole at the half point", cmd_pole),
    "classify": ("classify induction data for the scenario's parameter", cmd_classify),
    "root-number": ("compute the sign/ratio invariance checks", cmd_root_number),
    "normalize": ("certify the normalized-operator verdict", cmd_normalize),
    "satake-act": ("transport a symbolic eigenvalue class", cmd_satake_act),
}


def cmd_kostant(args) -> dict:
    from .weyl import ParabolicShape, RootDatum, Weight, kostant_reps, kostant_weights

    datum = RootDatum(args.family, args.rank)
    shape = ParabolicShape(args.blocks, args.core, datum)
    reps = kostant_reps(datum, shape)
    payload = {
        "verdict": f"{len(reps)} coset representatives",
        "datum": f"{args.family}{args.rank}",
        "representatives": [{"window": list(w.images), "length": l} for w, l in reps],
    }
    if args.weight:
        lam = Weight(args.weight)
        payload["weights"] = [
            {"degree": d, "weight": [rat_str(c) for c in wt.coords]}
            for d, wt in kostant_weights(lam, datum, shape)
        ]
    return _report("kostant", "", payload)


def cmd_selftest() -> dict:
    """Run the brute-force oracle suites."""
    from . import selftest

    lines, ok = selftest.run_all()
    return _report(
        "selftest",
        "",
        {"verdict": "all oracle suites pass" if ok else "FAILURES", "checks": lines},
    )


# ---------------------------------------------------------------------------
# rendering and entry point


def render_text(report: dict) -> str:
    lines = [f"[{report['command']}] scenario={report.get('scenario', '')}"]
    if "target" in report:
        lines.append(f"target: {report['target']}")
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict']}")
    if "statement" in report:
        lines.append(f"statement: {report['statement']}")
    for step in report.get("derivation", []):
        lines.append(f"  step {step.get('step', '-')}: {step['claim']} [{step['citation']}]")
    for part in report.get("certificate", []):
        lines.append(f"  part {part['part']}: {part['claim']} [{part['citation']}]")
    for check in report.get("checks", []):
        lines.append(f"  {check}")
    for w in report.get("warnings", []):
        lines.append(f"warning: open-question choice {w}: {rules.OPEN_CHOICES[w]}")
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def scenario_dir() -> Path:
    env = os.environ.get(SCENARIO_DIR_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("langkit").joinpath("scenarios")))


def _resolve_scenario_path(value: str) -> Path:
    p = Path(value)
    if p.exists():
        return p
    candidate = scenario_dir() / value
    if candidate.exists():
        return candidate
    candidate = scenario_dir() / f"{value}.json"
    if candidate.exists():
        return candidate
    raise ScenarioError(f"/: scenario file {value!r} not found")


def run(command: str, scenario_path: str | None, strict: bool = False, args=None) -> dict:
    """Dispatch a command; returns the report dict.

    The ledger overrides of ``args.ledger_override``, when given, are
    appended to the scenario's own before the command runs.
    """
    if command == "selftest":
        return cmd_selftest()
    if command == "kostant":
        return cmd_kostant(args)
    if command not in SCENARIO_COMMANDS:
        raise ScenarioError(f"/: unknown command {command!r}")
    if scenario_path is None:
        raise ScenarioError("/: this command needs --scenario")
    scn = load_scenario(_resolve_scenario_path(scenario_path))
    override = getattr(args, "ledger_override", None)
    if override:
        extra = load_scenario(Path(override))
        scn["ledger_overrides"] = _list(
            scn.get("ledger_overrides", []), "/ledger_overrides"
        ) + _list(extra.get("ledger_overrides", []), "/ledger_overrides")
    return SCENARIO_COMMANDS[command][1](scn, strict)


def _comma_list(convert):
    """An argparse type: comma-separated values, each passed through convert."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(x) for x in text.split(",")) if text else ()
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langkit",
        description=(
            "exact bookkeeping for residual Eisenstein constant terms: pole "
            "decisions, support classification, sign calculus, normalization "
            "certificates"
        ),
    )
    parser.add_argument("--version", action="version", version=f"langkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (txt, _) in SCENARIO_COMMANDS.items():
        p = sub.add_parser(name, help=txt)
        p.add_argument("--scenario", required=True, help="scenario file or library name")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--ledger-override", help="extra ledger override file")
        p.add_argument("--strict", action="store_true", help="treat open-question choices as errors")
    p = sub.add_parser("kostant", help="coset representatives and shifted weights")
    p.add_argument("--family", required=True, choices=tuple("ABCD"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument(
        "--blocks", type=_comma_list(int), default="", help="comma-separated block sizes"
    )
    p.add_argument("--core", type=int, default=0)
    p.add_argument(
        "--weight", type=_comma_list(rat), default="", help="comma-separated dominant weight"
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p = sub.add_parser("selftest", help="run all brute-force oracle suites")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    strict = getattr(args, "strict", False)
    scenario = getattr(args, "scenario", None)
    try:
        report = run(args.command, scenario, strict=strict, args=args)
    except (ScenarioError, HypothesisError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (EisensteinError, SpectraError, NormalizerError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    text = render_json(report) if getattr(args, "format", "json") == "json" else render_text(report)
    sys.stdout.write(text)
    if report.get("verdict", "").startswith("FAIL"):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
