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
import re
import sys
from fractions import Fraction
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
    target_ambient,
    theorem_pipeline,
)
from .groups import GroupDescriptor
from .normalizer import (
    AUX_KINDS,
    DiscreteSegment,
    NormalizerError,
    QuasiTemperedGL,
    QuasiTemperedSelfdual,
    holomorphy_verdict,
)
from .rationals import doubled, rat, rat_str
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
    """Schema violation, reported with a JSON pointer (RFC 6901)."""


# ---------------------------------------------------------------------------
# scenario parsing

NON_NEGATIVE, POSITIVE = 0, 1  # integer kinds: the lower bound
HALF_INTEGER = "half-integer"  # a rational in (1/2)Z, read as the int 2x
SIGNS = (1, -1)
_MISSING = object()
_RATIONAL = re.compile(r"\s*[-+]?[0-9]+(/[0-9]+)?\s*")  # "p/q" or "p": no decimals or exponents
_NOUNS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


def _check(value, kind, at: str):
    """value if it has kind (see `_field`), a rational as a Fraction and a
    half-integer x as the int 2x."""
    if isinstance(kind, list):
        return [_check(v, kind[0], f"{at}/{i}") for i, v in enumerate(_check(value, list, at))]
    if kind in _NOUNS:
        if isinstance(value, kind):
            return value
        raise ScenarioError(f"{at}: must be {_NOUNS[kind]}")
    if isinstance(kind, tuple):
        if any(type(value) is type(v) and value == v for v in kind):
            return value
        allowed = ", ".join(json.dumps(v) for v in kind)
        raise ScenarioError(f"{at}: must be one of {allowed}, not {json.dumps(value)}")
    if kind is HALF_INTEGER:
        x2 = doubled(_check(value, Fraction, at))
        if x2 is None:
            raise ScenarioError(f"{at}: must be a half-integer, not {json.dumps(value)}")
        return x2
    if kind is Fraction:
        try:
            if type(value) is int or (type(value) is str and _RATIONAL.fullmatch(value)):
                return rat(value)
        except (ValueError, ZeroDivisionError):
            pass
        raise ScenarioError(f'{at}: must be an integer or a "p/q" string, not {json.dumps(value)}')
    if type(value) is not int:
        raise ScenarioError(f"{at}: must be an integer, not {json.dumps(value)}")
    if kind is not int and value < kind:
        bound = ("non-negative", "positive")[kind]
        raise ScenarioError(f"{at}: must be a {bound} integer, got {value}")
    return value


def _pointer(parent: str, key: str) -> str:
    return f"{parent}/{key.replace('~', '~0').replace('/', '~1')}"


def _field(obj: dict, key: str, kind, pointer: str, default=_MISSING):
    """obj[key] checked against kind, or default when the key is absent.

    ``pointer`` is obj's JSON pointer, "" at the scenario root.  Kinds:
    dict, list, str and bool; int, NON_NEGATIVE or POSITIVE for a JSON
    integer (never a bool, float or string) with no bound, >= 0 or >= 1;
    Fraction for an integer or a "p/q" string; HALF_INTEGER for one in
    (1/2)Z, returned doubled; a tuple of allowed values; [kind] for a list
    whose items all have that kind.
    """
    at = _pointer(pointer, key)
    if key in obj:
        return _check(obj[key], kind, at)
    if default is _MISSING:
        raise ScenarioError(f"{at}: missing")
    return default


def load_scenario(path, root: str = "") -> dict:
    """The JSON object in the file; errors point below ``root``, "" for the
    scenario and "<file>#" for an override file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{root}/: cannot read {path} ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer literal over the digit limit
        raise ScenarioError(f"{root}/: invalid JSON ({exc})") from exc
    _field(_check(raw, dict, f"{root}/"), "schema", (SCHEMA,), root, SCHEMA)
    return raw


def parse_embeddings(raw: dict | None, path: str = "/embeddings") -> EmbeddingSet | None:
    if raw is None:
        return None
    real = _field(raw, "real", [str], path, [])
    pairs = _field(raw, "complex_pairs", [[str]], path, [])
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            raise ScenarioError(f"{path}/complex_pairs/{i}: has length {len(pair)}, not 2")
    try:
        return EmbeddingSet.build(real=real, complex_pairs=pairs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_record(raw: dict, path: str, emb: EmbeddingSet | None = None) -> CuspidalRecord:
    """The record at ``path``; its infinitesimal character, if any, must
    hold ``degree`` entries at each of the embeddings ``emb``."""
    label = _field(raw, "label", str, path)
    degree = _field(raw, "degree", POSITIVE, path)
    table = _field(raw, "infchar", dict, path, None)
    infchar = None
    if table is not None:
        at = f"{path}/infchar"
        if emb is not None and set(table) != set(emb.labels):
            labels = ", ".join(emb.labels)
            raise ScenarioError(f"{at}: does not cover exactly the embeddings {labels}")
        values = []
        for k in sorted(table):
            entries = _field(table, k, [HALF_INTEGER], at)
            if len(entries) != degree:
                raise ScenarioError(
                    f"{_pointer(at, k)}: has length {len(entries)}, not the degree {degree}"
                )
            values.append((k, entries))
        infchar = InfChar(tuple(values))
    try:
        return CuspidalRecord(
            label=label,
            degree=degree,
            base=_field(raw, "base", str, path, "F"),
            duality=_field(raw, "duality", str, path, "none"),
            eta=_field(raw, "eta", int, path, 0),
            weight=_field(raw, "weight", Fraction, path, 0),
            algebraicity=_field(raw, "algebraicity", str, path, "none"),
            infchar=infchar,
        )
    except SpectraError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _string_map(raw: dict, at: str) -> tuple:
    return tuple(sorted((k, _field(raw, k, str, at)) for k in raw))


def parse_aut_spec(raw: dict, emb: EmbeddingSet | None, path: str = "/aut_spec") -> AutSpec:
    eps = _field(raw, "eps", SIGNS, path, 1)
    unit_map = _string_map(_field(raw, "unit_map", dict, path, {}), f"{path}/unit_map")
    try:
        model = AutModel(unit_map=unit_map, eps=eps)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    emb_map = _field(raw, "embedding_map", dict, path, None)
    if emb_map is None:
        return AutSpec(model, AutOnEmbeddings.identity(emb.labels) if emb is not None else None)
    at = f"{path}/embedding_map"
    mapping = _string_map(emb_map, at)
    if emb is not None and {label for label, _ in mapping} != set(emb.labels):
        raise ScenarioError(f"{at}: does not act on the embeddings {', '.join(emb.labels)}")
    try:
        return AutSpec(model, AutOnEmbeddings(mapping))
    except ValueError as exc:
        raise ScenarioError(f"{at}: {exc}") from exc


def parse_ledger_overrides(entries: list, ledger: AnalyticLedger, path: str = "/ledger_overrides"):
    for idx, entry in enumerate(entries):
        at = f"{path}/{idx}"
        # a factor names its L-function by strings and, for Asai factors, a parity sign
        factor = tuple(
            _check(x, str if isinstance(x, str) else SIGNS, f"{at}/factor/{j}")
            for j, x in enumerate(_field(entry, "factor", list, at))
        )
        ledger.set(
            factor,
            _field(entry, "point", Fraction, at),
            _field(entry, "order", int, at),
            _field(entry, "provenance", str, at, f"override:{at}"),
        )
    return ledger


def parse_quasi_tempered(raw: dict, path: str = "/quasi_tempered"):
    block = _field(raw, "pi", dict, path)
    at = f"{path}/pi/segments"
    segments = tuple(
        DiscreteSegment(
            _field(seg, "label", str, f"{at}/{i}", f"p{i + 1}"),
            _field(seg, "m", POSITIVE, f"{at}/{i}", 1),
            _field(seg, "h", POSITIVE, f"{at}/{i}", 1),
            _field(seg, "a", Fraction, f"{at}/{i}", 0),
        )
        for i, seg in enumerate(_field(block, "segments", [dict], f"{path}/pi"))
    )
    core = _field(raw, "rho", dict, path)
    selfdual = _field(core, "selfdual", [str], f"{path}/rho")
    pairs = tuple(
        (
            _field(p, "label", str, f"{path}/rho/pairs/{i}", f"r{i + 1}"),
            _field(p, "b", Fraction, f"{path}/rho/pairs/{i}"),
        )
        for i, p in enumerate(_field(core, "pairs", [dict], f"{path}/rho", []))
    )
    aux = _field(raw, "aux", AUX_KINDS, path, "wedge2")
    try:
        pi = QuasiTemperedGL(segments)
        rho = QuasiTemperedSelfdual(tuple(selfdual), pairs)
    except NormalizerError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return pi, rho, aux


def resolve_records(scn: dict, emb: EmbeddingSet | None = None):
    records = _field(scn, "records", [dict], "", [])
    parsed = [parse_record(r, f"/records/{i}", emb) for i, r in enumerate(records)]
    by_label = {r.label: r for r in parsed}
    roles = _field(scn, "roles", dict, "", {})
    if roles:
        try:
            return tuple(by_label[_field(roles, key, str, "/roles")] for key in ("pi", "rho"))
        except KeyError as exc:
            raise ScenarioError(f"/roles: unresolved label {exc}") from exc
    if len(parsed) >= 2:
        return parsed[0], parsed[1]
    if parsed:
        return parsed[0], TRIVIAL
    raise ScenarioError("/records: need at least one record")


def _ratio_flags(scn: dict) -> dict:
    """The ratio_flags present in the scenario; `sign_pipeline` supplies the defaults."""
    flags = _field(scn, "ratio_flags", dict, "", {})
    kinds = dict(d_C=NON_NEGATIVE, eps_sqrt_disc=SIGNS, eps_i=SIGNS, discriminant_consistency=bool)
    return {k: _field(flags, k, kind, "/ratio_flags") for k, kind in kinds.items() if k in flags}


# ---------------------------------------------------------------------------
# commands


def _report(command: str, scn_name: str, payload: dict) -> dict:
    used = set()

    def collect(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if k in ("citation", "rule") and isinstance(v, str):
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


def cmd_normalize(scn: dict, strict: bool, override) -> dict:
    pi, rho, aux = parse_quasi_tempered(_field(scn, "quasi_tempered", dict, ""))
    return holomorphy_verdict(pi, rho, aux_kind=aux, strict=strict).serialize()


def _ledger_and_central_order(scn: dict, pi: CuspidalRecord, rho: CuspidalRecord, override):
    """The analytic ledger with the scenario's overrides applied, then those
    of the override file, and the declared central vanishing order."""
    entries = _field(scn, "ledger_overrides", [dict], "", [])
    ledger = parse_ledger_overrides(entries, default_ledger(pi, rho))
    if override is not None:
        at, entries = override
        parse_ledger_overrides(entries, ledger, at)
    return ledger, _field(scn, "central_order", NON_NEGATIVE, "", 0)


def cmd_check_scenario(scn: dict, strict: bool, override) -> dict:
    target = _field(scn, "theorem_target", THEOREM_TARGETS, "", "custom")
    if target == "appendix":
        return {"target": target, **cmd_normalize(scn, strict, override)}
    emb = parse_embeddings(_field(scn, "embeddings", dict, "", None))
    pi, rho = resolve_records(scn, emb)
    aut = parse_aut_spec(_field(scn, "aut_spec", dict, "", {}), emb)
    if target in ("D", "F"):
        res = sign_pipeline(target, pi, rho, emb, _ratio_flags(scn), strict=strict)
        return {"target": target, **res.serialize()}
    effective = target
    if target == "custom":
        effective = "E" if pi.duality == CONJ_SELFDUAL else "C"
    ledger, central = _ledger_and_central_order(scn, pi, rho, override)
    res = theorem_pipeline(
        effective, pi, rho, emb, aut, central_order=central, ledger=ledger, strict=strict
    )
    return {"target": target, **res.serialize()}


def cmd_pole(scn: dict, strict: bool, override) -> dict:
    pi, rho = resolve_records(scn)
    target = _field(scn, "theorem_target", THEOREM_TARGETS, "", "custom")
    ambient = target_ambient(target, pi, rho)
    quotient = constant_term_quotient(ambient, pi, rho)
    ledger, central = _ledger_and_central_order(scn, pi, rho, override)
    decision = pole_at_half(quotient, ledger, central)
    payload = {
        "target": target,
        "verdict": "pole" if decision.has_pole else "no pole",
        "ambient": ambient.label(),
        "quotient": quotient.serialize(),
        "decision": decision.serialize(),
    }
    if decision.has_pole:
        payload["residual_parameter"] = residual_parameter(pi, rho, decision).serialize()
    return payload


def cmd_classify(scn: dict, strict: bool, override) -> dict:
    pi, rho = resolve_records(scn)
    target = ArthurParameter(((pi, 2), (rho, 1)))
    verdicts = [
        {"candidate": i, **classify_levi_support(target, cand).serialize()}
        for i, cand in enumerate(candidate_family(target))
    ]
    accepted = [v for v in verdicts if v["accepted"]]
    keys = sorted({(v["block"]["label"], v["block"]["shift"]) for v in accepted})
    return {
        "verdict": f"{len(keys)} induction datum accepted"
        + ("" if len(keys) == 1 else " (not unique)"),
        "accepted": [{"label": l, "shift": s} for l, s in keys],
        "candidates": verdicts,
        "citation": rules.cite("support-uniqueness"),
    }


def cmd_root_number(scn: dict, strict: bool, override) -> dict:
    emb = parse_embeddings(_field(scn, "embeddings", dict, "", None))
    pi, rho = resolve_records(scn, emb)
    target = _field(scn, "theorem_target", THEOREM_TARGETS, "", "custom")
    if target not in ("D", "F"):
        target = "F" if pi.duality == CONJ_SELFDUAL else "D"
    res = sign_pipeline(target, pi, rho, emb, _ratio_flags(scn), strict=strict)
    return {"target": target, **res.serialize()}


def cmd_satake_act(scn: dict, strict: bool, override) -> dict:
    raw = _field(scn, "satake_class", dict, "")
    at = "/satake_class"
    family = _field(raw, "family", str, at)
    size = _field(raw, "size", int, at)
    eigenvalues = _field(raw, "eigenvalues", [str], at)
    place = _field(raw, "place", str, at, "v")
    try:
        group = GroupDescriptor(family, size)
        cls = SatakeClass(tuple(parse_eigenvalue(e) for e in eigenvalues), group, place)
    except ValueError as exc:
        raise ScenarioError(f"{at}: {exc}") from exc
    aut = parse_aut_spec(_field(scn, "aut_spec", dict, "", {}), None)
    return {
        "verdict": "transported",
        "family": group.label(),
        "input": cls.serialize(),
        "output": act(aut.model, cls).serialize(),
    }


# name -> (help, handler) for the commands that read a scenario; a handler
# takes the scenario, the strict flag and the override file's ledger entries
# with their pointer (or None)
SCENARIO_COMMANDS = {
    "check-scenario": ("run the full invariance pipeline for a scenario", cmd_check_scenario),
    "pole": ("decide the constant-term pole at the half point", cmd_pole),
    "classify": ("classify induction data for the scenario's parameter", cmd_classify),
    "root-number": ("compute the sign/ratio invariance checks", cmd_root_number),
    "normalize": ("certify the normalized-operator verdict", cmd_normalize),
    "satake-act": ("transport a symbolic eigenvalue class", cmd_satake_act),
}
# the commands that read the analytic ledger, so the only ones that take
# --ledger-override
LEDGER_COMMANDS = ("check-scenario", "pole")


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
    return Path(__file__).parent / "scenarios"


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

    The ledger overrides of the file ``args.ledger_override``, when given,
    apply after the scenario's own; errors in them are reported at
    ``<file>#/ledger_overrides/...``.
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
    override, path = None, getattr(args, "ledger_override", None)
    if path:
        root = f"{path}#"
        entries = _field(load_scenario(path, root), "ledger_overrides", [dict], root, [])
        override = (f"{root}/ledger_overrides", entries)
    name = _field(scn, "name", str, "", "")
    return _report(command, name, SCENARIO_COMMANDS[command][1](scn, strict, override))


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
        if name in LEDGER_COMMANDS:
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
