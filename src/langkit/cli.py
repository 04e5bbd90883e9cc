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
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import __version__, rules
from .arch import EmbeddingSet, InfChar
from .eisenstein import (
    AnalyticLedger,
    EisensteinError,
    HypothesisError,
    check_kind,
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
from .rationals import RATIONAL, doubled_str, half_str, rat
from .satake import AutModel, SatakeClass, act, parse_eigenvalue
from .spectra import (
    CONJ_SELFDUAL,
    TRIVIAL,
    CuspidalRecord,
    SpectraError,
    classify_support,
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
_NOUNS = {dict: "an object", list: "a list", str: "a string", bool: "a boolean"}


class _Refused(Exception):
    """A value `_check` refuses.  Its text is the JSON pointer from the
    checked value down to the refused one, "" for the value itself, then
    ": " and why; `_field` puts the field's own pointer in front."""


def _check(value, kind):
    """value if it has kind (see `_field`), a rational as a Fraction and a
    half-integer x as the int 2x; else `_Refused`.  No pointer is built
    unless a value is refused: a list adds the index of its refused item."""
    if kind is HALF_INTEGER or kind is Fraction:
        try:
            if type(value) is int:
                return 2 * value if kind is HALF_INTEGER else rat(value)
            if type(value) is str and RATIONAL.fullmatch(value):
                x = doubled_str(value) if kind is HALF_INTEGER else rat(value)
                if x is not None:
                    return x
                raise _Refused(f": must be a half-integer, not {json.dumps(value)}")
        except (ValueError, ZeroDivisionError):
            pass
        raise _Refused(f': must be an integer or a "p/q" string, not {json.dumps(value)}')
    if isinstance(kind, list):
        items = []  # its length is the index of the item being checked
        values = _check(value, list)
        try:
            for v in values:
                items.append(_check(v, kind[0]))
        except _Refused as exc:
            raise _Refused(f"/{len(items)}{exc}") from None
        return items
    if kind in _NOUNS:
        if isinstance(value, kind):
            return value
        raise _Refused(f": must be {_NOUNS[kind]}")
    if isinstance(kind, tuple):
        if any(type(value) is type(v) and value == v for v in kind):
            return value
        allowed = ", ".join(json.dumps(v) for v in kind)
        raise _Refused(f": must be one of {allowed}, not {json.dumps(value)}")
    if type(value) is not int:
        raise _Refused(f": must be an integer, not {json.dumps(value)}")
    if kind is not int and value < kind:
        bound = ("non-negative", "positive")[kind]
        raise _Refused(f": must be a {bound} integer, got {value}")
    return value


def _pointer(parent: str, key: str) -> str:
    return f"{parent}/{key.replace('~', '~0').replace('/', '~1')}"


def _field(obj: dict, key: str, kind, pointer: str, default=_MISSING):
    """obj[key] checked against kind, or default when the key is absent.

    ``pointer`` is obj's JSON pointer, "" at the scenario root; the field's
    own pointer is formatted here, and only for a refusal.  Kinds:
    dict, list, str and bool; int, NON_NEGATIVE or POSITIVE for a JSON
    integer (never a bool, float or string) with no bound, >= 0 or >= 1;
    Fraction for an integer or a "p/q" string; HALF_INTEGER for one in
    (1/2)Z, returned doubled; a tuple of allowed values; [kind] for a list
    whose items all have that kind.
    """
    if key in obj:
        try:
            return _check(obj[key], kind)
        except _Refused as exc:
            raise ScenarioError(f"{_pointer(pointer, key)}{exc}") from None
    if default is _MISSING:
        raise ScenarioError(f"{_pointer(pointer, key)}: missing")
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
    try:
        _check(raw, dict)
    except _Refused as exc:
        raise ScenarioError(f"{root}/{exc}") from None
    _field(raw, "schema", (SCHEMA,), root, SCHEMA)
    return raw


def parse_embeddings(scn: dict) -> EmbeddingSet | None:
    path = "/embeddings"
    raw = _field(scn, "embeddings", dict, "", None)
    if raw is None:
        return None
    real = _field(raw, "real", [str], path, [])
    pairs = _field(raw, "complex_pairs", [[str]], path, [])
    for i, pair in enumerate(pairs):
        if len(pair) != 2:
            raise ScenarioError(f"{path}/complex_pairs/{i}: has length {len(pair)}, not 2")
    try:
        return EmbeddingSet(real, pairs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_record(raw: dict, path: str, emb: EmbeddingSet | None) -> CuspidalRecord:
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


def parse_aut_spec(scn: dict, emb: EmbeddingSet | None) -> AutModel:
    """The scenario's coefficient automorphism; an embedding map given
    beside the embeddings ``emb`` names each of their labels."""
    path = "/aut_spec"
    raw = _field(scn, "aut_spec", dict, "", {})
    eps = _field(raw, "eps", SIGNS, path, 1)
    unit_map = _string_map(_field(raw, "unit_map", dict, path, {}), f"{path}/unit_map")
    at = f"{path}/embedding_map"
    embedding_map = _string_map(_field(raw, "embedding_map", dict, path, {}), at)
    if emb is not None and "embedding_map" in raw and set(dict(embedding_map)) != set(emb.labels):
        raise ScenarioError(f"{at}: does not act on the embeddings {', '.join(emb.labels)}")
    try:
        return AutModel(unit_map, eps, embedding_map)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def parse_ledger_overrides(entries: list, ledger: AnalyticLedger, path: str = "/ledger_overrides"):
    for idx, entry in enumerate(entries):
        at = f"{path}/{idx}"
        try:
            factor = check_kind(_field(entry, "factor", list, at), f"{at}/factor")
        except EisensteinError as exc:
            raise ScenarioError(str(exc)) from exc
        ledger.set(
            factor,
            _field(entry, "point", Fraction, at),
            _field(entry, "order", int, at),
            _field(entry, "provenance", str, at, f"override:{at}"),
        )
    return ledger


def _unique_label(entry: dict | str, at: str, seen: dict, default: str = "") -> str:
    """The entry's label (a string entry is one), or ``default``, recorded
    in ``seen`` (label -> pointer of its entry); a label already seen is
    exit 2 at the later label, or at the later entry for a default."""
    label = entry if isinstance(entry, str) else _field(entry, "label", str, at, default)
    if label in seen:
        where = _pointer(at, "label") if isinstance(entry, dict) and "label" in entry else at
        raise ScenarioError(f"{where}: {label!r} is also the label of {seen[label]}")
    seen[label] = at
    return label


def parse_quasi_tempered(scn: dict):
    """The segments, the core and the auxiliary kind; the segments, the
    self-dual parts and the pairs, in that order, carry distinct labels."""
    path = "/quasi_tempered"
    raw = _field(scn, "quasi_tempered", dict, "")
    block = _field(raw, "pi", dict, path)
    segments, seen = [], {}
    for i, seg in enumerate(_field(block, "segments", [dict], f"{path}/pi")):
        at = f"{path}/pi/segments/{i}"
        label = _unique_label(seg, at, seen, f"p{i + 1}")
        _field(seg, "m", POSITIVE, at, 1)  # size and ladder height: checked, read by no report
        _field(seg, "h", POSITIVE, at, 1)
        segments.append(DiscreteSegment(label, _field(seg, "a", Fraction, at, 0)))
    core = _field(raw, "rho", dict, path)
    selfdual = _field(core, "selfdual", [str], f"{path}/rho")
    for i, label in enumerate(selfdual):
        _unique_label(label, f"{path}/rho/selfdual/{i}", seen)
    pairs = []
    for i, p in enumerate(_field(core, "pairs", [dict], f"{path}/rho", [])):
        at = f"{path}/rho/pairs/{i}"
        pairs.append((_unique_label(p, at, seen, f"r{i + 1}"), _field(p, "b", Fraction, at)))
    aux = _field(raw, "aux", tuple(AUX_KINDS), path, "wedge2")
    try:
        pi = QuasiTemperedGL(segments)
        rho = QuasiTemperedSelfdual(tuple(selfdual), pairs)
    except NormalizerError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return pi, rho, aux


def resolve_records(scn: dict, emb: EmbeddingSet | None = None):
    """(pi, rho): the records that ``roles`` names, else the first two, else
    the one record over the trivial core.  The ledger is keyed by label, so
    pi and rho are one record or carry different labels."""
    records = _field(scn, "records", [dict], "", [])
    parsed = [parse_record(r, f"/records/{i}", emb) for i, r in enumerate(records)]
    roles = _field(scn, "roles", dict, "", {})
    if roles:
        labels = [r.label for r in parsed]
        pair = []
        for key in ("pi", "rho"):
            label = _field(roles, key, str, "/roles")
            if label not in labels:
                raise ScenarioError(f"/roles: unresolved label {label!r}")
            if labels.count(label) > 1:
                raise ScenarioError(f"/roles/{key}: label {label!r} names several records")
            pair.append(parsed[labels.index(label)])
        if pair[0] is pair[1]:
            raise ScenarioError("/roles/rho: names the same record as /roles/pi")
        return tuple(pair)
    if not parsed:
        raise ScenarioError("/records: need at least one record")
    pi, rho = (parsed + [TRIVIAL])[:2]
    if pi != rho and pi.label == rho.label:
        if rho is TRIVIAL:
            raise ScenarioError(f"/records/0/label: {pi.label!r} is the trivial core's label")
        raise ScenarioError(f"/records/1/label: {rho.label!r} is also the label of /records/0")
    return pi, rho


def _ratio_flags(scn: dict) -> dict:
    """The ratio_flags present in the scenario: `arch.invariance_ratio_conjdual`
    holds the defaults of the signs and the consistency flag, and
    `sign_pipeline` reads d_C from the embeddings first, else from here, else 0."""
    flags = _field(scn, "ratio_flags", dict, "", {})
    kinds = dict(d_C=NON_NEGATIVE, eps_sqrt_disc=SIGNS, eps_i=SIGNS, discriminant_consistency=bool)
    return {k: _field(flags, k, kind, "/ratio_flags") for k, kind in kinds.items() if k in flags}


# ---------------------------------------------------------------------------
# commands


def _rule_ids(node, used: set) -> set:
    """Add the rule ids under ``node`` to ``used``: the values of its
    "citation" and "rule" keys, at any depth."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k in ("citation", "rule") and isinstance(v, str):
                used.add(v)
            else:
                _rule_ids(v, used)
    elif isinstance(node, list):
        for v in node:
            _rule_ids(v, used)
    return used


def _report(command: str, scn_name: str, payload: dict, used=()) -> dict:
    """The report: the header, the statements of the rule ids in ``used``
    that the registry knows, then the payload.  Only the scenario commands
    cite rules, so only their payloads are searched for ids (`run`); the
    `kostant` and `selftest` payloads hold none."""
    report = {
        "schema": SCHEMA,
        "command": command,
        "scenario": scn_name,
        "citations": {rid: rules.RULES[rid] for rid in sorted(used) if rid in rules.RULES},
    }
    report.update(payload)
    return report


def cmd_normalize(scn: dict, strict: bool, override) -> dict:
    pi, rho, aux = parse_quasi_tempered(scn)
    return holomorphy_verdict(pi, rho, aux_kind=aux, strict=strict)


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
    emb = parse_embeddings(scn)
    pi, rho = resolve_records(scn, emb)
    aut = parse_aut_spec(scn, emb)
    if target in ("D", "F"):
        res = sign_pipeline(target, pi, rho, emb, _ratio_flags(scn), strict=strict)
        return {"target": target, **res}
    effective = target
    if target == "custom":
        effective = "E" if pi.duality == CONJ_SELFDUAL else "C"
    ledger, central = _ledger_and_central_order(scn, pi, rho, override)
    res = theorem_pipeline(
        effective, pi, rho, emb, aut, central_order=central, ledger=ledger, strict=strict
    )
    return {"target": target, **res}


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
        payload["residual_parameter"] = residual_parameter(pi, rho).serialize()
    return payload


def cmd_classify(scn: dict, strict: bool, override) -> dict:
    pi, rho = resolve_records(scn)
    verdicts, accepted = classify_support(residual_parameter(pi, rho))
    return {
        "verdict": f"{len(accepted)} induction datum accepted"
        + ("" if len(accepted) == 1 else " (not unique)"),
        "accepted": [{"label": l, "shift": half_str(j)} for l, j in sorted(accepted)],
        "candidates": [{"candidate": i, **v.serialize()} for i, v in enumerate(verdicts)],
        "citation": rules.cite("support-uniqueness"),
    }


def cmd_root_number(scn: dict, strict: bool, override) -> dict:
    emb = parse_embeddings(scn)
    pi, rho = resolve_records(scn, emb)
    target = _field(scn, "theorem_target", THEOREM_TARGETS, "", "custom")
    if target not in ("D", "F"):
        target = "F" if pi.duality == CONJ_SELFDUAL else "D"
    res = sign_pipeline(target, pi, rho, emb, _ratio_flags(scn), strict=strict)
    return {"target": target, **res}


def cmd_satake_act(scn: dict, strict: bool, override) -> dict:
    raw = _field(scn, "satake_class", dict, "")
    at = "/satake_class"
    family = _field(raw, "family", str, at)
    size = _field(raw, "size", int, at)
    eigenvalues = _field(raw, "eigenvalues", [str], at)
    try:
        group = GroupDescriptor(family, size)
        cls = SatakeClass(tuple(parse_eigenvalue(e) for e in eigenvalues), group)
    except ValueError as exc:
        raise ScenarioError(f"{at}: {exc}") from exc
    aut = parse_aut_spec(scn, None)
    return {
        "verdict": "transported",
        "family": group.label(),
        "input": cls.serialize(),
        "output": act(aut, cls).serialize(),
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
    """The representatives and, with --weight, the shifted weights, both
    from one level search."""
    from .weyl import ParabolicShape, RootDatum, _kostant_windows, _shifted_weights, _twice_lambda

    datum = RootDatum(args.family, args.rank)
    shape = ParabolicShape(args.blocks, args.core, datum)
    windows = _kostant_windows(datum, shape)
    payload = {
        "verdict": f"{len(windows)} coset representatives",
        "datum": f"{args.family}{args.rank}",
        "representatives": [{"window": list(w), "length": l} for w, l in windows],
    }
    if args.weight:
        twice_lam = _twice_lambda(args.weight, datum)
        payload["weights"] = [
            {"degree": d, "weight": list(map(half_str, wt.twice))}
            for d, wt in _shifted_weights(twice_lam, datum, shape, windows)
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
    if "family" in report:  # satake-act: the class and its transport
        lines.append(f"family: {report['family']}")
        lines.append(f"input: {', '.join(report['input'])}")
        lines.append(f"output: {', '.join(report['output'])}")
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
    """The report as ``json.dumps(report, indent=2, sort_keys=True)`` writes
    it, plus a newline.  A report holds str-keyed dicts, lists, str, int,
    bool and None only; any other value, or a non-str key, is json's
    ``TypeError``.  json's own encoder runs in pure Python whenever
    ``indent`` is set; this writer hands each string to json's C escaper
    and each int to ``int.__repr__``, and joins one list once."""
    out = []
    _write_json(report, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write_json(node, newline: str, put) -> None:
    """Pass the text of node, a dict or a list, to put in pieces; newline is
    "\\n" plus the indent of the line node starts on."""
    inner = newline + "  "
    comma = "," + inner
    if type(node) is dict:
        if not node:
            put("{}")
            return
        sep = "{" + inner
        for key, value in sorted(node.items()):
            if type(key) is not str:
                raise TypeError(f"Object of type {type(key).__name__} is not JSON serializable")
            head = sep + _json_str(key) + ": "
            kind = type(value)
            if kind is str:
                put(head + _json_str(value))
            elif kind is int:
                put(head + int.__repr__(value))
            elif kind is dict or kind is list:
                put(head)
                _write_json(value, inner, put)
            elif value is None:
                put(head + "null")
            elif value is True:
                put(head + "true")
            elif value is False:
                put(head + "false")
            else:
                raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
            sep = comma
        put(newline + "}")
        return
    if not node:
        put("[]")
        return
    sep = "[" + inner
    for value in node:
        kind = type(value)
        if kind is str:
            put(sep + _json_str(value))
        elif kind is int:
            put(sep + int.__repr__(value))
        elif kind is dict or kind is list:
            put(sep)
            _write_json(value, inner, put)
        elif value is None:
            put(sep + "null")
        elif value is True:
            put(sep + "true")
        elif value is False:
            put(sep + "false")
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        sep = comma
    put(newline + "]")


def scenario_dir() -> Path:
    env = os.environ.get(SCENARIO_DIR_ENV)
    if env:
        return Path(env)
    return Path(__file__).parent / "scenarios"


def _resolve_scenario_path(value: str) -> Path:
    """The file ``value`` names: the value as a path, else ``<dir>/<value>``,
    else ``<dir>/<value>.json``, with ``<dir>`` the `scenario_dir`."""
    p = Path(value)
    if p.exists():
        return p
    directory = scenario_dir()
    for candidate in (directory / value, directory / f"{value}.json"):
        if candidate.exists():
            return candidate
    raise ScenarioError(f"/: scenario file {value!r} not found")


def run(command: str, scenario_path: str | None, args=None) -> dict:
    """Dispatch a command with the parsed flags ``args`` (None: none set);
    returns the report dict.  ``args.strict`` refuses open-question choices,
    and the ledger overrides of the file ``args.ledger_override``, when
    given, apply after the scenario's own; errors in them are reported at
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
    payload = SCENARIO_COMMANDS[command][1](scn, getattr(args, "strict", False), override)
    return _report(command, name, payload, _rule_ids(payload, set()))


def _comma_list(convert):
    """An argparse type: comma-separated values, each passed through convert."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(x) for x in text.split(",")) if text else ()
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc

    return parse


def _weight(text: str) -> tuple:
    """An argparse type: comma-separated half-integers, each an integer or a
    "p/q" string as in a scenario, read doubled; an error names the entry by
    its index."""
    try:
        return tuple(_check(text.split(",") if text else [], [HALF_INTEGER]))
    except _Refused as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
        "--weight", type=_weight, default="", help="comma-separated dominant weight"
    )
    # a weight such as -1,-2 or -1/2 is a value: kostant has no option that
    # starts with "-" and a digit
    p._negative_number_matcher = re.compile(r"-[0-9]")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p = sub.add_parser("selftest", help="run all brute-force oracle suites")
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    scenario = getattr(args, "scenario", None)
    try:
        report = run(args.command, scenario, args)
    except (ScenarioError, HypothesisError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    text = render_json(report) if getattr(args, "format", "json") == "json" else render_text(report)
    sys.stdout.write(text)
    if report.get("verdict", "").startswith("FAIL"):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
