"""Spans and counters recorded from outside the program.

`install` wraps langkit's public entry points by name, in every langkit
module that holds a reference to them (``from x import y`` binds ``y`` again
in the importing module).  Each call of a wrapper, while recording is on,
appends a span (id, parent id, layer, function, start ns, end ns, op id).
Spans stay in memory; `dump` writes them as JSONL when the run ends.

`counting` additionally patches the constructors whose traffic the layer
metrics report (Fraction, SignedPerm, RootDatum.positive_roots).  It runs in
its own pass, so the constructor hooks never inflate span times.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter_ns

# layer -> (module, entry points)
ENTRY_POINTS = {
    "cli.dispatch": ("langkit.cli", ("run",)),
    "cli.parse": ("langkit.cli", (
        "load_scenario", "parse_embeddings", "parse_record", "parse_aut_spec",
        "parse_ledger_overrides", "parse_quasi_tempered", "resolve_records",
    )),
    "cli.render": ("langkit.cli", ("render_json", "render_text")),
    "eisenstein.pipeline": ("langkit.eisenstein", ("theorem_pipeline", "sign_pipeline")),
    "eisenstein.quotient_ledger": ("langkit.eisenstein", (
        "constant_term_quotient", "default_ledger", "residual_parameter",
    )),
    "eisenstein.pole": ("langkit.eisenstein", ("pole_at_half",)),
    "arch.hypotheses": ("langkit.arch", (
        "is_superregular", "is_disjoint", "is_SO_regular", "induced_regular",
        "strictly_gapped", "strictly_decreasing",
    )),
    "arch.signs": ("langkit.arch", (
        "root_number_selfdual", "invariance_ratio_conjdual", "parity_of_order",
    )),
    "satake.transport": ("langkit.satake", ("bc_chain_check", "eps_identities_hold")),
    "spectra.classify": ("langkit.spectra", ("candidate_family", "classify_levi_support")),
    "spectra.expand": ("langkit.spectra", ("expand", "reconstruct")),
    "normalizer.verdict": ("langkit.normalizer", (
        "holomorphy_verdict", "factor_normalization", "classify_holomorphy",
    )),
    "normalizer.words": ("langkit.normalizer", ("intertwining_word",)),
    "weyl.reps": ("langkit.weyl", ("kostant_reps",)),
    "weyl.weights": ("langkit.weyl", ("kostant_weights",)),
}

# entry point -> counter fed from its result
RESULT_COUNTERS = {
    "classify_levi_support": ("classify.accepted", lambda v: int(v.accepted)),
    "factor_normalization": ("normalizer.ratios", len),
    "kostant_reps": ("weyl.reps", len),
}


class Recorder:
    def __init__(self):
        self.on = False
        self.op = None
        self.spans = []
        self.stack = []
        self.calls = Counter()
        self.counts = Counter()

    def snapshot(self) -> Counter:
        return self.calls + self.counts


REC = Recorder()


def _wrap(fn, layer: str, name: str):
    counter = RESULT_COUNTERS.get(name)

    def traced(*args, **kwargs):
        rec = REC
        if not rec.on:
            return fn(*args, **kwargs)
        sid = len(rec.spans) + len(rec.stack)
        parent = rec.stack[-1][0] if rec.stack else None
        rec.stack.append((sid, parent, layer, name, perf_counter_ns()))
        try:
            result = fn(*args, **kwargs)
        finally:
            sid, parent, layer_, name_, t0 = rec.stack.pop()
            rec.spans.append((sid, parent, layer_, name_, t0, perf_counter_ns(), rec.op))
        rec.calls[name] += 1
        if counter:
            rec.counts[counter[0]] += counter[1](result)
        return result

    traced.__name__ = fn.__name__
    return traced


def _rebind(old, new):
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "langkit" or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(module_names) -> None:
    """Import the named langkit modules and wrap every entry point they own."""
    for name in module_names:
        importlib.import_module(name)
    for layer, (modname, names) in ENTRY_POINTS.items():
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for fname in names:
            fn = getattr(mod, fname)
            _rebind(fn, _wrap(fn, layer, fname))
    selftest = sys.modules.get("langkit.selftest")
    if selftest is not None:
        selftest.SUITES = tuple(
            _wrap(s, "selftest." + s.__name__.removeprefix("_suite_"), s.__name__)
            for s in selftest.SUITES
        )


@contextmanager
def recording(op):
    REC.on, REC.op = True, op
    try:
        yield
    finally:
        REC.on, REC.op = False, None


@contextmanager
def counting():
    """Count Fraction and SignedPerm constructions and positive-root builds."""
    from langkit import weyl

    counts = REC.counts
    frac_new = Fraction.__dict__["__new__"]
    perm_post = weyl.SignedPerm.__dict__["__post_init__"]
    roots = weyl.RootDatum.__dict__["positive_roots"]

    def counted_new(cls, *args, **kwargs):
        counts["fraction_new"] += 1
        return frac_new(cls, *args, **kwargs)

    def counted_post(self):
        counts["perms_built"] += 1
        perm_post(self)

    def counted_roots(self):
        counts["positive_roots"] += 1
        return roots(self)

    Fraction.__new__ = staticmethod(counted_new)
    weyl.SignedPerm.__post_init__ = counted_post
    weyl.RootDatum.positive_roots = counted_roots
    try:
        yield
    finally:
        Fraction.__new__ = frac_new
        weyl.SignedPerm.__post_init__ = perm_post
        weyl.RootDatum.positive_roots = roots


# ---------------------------------------------------------------------------
# reading spans back


def self_times(spans) -> dict:
    """{span id: duration minus the time covered by its children} in ns."""
    covered = Counter()
    for sid, parent, _layer, _name, t0, t1, _op in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    return {s[0]: (s[5] - s[4]) - covered[s[0]] for s in spans}


def layer_self_ns(spans) -> Counter:
    own = self_times(spans)
    out = Counter()
    for s in spans:
        out[s[2]] += own[s[0]]
    return out


def dump(path, extra=None) -> None:
    """Write the recorded spans as JSONL, preceded by one summary line."""
    with open(path, "w", encoding="utf-8") as fh:
        head = {"calls": dict(REC.calls), "counts": dict(REC.counts)}
        head.update(extra or {})
        fh.write(json.dumps(head) + "\n")
        for sid, parent, layer, name, t0, t1, op in REC.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer, "name": name,
                                 "start_ns": t0, "end_ns": t1, "op": op}) + "\n")


def load(path):
    """(summary dict, span tuples) from a file written by `dump`."""
    with open(path, encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = []
        for line in fh:
            d = json.loads(line)
            spans.append((d["id"], d["parent"], d["layer"], d["name"],
                          d["start_ns"], d["end_ns"], d["op"]))
    return head, spans
