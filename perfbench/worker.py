"""One workload run in a fresh process, started by run.py.

    python perfbench/worker.py --workload W --seed N --seconds T \
        --phase setup|run|trace --workdir DIR --out FILE

`setup` only sets up and reports how long that took.  `run` sets up, then
runs ops in a closed loop (one client) for T seconds, with tracing off.
`trace` sets up and runs a fixed op list three ways: untraced, with spans,
and with constructor counters; it reports the per-layer metrics.  Every op's
output is checked against the references in inputs.py in all three phases.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import inputs
import tracing

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
PY = sys.executable
# fewest timed ops per run: a p90 (cli-cold) and a p99 (pipeline-warm) with
# ten samples beyond it
MIN_OPS = {"cli-cold": 100, "pipeline-warm": 1000}
PROBES = 5  # repeats of each start-up probe in a traced run

IMPORT_SETS = {
    "cli-cold": ("langkit.cli",),
    "pipeline-warm": ("langkit.cli",),
    "kostant-ladder": ("langkit.weyl",),
    "selftest-cold": ("langkit.cli", "langkit.selftest"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("LANGKIT_SCENARIO_DIR", None)
    return env


def spawn(argv: list) -> tuple:
    """Run one process to completion: (wall ns, exit code, stdout, stderr, max RSS KiB)."""
    t0 = time.perf_counter_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter_ns() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, proc.returncode, out.decode(), err.decode(), usage.ru_maxrss


# ---------------------------------------------------------------------------
# start-up probes


def floor_probe() -> float:
    wall, rc, _, _, _ = spawn([PY, "-c", "pass"])
    if rc:
        raise RuntimeError("python -c pass failed")
    return wall / 1e6


def import_probe(modules) -> dict:
    code = "import sys, " + ", ".join(modules) + "; print(len(sys.modules))"
    _, rc, out, err, _ = spawn([PY, "-X", "importtime", "-c", code])
    if rc:
        raise RuntimeError(f"import probe failed: {err[-300:]}")
    own = cum = numpy = 0
    for line in err.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name.split(".")[0] == "langkit":
            own += self_us
        if name == "langkit.cli":
            cum = cum_us
        if name == "numpy":
            numpy = cum_us
    return {"import.langkit_cli_ms": cum / 1000, "import.langkit_self_ms": own / 1000,
            "import.numpy_ms": numpy / 1000, "import.modules_loaded": int(out.strip())}


def startup_metrics(workload: str, floors: list) -> dict:
    floors = floors + [floor_probe() for _ in range(PROBES)]
    probes = [import_probe(IMPORT_SETS[workload]) for _ in range(PROBES)]
    out = {"interp.floor_ms": statistics.median(floors)}
    for key in probes[0]:
        out[key] = statistics.median(p[key] for p in probes)
    return out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set up once, then run ops.  `op(i)` returns (ns spent in the
    program, failure reason or None)."""

    in_process = True

    def __init__(self, seed: int, workdir: Path):
        self.seed, self.workdir = seed, workdir
        self.failures = []
        self.rss_kb = 0  # largest max RSS of a process the ops started

    def fail(self, why):
        if why is not None and len(self.failures) < 5:
            self.failures.append(why)
        return why


class CliCold(Workload):
    in_process = False

    def setup(self):
        self.goldens = inputs.load_goldens(ROOT)
        self.ops = inputs.stream(inputs.cli_ops(self.seed), self.seed, 4000)
        # one untraced process compiles and caches what the ops will import
        _, rc, _, err, _ = spawn([PY, "-c", "import langkit.cli"])
        if rc:
            raise RuntimeError(err[-300:])

    def argv(self, i, prefix):
        cmd, scn, fmt, _ = self.ops[i % len(self.ops)]
        return prefix + [cmd, "--scenario", scn, "--format", fmt]

    def check(self, i, rc, out):
        cmd, scn, fmt, exp = self.ops[i % len(self.ops)]
        if rc:
            return self.fail(f"{cmd} {scn}: exit {rc}")
        return self.fail(inputs.check_report(cmd, scn, fmt, exp, out, self.goldens, ROOT))

    def op(self, i, prefix=None):
        wall, rc, out, _, rss = spawn(self.argv(i, prefix or [PY, "-m", "langkit.cli"]))
        self.rss_kb = max(self.rss_kb, rss)
        return wall, self.check(i, rc, out)

    def trace_ops(self):
        return len(inputs.library_cases())  # one of each library pair


class SelftestCold(CliCold):
    def setup(self):
        rng = random.Random(self.seed)
        self.formats = ["text" if rng.randrange(inputs.TEXT_SHARE) == 0 else "json"
                        for _ in range(4000)]
        _, rc, _, err, _ = spawn([PY, "-c", "import langkit.cli, langkit.selftest"])
        if rc:
            raise RuntimeError(err[-300:])

    def argv(self, i, prefix):
        return prefix + ["selftest", "--format", self.formats[i % len(self.formats)]]

    def check(self, i, rc, out):
        if rc:
            return self.fail(f"selftest: exit {rc}")
        return self.fail(inputs.check_selftest(self.formats[i % len(self.formats)], out))

    def trace_ops(self):
        return 3


class PipelineWarm(Workload):
    def setup(self):
        self.goldens = inputs.load_goldens(ROOT)
        self.pairs = inputs.pipeline_inputs(self.seed, ROOT, self.workdir)
        self.ops = inputs.stream(self.pairs, self.seed, len(self.pairs) * 200)
        from langkit import cli

        self.cli = cli
        for i in range(len(self.pairs)):  # warm pass: every distinct op once
            self.fail(self.op_on(self.pairs[i])[1])

    def op_on(self, op):
        cmd, scn, fmt, exp = op
        cli = self.cli
        t0 = time.perf_counter_ns()
        try:
            report = cli.run(cmd, scn)
            text = cli.render_json(report) if fmt == "json" else cli.render_text(report)
        except Exception as exc:  # a failed op, not a failed benchmark
            return time.perf_counter_ns() - t0, f"{cmd} {scn}: {exc!r}"
        ns = time.perf_counter_ns() - t0
        return ns, inputs.check_report(cmd, scn, fmt, exp, text, self.goldens, ROOT)

    def op(self, i):
        ns, why = self.op_on(self.ops[i % len(self.ops)])
        return ns, self.fail(why)

    def trace_ops(self):
        return 2 * len(self.pairs)


class KostantLadder(Workload):
    def setup(self):
        from langkit import weyl

        self.weyl = weyl
        self.cases = inputs.ladder_inputs(self.seed)
        self.fail(self.op_on(0)[1])  # warm pass on the smallest case

    def op_on(self, c, between=None):
        """kostant_reps, then kostant_weights; `between` runs untimed in between."""
        from fractions import Fraction

        case, lam = self.cases[c]
        w = self.weyl
        _, family, rank, blocks, core = case
        weight = w.Weight(tuple(Fraction(x) for x in lam))
        t0 = time.perf_counter_ns()
        try:
            datum = w.RootDatum(family, rank)
            shape = w.ParabolicShape(blocks, core, datum)
            reps = w.kostant_reps(datum, shape)
            ns = time.perf_counter_ns() - t0
            if between is not None:
                between()
            t0 = time.perf_counter_ns()
            weights = w.kostant_weights(weight, datum, shape)
            ns += time.perf_counter_ns() - t0
            why = inputs.check_kostant(case, lam, [(p.images, ell) for p, ell in reps],
                                       [(d, list(wt.coords)) for d, wt in weights])
        except Exception as exc:  # a failed op, not a failed benchmark
            return time.perf_counter_ns() - t0, f"{case[0]}: {exc!r}"
        return ns, None if why is None else f"{case[0]}: {why}"

    def op(self, i, between=None):
        ns, why = self.op_on(i % len(self.cases), between)
        return ns, self.fail(why)

    def trace_ops(self):
        return len(self.cases)


WORKLOADS = {
    "cli-cold": CliCold,
    "pipeline-warm": PipelineWarm,
    "kostant-ladder": KostantLadder,
    "selftest-cold": SelftestCold,
}


# ---------------------------------------------------------------------------
# phases


def measure(wl: Workload, workload: str, seconds: float) -> dict:
    """Closed loop with one client for about `seconds`.

    On kostant-ladder one timed op is a whole pass over the six cases, and a
    pass starts only if the previous one would still fit in `seconds`.
    """
    per = len(wl.cases) if workload == "kostant-ladder" else 1
    minimum = MIN_OPS.get(workload, 2)
    lat, failed, i = [], 0, 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        ns = 0
        for _ in range(per):
            spent, why = wl.op(i)
            ns += spent
            failed += why is not None
            i += 1
        lat.append(ns)
        elapsed = time.perf_counter() - start
        if len(lat) >= minimum and elapsed + (time.perf_counter() - t0) * (per > 1) >= seconds:
            break
    return {"latencies_ns": lat, "attempted": i, "failed": failed}


def per_op(total, ops):
    return total / ops if ops else 0.0


def layer_metrics(ns, calls, counts, ops: int) -> dict:
    """Per-op layer self times (us, from {layer: self ns}), call counts and ratios."""
    classify = calls["classify_levi_support"]
    parse_calls = sum(calls[f] for f in tracing.ENTRY_POINTS["cli.parse"][1])
    render_calls = calls["render_json"] + calls["render_text"]
    verdicts = calls["holomorphy_verdict"]
    m = {
        "cli.parse.us": per_op(ns["cli.parse"], ops) / 1e3,
        "cli.parse.calls": per_op(parse_calls, ops),
        "cli.render.us": per_op(ns["cli.render"], ops) / 1e3,
        "cli.render.calls": per_op(render_calls, ops),
        "cli.dispatch.self_us": per_op(ns["cli.dispatch"], ops) / 1e3,
        "eisenstein.pipeline.self_us": per_op(ns["eisenstein.pipeline"], ops) / 1e3,
        "eisenstein.quotient_ledger.us": per_op(ns["eisenstein.quotient_ledger"], ops) / 1e3,
        "eisenstein.pole.us": per_op(ns["eisenstein.pole"], ops) / 1e3,
        "eisenstein.pole.calls": per_op(calls["pole_at_half"], ops),
        "arch.hypotheses.us": per_op(ns["arch.hypotheses"], ops) / 1e3,
        "arch.signs.us": per_op(ns["arch.signs"], ops) / 1e3,
        "satake.transport.us": per_op(ns["satake.transport"], ops) / 1e3,
        "spectra.classify.us": per_op(ns["spectra.classify"], ops) / 1e3,
        "spectra.classify.calls": per_op(classify, ops),
        "spectra.expand.us": per_op(ns["spectra.expand"], ops) / 1e3,
        "spectra.expand.calls": per_op(calls["expand"], ops),
        "spectra.expand_per_classify": per_op(calls["expand"], classify),
        "spectra.classify.accept_ratio": per_op(counts["classify.accepted"], classify),
        "normalizer.verdict.us": per_op(ns["normalizer.verdict"], ops) / 1e3,
        "normalizer.words.us": per_op(ns["normalizer.words"], ops) / 1e3,
        "normalizer.ratios": per_op(counts["normalizer.ratios"], verdicts),
    }
    return m


def trace_in_process(wl: Workload, workload: str) -> dict:
    """Warm-up, untraced, spans and counters passes over the same fixed ops."""
    n = wl.trace_ops()
    tally = {"attempted": 0, "failed": 0}

    def one_pass(run_op):
        total = 0
        for i in range(n):
            ns, why = run_op(i)
            total += ns
            tally["attempted"] += 1
            tally["failed"] += why is not None
        return total

    tracing.install(["langkit.weyl"] if workload == "kostant-ladder" else ["langkit.cli"])
    rec = tracing.REC
    one_pass(wl.op)  # so the untraced pass does not pay first-call costs alone
    untraced_ns = one_pass(wl.op)

    def spans_op(i):
        with tracing.recording(i):
            return wl.op(i)

    traced_ns = one_pass(spans_op)
    spans = list(rec.spans)
    m = layer_metrics(tracing.layer_self_ns(spans), rec.calls, rec.counts, n)
    timed_ops = 1 if workload == "kostant-ladder" else n  # the ladder's timed op is a pass
    m["trace.ops_per_s.untraced"] = timed_ops / (untraced_ns / 1e9)
    m["trace.ops_per_s.traced"] = timed_ops / (traced_ns / 1e9)
    m["trace.overhead"] = traced_ns / untraced_ns

    rec.calls.clear()
    rec.counts.clear()
    if workload == "kostant-ladder":
        own = tracing.self_times(spans)
        for i, (case, _) in enumerate(wl.cases):
            name = case[0]
            mine = [s for s in spans if s[6] == i]
            # the standalone kostant_reps call, and kostant_weights minus the
            # kostant_reps call nested in it
            m[f"weyl.reps_ms.{name}"] = sum(
                s[5] - s[4] for s in mine if s[3] == "kostant_reps" and s[1] is None) / 1e6
            m[f"weyl.weights_ms.{name}"] = sum(
                own[s[0]] for s in mine if s[3] == "kostant_weights") / 1e6
            marks = []
            with tracing.counting(), tracing.recording(i):
                one = wl.op(i, between=lambda: marks.append(rec.snapshot()))
            tally["attempted"] += 1
            tally["failed"] += one[1] is not None
            c = rec.snapshot() - marks[0]  # one kostant_weights call, reps included
            m[f"weyl.perms_built.{name}"] = c["perms_built"]
            m[f"weyl.useful_ratio.{name}"] = per_op(c["weyl.reps"], c["perms_built"])
            m[f"weyl.positive_roots.calls.{name}"] = c["positive_roots"]
            m[f"rationals.fraction_new.ladder.{name}"] = c["fraction_new"]
        m["rationals.fraction_new.per_op"] = per_op(rec.counts["fraction_new"], n)
    else:
        with tracing.counting(), tracing.recording("count"):
            one_pass(wl.op)
        m["rationals.fraction_new.per_op"] = per_op(rec.counts["fraction_new"], n)
    if workload == "pipeline-warm":
        for name in inputs.LIBRARY:
            before = rec.snapshot()
            with tracing.counting(), tracing.recording(f"library-{name}"):
                text = wl.cli.render_json(wl.cli.run("check-scenario", name))
            delta = rec.snapshot() - before
            tally["attempted"] += 1
            tally["failed"] += wl.fail(None if text == wl.goldens[name] else f"{name}: golden") is not None
            m[f"rationals.fraction_new.report.{name}"] = delta["fraction_new"]
            m[f"spectra.classify.calls.report.{name}"] = delta["classify_levi_support"]
    tracing.dump(wl.workdir / f"trace-{workload}.jsonl", {"ops": n})
    m.update(startup_metrics(workload, []))
    return {"metrics": m, **tally}


def trace_cold(wl: Workload, workload: str) -> dict:
    """Each traced op runs once untraced, once under tracecli.py with spans and
    once with counters, interleaved with a `python -c pass` probe."""
    n = wl.trace_ops()
    shim = [PY, str(HERE / "tracecli.py")]
    floors, attempted, failed = [], 0, 0
    untraced_ns = traced_ns = 0
    spans_files, count_files = [], []
    for i in range(n):
        floors.append(floor_probe())
        ns, why = wl.op(i)
        untraced_ns += ns
        failed += why is not None
        spans_files.append(wl.workdir / f"spans-{i}.jsonl")
        ns, why = wl.op(i, shim + ["--out", str(spans_files[-1]), "--"])
        traced_ns += ns
        failed += why is not None
        count_files.append(wl.workdir / f"counts-{i}.jsonl")
        _, why = wl.op(i, shim + ["--count", "--out", str(count_files[-1]), "--"])
        failed += why is not None
        attempted += 3
    layer_ns, calls, counts = Counter(), Counter(), Counter()
    suites = defaultdict(list)
    round_trip = 0
    for path in spans_files:
        head, spans = tracing.load(path)
        calls.update(head["calls"])
        counts.update(head["counts"])
        layer_ns.update(tracing.layer_self_ns(spans))
        by_id = {s[0]: s for s in spans}
        for s in spans:
            if s[2].startswith("selftest."):
                suites[s[2]].append((s[5] - s[4]) / 1e6)
            if s[3] == "reconstruct":
                up = s
                while up[1] is not None and not up[2].startswith("selftest."):
                    up = by_id[up[1]]
                round_trip += up[2] == "selftest.round_trip"
    m = layer_metrics(layer_ns, calls, counts, n)
    for layer, times in suites.items():
        m[f"{layer}.ms"] = statistics.median(times)
    if suites:
        m["selftest.round_trip.cases"] = per_op(round_trip, n)
    fractions = sum(tracing.load(p)[0]["counts"].get("fraction_new", 0) for p in count_files)
    m["rationals.fraction_new.per_op"] = per_op(fractions, n)
    m["trace.ops_per_s.untraced"] = n / (untraced_ns / 1e9)
    m["trace.ops_per_s.traced"] = n / (traced_ns / 1e9)
    m["trace.overhead"] = traced_ns / untraced_ns
    m.update(startup_metrics(workload, floors))
    return {"metrics": m, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--phase", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload](args.seed, args.workdir)
    t0 = time.perf_counter()
    wl.setup()
    result = {"setup_s": time.perf_counter() - t0, "setup_failed": len(wl.failures)}
    if args.phase == "run":
        result.update(measure(wl, args.workload, args.seconds))
    elif args.phase == "trace":
        trace = trace_cold if not wl.in_process else trace_in_process
        result.update(trace(wl, args.workload))
    result["child_rss_kb"] = wl.rss_kb
    result["failures"] = wl.failures
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
