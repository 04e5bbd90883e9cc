"""The langkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The runner is single-threaded: it starts
one worker process at a time (perfbench/worker.py), waits for it with
os.wait4, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics below; with --trace 1 a separate traced run reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("cli-cold", "pipeline-warm", "kostant-ladder", "selftest-cold")
SETUP_REPEATS = 2  # set-up-only workers; the measuring worker adds a third sample
DEADLINE_S = 170

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

SUITES = (
    "word_lengths", "modulus", "grading_and_operator", "transport", "round_trip",
    "classification", "pole_table", "factorization", "arch_signs",
)


def _per_layer() -> dict:
    spec = {
        "interp.floor_ms": "ms",
        "import.langkit_cli_ms": "ms",
        "import.langkit_self_ms": "ms",
        "import.numpy_ms": "ms",
        "import.modules_loaded": "count",
        "cli.parse.us": "us",
        "cli.parse.calls": "count",
        "cli.render.us": "us",
        "cli.render.calls": "count",
        "cli.dispatch.self_us": "us",
        "eisenstein.pipeline.self_us": "us",
        "eisenstein.quotient_ledger.us": "us",
        "eisenstein.pole.us": "us",
        "eisenstein.pole.calls": "count",
        "arch.hypotheses.us": "us",
        "arch.signs.us": "us",
        "satake.transport.us": "us",
        "spectra.classify.us": "us",
        "spectra.classify.calls": "count",
        "spectra.expand.us": "us",
        "spectra.expand.calls": "count",
        "spectra.expand_per_classify": "ratio",
        "spectra.classify.accept_ratio": "ratio",
        "normalizer.verdict.us": "us",
        "normalizer.words.us": "us",
        "normalizer.ratios": "count",
        "rationals.fraction_new.per_op": "count",
    }
    for name in inputs.LIBRARY:
        spec[f"rationals.fraction_new.report.{name}"] = "count"
        spec[f"spectra.classify.calls.report.{name}"] = "count"
    for case, *_ in inputs.LADDER:
        spec[f"weyl.reps_ms.{case}"] = "ms"
        spec[f"weyl.weights_ms.{case}"] = "ms"
        spec[f"weyl.perms_built.{case}"] = "count"
        spec[f"weyl.useful_ratio.{case}"] = "ratio"
        spec[f"weyl.positive_roots.calls.{case}"] = "count"
        spec[f"rationals.fraction_new.ladder.{case}"] = "count"
    for suite in SUITES:
        spec[f"selftest.{suite}.ms"] = "ms"
    spec["selftest.round_trip.cases"] = "count"
    spec["trace.ops_per_s.untraced"] = "1/s"
    spec["trace.ops_per_s.traced"] = "1/s"
    spec["trace.overhead"] = "ratio"
    return spec


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    pass


def check_checkout() -> None:
    """The program under test and the goldens must be in the checkout."""
    need = [ROOT / "src" / "langkit" / "cli.py", ROOT / "src" / "langkit" / "scenarios"]
    need += [ROOT / "tests" / "golden" / f"{name}.json" for name in inputs.LIBRARY]
    missing = [str(p.relative_to(ROOT)) for p in need if not p.exists()]
    if missing:
        raise BenchError("not a langkit checkout (missing " + ", ".join(missing) + ")")


def worker_env() -> dict:
    """Every process the benchmark starts caches bytecode, as an installed
    package does, and keeps the cache inside the checkout; an inherited
    PYTHONDONTWRITEBYTECODE would make each cold process compile langkit."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


def run_worker(args, phase: str, workdir: Path, deadline: float):
    """Start one worker, wait for it, return (its result, its rusage)."""
    out = workdir / f"{phase}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--phase", phase,
            "--workdir", str(workdir), "--out", str(out)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise BenchError(f"{phase} worker ran past the deadline")
            time.sleep(0.05)
    finally:
        if proc.returncode is None:  # deadline or signal: stop the worker and its children
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
    if proc.returncode != 0:
        raise BenchError(f"{phase} worker exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8")), usage


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(args, base: Path, deadline: float) -> dict:
    setups, setup_failed = [], 0
    for _ in range(SETUP_REPEATS):
        res, _ = run_worker(args, "setup", Path(tempfile.mkdtemp(dir=base)), deadline)
        setups.append(res["setup_s"])
        setup_failed += res["setup_failed"]
    res, usage = run_worker(args, "run", Path(tempfile.mkdtemp(dir=base)), deadline)
    setups.append(res["setup_s"])
    setup_failed += res["setup_failed"]
    lat = sorted(ns / 1e6 for ns in res["latencies_ns"])
    rss_kb = res["child_rss_kb"] or usage.ru_maxrss
    values = {
        "op_ms_p50": statistics.median(lat),
        "op_ms_p90": percentile(lat, 90),
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    named = {
        "cli-cold": {"cold_ms_p50": (values["op_ms_p50"], "ms"),
                     "cold_ms_p90": (values["op_ms_p90"], "ms")},
        "pipeline-warm": {"reports_per_s": (values["ops_per_s"], "1/s"),
                          "report_us_p50": (1e3 * values["op_ms_p50"], "us"),
                          "report_us_p99": (1e3 * percentile(lat, 99), "us")},
        "kostant-ladder": {"ladder_s": (values["op_ms_p50"] / 1e3, "s")},
        "selftest-cold": {"selftest_s": (values["op_ms_p50"] / 1e3, "s")},
    }[args.workload]
    named["fail_frac"] = (res["failed"] / res["attempted"], "")
    print(f"# {args.workload} seed={args.seed}: {len(lat)} timed ops, "
          f"{len(lat) - int(0.9 * len(lat))} beyond p90; {len(setups)} set-up samples")
    print("# " + ", ".join(f"{k}={v:.6g}{' ' + u if u else ''}" for k, (v, u) in named.items()))
    for why in res["failures"]:
        print(f"# failure: {why}")
    return {
        "correct": res["failed"] == 0 and setup_failed == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def traced(args, base: Path, deadline: float) -> dict:
    workdir = Path(tempfile.mkdtemp(dir=base))
    res, _ = run_worker(args, "trace", workdir, deadline)
    unknown = set(res["metrics"]) - set(PER_LAYER)
    if unknown:
        raise BenchError(f"unlisted per-layer metrics: {sorted(unknown)}")
    keep = ROOT / ".bench_build" / "perfbench" / "traces" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(keep, ignore_errors=True)
    keep.mkdir(parents=True)
    for path in workdir.glob("*.jsonl"):
        shutil.move(str(path), keep / path.name)
    print(f"# {args.workload} seed={args.seed}: spans kept in {keep.relative_to(ROOT)}")
    for why in res["failures"]:
        print(f"# failure: {why}")
    return {
        "correct": res["failed"] == 0 and res["setup_failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": res["metrics"].get(k, 0), "unit": u} for k, u in PER_LAYER.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="langkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + DEADLINE_S
    try:
        check_checkout()
        scratch = ROOT / ".bench_build" / "perfbench"
        scratch.mkdir(parents=True, exist_ok=True)
        base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
        try:
            result = (traced if args.trace else end_to_end)(args, base, deadline)
        finally:
            shutil.rmtree(base, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
