"""Run one langkit command with spans (or constructor counters) recorded.

    python perfbench/tracecli.py [--count] --out FILE -- <langkit cli args>

Installs the wrappers of tracing.py around the modules the command loads,
runs `langkit.cli.main`, writes the spans as JSONL to FILE and exits with
the command's exit code.  stdout is the command's own report.
"""

from __future__ import annotations

import sys

import tracing


def main(argv) -> int:
    sep = argv.index("--")
    opts, cli_args = argv[:sep], argv[sep + 1:]
    out = opts[opts.index("--out") + 1]
    modules = ["langkit.cli"] + (["langkit.selftest"] if cli_args[0] == "selftest" else [])
    tracing.install(modules)
    from langkit import cli

    if "--count" in opts:
        with tracing.counting(), tracing.recording(0):
            rc = cli.main(cli_args)
    else:
        with tracing.recording(0):
            rc = cli.main(cli_args)
    sys.stdout.flush()
    tracing.dump(out)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
