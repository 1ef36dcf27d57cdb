"""Benchmark command: run one workload, check its outputs, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bank-cold --seed 0 --seconds 15 --trace 0

Workloads: ``bank-cold``, ``bank-warm``, ``fanout-io``, ``http-serve`` and
``containment`` (see ``perfbench/README.md``).  The command builds every
input from ``--seed``, computes the references at set-up, runs ops for
``--seconds``, and prints a readable report followed, as the last line, by
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from a run that wraps the program's entry points from
outside.  It exits with 1 when any output did not match its reference and
with 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bank-cold", "bank-warm", "fanout-io", "http-serve", "containment")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="tiny inputs, for the harness self-test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program under test: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import closed_loop
    import http_serve
    from spans import write_spans

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.workload == "http-serve":
            report = http_serve.run(args.seed, args.seconds, bool(args.trace), args.tiny)
        else:
            report = closed_loop.run(
                args.workload, args.seed, args.seconds, bool(args.trace), workdir, args.tiny
            )
        if report.spans is not None:
            write_spans(
                os.path.join(ROOT, ".perfbench", f"spans-{args.workload}.jsonl"),
                *report.spans,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.print(bool(args.trace))
    sys.stdout.flush()
    return 0 if report.result(bool(args.trace))["correct"] else 1


if __name__ == "__main__":
    # A terminated run unwinds like an error, so it still stops the service
    # child and removes its run state.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    sys.exit(main())
