"""Compare a pytest-benchmark JSON artifact against a committed baseline.

Usage::

    python benchmarks/compare_bench.py BENCH_baseline.json BENCH_pr.json \
        [--threshold 0.25] [--gate guided,server]

Benchmarks are matched by ``fullname``.  Every matched pair is reported with
its best-time (``min``) ratio — ``min`` is far less noise-sensitive than
``mean`` for a gate.  Pairs whose name contains any *gate* substring
(comma-separated; default ``guided,server`` — the relevance-guided strategy
and the multi-query server, the headline numbers of this repository) are
enforced: a gated benchmark slower than ``baseline * (1 + threshold)`` fails
the comparison with exit status 1.  Ungated regressions and benchmarks
present on only one side are reported but do not fail, since machine noise
and newly added benchmarks should not block a PR.

The baseline is regenerated with the same command the CI smoke job runs
(``REPRO_BENCH_SMOKE=1``), so numbers are comparable like for like.  Caveat:
the committed baseline encodes the speed of the machine that produced it; a
distinctly slower CI runner can trip the gate without a code regression.
When that happens (or when a PR legitimately shifts the numbers), refresh
``BENCH_baseline.json`` from the smoke command and slim it to
``fullname``/``stats`` — or raise ``--threshold`` for the affected lane.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Tuple


def load_stats(path: str) -> Tuple[Dict[str, float], Dict[str, Dict[str, object]]]:
    """Load best (min) seconds and ``extra_info`` per benchmark fullname.

    Falls back to ``mean`` when ``min`` is absent.  ``extra_info`` is
    whatever the benchmark recorded (counter totals, histogram-derived
    p50/p99 latencies, …) and is passed through to the report verbatim so
    the gate output is readable without re-opening the JSON artifacts.
    """
    with open(path) as handle:
        payload = json.load(handle)
    means: Dict[str, float] = {}
    extras: Dict[str, Dict[str, object]] = {}
    for bench in payload.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats") or {}
        best = stats.get("min", stats.get("mean"))
        if name and isinstance(best, (int, float)):
            means[name] = float(best)
            info = bench.get("extra_info")
            if isinstance(info, dict) and info:
                extras[name] = info
    return means, extras


def _format_extras(info: Dict[str, object]) -> str:
    parts = []
    for key in sorted(info):
        value = info[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    return ", ".join(parts)


def compare(
    baseline: Dict[str, float],
    current: Dict[str, float],
    threshold: float,
    gate: str,
    extras: Optional[Dict[str, Dict[str, object]]] = None,
) -> Tuple[bool, str]:
    """Return (ok, report).  ``gate`` is a comma-separated substring list.

    ``extras`` maps fullnames to the current run's ``extra_info``; when
    present each benchmark line is followed by an indented key=value line.
    """
    gates = [part.strip() for part in gate.split(",") if part.strip()]
    extras = extras or {}
    lines = []
    ok = True
    shared = sorted(set(baseline) & set(current))
    for name in shared:
        base = baseline[name]
        now = current[name]
        ratio = now / base if base > 0 else float("inf")
        gated = any(part in name for part in gates)
        status = "ok"
        if ratio > 1.0 + threshold:
            status = "REGRESSION" if gated else "slower (ungated)"
            if gated:
                ok = False
        lines.append(
            f"{status:>18}  {ratio:6.2f}x  {base * 1000:10.2f}ms -> "
            f"{now * 1000:10.2f}ms  {name}"
        )
        if name in extras:
            lines.append(f"{'':>18}  extra: {_format_extras(extras[name])}")
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"{'new':>18}  {'':>8}  {current[name] * 1000:10.2f}ms  {name}")
        if name in extras:
            lines.append(f"{'':>18}  extra: {_format_extras(extras[name])}")
    for name in sorted(set(baseline) - set(current)):
        lines.append(f"{'missing':>18}  {'':>8}  {'':>10}  {name}")
    if not shared:
        lines.append("no shared benchmarks between baseline and current run")
    gated_shared = [
        name for name in shared if any(part in name for part in gates)
    ]
    if not gated_shared:
        lines.append(
            f"warning: no shared benchmark matches gate {gate!r}; nothing enforced"
        )
    return ok, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown for gated benchmarks (default 0.25)",
    )
    parser.add_argument(
        "--gate",
        default="guided,server",
        help=(
            "comma-separated substrings selecting the enforced benchmarks "
            "(default: guided,server)"
        ),
    )
    args = parser.parse_args(argv)
    current_means, current_extras = load_stats(args.current)
    ok, report = compare(
        load_stats(args.baseline)[0],
        current_means,
        args.threshold,
        args.gate,
        extras=current_extras,
    )
    print(report)
    if not ok:
        print(
            f"\nFAIL: a gated benchmark regressed more than "
            f"{args.threshold * 100:.0f}% against {args.baseline}",
            file=sys.stderr,
        )
        return 1
    print("\nbenchmark comparison passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
