"""Metric catalog and the run report every workload returns."""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from typing import Dict, List, Sequence

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "rate_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER = {
    "core.ltr_search_s": "s",
    "core.ltr_searches": "count",
    "core.ltr_search_ms_p50": "ms",
    "cache.self_s": "s",
    "cache.exact_hits": "count",
    "cache.delta_hits": "count",
    "cache.adopted": "count",
    "cache.fresh_ratio": "ratio",
    "witness.revalidate_s": "s",
    "witness.revalidated": "count",
    "witness.hit_ratio": "ratio",
    "persist.seed_s": "s",
    "persist.record_s": "s",
    "persist.seeded": "count",
    "persist.recorded": "count",
    "storage.bytes_per_record": "bytes",
    "screening.self_s": "s",
    "screening.prefiltered": "count",
    "screening.shared_verdicts": "count",
    "server.self_s": "s",
    "server.candidates_s": "s",
    "server.precheck_s": "s",
    "server.finalize_s": "s",
    "server.rounds": "count",
    "certain.check_s": "s",
    "certain.absorb_s": "s",
    "certain.exact": "count",
    "certain.advanced": "count",
    "certain.restarted": "count",
    "executor.self_s": "s",
    "executor.wait_s": "s",
    "executor.overlap": "ratio",
    "sources.respond_s": "s",
    "sources.calls": "count",
    "executor.precheck_skipped": "count",
    "service.self_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.coalesce_ratio": "ratio",
    "parser.parse_ms": "ms",
    "export.explain_ms": "ms",
    "admission.admit_us": "us",
    "admission.rejected": "count",
    "containment.self_s": "s",
    "containment.assignments": "count",
    "chase.plans_s": "s",
    "queries.eval_s": "s",
    "data.config_copies": "count",
    "bench.unattributed_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.generator_late_ms": "ms",
}


#: The calibration kernel's median time on the host the benchmark was
#: defined on (a shared 2-core VM).  Normalized times read as "on that host".
CALIBRATION_REFERENCE_S = 0.0125


class _Fact:
    """A relation name and a tuple, shaped like the program's facts."""

    __slots__ = ("relation", "args")

    def __init__(self, relation: str, args: tuple) -> None:
        self.relation = relation
        self.args = args


def calibration_kernel() -> float:
    """Seconds one fixed pure-Python workload takes: a two-way join, 8 times.

    Each round builds 750 slotted facts, indexes them in a dict, joins the
    relation with itself into a set of tuples and sorts it: the program's
    own kind of work.  While the host's speed drifted, a kernel of string
    keys and sorting moved 1.5-1.8x as much as the bank and containment
    ops did, and over-corrected; join kernels tracked the ops more closely.
    The kernel is the benchmark's own code, so no change to the program
    under test can move it.  It holds about 0.4 MiB at its peak, less than
    an op allocates, so it leaves peak RSS to the program.
    """
    started = time.perf_counter()
    for _round in range(8):
        facts = [_Fact("E", (i % 47, (i * 7) % 43)) for i in range(750)]
        index: Dict[int, List[_Fact]] = {}
        for fact in facts:
            index.setdefault(fact.args[0], []).append(fact)
        joined = set()
        for fact in facts:
            for other in index.get(fact.args[1], ()):
                joined.add((fact.args[0], other.args[1]))
        sorted(joined)
    return time.perf_counter() - started


class HostSpeed:
    """Host speed, sampled by the calibration kernel between ops.

    On a shared machine the speed at which the host runs Python drifts
    within seconds, in wall and CPU time alike.  Busy time divided by
    the host factor (recent kernel time ÷ :data:`CALIBRATION_REFERENCE_S`)
    reads the same whether the host is fast or slow; waiting time (sleeps,
    I/O) does not scale with host speed and is left as measured.
    """

    #: Calibrate at most this often, so short ops are not slowed by it.
    EVERY_S = 0.25
    #: A factor is the median of this many most recent samples.
    RECENT = 3

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        self.samples.append(calibration_kernel())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Host slowness now: recent kernel time ÷ the reference."""
        return statistics.median(self.samples[-self.RECENT :]) / CALIBRATION_REFERENCE_S

    def run_factor(self) -> float:
        """Host slowness over the whole run."""
        return statistics.median(self.samples) / CALIBRATION_REFERENCE_S

    def normalize(self, wall: float, busy: float) -> float:
        """``wall`` with its busy part (process CPU time) scaled to the reference host."""
        busy = min(max(busy, 0.0), wall)
        return wall - busy + busy / self.factor()


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_ms: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ascending samples."""
    return sorted_ms[max(0, math.ceil(fraction * len(sorted_ms)) - 1)]


def tail_line(sorted_ms: Sequence[float]) -> str:
    """The tail of op times as a report line (printed, not gated).

    The run-to-run spread of p99 at http-serve's nominal rate was 57%,
    wider than the largest bound a gated metric may have (25%), and that
    of p90 over a closed-loop run 10-15%, wider than a third of it; so the
    tail is reported but not gated.
    """
    count = len(sorted_ms)
    return (
        f"op tail: p90 {percentile(sorted_ms, 0.90):.6g} ms, "
        f"p99 {percentile(sorted_ms, 0.99):.6g} ms "
        f"({count} samples, {count - math.ceil(0.99 * count)} beyond p99)"
    )


class Report:
    """One run's outcome: counts, metrics and readable report lines."""

    def __init__(self, workload: str, seed: int, attempted: int, failed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = attempted
        self.failed = failed
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.lines: List[str] = []
        #: ``(per-name totals, sampled raw spans)`` of a traced run.
        self.spans = None

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def result(self, trace: bool) -> Dict[str, object]:
        """The final JSON object: end-to-end metrics, or per-layer when traced."""
        catalog = PER_LAYER if trace else END_TO_END
        values = self.per_layer if trace else self.end_to_end
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in catalog.items()
            if name in values
        }
        return {
            "correct": self.correct and len(metrics) == len(catalog),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def print(self, trace: bool, out=None) -> None:
        print(f"workload = {self.workload}, seed = {self.seed}, trace = {int(trace)}", file=out)
        for line in self.lines:
            print(line, file=out)
        print(f"attempted = {self.attempted}, failed = {self.failed}", file=out)
        catalog = PER_LAYER if trace else END_TO_END
        values = self.per_layer if trace else self.end_to_end
        for name, unit in catalog.items():
            if name in values:
                print(f"{name} = {values[name]:.6g} {unit}", file=out)
        print(json.dumps(self.result(trace)), file=out)
