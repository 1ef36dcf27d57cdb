"""Outside-in span recorder for the traced benchmark run.

The recorder instruments the program from the outside: it replaces the
names the program looks up at call time (module functions where they were
imported to, public methods on their classes) with wrappers that record a
span around each call, and puts every original back on :meth:`restore`.
Nothing in ``src/`` knows about it, and the untraced runs never install it.

Spans are kept in memory, one stack per thread.  A span's *self* time is
its wall time minus the wall time of its child spans on the same thread;
it is split into busy time (``time.thread_time``) and waiting time (the
rest).  A ``DataSource.respond`` span that starts on a thread with no open
span (an executor worker) takes as parent the open
``AccessExecutor.execute_batch`` span, so source time stays attributable to
the batch that caused it.

A containment decision opens tens of thousands of spans, so the recorder
folds every span into per-name totals as it closes, keeps the raw spans
only for the few names the metrics need one by one, and keeps the first
:data:`SAMPLE_SPANS` raw spans to write out at the end.

:func:`layer_metrics` turns the totals plus the program's own
``RuntimeMetrics`` counters into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One recorded span:
#: (id, parent_id, name, thread, start, wall, cpu, self_wall, self_cpu, note)
Span = Tuple[int, int, str, int, float, float, float, float, float, object]

#: Raw spans kept for writing out.
SAMPLE_SPANS = 5000

_BATCH = "executor.execute_batch"
_RESPOND = "sources.respond"

#: Names whose raw spans the metrics read one by one.
_KEEP = frozenset(
    {"core.ltr_search", "server.answer", "admission.admit", "admission.started"}
)

#: Oracle methods that decide or advance certainty belong to ``certain``.
_ORACLE_RENAMES = {
    "is_certain": "certain.check",
    "fast_certainty": "certain.check",
    "cached_certainty": "certain.check",
    "absorb_response": "certain.absorb",
    "absorb_facts": "certain.absorb",
}

#: ``Configuration`` methods that copy a configuration.  Its lookups
#: (``fingerprint``, ``contains``, ...) run millions of times per batch;
#: wrapping them would make the traced run measure the recorder instead.
_CONFIGURATION_COPIES = ("copy", "extended_with", "with_constants", "union")


def _answer_size(args, kwargs, _result):
    queries = args[1] if len(args) > 1 else kwargs.get("queries", ())
    return len(queries)


def _admit_note(args, kwargs, result):
    n_queries = args[2] if len(args) > 2 else kwargs.get("n_queries", 1)
    return (n_queries, bool(getattr(result, "admitted", False)))


def _started_note(args, kwargs, _result):
    return args[1] if len(args) > 1 else kwargs.get("n_queries", 0)


def _yielded_note(_args, _kwargs, result):
    return result is not None and result[0]


_NOTES = {
    "server.answer": _answer_size,
    "admission.admit": _admit_note,
    "admission.started": _started_note,
}


def _next_item(iterator):
    """One step of a wrapped generator: ``(True, item)`` or ``(False, None)``."""
    for item in iterator:
        return True, item
    return False, None


class SpanRecorder:
    """Records spans around wrapped program entry points (see module doc)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._open_batches: Dict[int, float] = {}
        self._patched: List[Tuple[object, str, object]] = []
        self._thread_totals: List[Dict[str, list]] = []
        self.kept: List[Span] = []
        self.sample: List[Span] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _state(self):
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack = []
            local.totals = {}
            with self._lock:
                self._thread_totals.append(local.totals)
            return local.stack, local.totals

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        note: Optional[Callable] = None,
    ):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack, totals = self._state()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        if parent is not None:
            parent_id = parent[2]
        elif name == _RESPOND and self._open_batches:
            # A worker thread: parent under the latest open batch.
            parent_id = max(self._open_batches.items(), key=lambda item: item[1])[0]
        else:
            parent_id = 0
        frame = [0.0, 0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        cpu_start = time.thread_time()
        if name == _BATCH:
            self._open_batches[span_id] = start
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            cpu = time.thread_time() - cpu_start
            wall = time.perf_counter() - start
            stack.pop()
            if name == _BATCH:
                del self._open_batches[span_id]
            if parent is not None:
                parent[0] += wall
                parent[1] += cpu
            value = note(args, kwargs, result) if note is not None else None
            self_wall = wall - frame[0]
            self_cpu = cpu - frame[1]
            entry = totals.get(name)
            if entry is None:
                entry = totals[name] = [0, 0.0, 0.0, 0.0, 0]
            entry[0] += 1
            entry[1] += wall
            entry[2] += self_wall
            entry[3] += self_cpu
            if value is True:
                entry[4] += 1
            if name in _KEEP or len(self.sample) < SAMPLE_SPANS:
                span = (
                    span_id,
                    parent_id,
                    name,
                    threading.get_ident(),
                    start,
                    wall,
                    cpu,
                    self_wall,
                    self_cpu,
                    value,
                )
                if name in _KEEP:
                    self.kept.append(span)
                if len(self.sample) < SAMPLE_SPANS:
                    self.sample.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` that records one span per call."""
        recorder = self
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return recorder.call(name, fn, args, kwargs, note)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """A wrapper of generator function ``fn``: one span per item pulled.

        A span's note is ``True`` when the step yielded an item, so the
        totals count the items a generator produced.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    more, item = recorder.call(
                        name, _next_item, (inner,), {}, _yielded_note
                    )
                    if not more:
                        return
                    yield item
            finally:
                inner.close()

        return traced

    def root(self, fn: Callable, *args):
        """Run one benchmark op under a ``bench.op`` root span."""
        return self.call("bench.op", fn, args, {})

    def totals(self) -> Dict[str, list]:
        """Per-name ``[calls, wall, self wall, self busy, items]`` over all threads."""
        merged: Dict[str, list] = {}
        with self._lock:
            per_thread = list(self._thread_totals)
        for totals in per_thread:
            for name, entry in list(totals.items()):
                into = merged.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
                for position, value in enumerate(entry):
                    into[position] += value
        return merged

    # ------------------------------------------------------------------ #
    # Installing and restoring
    # ------------------------------------------------------------------ #
    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace ``owner.attribute``, remembering the original."""
        original = owner.__dict__[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        """Put every replaced name back (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def install(self) -> None:
        """Wrap every program entry point the per-layer metrics need."""
        for owner, attribute, name, generator in entry_points():
            fn = owner.__dict__[attribute]
            wrapper = self.wrap_generator(name, fn) if generator else self.wrap(name, fn)
            self.patch(owner, attribute, wrapper)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()


def entry_points() -> List[Tuple[object, str, str, bool]]:
    """``(owner, attribute, span name, is_generator)`` for every wrapped name.

    Module-level functions are wrapped in the module that *calls* them,
    because ``from module import f`` binds ``f`` at import time.
    """
    from repro.core import containment
    from repro.data import Configuration
    from repro.runtime import (
        AccessExecutor,
        AdmissionController,
        CandidateScreen,
        LtrWitness,
        PersistentWitnessCache,
        QueryServer,
        RelevanceOracle,
    )
    from repro.runtime import cache, server, service
    from repro.sources.service import DataSource

    points = [
        (server, "candidate_accesses", "server.candidates", False),
        (server, "resolve_group_verdict", "screening.group_verdict", False),
        (server, "access_is_relevant", "server.precheck", False),
        (server, "certain_answers", "server.finalize", False),
        (cache, "long_term_relevance_with_witness", "core.ltr_search", False),
        (service, "parse_query", "parser.parse", False),
        (service, "explain_trace", "export.explain", False),
        (containment, "decide_containment", "containment.decide", False),
        (containment, "evaluate_boolean", "queries.eval", False),
        (containment, "iter_witness_assignments", "containment.assignments", True),
        (containment, "iter_production_plans", "chase.plans", True),
    ]
    classes = (
        (QueryServer, "server"),
        (RelevanceOracle, "cache"),
        (CandidateScreen, "screening"),
        (LtrWitness, "witness"),
        (AccessExecutor, "executor"),
        (DataSource, "sources"),
        (PersistentWitnessCache, "persist"),
        (AdmissionController, "admission"),
    )
    for cls, layer in classes:
        for attribute, value in vars(cls).items():
            if attribute.startswith("_") or not inspect.isfunction(value):
                continue
            name = f"{layer}.{attribute}"
            if cls is RelevanceOracle:
                name = _ORACLE_RENAMES.get(attribute, name)
            points.append((cls, attribute, name, False))
    for attribute in _CONFIGURATION_COPIES:
        points.append((Configuration, attribute, f"data.{attribute}", False))
    return points


def write_spans(path: str, totals: Dict[str, list], sample: Sequence[Span]) -> None:
    """Write per-name totals and sampled raw spans to ``path`` as JSON lines."""
    with open(path, "w", encoding="utf-8") as out:
        for name, (calls, wall, self_wall, self_cpu, items) in sorted(totals.items()):
            record = {
                "total": name,
                "calls": calls,
                "wall_s": wall,
                "self_s": self_wall,
                "self_busy_s": self_cpu,
                "items": items,
            }
            out.write(json.dumps(record) + "\n")
        for span_id, parent_id, name, thread, start, wall, cpu, s_wall, s_cpu, note in sample:
            record = {
                "id": span_id,
                "parent": parent_id,
                "name": name,
                "thread": thread,
                "start": start,
                "wall_s": wall,
                "busy_s": cpu,
                "self_s": s_wall,
                "self_busy_s": s_cpu,
                "note": note,
            }
            out.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: Dict[str, list],
    kept: Sequence[Span],
    counters: Dict[str, float],
    n_ops: int,
    *,
    bytes_per_record: float = 0.0,
    client_latency_ms: Sequence[float] = (),
) -> Dict[str, float]:
    """The per-layer metrics, per op, from one traced run.

    ``totals`` and ``kept`` come from :class:`SpanRecorder`; ``counters``
    sums the program's ``RuntimeMetrics`` counters over the traced ops.
    Times and counts are per op (per request on http-serve), so they do not
    depend on how many ops fit in the run.  ``client_latency_ms`` are the
    traced requests' client-side latencies (http-serve only).
    """
    n = max(1, n_ops)
    self_wall: Dict[str, float] = {}
    self_wait: Dict[str, float] = {}
    for name, (_calls, _wall, s_wall, s_cpu, _items) in totals.items():
        layer = name.split(".", 1)[0]
        self_wall[layer] = self_wall.get(layer, 0.0) + s_wall
        self_wait[layer] = self_wait.get(layer, 0.0) + max(0.0, s_wall - s_cpu)

    def calls(name: str) -> int:
        return totals.get(name, (0,))[0]

    def wall(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    def count(key: str) -> float:
        return counters.get(key, 0) / n

    def mean_ms(name: str) -> float:
        return 1e3 * _ratio(wall(name), calls(name))

    ltr_asked = calls("cache.long_term_relevant")
    fresh = counters.get("oracle.fresh_searches", 0)
    delta = counters.get("oracle.delta_hits", 0)
    revalidated = counters.get("witness.revalidated", 0)
    revalidation_failed = counters.get("witness.revalidation_failed", 0)
    ltr_ms = [1e3 * span[5] for span in kept if span[2] == "core.ltr_search"]

    metrics = {
        "core.ltr_search_s": wall("core.ltr_search") / n,
        "core.ltr_searches": calls("core.ltr_search") / n,
        "core.ltr_search_ms_p50": statistics.median(ltr_ms) if ltr_ms else 0.0,
        "cache.self_s": self_wall.get("cache", 0.0) / n,
        "cache.exact_hits": max(0, ltr_asked - delta - revalidated - fresh) / n,
        "cache.delta_hits": delta / n,
        "cache.adopted": count("oracle.adopted"),
        "cache.fresh_ratio": _ratio(fresh, ltr_asked),
        "witness.revalidate_s": wall("witness.revalidate") / n,
        "witness.revalidated": revalidated / n,
        "witness.hit_ratio": _ratio(revalidated, revalidated + revalidation_failed),
        "persist.seed_s": wall("persist.seed") / n,
        "persist.record_s": wall("persist.record") / n,
        "persist.seeded": count("persist.seeded"),
        "persist.recorded": count("persist.recorded"),
        "storage.bytes_per_record": bytes_per_record,
        "screening.self_s": self_wall.get("screening", 0.0) / n,
        "screening.prefiltered": count("screen.prefiltered"),
        "screening.shared_verdicts": count("screen.shared_verdicts"),
        "server.self_s": self_wall.get("server", 0.0) / n,
        "server.candidates_s": wall("server.candidates") / n,
        "server.precheck_s": wall("server.precheck") / n,
        "server.finalize_s": wall("server.finalize") / n,
        "server.rounds": count("server.rounds"),
        "certain.check_s": wall("certain.check") / n,
        "certain.absorb_s": wall("certain.absorb") / n,
        "certain.exact": count("certainty.exact"),
        "certain.advanced": count("certainty.advanced"),
        "certain.restarted": count("certainty.restarted"),
        "executor.self_s": self_wall.get("executor", 0.0) / n,
        "executor.wait_s": self_wait.get("executor", 0.0) / n,
        "executor.overlap": _ratio(wall(_RESPOND), wall(_BATCH)),
        "sources.respond_s": wall(_RESPOND) / n,
        "sources.calls": calls(_RESPOND) / n,
        "executor.precheck_skipped": count("executor.precheck_skipped"),
        "containment.self_s": self_wall.get("containment", 0.0) / n,
        "containment.assignments": totals.get("containment.assignments", [0] * 5)[4] / n,
        "chase.plans_s": wall("chase.plans") / n,
        "queries.eval_s": wall("queries.eval") / n,
        "data.config_copies": calls("data.extended_with") / n,
        "bench.unattributed_s": self_wall.get("bench", 0.0) / n,
    }
    metrics.update(_service_metrics(kept, client_latency_ms, mean_ms))
    return metrics


_SERVICE_METRICS = (
    "service.self_ms",
    "service.queue_wait_ms",
    "service.coalesce_ratio",
    "parser.parse_ms",
    "export.explain_ms",
    "admission.admit_us",
    "admission.rejected",
)


def _service_metrics(kept, client_latency_ms, mean_ms) -> Dict[str, float]:
    """The service, admission, parser and export metrics (http-serve only)."""
    if not any(span[2] == "admission.admit" for span in kept):
        return {name: 0.0 for name in _SERVICE_METRICS}
    answers = [(span[5], span[9]) for span in kept if span[2] == "server.answer"]
    batched = sum(size for _wall, size in answers)
    # Each request waits for one answer call: weight batches by their size.
    answer_ms = 1e3 * _ratio(sum(wall * size for wall, size in answers), batched)
    admitted_at: List[float] = []
    waits: List[float] = []
    rejected = 0
    for span in sorted(kept, key=lambda span: span[4]):
        if span[2] == "admission.admit":
            n_queries, admitted = span[9]
            if admitted:
                admitted_at.extend([span[4] + span[5]] * n_queries)
            else:
                rejected += 1
        elif span[2] == "admission.started":
            # The submission queue is FIFO: a batch starts the oldest queries.
            for _ in range(min(span[9], len(admitted_at))):
                waits.append(span[4] - admitted_at.pop(0))
    return {
        "service.self_ms": (
            max(0.0, statistics.mean(client_latency_ms) - answer_ms)
            if client_latency_ms
            else 0.0
        ),
        "service.queue_wait_ms": 1e3 * statistics.mean(waits) if waits else 0.0,
        "service.coalesce_ratio": _ratio(batched, len(answers)),
        "parser.parse_ms": mean_ms("parser.parse"),
        "export.explain_ms": mean_ms("export.explain"),
        "admission.admit_us": 1e3 * mean_ms("admission.admit"),
        "admission.rejected": float(rejected),
    }
