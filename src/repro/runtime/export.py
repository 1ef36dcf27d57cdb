"""Exporters for runtime metrics and traces.

:mod:`repro.runtime.metrics` and :mod:`repro.tracing` collect; this
module renders.  Four output shapes, each targeting a different
consumer:

* :func:`prometheus_text` — the Prometheus text exposition format.  This is
  the payload the network-facing ``/metrics`` endpoint of
  :mod:`repro.runtime.service` serves verbatim: counters become ``_total``
  counters, runtime gauges (queue depth, in-flight queries, admission
  state) become plain gauges, latency histograms (the timed stages, such
  as ``oracle.long_term``) become classic ``le``-bucketed ``_seconds``
  families with ``_sum`` and ``_count``.  ``le`` is the only label, so the
  number of lines grows with the metric names, never with the number of
  queries a server holds.
* :func:`json_snapshot` — the :meth:`RuntimeMetrics.snapshot` dict (plus,
  optionally, the encoded span list) as a JSON document, for ad-hoc
  scripting and the bench artifacts.
* :func:`chrome_trace_events` / :func:`write_chrome_trace` — Chrome
  ``chrome://tracing`` / Perfetto "X" (complete) events, one per span, so a
  traced answering run can be inspected as a flame graph offline.
* :func:`explain_trace` — a human-readable rendering of one query's span
  tree with per-span outcome and why-was-this-access-performed annotations:
  the ``explain()`` report the issue asks for.

Everything here is read-only over snapshots — no exporter takes a lock the
runtime holds, so exporting from a live server is safe.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.runtime.metrics import RuntimeMetrics
from repro.tracing import NullTracer, Span, Tracer, encode_spans

__all__ = [
    "chrome_trace_events",
    "explain_trace",
    "json_snapshot",
    "prometheus_text",
    "write_chrome_trace",
]

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(name: str, suffix: str = "") -> str:
    """Sanitise a runtime metric name into a legal Prometheus identifier."""
    cleaned = _INVALID_METRIC_CHARS.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}{suffix}"


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (no exponents needed)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(metrics: RuntimeMetrics) -> str:
    """Render ``metrics`` in the Prometheus text exposition format.

    One family per counter/gauge/histogram.  The output is what a
    ``/metrics`` HTTP endpoint would return verbatim, and what CI uploads as
    the bench observability artifact.
    """
    snap = metrics.snapshot()
    lines: List[str] = []

    for name, value in sorted(snap["counters"].items()):
        metric = _metric_name(name, "_total")
        lines.append(f"# HELP {metric} Runtime counter {name!r}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name, value in sorted(snap["gauges"].items()):
        metric = _metric_name(name)
        lines.append(f"# HELP {metric} Runtime gauge {name!r}.")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name in sorted(snap["histograms"]):
        histogram = metrics.histogram(name)
        if histogram is None:  # racing reset; skip rather than lie
            continue
        metric = _metric_name(name, "_seconds")
        lines.append(f"# HELP {metric} Latency histogram {name!r} (seconds).")
        lines.append(f"# TYPE {metric} histogram")
        for upper, cumulative in histogram.buckets():
            lines.append(f'{metric}_bucket{{le="{_format_value(upper)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_format_value(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")

    return "\n".join(lines) + "\n"


def json_snapshot(
    metrics: RuntimeMetrics,
    tracer: Optional[Union[Tracer, NullTracer]] = None,
    *,
    indent: Optional[int] = 2,
) -> str:
    """The metrics snapshot (and optionally the encoded spans) as JSON.

    ``math.inf`` never appears (the snapshot uses ``None`` for empty
    min/max), so the document is strict JSON.
    """
    document: Dict[str, object] = {"metrics": metrics.snapshot()}
    if tracer is not None:
        document["spans"] = [list(spec) for spec in encode_spans(tracer.spans())]
    return json.dumps(document, indent=indent, default=str)


def chrome_trace_events(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Spans as Chrome-trace "X" (complete) events.

    Timestamps and durations are microseconds per the trace-event format;
    ``pid``/``tid`` come from whichever process/thread recorded the span, so
    the Perfetto timeline separates executor threads from the serving thread.
    Tags ride along as ``args`` (with the outcome and trace id included),
    which Perfetto shows in the span detail pane.
    """
    events: List[Dict[str, object]] = []
    for span in spans:
        args: Dict[str, object] = {str(k): v for k, v in span.tags.items()}
        args["trace_id"] = span.trace_id
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": span.pid,
                "tid": span.thread,
                "args": args,
            }
        )
    return events


def write_chrome_trace(
    path: str, spans_or_tracer: Union[Tracer, NullTracer, Iterable[Span]]
) -> int:
    """Write a ``chrome://tracing`` / Perfetto JSON file; returns event count.

    Accepts a tracer (its snapshot is taken) or any iterable of spans.  The
    file is the standard ``{"traceEvents": [...]}`` envelope, loadable by
    Perfetto's "Open trace file" as-is.
    """
    spans = (
        spans_or_tracer.spans()
        if isinstance(spans_or_tracer, (Tracer, NullTracer))
        else list(spans_or_tracer)
    )
    events = chrome_trace_events(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)


# --------------------------------------------------------------------------- #
# explain(): human-readable span tree
# --------------------------------------------------------------------------- #

#: Tags rendered inline after the span name, in this order, when present.
_EXPLAIN_TAGS = (
    "query",
    "round",
    "outcome",
    "why",
    "provenance",
    "verdict",
    "certain",
    "relevant",
    "method",
    "access",
    "kept",
    "dropped",
    "groups",
    "shared",
    "performed",
    "new_facts",
    "plans",
    "facts",
    "seeded",
    "attempt",
    "gave_up",
    "breaker",
    "error",
    "degraded",
)


def _describe(span: Span) -> str:
    parts = [f"{span.name}  [{span.duration * 1000:.3f} ms]"]
    rendered = []
    for key in _EXPLAIN_TAGS:
        if key in span.tags:
            rendered.append(f"{key}={span.tags[key]}")
    for key in sorted(span.tags):
        if key not in _EXPLAIN_TAGS:
            rendered.append(f"{key}={span.tags[key]}")
    if rendered:
        parts.append("(" + ", ".join(rendered) + ")")
    return "  ".join(parts)


def explain_trace(
    spans_or_tracer: Union[Tracer, NullTracer, Sequence[Span]],
    trace_id: Optional[int] = None,
) -> str:
    """Render one trace's span tree as an indented, annotated report.

    ``trace_id=None`` renders every collected trace, in first-completion
    order.  Children sort by wall-clock start, so the report reads in the
    order the work actually happened; each line carries the span's duration
    and its explanatory tags — for ``source-call`` spans that includes the
    ``why`` annotation the server attaches from the screening layer, which
    is the "why was this access performed" answer the report exists for.
    """
    spans = (
        spans_or_tracer.spans()
        if isinstance(spans_or_tracer, (Tracer, NullTracer))
        else list(spans_or_tracer)
    )
    if trace_id is not None:
        spans = [span for span in spans if span.trace_id == trace_id]
    if not spans:
        return "(no spans recorded)\n"

    by_id = {span.span_id: span for span in spans}
    children: Dict[Optional[int], List[Span]] = {}
    roots: List[Span] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start)
    roots.sort(key=lambda s: s.start)

    lines: List[str] = []

    def render(span: Span, depth: int) -> None:
        lines.append("  " * depth + _describe(span))
        for child in children.get(span.span_id, ()):
            render(child, depth + 1)

    current: Optional[int] = None
    for root in roots:
        if root.trace_id != current:
            current = root.trace_id
            lines.append(f"trace {current}:")
        render(root, 1)
    return "\n".join(lines) + "\n"
