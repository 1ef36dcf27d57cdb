"""Hierarchical tracing for the answering runtime.

:class:`~repro.runtime.metrics.RuntimeMetrics` answers *how much* work a run
did; it cannot answer *where one query's time went*.  This module records
that: a :class:`Tracer` collects :class:`Span` records — named, tagged,
wall-clocked intervals with parent links — forming one tree per answering
call (``query → round → screen → oracle → witness-revalidate/fresh-search →
access-batch → source-call``).  The exporters in
:mod:`repro.runtime.export` render the collected spans as a Prometheus text
snapshot, a JSON document, a Chrome-trace/Perfetto file, or a human-readable
``explain`` report.

Three properties shape the design:

* **Off by default, and free when off.**  Instrumented code asks
  :func:`current_tracer` for the thread's active tracer and gets the
  :data:`NO_TRACER` singleton unless a caller activated a real one
  (:func:`activate_tracer`, or the ``tracer=`` knob of the server and the
  answering strategies).  Every :class:`NullTracer` operation returns a
  shared no-op span object — no allocation, no lock, no clock read — and the
  hot paths additionally guard on ``tracer.enabled`` so an untraced run skips
  even the keyword-argument packing.  ``tests/test_tracing.py`` asserts the
  per-call overhead of the no-op recorder stays negligible.

* **Explicit context propagation across threads.**  Thread-locals don't
  follow work onto executor threads, so nothing implicit is relied on at the
  boundary.  Crossing the :class:`AccessExecutor` thread pool, the
  dispatching thread captures :meth:`Tracer.context` and the worker opens its
  span with an explicit ``parent=``.

* **Dual clocks.**  Spans stamp ``time.time()`` at entry (the Chrome-trace
  timestamp base) and measure duration with ``time.perf_counter()``
  (monotonic, so durations never go negative under clock steps).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

__all__ = [
    "NO_TRACER",
    "NullTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "activate_tracer",
    "current_tracer",
    "encode_spans",
]


class SpanContext(NamedTuple):
    """The addressable identity of a span: enough to parent children under it."""

    trace_id: int
    span_id: int


class Span:
    """One recorded interval: name, tags, wall-clock start, duration, parent.

    Spans double as context managers: ``with tracer.span("round"):`` opens
    the span, makes it the implicit parent for spans opened on the same
    thread inside the body, and records it on exit.  :meth:`annotate` may add
    tags at any time — including after the span closed, which is how the
    executor attaches merge-time facts (``new_facts``) to a source call that
    timed out on a worker thread.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "tags",
        "pid",
        "thread",
        "_tracer",
        "_t0",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        tags: Dict[str, object],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.duration = 0.0
        self.tags = tags
        self.pid = os.getpid()
        self.thread = threading.get_ident()
        self._tracer = tracer
        self._t0 = 0.0

    @property
    def context(self) -> SpanContext:
        """This span's :class:`SpanContext` (pass as ``parent=`` anywhere)."""
        return SpanContext(self.trace_id, self.span_id)

    def annotate(self, **tags: object) -> None:
        """Merge tags into the span (usable before, during, or after closing)."""
        self.tags.update(tags)

    def __enter__(self) -> "Span":
        self.start = time.time()
        self._t0 = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, *_exc: object) -> None:
        self.duration = time.perf_counter() - self._t0
        self._tracer._pop(self)
        self._tracer._record(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"dur={self.duration * 1000:.3f}ms, tags={self.tags!r})"
        )


class _NullSpan:
    """The shared do-nothing span: every no-op trace call returns this object."""

    __slots__ = ()
    #: Mirrors :attr:`Span.context`; ``None`` means "no parent to propagate".
    context: Optional[SpanContext] = None

    def annotate(self, **_tags: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled recorder: structurally a :class:`Tracer`, costs nothing.

    All methods return immediately with shared singletons; ``enabled`` is
    ``False`` so hot paths can skip even building the tag dictionary.
    """

    __slots__ = ()
    enabled = False

    def span(
        self, name: str, *, parent: Optional[SpanContext] = None, **tags: object
    ) -> _NullSpan:
        """Return the shared no-op span (records nothing)."""
        return _NULL_SPAN

    def context(self) -> Optional[SpanContext]:
        """No current span: always ``None``."""
        return None

    def record_span(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        parent: Optional[SpanContext] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> _NullSpan:
        """Discard the pre-timed span; returns the shared no-op span."""
        return _NULL_SPAN

    def spans(self) -> List["Span"]:
        """Nothing was recorded: always an empty list."""
        return []

    def reset(self) -> None:
        """Nothing to clear; present for :class:`Tracer` interchangeability."""
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The process-wide disabled recorder (what :func:`current_tracer` returns
#: when nothing is activated).  Never mutated, safe to share everywhere.
NO_TRACER = NullTracer()


class Tracer:
    """A thread-safe span recorder with per-thread implicit parenting.

    Spans opened with ``with tracer.span(...)`` nest through a per-thread
    stack; an explicit ``parent=`` (a :class:`SpanContext`, typically carried
    onto an executor thread) overrides the stack.  Completed spans accumulate
    in insertion (completion) order; :meth:`spans` snapshots them for the
    exporters.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._ids = itertools.count(1)
        self._stacks = threading.local()

    # ------------------------------------------------------------------ #
    # Per-thread span stack
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[SpanContext]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span.context)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1].span_id == span.span_id:
            stack.pop()

    def context(self) -> Optional[SpanContext]:
        """The innermost open span on *this* thread (to hand to a worker thread)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(
        self, name: str, *, parent: Optional[SpanContext] = None, **tags: object
    ) -> Span:
        """A new span; enter it with ``with``.

        Without ``parent`` the innermost open span on this thread (if any)
        becomes the parent; a root span opens a fresh trace whose id is its
        own span id.
        """
        if parent is None:
            parent = self.context()
        span_id = next(self._ids)
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = span_id, None
        return Span(self, name, trace_id, span_id, parent_id, tags)

    def record_span(
        self,
        name: str,
        *,
        start: float,
        duration: float,
        parent: Optional[SpanContext] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Record an already-measured interval as a completed span.

        For work timed elsewhere (e.g. a worker thread measured a source
        call and only the timing crossed back): no stack interaction, the
        span is appended directly.
        """
        span = self.span(name, parent=parent, **(tags or {}))
        span.start = start
        span.duration = duration
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    def spans(self) -> List[Span]:
        """A snapshot of every completed span, in completion order."""
        with self._lock:
            return list(self._spans)

    def trace_ids(self) -> List[int]:
        """Distinct trace ids, in first-completion order."""
        seen: Dict[int, None] = {}
        for span in self.spans():
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def reset(self) -> None:
        """Drop every recorded span (open spans on other threads unaffected)."""
        with self._lock:
            self._spans.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return f"Tracer(spans={len(self._spans)})"


def encode_spans(spans: Iterable[Span]) -> Tuple[Tuple, ...]:
    """Flatten spans to plain tuples (the ``spans`` of the JSON snapshot).

    Each spec is ``(span_id, parent_id, name, start, duration, tag items,
    pid, thread)``.  Tag values recorded by the runtime are primitives, so
    the tuples pickle and JSON-ify without custom reducers.
    """
    return tuple(
        (
            span.span_id,
            span.parent_id,
            span.name,
            span.start,
            span.duration,
            tuple(span.tags.items()),
            span.pid,
            span.thread,
        )
        for span in spans
    )


# --------------------------------------------------------------------------- #
# Ambient (per-thread) active tracer
# --------------------------------------------------------------------------- #
_ACTIVE = threading.local()

TracerLike = Union[Tracer, NullTracer]


def current_tracer() -> TracerLike:
    """The tracer active on this thread (:data:`NO_TRACER` when none is).

    Deliberately thread-local, not inherited: a worker thread must receive
    its context explicitly (``parent=`` / :func:`activate_tracer`), which is
    what keeps parent links correct across the executor's thread pool.
    """
    tracer = getattr(_ACTIVE, "tracer", None)
    return tracer if tracer is not None else NO_TRACER


class _Activation:
    """Context manager making a tracer the thread's ambient recorder."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[TracerLike]) -> None:
        self._tracer = tracer if tracer is not None else NO_TRACER
        self._previous: Optional[TracerLike] = None

    def __enter__(self) -> TracerLike:
        self._previous = getattr(_ACTIVE, "tracer", None)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, *_exc: object) -> None:
        _ACTIVE.tracer = self._previous


def activate_tracer(tracer: Optional[TracerLike]) -> _Activation:
    """Activate ``tracer`` for this thread within a ``with`` block.

    ``None`` activates :data:`NO_TRACER` (explicitly disabling tracing for
    the block).  The previous ambient tracer is restored on exit, so
    activations nest.
    """
    return _Activation(tracer)
