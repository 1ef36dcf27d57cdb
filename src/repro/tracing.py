"""Hierarchical tracing, and :func:`stage`, the one instrumentation primitive.

:class:`~repro.runtime.metrics.RuntimeMetrics` answers *how much* work a run
did; it cannot answer *where one query's time went*.  This module records
that: a :class:`Tracer` collects :class:`Span` records — named, tagged,
wall-clocked intervals with parent links — forming one tree per answering
call (``answer → round → query → verdicts → oracle →
witness-revalidate/fresh-search``, with ``access-batch → source-call`` under
each round).  The exporters in :mod:`repro.runtime.export` render the
collected spans as a JSON document, a Chrome-trace/Perfetto file, or a
human-readable ``explain`` report.

Every instrumented layer measures itself through :func:`stage`: a span
under an active tracer, a sample in a latency histogram when it names a
``metric``, and the shared no-op span otherwise.  The module imports nothing
from :mod:`repro`, so the lowest layers (the chase, the Datalog engine, the
sources) import it at module top.

Three properties shape the design:

* **Off by default, and free when off.**  Tracing is on for a thread only
  inside :func:`activate_tracer`, the one switch (the query service's
  ``trace_requests`` uses it too).  An untraced :func:`stage` without a
  ``metric`` returns the shared no-op span — no allocation, no lock, no
  clock read.  The no-op span is falsy, so ``if span:`` skips building tags
  that cost something.  ``tests/test_tracing.py`` asserts the per-call
  overhead stays negligible.

* **Explicit context propagation across threads.**  Thread-locals don't
  follow work onto executor threads, so nothing implicit is relied on at the
  boundary.  Crossing the :class:`AccessExecutor` thread pool, the
  dispatching thread captures the tracer and its batch span's context, and
  the worker opens its stage with explicit ``tracer=`` and ``parent=``.

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
    "stage",
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
    executor attaches merge-time facts (``new_facts``) to a source call
    made on a worker thread, and how a failed source call tags its error.
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
    """The shared do-nothing span: every untraced, unmeasured stage is this.

    It is falsy, so ``if span:`` guards tags that cost something to build.
    """

    __slots__ = ()
    #: Mirrors :attr:`Span.context`; ``None`` means "no parent to propagate".
    context: Optional[SpanContext] = None

    def __bool__(self) -> bool:
        return False

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
    ``False``.
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
class _Ambient(threading.local):
    """Per-thread state: the active tracer, an enabled :class:`Tracer` or
    ``None``.  The class-level default makes the read on a thread that never
    activated one a plain attribute lookup, not a caught ``AttributeError``.
    """

    tracer: Optional[Tracer] = None


_ACTIVE = _Ambient()

TracerLike = Union[Tracer, NullTracer]


def current_tracer() -> TracerLike:
    """The tracer active on this thread (:data:`NO_TRACER` when none is).

    Deliberately thread-local, not inherited: a worker thread must receive
    its tracer explicitly (``stage(tracer=..., parent=...)``), which is what
    keeps parent links correct across the executor's thread pool.
    """
    tracer = _ACTIVE.tracer
    return tracer if tracer is not None else NO_TRACER


class _Activation:
    """Context manager making a tracer the thread's ambient recorder."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[TracerLike]) -> None:
        self._tracer = tracer if tracer is not None else NO_TRACER
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> TracerLike:
        self._previous = _ACTIVE.tracer
        _ACTIVE.tracer = self._tracer if self._tracer.enabled else None
        return self._tracer

    def __exit__(self, *_exc: object) -> None:
        _ACTIVE.tracer = self._previous


def activate_tracer(tracer: Optional[TracerLike]) -> _Activation:
    """Activate ``tracer`` for this thread within a ``with`` block.

    This is the one switch that turns tracing on.  ``None`` (or
    :data:`NO_TRACER`) disables tracing for the block.  The previous ambient
    tracer is restored on exit, so activations nest.
    """
    return _Activation(tracer)


# --------------------------------------------------------------------------- #
# The instrumentation primitive
# --------------------------------------------------------------------------- #
class _Stage:
    """A stage that feeds a histogram: it times its body, traced or not.

    On exit (also when the body raises) the duration lands in ``metric`` of
    ``metrics`` and stays readable as :attr:`duration`.  Under a tracer it
    wraps the stage's :class:`Span`, whose clock it shares, and forwards
    :meth:`annotate` to it; untraced it is falsy, like the no-op span.
    """

    __slots__ = ("_span", "_metrics", "_metric", "_t0", "duration")

    def __init__(self, span: Optional[Span], metrics, metric: str) -> None:
        self._span = span
        self._metrics = metrics
        self._metric = metric
        self.duration = 0.0

    def __bool__(self) -> bool:
        return self._span is not None

    def annotate(self, **tags: object) -> None:
        """Tag the wrapped span (a no-op untraced)."""
        if self._span is not None:
            self._span.tags.update(tags)

    def __enter__(self) -> "_Stage":
        if self._span is None:
            self._t0 = time.perf_counter()
        else:
            self._span.__enter__()
        return self

    def __exit__(self, *_exc: object) -> bool:
        span = self._span
        if span is None:
            self.duration = time.perf_counter() - self._t0
        else:
            span.__exit__()
            self.duration = span.duration
        if self._metrics is not None:
            self._metrics.observe(self._metric, self.duration)
        return False


def stage(
    name: str,
    *,
    metrics=None,
    metric: Optional[str] = None,
    tracer: Optional[TracerLike] = None,
    parent: Optional[SpanContext] = None,
    **tags: object,
):
    """Measure one stage of the runtime; enter the result with ``with``.

    Under an active tracer the stage is the span ``name`` carrying ``tags``
    (parented on this thread's innermost open span, or on ``parent``).  With
    ``metric`` its duration also lands in that latency histogram of
    ``metrics`` (a :class:`~repro.runtime.metrics.RuntimeMetrics`), traced or
    not, and stays readable as the stage's ``duration``.  With neither it is
    the shared no-op span: no allocation, no clock read.

    ``tracer`` defaults to the thread's ambient one; a pool thread passes
    the dispatching thread's tracer and ``parent`` explicitly.  An untraced
    stage is falsy, so ``if span:`` skips tags that cost something to build.
    """
    if tracer is None:
        tracer = _ACTIVE.tracer
    elif not tracer.enabled:
        tracer = None
    if metric is None:
        if tracer is None:
            return _NULL_SPAN
        return tracer.span(name, parent=parent, **tags)
    span = tracer.span(name, parent=parent, **tags) if tracer is not None else None
    return _Stage(span, metrics, metric)
