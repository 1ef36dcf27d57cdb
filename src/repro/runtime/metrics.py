"""Lightweight runtime metrics: counters, wall-clock timers, cache gauges.

The runtime layer (oracle, executor, mediator, query server) records how much
work it does — accesses performed, facts retrieved, cache hits and misses,
time spent in relevance procedures — so benchmark runs and production
deployments can observe the effect of memoization without attaching a
profiler.  The implementation is deliberately dependency-free: plain
dictionaries, explicit snapshots, one lock.

The lock matters because a single metrics sink is shared by every component
of an answering run, including the worker threads of the parallel executor:
``dict.get`` + store is not atomic, so unlocked concurrent ``incr`` calls
lose counts.  Timers only lock the accumulation, never the timed body, so
concurrent ``timer`` blocks overlap freely — their durations *sum*, which
with the parallel runtimes means a summed timer can legitimately exceed
wall-clock.  To keep that interpretable every timer also counts its calls
(:meth:`timer_calls`): ``elapsed / calls`` is the mean per-call cost whatever
the overlap.

Components may additionally :meth:`register_cache` their LRU caches; a
:meth:`snapshot` then includes each cache's hit/miss gauges.

Cumulative timers answer *how much* total time a component consumed; they
cannot answer "what latency does the p99 query see", which is the number a
traffic-serving deployment is gated on.  :meth:`observe` records individual
latency samples into bounded :class:`LatencyHistogram` buckets (geometric,
microseconds to minutes, fixed memory regardless of sample count), and
:meth:`quantile` / the snapshot's ``histograms`` section report p50/p95/p99
from them.  The runtime records three families: per-query latency
(``server.query_latency``), per-round latency (``server.round_latency``),
and per-source access latency (``access.latency`` plus
``access.latency.<method>``).
"""

from __future__ import annotations

import math
import threading
import time
import weakref
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["LatencyHistogram", "RuntimeMetrics"]


def _geometric_bounds() -> Tuple[float, ...]:
    """Bucket upper bounds: 1µs growing ~15% per bucket up to ~600s."""
    bounds: List[float] = []
    value = 1e-6
    while value < 600.0:
        bounds.append(value)
        value *= 1.15
    return tuple(bounds)


class LatencyHistogram:
    """A bounded-memory latency histogram with quantile estimates.

    Samples (seconds) land in geometric buckets — ~15% relative resolution
    from a microsecond to ten minutes, a fixed ~140 integers however many
    samples arrive — so a long-lived server can record every query without
    growing state.  Quantiles interpolate within the winning bucket and are
    clamped to the exact observed ``min``/``max``, which keeps small-sample
    estimates honest (a 3-sample p99 is the max, not a bucket bound).
    """

    _BOUNDS = _geometric_bounds()

    __slots__ = ("_counts", "_lock", "count", "total", "min", "max")

    def __init__(self) -> None:
        # One overflow bucket beyond the last bound.
        self._counts = [0] * (len(self._BOUNDS) + 1)
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def record(self, seconds: float) -> None:
        """Add one sample (negative values are clamped to zero)."""
        value = seconds if seconds > 0.0 else 0.0
        index = bisect_left(self._BOUNDS, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """The estimated ``q``-quantile in seconds (``None`` when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be between 0 and 1")
        with self._lock:
            if self.count == 0:
                return None
            rank = max(1, math.ceil(q * self.count))
            cumulative = 0
            index = len(self._counts) - 1
            for i, bucket in enumerate(self._counts):
                cumulative += bucket
                if cumulative >= rank:
                    index = i
                    break
            if index >= len(self._BOUNDS):
                return self.max
            upper = self._BOUNDS[index]
            lower = self._BOUNDS[index - 1] if index > 0 else 0.0
            estimate = (lower + upper) / 2.0
            return min(max(estimate, self.min), self.max)

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper bound, count)`` pairs (Prometheus shape).

        Trimmed to the populated range plus one trailing bucket, so an
        all-microsecond histogram does not export a hundred empty lines.
        """
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        cumulative = 0
        last_nonzero = -1
        for i, bucket in enumerate(counts):
            if bucket:
                last_nonzero = i
        for i in range(min(last_nonzero + 1, len(self._BOUNDS) - 1) + 1):
            cumulative += counts[i]
            out.append((self._BOUNDS[i], cumulative))
        return out

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict summary: count, sum, mean, min/max, p50/p95/p99."""
        with self._lock:
            count, total = self.count, self.total
            minimum = self.min if count else None
            maximum = self.max if count else None
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else None,
            "min": minimum,
            "max": maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def __len__(self) -> int:
        return self.count


class RuntimeMetrics:
    """A thread-safe bag of named counters, timers, gauges, and histograms.

    Counters only go up (:meth:`incr`); gauges are set to the current value
    of something (:meth:`set_gauge` — queue depth, in-flight queries, tokens
    left in a rate bucket) and may go down again; timers accumulate
    wall-clock; histograms record latency samples.  The admission layer of
    the network service is the main gauge writer: ``service.queue_depth``
    and ``service.inflight_queries`` are what an operator watches to tell
    "busy" from "about to shed load".
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._timers: Dict[str, float] = {}
        self._timer_calls: Dict[str, int] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        # name -> weakref to the cache, and cache -> name.  Weak on purpose:
        # oracles register their caches at construction, and a server's
        # registry evicts oracles — a strong registry would pin every
        # evicted oracle's LRUs forever.  A dead entry's name is reused by
        # the next registration that wants it; snapshots prune the rest.
        self._caches: Dict[str, "weakref.ref"] = {}
        self._cache_names: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------------ #
    # Gauges
    # ------------------------------------------------------------------ #
    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        """Current value of gauge ``name`` (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(name)

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock duration of the ``with`` body."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            with self._lock:
                self._timers[name] = self._timers.get(name, 0.0) + elapsed
                self._timer_calls[name] = self._timer_calls.get(name, 0) + 1

    def elapsed(self, name: str) -> float:
        """Cumulative seconds recorded under timer ``name``."""
        with self._lock:
            return self._timers.get(name, 0.0)

    def timer_calls(self, name: str) -> int:
        """How many ``timer`` blocks completed under ``name``.

        Together with :meth:`elapsed` this keeps overlapped timers readable:
        parallel runs sum concurrent durations (the total can exceed
        wall-clock), but ``elapsed / timer_calls`` is always the mean
        per-call cost.
        """
        with self._lock:
            return self._timer_calls.get(name, 0)

    # ------------------------------------------------------------------ #
    # Histograms
    # ------------------------------------------------------------------ #
    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample into histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
        # The histogram has its own lock; record outside ours.
        histogram.record(seconds)

    def histogram(self, name: str) -> Optional[LatencyHistogram]:
        """The histogram recorded under ``name`` (``None`` if never observed)."""
        with self._lock:
            return self._histograms.get(name)

    def quantile(self, name: str, q: float) -> Optional[float]:
        """The ``q``-quantile of histogram ``name`` (``None`` when absent/empty)."""
        histogram = self.histogram(name)
        return histogram.quantile(q) if histogram is not None else None

    # ------------------------------------------------------------------ #
    # Cache gauges
    # ------------------------------------------------------------------ #
    def register_cache(self, name: str, cache: object) -> str:
        """Expose a cache's hit/miss gauges in :meth:`snapshot`.

        ``cache`` must provide a ``stats()`` method (the
        :class:`~repro.runtime.cache.LRUCache` does).  Registering an
        already-used name uniquifies it (``name#2``, ``name#3``, ...), so
        several oracles can share one sink — the server's registry does —
        without clobbering each other's gauges.  Only a weak reference is
        kept: a cache that dies with its oracle (say, one the server's
        registry evicted) disappears from the snapshot instead of being
        pinned, and its name becomes reusable.  Registering the *same
        object* again is idempotent (it keeps its original name): every
        oracle registers the process-wide ``ltr.containment_cq_memo``.
        Returns the name actually registered.
        """
        with self._lock:
            known = self._cache_names.get(cache)
            if known is not None:
                return known
            final = name
            suffix = 2
            while final in self._caches and self._caches[final]() is not None:
                final = f"{name}#{suffix}"
                suffix += 1
            self._caches[final] = weakref.ref(cache)
            self._cache_names[cache] = final
            return final

    def _prune_dead_caches(self) -> None:
        """Drop registrations whose cache was garbage-collected (lock held)."""
        dead = [name for name, ref in self._caches.items() if ref() is None]
        for name in dead:
            del self._caches[name]

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """A plain-dict snapshot (counters, timers + means, histograms, caches).

        ``timer_means`` is ``elapsed / calls`` per timer — the mean per-call
        cost, readable directly from bench output without post-processing,
        and the number that stays meaningful when parallel runs make the
        summed total exceed wall-clock.
        """
        with self._lock:
            self._prune_dead_caches()
            caches = {name: ref() for name, ref in self._caches.items()}
            histograms = dict(self._histograms)
            snap: Dict[str, object] = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "timers": dict(self._timers),
                "timer_calls": dict(self._timer_calls),
                "timer_means": {
                    name: elapsed / self._timer_calls[name]
                    for name, elapsed in self._timers.items()
                    if self._timer_calls.get(name)
                },
            }
        # Cache and histogram stats take per-object locks; collect them
        # outside our own.
        snap["histograms"] = {
            name: histogram.snapshot() for name, histogram in histograms.items()
        }
        snap["caches"] = {
            name: cache.stats() for name, cache in caches.items() if cache is not None
        }
        return snap

    def reset(self) -> None:
        """Drop all recorded values and zero registered caches' gauges.

        Registered caches stay registered, but their hit/miss counters are
        reset (via ``reset_stats()`` where the cache provides it) so a
        post-reset snapshot genuinely starts from zero — previously the
        cache gauges kept counting across resets, which made before/after
        bench comparisons silently wrong.
        """
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()
            self._timer_calls.clear()
            self._histograms.clear()
            self._prune_dead_caches()
            caches = [ref() for ref in self._caches.values()]
        # Cache stat resets take per-cache locks; run them outside ours.
        for cache in caches:
            reset_stats = getattr(cache, "reset_stats", None)
            if cache is not None and reset_stats is not None:
                reset_stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuntimeMetrics(counters={self._counters!r})"
