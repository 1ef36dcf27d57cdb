"""Lightweight runtime metrics: counters, gauges, latency histograms, cache gauges.

The runtime layer (oracle, executor, mediator, query server) records how much
work it does — accesses performed, facts retrieved, cache hits and misses,
time spent in relevance procedures — so benchmark runs and production
deployments can observe the effect of memoization without attaching a
profiler.  The implementation is deliberately dependency-free: plain
dictionaries, explicit snapshots, one lock.

The lock matters because a single metrics sink is shared by every component
of an answering run, including the worker threads of the parallel executor:
``dict.get`` + store is not atomic, so unlocked concurrent ``incr`` calls
lose counts.

Time is recorded as individual samples (:meth:`observe`) into bounded
:class:`LatencyHistogram` buckets (geometric, microseconds to minutes, fixed
memory regardless of sample count).  A histogram keeps the sample count and
sum, so ``sum / count`` is the mean per-call cost even when parallel runs
make the summed total exceed wall-clock, and :meth:`quantile` / the
snapshot's ``histograms`` section add p50/p95/p99.  The runtime's layers
record through :func:`repro.tracing.stage` (its ``metric=``): per-query and
per-round latency (``server.query_latency``, ``server.round_latency``),
certainty checks (``oracle.certain``), fresh searches
(``oracle.long_term``), witness revalidations (``witness.revalidate``) and
every source-call attempt (``source.latency``).  The executor adds the
merged accesses' latency (``access.latency`` plus
``access.latency.<method>``).
"""

from __future__ import annotations

import heapq
import math
import threading
import weakref
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

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
    """A thread-safe bag of named counters, gauges, and histograms.

    Counters only go up (:meth:`incr`); gauges are set to the current value
    of something (:meth:`set_gauge` — queue depth, in-flight queries, tokens
    left in a rate bucket) and may go down again; histograms record latency
    samples (:meth:`observe`).  The admission layer of
    the network service is the main gauge writer: ``service.queue_depth``
    and ``service.inflight_queries`` are what an operator watches to tell
    "busy" from "about to shed load".
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        # name -> weakref to the cache, and cache -> name.  Weak on purpose:
        # oracles register their caches at construction, and a server's
        # registry evicts oracles — a strong registry would pin every
        # evicted oracle's LRUs forever.
        self._caches: Dict[str, "weakref.ref"] = {}
        self._cache_names: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Suffix bookkeeping per requested name: the next suffix never
        # handed out (1 is the bare name), and a heap of the suffixes whose
        # cache died.  A dying cache's weakref callback only appends its
        # (name, suffix) to ``_dead`` (it may run while the lock is held);
        # the next registration or snapshot moves it to the heap.
        self._next_suffix: Dict[str, int] = {}
        self._free_suffixes: Dict[str, List[int]] = {}
        self._dead: List[Tuple[str, int]] = []
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
    # Histograms
    # ------------------------------------------------------------------ #
    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample into histogram ``name``."""
        # A dict read is atomic: only creating the histogram takes our lock.
        histogram = self._histograms.get(name)
        if histogram is None:
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
        without clobbering each other's gauges.  The lowest free suffix is
        handed out without scanning the registrations.  Only a weak
        reference is kept: a cache that dies with its oracle (say, one the
        server's registry evicted) disappears from the snapshot instead of
        being pinned, and its name becomes reusable.  Registering the *same
        object* again is idempotent (it keeps its original name): every
        oracle registers the process-wide ``ltr.containment_cq_memo``.
        Returns the name actually registered.
        """
        with self._lock:
            known = self._cache_names.get(cache)
            if known is not None:
                return known
            self._reap_dead_caches()
            while True:
                free = self._free_suffixes.get(name)
                if free:
                    suffix = heapq.heappop(free)
                else:
                    suffix = self._next_suffix.get(name, 1)
                    self._next_suffix[name] = suffix + 1
                final = name if suffix == 1 else f"{name}#{suffix}"
                # Only a requested name that itself ends in ``#k`` can
                # collide with a live one.
                held = self._caches.get(final)
                if held is None or held() is None:
                    break
            dead = self._dead
            self._caches[final] = weakref.ref(
                cache, lambda _ref, slot=(name, suffix): dead.append(slot)
            )
            self._cache_names[cache] = final
            return final

    def _reap_dead_caches(self) -> None:
        """Free the names of caches that died since the last call (lock held)."""
        while self._dead:
            name, suffix = self._dead.pop()
            final = name if suffix == 1 else f"{name}#{suffix}"
            held = self._caches.get(final)
            if held is not None and held() is None:
                del self._caches[final]
            heapq.heappush(self._free_suffixes.setdefault(name, []), suffix)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """A plain-dict snapshot: counters, gauges, histograms, caches.

        Each histogram reports its ``count``, ``sum`` and ``mean`` (the mean
        per-call cost, meaningful even when parallel runs make the summed
        total exceed wall-clock) with min/max and p50/p95/p99.
        """
        with self._lock:
            self._reap_dead_caches()
            caches = {name: ref() for name, ref in self._caches.items()}
            histograms = dict(self._histograms)
            snap: Dict[str, object] = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
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
            self._histograms.clear()
            self._reap_dead_caches()
            caches = [ref() for ref in self._caches.values()]
        # Cache stat resets take per-cache locks; run them outside ours.
        for cache in caches:
            reset_stats = getattr(cache, "reset_stats", None)
            if cache is not None and reset_stats is not None:
                reset_stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RuntimeMetrics(counters={self._counters!r})"
