"""Runtime layer: incremental relevance verdicts, batched execution, metrics.

This package hosts the pieces a *production* dynamic-answering deployment
needs around the paper's decision procedures:

* :class:`~repro.runtime.cache.RelevanceOracle` — memoizes immediate
  relevance, long-term relevance, and certainty verdicts, keyed by the
  access and the configuration's content fingerprint, and reuses long-term
  verdicts *incrementally* across configuration growth (delta inheritance,
  witness-path revalidation);
* :mod:`~repro.runtime.witness` — the incremental machinery itself: captured
  witness paths (:class:`~repro.runtime.witness.LtrWitness`) and verdict
  dependency snapshots (:class:`~repro.runtime.witness.ConfigurationSnapshot`);
* :class:`~repro.runtime.screening.CandidateScreen` — batched pre-oracle
  screening: the relevant-relation-closure prefilter and structural
  equivalence grouping of candidate bindings;
* :class:`~repro.runtime.executor.AccessExecutor` — deduplicating, batched
  access execution against a :class:`~repro.sources.service.Mediator`, with
  ``max_concurrency`` overlapping a batch's source latency;
* :mod:`~repro.runtime.shards` — lock-protected and sharded LRU caches plus
  the :class:`~repro.runtime.shards.SharedVerdictStore` that pools LTR
  history and witnesses across oracles for one (query, schema);
* :class:`~repro.runtime.persist.PersistentWitnessCache` — witness paths on
  disk, so a warm restart revalidates instead of searching fresh;
* :mod:`~repro.runtime.storage` — the pluggable storage backends under the
  persistent cache: compacting JSONL (single writer) and WAL-mode SQLite
  (safe for N concurrent server processes sharing one store);
* :mod:`~repro.runtime.serialize` — the record formats and process-stable
  digests the persistent cache is built on;
* :class:`~repro.runtime.server.QueryServer` — the multi-query answering
  runtime: a batch of Boolean queries over one shared configuration, every
  performed access advancing every query's strategy;
* :class:`~repro.runtime.metrics.RuntimeMetrics` — thread-safe counters,
  timers (with call counts), latency histograms (p50/p95/p99), and cache
  gauges the other components record into;
* :mod:`~repro.runtime.tracing` — hierarchical spans over the whole answering
  path (``answer → round → screen → oracle → access-batch → source-call``),
  off by default via an ambient no-op tracer, propagated across the thread
  pool;
* :mod:`~repro.runtime.export` — Prometheus text, JSON snapshot, and
  Chrome-trace (Perfetto) exporters plus the per-query ``explain`` report;
* :class:`~repro.runtime.service.AnsweringService` — the network-facing
  HTTP front end: query submission over the wire, coalesced shared rounds,
  outcome streaming/polling, ``/metrics`` and per-query trace endpoints;
* :class:`~repro.runtime.admission.AdmissionController` — the service's
  per-client token-bucket rate limits, in-flight quotas, queue
  backpressure (429/503 + ``Retry-After``), and round/access fairness
  budgets;
* :mod:`~repro.runtime.retry` — the fault-tolerance primitives: seeded
  :class:`~repro.runtime.retry.RetryPolicy` backoff, per-source
  :class:`~repro.runtime.retry.CircuitBreaker` state machines (grouped in a
  :class:`~repro.runtime.retry.BreakerBoard`), and the monotonic
  :class:`~repro.runtime.retry.Deadline` the server propagates into batch
  waits so degraded answers stay sound instead of hanging.
"""

from repro.runtime.admission import (
    AdmissionController,
    AdmissionDecision,
    TokenBucket,
)
from repro.runtime.cache import LRUCache, RelevanceOracle, access_key
from repro.runtime.executor import AccessExecutor, BatchResult
from repro.runtime.export import (
    chrome_trace_events,
    explain_trace,
    json_snapshot,
    prometheus_text,
    write_chrome_trace,
)
from repro.runtime.metrics import LatencyHistogram, RuntimeMetrics
from repro.runtime.persist import PersistentWitnessCache
from repro.runtime.retry import (
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    RetryPolicy,
)
from repro.runtime.screening import CandidateScreen, relevant_relation_closure
from repro.runtime.server import QueryOutcome, QueryServer, ServerResult
from repro.runtime.service import AnsweringService, ServiceHandle, serve_in_background
from repro.runtime.shards import ShardedLRUCache, SharedVerdictStore
from repro.runtime.storage import (
    CompactionResult,
    JsonlWitnessStore,
    SqliteWitnessStore,
    WitnessStore,
    open_witness_store,
)
from repro.runtime.tracing import (
    NO_TRACER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    activate_tracer,
    current_tracer,
    encode_spans,
)
from repro.runtime.witness import (
    ConfigurationSnapshot,
    LtrWitness,
    dependent_input_domains,
)

__all__ = [
    "AccessExecutor",
    "AdmissionController",
    "AdmissionDecision",
    "AnsweringService",
    "BatchResult",
    "BreakerBoard",
    "CandidateScreen",
    "CircuitBreaker",
    "CompactionResult",
    "ConfigurationSnapshot",
    "Deadline",
    "JsonlWitnessStore",
    "LRUCache",
    "LatencyHistogram",
    "LtrWitness",
    "NO_TRACER",
    "NullTracer",
    "PersistentWitnessCache",
    "QueryOutcome",
    "QueryServer",
    "RelevanceOracle",
    "RetryPolicy",
    "RuntimeMetrics",
    "ServerResult",
    "ServiceHandle",
    "ShardedLRUCache",
    "SharedVerdictStore",
    "Span",
    "SqliteWitnessStore",
    "SpanContext",
    "TokenBucket",
    "Tracer",
    "WitnessStore",
    "access_key",
    "activate_tracer",
    "chrome_trace_events",
    "current_tracer",
    "dependent_input_domains",
    "encode_spans",
    "explain_trace",
    "json_snapshot",
    "open_witness_store",
    "prometheus_text",
    "relevant_relation_closure",
    "serve_in_background",
    "write_chrome_trace",
]
