"""Runtime layer: incremental relevance verdicts, batched execution, metrics.

This package hosts the pieces a *production* dynamic-answering deployment
needs around the paper's decision procedures:

* :class:`~repro.runtime.cache.RelevanceOracle` — one per query, kept
  across requests: memoizes long-term relevance and certainty verdicts in
  lock-protected :class:`~repro.lru.LRUCache` maps, keyed by the
  access and the configuration's content fingerprint, and reuses long-term
  verdicts *incrementally* across configuration growth (delta inheritance,
  witness-path revalidation);
* :mod:`~repro.runtime.witness` — the incremental machinery itself: captured
  witness paths (:class:`~repro.runtime.witness.LtrWitness`) and verdict
  dependency snapshots (:class:`~repro.runtime.witness.ConfigurationSnapshot`);
* :class:`~repro.runtime.screening.CandidateScreen` — batched pre-oracle
  screening, owned by the query's oracle: the relevant-relation-closure
  prefilter and structural equivalence grouping of candidate bindings;
* :class:`~repro.runtime.executor.AccessExecutor` — the one batch loop:
  deduplicating access execution against a
  :class:`~repro.sources.service.Mediator`, with ``max_concurrency``
  overlapping a batch's source latency;
* :class:`~repro.runtime.persist.PersistentWitnessCache` — witness paths on
  disk, so a warm restart revalidates instead of searching fresh;
* :mod:`~repro.runtime.storage` — the witness store under the persistent
  cache: one WAL-mode SQLite file, safe for N concurrent server processes
  sharing it;
* :mod:`~repro.runtime.serialize` — the record formats and process-stable
  digests the persistent cache is built on;
* :class:`~repro.runtime.server.QueryServer` — the answering kernel: a
  batch of Boolean queries over one shared configuration, every performed
  access advancing every query's strategy, with a bounded registry of the
  queries' oracles (the single-query strategies of
  :mod:`repro.planner.dynamic` run it with one query);
* :class:`~repro.runtime.metrics.RuntimeMetrics` — thread-safe counters,
  gauges and latency histograms (count, sum, p50/p95/p99) the other
  components record into: the one accounting path, read by ``/metrics``
  and the benchmark ledger alike;
* the tracing names re-exported from :mod:`repro.tracing` — hierarchical
  spans over the whole answering path (``answer → round → query → verdicts
  → oracle``, ``access-batch → source-call``), switched on per thread by
  :func:`~repro.tracing.activate_tracer`; every layer measures itself with
  :func:`~repro.tracing.stage`, which also feeds the latency histograms;
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
from repro.lru import LRUCache
from repro.runtime.cache import RelevanceOracle, access_key
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
from repro.runtime.storage import CompactionResult, SqliteWitnessStore
from repro.tracing import (
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
    "Span",
    "SqliteWitnessStore",
    "SpanContext",
    "TokenBucket",
    "Tracer",
    "access_key",
    "activate_tracer",
    "chrome_trace_events",
    "current_tracer",
    "dependent_input_domains",
    "encode_spans",
    "explain_trace",
    "json_snapshot",
    "prometheus_text",
    "relevant_relation_closure",
    "serve_in_background",
    "write_chrome_trace",
]
