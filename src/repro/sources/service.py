"""Simulated deep-Web sources and the mediator that queries them.

The paper's motivating setting is a federated query engine that can only
reach backend data through restricted interfaces (Web forms, services).  This
module simulates that setting:

* a :class:`DataSource` wraps a *hidden* instance together with one access
  method; it answers accesses soundly, either exactly (all matching tuples)
  or partially (a sampled subset), modelling sources with incomplete
  knowledge, and can simulate *access latency* — the round-trip delay that
  dominates real deep-Web wall-clock;
* a :class:`Mediator` owns the current configuration — everything retrieved
  so far — performs well-formed accesses against the sources, and keeps an
  access log, so answering strategies (see :mod:`repro.planner.dynamic`) can
  be compared by the number of accesses they make.

Concurrency model (see also the README section): the mediator splits an
access into two halves.  :meth:`Mediator.respond` is the round trip — the
source call under the retry policy, breaker and deadline — and is safe on
worker threads: it reaches only :meth:`DataSource.respond`, a pure read of
the immutable hidden instance plus the simulated latency sleep.
:meth:`Mediator.merge` adds a response to the configuration and the access
log under the mediator's single writer lock.  The batch loop of
:meth:`~repro.runtime.executor.AccessExecutor.execute_batch` overlaps the
round trips of a batch in a thread pool and runs every merge, and every
caller callback, on the *dispatching* thread, so relevance oracles and
certainty checks never observe a configuration mid-merge.  Threads are the
right tool here (rather than asyncio): source latency is I/O-shaped waiting,
which the GIL releases, and the entire planner/oracle stack stays
synchronous — an async path would force ``await`` contagion through every
relevance procedure for no extra overlap.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime imports us)
    from repro.runtime.metrics import RuntimeMetrics
    from repro.runtime.retry import BreakerBoard, RetryPolicy

from repro.data import AccessResponse, Configuration, Instance, is_well_formed
from repro.exceptions import (
    AccessError,
    CircuitOpenError,
    DeadlineExceeded,
    MalformedResponseError,
    SchemaError,
    TransientAccessError,
)
from repro.schema import Access, AccessMethod, Schema
from repro.tracing import stage

__all__ = ["DataSource", "FailurePolicy", "Mediator"]


def annotate_error(error: BaseException, access: Access, **attributes) -> BaseException:
    """Attach the failing access (unless already set) and ``attributes``.

    Best effort: an exotic exception without a ``__dict__`` is returned
    unchanged.  The mediator sets ``attempts`` on the errors its round trip
    raises; :class:`~repro.runtime.executor.AccessExecutor` adds the
    ``timings`` of the batch an error aborts.
    """
    try:
        if getattr(error, "access", None) is None:
            error.access = access
        for name, value in attributes.items():
            setattr(error, name, value)
    except Exception:  # pragma: no cover - exotic exception without __dict__
        pass
    return error


def _tag_failure(span, error: BaseException, attempt: int, gave_up: bool, breaker) -> None:
    """Tag a failed (or refused) source call's span."""
    if span:
        span.annotate(error=type(error).__name__, attempt=attempt, gave_up=gave_up)
        if breaker is not None and breaker != "closed":
            span.annotate(breaker=breaker)


@dataclass(frozen=True)
class FailurePolicy:
    """Seeded, deterministic fault injection for one :class:`DataSource`.

    Mirrors the ``latency_s``/``latency_jitter_s`` design: every decision is
    a stable ``blake2b`` draw keyed by ``(seed, failure kind, method,
    binding, attempt number)``, so a chaos run is reproducible per
    ``(seed, access)`` — the Nth attempt of a given access fails (or not)
    identically across runs, threads, and processes.

    Parameters
    ----------
    transient_rate:
        Probability that an attempt raises
        :class:`~repro.exceptions.TransientAccessError` (retryable) before
        the simulated round trip.
    hard_fail_after:
        After this many total calls the source raises a plain (fatal)
        :class:`~repro.exceptions.AccessError` forever — a permanent outage.
        The trip point counts *calls to the source*, so under a concurrent
        batch it depends on interleaving; chaos tests that assert exact
        schedules run sequentially.
    hang_rate / hang_s:
        Probability that an attempt hangs for an extra ``hang_s`` seconds on
        top of the configured latency — the "latency spike beyond deadline"
        mode deadline tests use.
    malformed_rate:
        Probability that the response arrives garbled:
        :class:`~repro.exceptions.MalformedResponseError` (retryable) is
        raised *after* the simulated round trip.
    truncate_rate:
        Probability that a successful response is truncated to half its
        rows.  Truncation is sound (a subset of the true answer), so it
        degrades completeness without raising.
    seed:
        Seed of all the draws above; vary it per source.
    """

    transient_rate: float = 0.0
    hard_fail_after: Optional[int] = None
    hang_rate: float = 0.0
    hang_s: float = 0.0
    malformed_rate: float = 0.0
    truncate_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("transient_rate", "hang_rate", "malformed_rate", "truncate_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise AccessError(f"{name} must be between 0 and 1")
        if self.hang_s < 0.0:
            raise AccessError("hang_s must be non-negative")
        if self.hard_fail_after is not None and self.hard_fail_after < 0:
            raise AccessError("hard_fail_after must be non-negative")

    def _draw(self, kind: str, method: str, binding: Tuple, attempt: int) -> float:
        """Stable uniform draw in ``[0, 1)`` for one (kind, access, attempt)."""
        token = repr((self.seed, kind, method, binding, attempt)).encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64


class DataSource:
    """A single source: one access method over a hidden instance.

    Parameters
    ----------
    method:
        The access method this source implements.
    hidden_instance:
        The full backend data (never exposed directly).
    completeness:
        Probability that each matching tuple is included in a response;
        ``1.0`` models an exact source, smaller values model sound but
        partial sources.  Inclusion is decided by a stable per-tuple hash of
        ``(seed, access, tuple)``, so a given access always returns the same
        subset — independent of call order, process hash seed, or how many
        worker threads are querying the source.
    seed:
        Seed of the per-source randomness (partial-response sampling and
        latency jitter).
    latency_s:
        Fixed simulated round-trip delay per access, in seconds.
    latency_jitter_s:
        Upper bound of an additional uniform per-call delay drawn from the
        source's seeded random generator.
    failure_policy:
        Optional :class:`FailurePolicy` injecting seeded, deterministic
        faults (transient errors, permanent outage, hangs, malformed or
        truncated responses).  ``None`` (the default) is the fault-free
        source with zero added bookkeeping on the respond path.

    ``respond`` may be called from many threads at once: the hidden instance
    is only read, the call counter, the jitter draw, and the per-access
    attempt counter are guarded by a per-source lock, and the latency sleep
    happens outside that lock so concurrent accesses genuinely overlap.
    """

    def __init__(
        self,
        method: AccessMethod,
        hidden_instance: Instance,
        *,
        completeness: float = 1.0,
        seed: int = 0,
        latency_s: float = 0.0,
        latency_jitter_s: float = 0.0,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> None:
        if not 0.0 <= completeness <= 1.0:
            raise AccessError("completeness must be between 0 and 1")
        if latency_s < 0.0 or latency_jitter_s < 0.0:
            raise AccessError("latency and jitter must be non-negative")
        self._method = method
        self._hidden = hidden_instance
        self._completeness = completeness
        self._seed = seed
        self._random = random.Random(seed)
        self._latency_s = latency_s
        self._latency_jitter_s = latency_jitter_s
        self._failure_policy = failure_policy
        self._attempt_counts: Dict[Tuple, int] = {}
        self._lock = threading.Lock()
        self.calls = 0

    @property
    def method(self) -> AccessMethod:
        """The access method implemented by this source."""
        return self._method

    @property
    def latency_s(self) -> float:
        """The fixed simulated per-access delay."""
        return self._latency_s

    @property
    def failure_policy(self) -> Optional[FailurePolicy]:
        """The seeded fault-injection policy, if any."""
        return self._failure_policy

    def _keeps(self, access: Access, row: Tuple[object, ...]) -> bool:
        """Stable inclusion decision for one matching tuple of a partial source."""
        if self._completeness >= 1.0:
            return True
        token = repr((self._seed, self._method.name, access.binding, row)).encode()
        digest = hashlib.blake2b(token, digest_size=8).digest()
        draw = int.from_bytes(digest, "big") / 2.0**64
        return draw <= self._completeness

    def respond(self, access: Access) -> AccessResponse:
        """Answer an access (which must use this source's method)."""
        if access.method.name != self._method.name:
            raise AccessError(
                f"source for {self._method.name!r} received an access via "
                f"{access.method.name!r}"
            )
        policy = self._failure_policy
        attempt = 0
        with self._lock:
            self.calls += 1
            total_calls = self.calls
            delay = self._latency_s
            if self._latency_jitter_s > 0.0:
                delay += self._random.random() * self._latency_jitter_s
            if policy is not None:
                attempt = self._attempt_counts.get(access.binding, 0) + 1
                self._attempt_counts[access.binding] = attempt
        method = self._method.name
        if policy is not None:
            if policy.hard_fail_after is not None and total_calls > policy.hard_fail_after:
                raise AccessError(
                    f"source for {method!r} is permanently down "
                    f"(hard failure after {policy.hard_fail_after} calls)"
                )
            if policy.transient_rate > 0.0 and (
                policy._draw("transient", method, access.binding, attempt)
                < policy.transient_rate
            ):
                # Fails before the round trip, like a refused connection.
                raise TransientAccessError(
                    f"transient failure from source {method!r} "
                    f"(access {access.binding!r}, attempt {attempt})"
                )
            if policy.hang_rate > 0.0 and (
                policy._draw("hang", method, access.binding, attempt) < policy.hang_rate
            ):
                delay += policy.hang_s
        if delay > 0.0:
            # Outside the lock: concurrent accesses to one source overlap.
            time.sleep(delay)
        # Serve the access from the hidden instance's (place, constant)
        # indexes: only tuples agreeing with the binding are enumerated.
        matching = sorted(
            self._hidden.tuples_matching(access.relation, access.binding_by_place),
            key=repr,
        )
        if self._completeness >= 1.0:
            chosen: Sequence[Tuple[object, ...]] = matching
        else:
            chosen = [row for row in matching if self._keeps(access, row)]
        if policy is not None:
            if policy.malformed_rate > 0.0 and (
                policy._draw("malformed", method, access.binding, attempt)
                < policy.malformed_rate
            ):
                # Fails after the round trip, like a garbled payload.
                raise MalformedResponseError(
                    f"malformed response from source {method!r} "
                    f"(access {access.binding!r}, attempt {attempt})"
                )
            if policy.truncate_rate > 0.0 and chosen and (
                policy._draw("truncate", method, access.binding, attempt)
                < policy.truncate_rate
            ):
                # Sound degradation: a strict subset of the true answer.
                chosen = list(chosen)[: len(chosen) // 2]
        # The tuples come from an index lookup keyed on the binding, over an
        # instance validated at construction: skip per-tuple re-validation.
        return AccessResponse.trusted(access, tuple(chosen))


class Mediator:
    """A federated query engine over a set of sources.

    The mediator's state is its configuration; every successful access grows
    it.  Accesses that are not well-formed (a dependent binding value not yet
    known) are rejected, mirroring the paper's semantics.

    Ordering guarantees under a concurrent batch: responses are merged and
    logged one at a time under the writer lock, in completion order — the
    *set* of performed accesses and the final configuration are deterministic
    for exact sources, while the log *order* within a concurrent batch is
    not.  Each merge keeps the all-or-nothing semantics of :meth:`perform`.
    """

    def __init__(
        self,
        schema: Schema,
        sources: Iterable[DataSource],
        initial_configuration: Optional[Configuration] = None,
        *,
        metrics: Optional["RuntimeMetrics"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        breakers: Optional["BreakerBoard"] = None,
    ) -> None:
        self._schema = schema
        self._sources: Dict[str, DataSource] = {}
        for source in sources:
            if source.method.name in self._sources:
                raise SchemaError(
                    f"duplicate source for access method {source.method.name!r}"
                )
            self._sources[source.method.name] = source
        self._configuration = (
            initial_configuration.copy()
            if initial_configuration is not None
            else Configuration.empty(schema)
        )
        self._log: List[Tuple[Access, int]] = []
        self._metrics = metrics
        self._retry = retry_policy
        self._breakers = breakers
        if breakers is not None and metrics is not None:
            breakers.attach_metrics(metrics)
        self._merge_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The schema shared by the sources."""
        return self._schema

    @property
    def configuration(self) -> Configuration:
        """The facts retrieved so far (a copy; mutate via :meth:`perform`)."""
        return self._configuration.copy()

    @property
    def configuration_view(self) -> Configuration:
        """A *live, read-only* view of the current configuration.

        Unlike :attr:`configuration` this does not copy; the returned object
        changes as accesses are performed.  Callers must not mutate it — the
        answering strategies use it to avoid per-candidate deep copies.
        During a concurrent batch the view only changes on the dispatching
        thread (merges happen between, not during, caller callbacks), so
        strategies reading it from that thread never observe a partial merge.
        """
        return self._configuration

    @property
    def fingerprint(self) -> Tuple[int, ...]:
        """The content fingerprint of the current configuration."""
        return self._configuration.fingerprint()

    @property
    def access_count(self) -> int:
        """How many accesses have been performed."""
        return len(self._log)

    @property
    def access_log(self) -> Tuple[Tuple[Access, int], ...]:
        """The sequence of performed accesses with the number of tuples returned."""
        return tuple(self._log)

    def source_for(self, method_name: str) -> DataSource:
        """The source implementing ``method_name``."""
        try:
            return self._sources[method_name]
        except KeyError:
            raise SchemaError(f"no source for access method {method_name!r}") from None

    @property
    def retry_policy(self) -> Optional["RetryPolicy"]:
        """The retry policy applied to every source call, if any."""
        return self._retry

    @property
    def breakers(self) -> Optional["BreakerBoard"]:
        """The per-source circuit-breaker board, if any (``/healthz`` reads it)."""
        return self._breakers

    @property
    def metrics(self) -> Optional["RuntimeMetrics"]:
        """The metrics sink the mediator records into, if any."""
        return self._metrics

    # ------------------------------------------------------------------ #
    # Access execution
    # ------------------------------------------------------------------ #
    def can_perform(self, access: Access) -> bool:
        """Whether the access is well-formed at the current configuration."""
        return is_well_formed(access, self._configuration)

    def merge(self, access: Access, response: AccessResponse) -> int:
        """Merge one response under the writer lock; return the new-fact count.

        Runs on the dispatching thread.  All-or-nothing: if a response tuple
        fails validation part-way (possible with duck-typed sources), the
        merged prefix is rolled back so the configuration never keeps facts
        from a failed access.
        """
        relation_name = access.relation.name
        with self._merge_lock:
            configuration = self._configuration
            added: List[Tuple[object, ...]] = []
            try:
                for values in response.facts:
                    if configuration.add(relation_name, values):
                        added.append(values)
            except Exception:
                for values in added:
                    configuration.remove(relation_name, values)
                raise
            new_facts = len(added)
            self._log.append((access, len(response)))
        if self._metrics is not None:
            self._metrics.incr("mediator.accesses")
            self._metrics.incr("mediator.facts_returned", len(response))
            self._metrics.incr("mediator.facts_new", new_facts)
        return new_facts

    def respond(self, access: Access, tracer=None, parent=None, tags=None, deadline=None):
        """Answer ``access`` under the retry policy, breaker, and deadline.

        The mediator's round trip, safe on worker threads: it reads the
        configuration not at all, so a batch may run several at once and
        :meth:`merge` each result on the dispatching thread.  Each attempt
        is a ``source-call`` stage timed into the ``source.latency``
        histogram, failed attempts included; a failed attempt's span is
        tagged with its ``error``, ``attempt``, ``gave_up`` and non-closed
        ``breaker`` state.  ``tracer`` and ``parent`` default to this
        thread's ambient tracer and innermost span; a pool thread passes the
        dispatching thread's (thread-locals do not follow work into a
        pool).  ``tags`` are extra tags for the spans.  Returns
        ``(response, duration, span, attempts)``, where ``span`` is the
        successful attempt's stage (falsy untraced; the caller tags
        merge-time facts onto it); a failure raises with ``error.access``
        and ``error.attempts`` set.
        """
        policy = self._retry
        breaker = (
            self._breakers.breaker_for(access.method.name)
            if self._breakers is not None
            else None
        )
        metrics = self._metrics
        attempts = 0
        while True:
            if deadline is not None and deadline.expired():
                raise annotate_error(
                    DeadlineExceeded(
                        f"deadline expired before access {access!r} could be attempted"
                    ),
                    access,
                    attempts=attempts,
                )
            if breaker is not None and not breaker.allow():
                if metrics is not None:
                    metrics.incr("breaker.fast_fail")
                exc = CircuitOpenError(
                    f"circuit breaker open for source {access.method.name!r}"
                )
                # A refused call is no attempt: its span times nothing.
                with self._source_call(access, tracer, parent, tags, None) as span:
                    _tag_failure(span, exc, attempts + 1, True, "open")
                raise annotate_error(exc, access, attempts=attempts)
            attempts += 1
            try:
                with self._source_call(
                    access, tracer, parent, tags, "source.latency"
                ) as span:
                    response = self.source_for(access.method.name).respond(access)
            except Exception as exc:
                if breaker is not None:
                    breaker.record_failure()
                if metrics is not None:
                    metrics.incr("source.failures")
                retryable = (
                    policy is not None
                    and attempts < policy.max_attempts
                    and policy.is_retryable(exc)
                )
                backoff = 0.0
                if retryable:
                    backoff = policy.backoff_s(
                        access.method.name, access.binding, attempts
                    )
                    if deadline is not None and deadline.remaining() <= backoff:
                        retryable = False  # no budget left to wait out the backoff
                _tag_failure(
                    span,
                    exc,
                    attempts,
                    not retryable,
                    None if breaker is None else breaker.state,
                )
                if not retryable:
                    if metrics is not None and policy is not None:
                        metrics.incr("retry.gave_up")
                    raise annotate_error(exc, access, attempts=attempts)
                if metrics is not None:
                    metrics.incr("retry.attempts")
                if backoff > 0.0:
                    time.sleep(backoff)
                continue
            if breaker is not None:
                breaker.record_success()
            span.annotate(facts=len(response))
            if attempts > 1:
                if metrics is not None:
                    metrics.incr("retry.recovered")
                span.annotate(attempt=attempts)
            return response, span.duration, span, attempts

    def _source_call(self, access: Access, tracer, parent, tags, metric):
        """The ``source-call`` stage of ``access``; enter it with ``with``."""
        return stage(
            "source-call",
            metrics=self._metrics,
            metric=metric,
            tracer=tracer,
            parent=parent,
            method=access.method.name,
            **(tags or {}),
        )

    def perform(self, access: Access) -> AccessResponse:
        """Perform a well-formed access and merge its response.

        The response facts are merged into the configuration *in place* (the
        indexed instance absorbs them incrementally); external snapshots taken
        via :attr:`configuration` are unaffected.  Under a tracer the call is
        a ``source-call`` span tagged with the ``new_facts`` it merged.
        """
        if not self.can_perform(access):
            raise annotate_error(
                AccessError(
                    f"access {access!r} is not well-formed at the current configuration"
                ),
                access,
                attempts=0,
            )
        response, _duration, span, _attempts = self.respond(access)
        new_facts = self.merge(access, response)
        span.annotate(new_facts=new_facts)
        return response

    def seed_constants(self, constants: Iterable[Tuple[object, object]]) -> None:
        """Make constants (e.g. query constants) available for dependent bindings."""
        for value, domain in constants:
            self._configuration.add_constant(value, domain)

    def serve(self, **server_kwargs):
        """A :class:`~repro.runtime.server.QueryServer` over this mediator.

        Convenience entry point for the multi-query runtime::

            with mediator.serve(cache_path="witness.sqlite") as server:
                result = server.answer([q1, q2, q3])

        All keyword arguments are forwarded to the server's constructor.
        The server shares this mediator's configuration: every access any
        query triggers is visible to later ``answer`` calls (and to direct
        :meth:`perform` callers).
        """
        from repro.runtime.server import QueryServer

        return QueryServer(self, **server_kwargs)
