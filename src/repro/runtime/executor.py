"""Batched access execution against a mediator.

:class:`AccessExecutor` owns the runtime's one batch loop and its
bookkeeping; the mediator contributes only the single-access round trip
(:meth:`~repro.sources.service.Mediator.respond`) and the merge
(:meth:`~repro.sources.service.Mediator.merge`):

* it deduplicates accesses, so an access performed once is never re-sent to a
  source;
* it executes *batches* — a whole answering round of accesses in one call,
  with prechecks, stop checks, merges and failure handling on the calling
  thread, and with ``max_concurrency`` the batch's round trips overlapping
  their source latency in a thread pool;
* it records per-run metrics (accesses performed, skipped, facts retrieved,
  *new* facts merged).

Progress is measured in **new facts merged**, not tuples returned: with
overlapping sources an access can return plenty of tuples the configuration
already knows, and a round of such accesses must not count as progress (the
strategies would run a provably idle extra round).
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.data import AccessResponse, Configuration
from repro.exceptions import AccessError, CircuitOpenError, DeadlineExceeded
from repro.runtime.cache import access_key
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.retry import Deadline
from repro.schema import Access, Schema
from repro.sources.service import Mediator, annotate_error
from repro.tracing import current_tracer, stage

__all__ = ["AccessExecutor", "BatchResult", "candidate_accesses"]


def candidate_accesses(
    schema: Schema,
    configuration: Configuration,
    performed_key: Callable[[Tuple[str, Tuple[object, ...]]], bool],
) -> List[Access]:
    """Well-formed accesses (dependent bindings from the active domain) not yet made.

    This is the per-round enumeration the answering kernel of
    :class:`~repro.runtime.server.QueryServer` starts from (once per round,
    shared across all its queries; the strategies of
    :mod:`repro.planner.dynamic` run the same kernel).
    ``performed_key`` is usually :meth:`AccessExecutor.has_performed_key`.
    """
    candidates: List[Access] = []
    by_domain = configuration.active_values_by_domain()
    for method in schema.access_methods:
        pools: List[Tuple[object, ...]] = []
        feasible = True
        for place in method.input_places:
            domain = method.relation.domain_of(place)
            values = by_domain.get(domain)
            if not values:
                feasible = False
                break
            pools.append(values)
        if not feasible:
            continue
        for binding in itertools.product(*pools) if pools else [()]:
            if performed_key((method.name, binding)):
                continue
            candidates.append(Access(method, binding))
    return candidates


@dataclass
class BatchResult:
    """Outcome of a batch of accesses.

    ``failed`` lists ``(access, error, attempts)`` for accesses that could
    not be performed (only populated in degraded mode, i.e. when the batch
    ran with ``tolerate_failures=True``); ``attempts_by_key`` maps each
    access key that reached a source to its source-call attempt count
    (1 unless the retry policy kicked in); ``deadline_expired`` records that
    the batch's deadline cut it short.
    """

    responses: List[AccessResponse] = field(default_factory=list)
    performed: int = 0
    skipped: int = 0
    new_facts: int = 0
    failed: List[Tuple[Access, BaseException, int]] = field(default_factory=list)
    attempts_by_key: Dict[Tuple[str, Tuple[object, ...]], int] = field(default_factory=dict)
    deadline_expired: bool = False

    @property
    def facts_returned(self) -> int:
        """Total tuples returned across the batch's responses."""
        return sum(len(response) for response in self.responses)

    @property
    def progressed(self) -> bool:
        """Whether the batch merged at least one fact the configuration lacked.

        Tuples that were already present (overlapping sources re-returning
        known facts) do not count: re-running a round after a no-new-facts
        batch is provably idle, since the configuration — and therefore every
        candidate set and relevance verdict — is unchanged.
        """
        return self.new_facts > 0


class AccessExecutor:
    """Deduplicating, metric-recording executor over one mediator."""

    def __init__(self, mediator: Mediator, *, metrics: Optional[RuntimeMetrics] = None) -> None:
        self._mediator = mediator
        self._metrics = metrics if metrics is not None else RuntimeMetrics()
        self._performed: Set[Tuple[str, Tuple[object, ...]]] = set()

    @property
    def mediator(self) -> Mediator:
        """The mediator accesses are executed against."""
        return self._mediator

    @property
    def metrics(self) -> RuntimeMetrics:
        """The metrics sink the executor records into."""
        return self._metrics

    def already_performed(self, access: Access) -> bool:
        """Whether the executor has already performed this access."""
        return access_key(access) in self._performed

    def has_performed_key(self, key: Tuple[str, Tuple[object, ...]]) -> bool:
        """Key-based variant of :meth:`already_performed` (no Access needed)."""
        return key in self._performed

    def execute_batch(
        self,
        accesses: Iterable[Access],
        *,
        precheck: Optional[Callable[[Access], bool]] = None,
        stop: Optional[Callable[[], bool]] = None,
        max_concurrency: int = 1,
        annotate_access: Optional[Callable[[Access], Optional[Dict[str, object]]]] = None,
        on_response: Optional[Callable[[AccessResponse], None]] = None,
        deadline: Optional[Deadline] = None,
        tolerate_failures: bool = False,
    ) -> BatchResult:
        """Perform every not-yet-performed access of the batch.

        This is the runtime's one batch loop.  Before each dispatch it
        checks, on the calling thread and in this order: ``stop`` (e.g. the
        query became certain) and the ``deadline`` end the batch;
        ``precheck`` skips the access — the answering kernel re-validates an
        access screened relevant at the top of the round, cheaply through
        the incremental engine, against the configuration it actually
        executes against; a known-open circuit breaker and an ill-formed
        binding fail the access without a source call.  It then dispatches
        the access's round trip (:meth:`Mediator.respond`) and merges each
        completed response on the calling thread (:meth:`Mediator.merge`).
        ``on_response`` runs right after each merge, before the next
        ``stop`` or ``precheck`` — the ordering incremental consumers (the
        certainty fixpoint) rely on to stay in lineage with the live
        configuration mid-batch.

        Up to ``max_concurrency`` round trips overlap in a thread pool
        (values below 1 count as 1).  Responses already in flight when
        ``stop`` fires are still merged, so the performed set equals the
        dispatched set, and up to ``max_concurrency`` accesses dispatched
        before a stop may complete.  Without concurrency or a deadline there
        is no pool: each round trip runs inline, strictly in order.

        When tracing is active the batch runs under an ``access-batch`` span;
        each source-call attempt's ``source-call`` span parents under it,
        even from pool threads, and ``annotate_access`` — evaluated at
        dispatch time — supplies extra tags for it (the query server passes
        the screening layer's why-was-this-performed annotations here, and
        only when it traces).
        Per-access latency always lands in the ``access.latency`` and
        ``access.latency.<method>`` histograms.

        Failures: by default the first failing access aborts the batch —
        responses already in flight are merged, then the error is raised
        carrying the failing access in ``error.access``, the ``(access,
        duration)`` pairs merged before the failure in ``error.timings``,
        and the source-call attempts in ``error.attempts``.  With
        ``tolerate_failures=True`` a failing access lands in
        ``result.failed`` as ``(access, error, attempts)`` and its
        batchmates proceed.  Either way a failed access is *not* marked
        performed, so a later round (or ``answer`` call) may retry it.
        ``deadline`` bounds the batch: after expiry nothing new is
        dispatched, retries never back off past it, work still in flight is
        abandoned unmerged (reported as
        :class:`~repro.exceptions.DeadlineExceeded`; its pool threads finish
        in the background), and ``result.deadline_expired`` is set.  A batch
        with a deadline always runs on a pool, so a hung source cannot block
        it past expiry.
        """
        result = BatchResult()
        pending: Deque[Access] = deque()
        seen: Set[Tuple[str, Tuple[object, ...]]] = set()
        for access in accesses:
            key = access_key(access)
            if key in self._performed or key in seen:
                result.skipped += 1
                self._metrics.incr("executor.skipped")
                continue
            seen.add(key)
            pending.append(access)

        mediator = self._mediator
        board = mediator.breakers
        window = max(1, max_concurrency)
        in_flight: Dict[Future, Access] = {}
        timings: List[Tuple[Access, float]] = []
        errors: List[BaseException] = []
        stopped = False

        def fail(access: Access, error: BaseException, attempts: int) -> None:
            nonlocal stopped
            if not tolerate_failures:
                errors.append(annotate_error(error, access, timings=tuple(timings)))
                stopped = True
                return
            result.failed.append((access, error, attempts))
            if attempts:
                result.attempts_by_key[access_key(access)] = attempts
            if isinstance(error, DeadlineExceeded):
                result.deadline_expired = True
            self._metrics.incr("executor.failed")

        def refuse(access: Access, error: BaseException) -> None:
            """Fail an access that made no source call."""
            fail(access, annotate_error(error, access, attempts=0), 0)

        with stage(
            "access-batch", candidates=len(pending), max_concurrency=max_concurrency
        ) as batch_span:
            # Captured once: pool threads record their source-call spans
            # with this tracer, under this explicit parent (thread-locals
            # stay behind).
            tracer = current_tracer()
            parent = batch_span.context
            pool = (
                ThreadPoolExecutor(max_workers=window)
                if window > 1 or deadline is not None
                else None
            )

            def dispatch(access: Access) -> Future:
                tags = annotate_access(access) if annotate_access is not None else None
                call = (access, tracer, parent, tags, deadline)
                if pool is not None:
                    return pool.submit(mediator.respond, *call)
                future = Future()
                try:
                    future.set_result(mediator.respond(*call))
                except Exception as error:
                    future.set_exception(error)
                return future

            abandoned = False
            try:
                while True:
                    while pending and len(in_flight) < window and not stopped:
                        if (stop is not None and stop()) or (
                            deadline is not None and deadline.expired()
                        ):
                            stopped = True
                            break
                        access = pending.popleft()
                        if precheck is not None and not precheck(access):
                            result.skipped += 1
                            self._metrics.incr("executor.precheck_skipped")
                            continue
                        if board is not None and board.breaker_for(
                            access.method.name
                        ).fail_fast():
                            if mediator.metrics is not None:
                                mediator.metrics.incr("breaker.fast_fail")
                            refuse(
                                access,
                                CircuitOpenError(
                                    "circuit breaker open for source "
                                    f"{access.method.name!r}"
                                ),
                            )
                            continue
                        if not mediator.can_perform(access):
                            refuse(
                                access,
                                AccessError(
                                    f"access {access!r} is not well-formed at the "
                                    "current configuration"
                                ),
                            )
                            continue
                        in_flight[dispatch(access)] = access
                    if not in_flight:
                        break
                    timeout = None
                    if deadline is not None and not deadline.unlimited:
                        timeout = max(0.0, deadline.remaining())
                    done, _ = futures_wait(
                        in_flight, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    if not done:
                        # The deadline expired with work still hung in
                        # flight: abandon it.  Queued futures are cancelled;
                        # running ones finish in the background, unmerged.
                        abandoned = True
                        if mediator.metrics is not None:
                            mediator.metrics.incr("deadline.abandoned", len(in_flight))
                        for future, access in in_flight.items():
                            future.cancel()
                            refuse(
                                access,
                                DeadlineExceeded(
                                    f"deadline expired with access {access!r} in flight"
                                ),
                            )
                        break
                    for future in done:
                        access = in_flight.pop(future)
                        try:
                            response, duration, span, attempts = future.result()
                        except Exception as error:
                            fail(access, error, getattr(error, "attempts", 1))
                            continue
                        try:
                            new_facts = mediator.merge(access, response)
                        except Exception as error:
                            fail(access, error, attempts)
                            continue
                        if span:
                            span.annotate(new_facts=new_facts)
                        # Recorded per merge, not after the batch: accesses
                        # merged before a failure stay deduplicated on a retry.
                        key = access_key(access)
                        self._performed.add(key)
                        timings.append((access, duration))
                        result.attempts_by_key[key] = attempts
                        result.performed += 1
                        result.responses.append(response)
                        result.new_facts += new_facts
                        self._metrics.incr("executor.performed")
                        self._metrics.incr("executor.facts", len(response))
                        self._metrics.observe("access.latency", duration)
                        self._metrics.observe(
                            f"access.latency.{access.method.name}", duration
                        )
                        if on_response is not None:
                            on_response(response)
            finally:
                if pool is not None:
                    pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
            if errors:
                raise errors[0]
            if deadline is not None and deadline.expired():
                result.deadline_expired = True
            batch_span.annotate(
                performed=result.performed,
                skipped=result.skipped,
                new_facts=result.new_facts,
            )
            if result.failed:
                batch_span.annotate(failed=len(result.failed))
        return result
