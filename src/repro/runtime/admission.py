"""Admission control for the network-facing answering service.

The answering runtime underneath (:class:`~repro.runtime.server.QueryServer`)
is work-conserving: give it a batch and it will spend whatever rounds and
accesses the batch needs.  A *service* in front of it cannot afford that
politeness — external clients retry, flood, and dominate — so every
submission passes through an :class:`AdmissionController` before it is
allowed to queue:

* **per-client rate limiting** — a :class:`TokenBucket` per client (one
  token per query, ``burst`` tokens deep, refilled at ``rate`` tokens per
  second).  An empty bucket rejects with HTTP 429 and an honest
  ``Retry-After`` computed from the refill rate;
* **per-client in-flight quotas** — at most ``max_inflight_per_client``
  queries queued-or-answering per client, so a slow-reading client cannot
  park unbounded state server-side (429 again);
* **global backpressure** — a bounded submission queue (``max_queued``); a
  full queue trips HTTP 503 + ``Retry-After``, the "shed load now, come back
  shortly" signal load balancers understand;
* **drain mode** — :meth:`begin_drain` flips the controller to reject every
  new submission with 503 while already-admitted queries run to completion,
  which is what makes the service's shutdown graceful;
* **fairness budgets** — :meth:`budgets_for` hands each admitted query the
  service's per-query round/access budget, which
  :meth:`QueryServer.answer <repro.runtime.server.QueryServer.answer>`
  enforces *inside* a coalesced batch: a dominating query retires with
  ``rounds_exhausted`` instead of starving its batchmates.

The accounting style — admitted/in-flight/capacity — follows the
pool-handler idiom of the MAAS pods API (used/available/over-commit) cited
in SNIPPETS.md §2.  Everything is stdlib: one lock, plain dicts, a monotonic
clock injected for tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.metrics import RuntimeMetrics

__all__ = ["AdmissionController", "AdmissionDecision", "TokenBucket"]


class TokenBucket:
    """A classic token bucket: ``burst`` capacity, ``rate`` tokens/second.

    ``try_acquire`` either deducts and admits, or reports how long the
    caller must wait for the requested tokens to exist — that number goes
    out verbatim as the 429 response's ``Retry-After``.  Time is injected
    (monotonic seconds) so tests can step it deterministically.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0.0:
            raise ValueError("token bucket rate must be positive")
        if burst <= 0.0:
            raise ValueError("token bucket burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0, *, now: float) -> Tuple[bool, float]:
        """Deduct ``tokens`` if available: ``(True, 0.0)`` or ``(False, wait_s)``.

        A request larger than the bucket can *ever* hold is reported with
        the wait needed to fill the whole burst — the caller should treat a
        repeatedly failing oversized request as a client error.
        """
        self._refill(now)
        if tokens <= self._tokens:
            self._tokens -= tokens
            return True, 0.0
        needed = min(tokens, self.burst) - self._tokens
        return False, max(needed / self.rate, 0.0)

    @property
    def tokens(self) -> float:
        """Tokens currently in the bucket (as of the last acquire)."""
        return self._tokens


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one submission.

    ``admitted`` submissions carry HTTP status 0 (the service picks 200 or
    202); rejections carry the status to send (429 or 503), a machine-
    readable ``reason``, and the ``Retry-After`` seconds the client should
    honor before retrying.
    """

    admitted: bool
    status: int = 0
    reason: str = ""
    retry_after: float = 0.0


class _ClientState:
    __slots__ = ("bucket", "inflight", "last_seen")

    def __init__(self, bucket: Optional[TokenBucket]) -> None:
        self.bucket = bucket
        self.inflight = 0
        self.last_seen = 0.0


class AdmissionController:
    """Admission decisions and the accounting they are made from.

    Parameters
    ----------
    rate / burst:
        Per-client token-bucket rate limit (queries per second; the bucket
        holds ``burst`` tokens, defaulting to ``max(rate, 1)``).  ``None``
        disables rate limiting.
    max_inflight_per_client:
        Per-client cap on queries queued-or-answering; ``None`` disables.
    max_queued:
        Global bound on the submission queue.  A full queue is the
        backpressure signal (503).
    round_budget / access_budget:
        Per-query fairness budgets handed to every admitted query (see
        :meth:`budgets_for`); ``None`` disables.
    deadline_s:
        Per-query wall-clock budget in seconds handed to every admitted
        query (see :meth:`deadlines_for`); the server retires a query at
        expiry with a sound ``degraded`` outcome instead of letting it
        (or a hung source) run unbounded.  ``None`` disables.
    retry_after_s:
        The ``Retry-After`` hint on 503 rejections, where no better number
        exists (429s compute theirs from the bucket's refill rate).
    metrics:
        Sink for the accept/reject counters and the queue-depth / in-flight
        gauges; shares the server's sink so ``/metrics`` shows admission
        and answering side by side.
    clock:
        Monotonic-seconds callable, injectable for deterministic tests.
    """

    def __init__(
        self,
        *,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_inflight_per_client: Optional[int] = None,
        max_queued: int = 256,
        round_budget: Optional[int] = None,
        access_budget: Optional[int] = None,
        deadline_s: Optional[float] = None,
        retry_after_s: float = 1.0,
        metrics: Optional[RuntimeMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
        max_clients: int = 1024,
    ) -> None:
        if rate is not None and rate <= 0.0:
            raise ValueError("rate must be positive (or None to disable)")
        self._rate = rate
        self._burst = burst if burst is not None else (max(rate, 1.0) if rate else None)
        self._max_inflight = max_inflight_per_client
        self._max_queued = max(1, max_queued)
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive (or None to disable)")
        self.round_budget = round_budget
        self.access_budget = access_budget
        self.deadline_s = deadline_s
        self._retry_after = retry_after_s
        self._metrics = metrics if metrics is not None else RuntimeMetrics()
        self._clock = clock
        self._max_clients = max(1, max_clients)
        self._clients: Dict[str, _ClientState] = {}
        self._queued = 0
        self._inflight = 0
        self._draining = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queued(self) -> int:
        """Queries admitted but not yet picked up by a batch."""
        with self._lock:
            return self._queued

    @property
    def inflight(self) -> int:
        """Queries admitted and not yet resolved (queued + answering)."""
        with self._lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        """Whether :meth:`begin_drain` has been called."""
        with self._lock:
            return self._draining

    def client_inflight(self, client: str) -> int:
        """One client's share of :attr:`inflight`."""
        with self._lock:
            state = self._clients.get(client)
            return state.inflight if state is not None else 0

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def admit(self, client: str, n_queries: int = 1) -> AdmissionDecision:
        """Decide one submission of ``n_queries`` queries from ``client``.

        Checks run cheapest-and-most-global first: drain and queue bound
        (both 503 — the *service* is the bottleneck), then the client's
        in-flight quota and rate bucket (429 — the *client* is).
        An admitted submission has already been charged against the queue
        and the client's quota; the caller must pair it with exactly one
        :meth:`release` (normally via :meth:`resolved`) per query.
        """
        now = self._clock()
        with self._lock:
            if self._draining:
                return self._reject("draining", 503, self._retry_after)
            if self._queued + n_queries > self._max_queued:
                return self._reject("queue_full", 503, self._retry_after)
            state = self._client_state(client, now)
            if (
                self._max_inflight is not None
                and state.inflight + n_queries > self._max_inflight
            ):
                return self._reject("inflight_quota", 429, self._retry_after)
            if state.bucket is not None:
                ok, wait = state.bucket.try_acquire(float(n_queries), now=now)
                if not ok:
                    return self._reject("rate_limited", 429, wait)
            state.inflight += n_queries
            self._queued += n_queries
            self._inflight += n_queries
            self._metrics.incr("admission.accepted", n_queries)
            self._set_gauges()
            return AdmissionDecision(admitted=True)

    def _reject(self, reason: str, status: int, retry_after: float) -> AdmissionDecision:
        """Build a rejection (lock held; counters + gauges updated)."""
        self._metrics.incr(f"admission.rejected.{reason}")
        self._set_gauges()
        return AdmissionDecision(
            admitted=False,
            status=status,
            reason=reason,
            retry_after=max(retry_after, 0.0),
        )

    def started(self, n_queries: int) -> None:
        """Mark ``n_queries`` as picked up by a batch (queued → answering)."""
        with self._lock:
            self._queued = max(0, self._queued - n_queries)
            self._set_gauges()

    def resolved(self, client: str, n_queries: int) -> None:
        """Mark ``n_queries`` of ``client`` as finished (or failed)."""
        with self._lock:
            self._inflight = max(0, self._inflight - n_queries)
            state = self._clients.get(client)
            if state is not None:
                state.inflight = max(0, state.inflight - n_queries)
            self._set_gauges()

    def begin_drain(self) -> None:
        """Stop admitting; already-admitted queries run to completion."""
        with self._lock:
            self._draining = True
            self._metrics.incr("admission.drains")
            self._set_gauges()

    def budgets_for(
        self, n_queries: int
    ) -> Tuple[Optional[List[Optional[int]]], Optional[List[Optional[int]]]]:
        """The per-query ``(round_budgets, access_budgets)`` for a batch.

        Uniform today — every admitted query gets the service's configured
        budget — but the shape (positional lists, ``None`` = unlimited)
        matches :meth:`QueryServer.answer`, so a weighted policy only has
        to change this method.
        """
        rounds = (
            [self.round_budget] * n_queries if self.round_budget is not None else None
        )
        accesses = (
            [self.access_budget] * n_queries
            if self.access_budget is not None
            else None
        )
        return rounds, accesses

    def deadlines_for(self, n_queries: int) -> Optional[List[Optional[float]]]:
        """The per-query deadline seconds for a batch (shape of
        :meth:`budgets_for`): uniform ``deadline_s`` entries, or ``None``
        when the service runs without deadlines."""
        if self.deadline_s is None:
            return None
        return [self.deadline_s] * n_queries

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _client_state(self, client: str, now: float) -> _ClientState:
        """Get-or-create one client's state (lock held); bounded LRU."""
        state = self._clients.get(client)
        if state is None:
            bucket = (
                TokenBucket(self._rate, self._burst) if self._rate is not None else None
            )
            state = _ClientState(bucket)
            self._clients[client] = state
            if len(self._clients) > self._max_clients:
                # Evict the stalest idle client; an evicted client merely
                # starts over with a fresh (full) bucket — never a quota
                # leak, because eviction requires zero in-flight.
                idle = [
                    (s.last_seen, name)
                    for name, s in self._clients.items()
                    if s.inflight == 0 and name != client
                ]
                if idle:
                    idle.sort()
                    del self._clients[idle[0][1]]
        state.last_seen = now
        self._metrics.set_gauge("admission.clients", len(self._clients))
        return state

    def _set_gauges(self) -> None:
        """Refresh the operator-facing gauges (lock held)."""
        self._metrics.set_gauge("service.queue_depth", self._queued)
        self._metrics.set_gauge("service.inflight_queries", self._inflight)
        self._metrics.set_gauge("service.draining", 1 if self._draining else 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdmissionController(queued={self._queued}, inflight={self._inflight}, "
            f"clients={len(self._clients)}, draining={self._draining})"
        )
