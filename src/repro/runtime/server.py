"""The multi-query answering server.

Everything below :mod:`repro.planner.dynamic` answers *one* query per run: a
private oracle, a private screen, rounds that stop at that query's certainty.
A traffic-serving mediator is asked many queries about the *same* sources at
once, and the single-query loop wastes what the queries could share: an
access performed for one query grows the one configuration every other query
reads, so a fact retrieved once should advance every query's strategy (and an
access wanted by three queries should be performed exactly once).

:class:`QueryServer` is that runtime.  It owns one
:class:`~repro.sources.service.Mediator` and, per distinct Boolean query, a
:class:`~repro.runtime.shards.SharedVerdictStore` kept in a registry — so
repeated :meth:`~QueryServer.answer` calls (the "requests" of the server)
inherit every earlier call's LTR history and witness paths.  With a
``cache_path`` the stores additionally warm up from a
:class:`~repro.runtime.persist.PersistentWitnessCache`, surviving process
restarts.

A :meth:`~QueryServer.answer` call schedules **shared rounds**:

1. resolve certainty for every still-open query and retire the certain
   ones;
2. enumerate the round's candidate accesses *once* against the shared
   configuration;
3. per query: prefilter by its relevant-relation closure, group bindings by
   configuration automorphism, and resolve the representatives' LTR verdicts;
4. union the relevant accesses of all queries (deduplicated), execute them
   as one batch through a shared :class:`~repro.runtime.executor.AccessExecutor`
   (``parallelism`` overlaps source latency), re-checking each access at
   dispatch time against the queries that wanted it;
5. stop early once every query is certain; otherwise loop until a round
   makes no progress.

Every relevance search runs in-process on the calling thread: one fresh
search costs less than a round trip to a worker process would.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import certain_answers
from repro.runtime.cache import RelevanceOracle, access_key
from repro.runtime.executor import AccessExecutor, candidate_accesses
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.persist import PersistentWitnessCache
from repro.runtime.storage import WitnessStore
from repro.runtime.retry import Deadline
from repro.runtime.screening import (
    CandidateScreen,
    access_is_relevant,
    resolve_group_verdict,
)
from repro.runtime.serialize import query_token
from repro.runtime.shards import SharedVerdictStore
from repro.runtime.tracing import TracerLike, activate_tracer, current_tracer
from repro.schema import Access
from repro.sources.service import Mediator

__all__ = ["QueryOutcome", "QueryServer", "ServerResult"]


@dataclass(frozen=True)
class QueryOutcome:
    """Per-query outcome of one :meth:`QueryServer.answer` call.

    ``rounds_exhausted`` is set when this query's strategy was cut off
    before reaching certainty — by the call's global ``max_rounds`` or by
    the query's own round/access budget.  The answer set is still the sound
    certain answers at the final configuration (and ``certain`` may even be
    ``True`` if *other* queries' retrieval happened to settle this one).
    ``rounds_used`` counts the shared rounds in which this query actively
    screened candidates, and ``accesses_charged`` the accesses its own
    relevance verdicts asked the batch to perform — the per-query
    accounting a fairness policy meters budgets against.

    ``degraded`` marks a *sound but possibly incomplete* outcome: accesses
    this query wanted failed past their retries (``failed_accesses`` lists
    their keys) or the query's deadline expired, and the query did not
    reach certainty anyway.  The answer set is still the certain answers at
    the facts actually merged — by monotonicity a subset of the fault-free
    answers, never a wrong claim.  ``attempts`` totals the source-call
    attempts (including retries) spent on accesses this query wanted.
    """

    query: object
    answers: FrozenSet[Tuple[object, ...]]
    certain: bool
    relevance_checks: int = 0
    rounds_exhausted: bool = False
    rounds_used: int = 0
    accesses_charged: int = 0
    degraded: bool = False
    failed_accesses: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    attempts: int = 0

    @property
    def boolean_answer(self) -> bool:
        """Boolean reading of the answer set (true iff non-empty)."""
        return bool(self.answers)


@dataclass(frozen=True)
class ServerResult:
    """Aggregate outcome of one :meth:`QueryServer.answer` call.

    ``accesses_made`` and ``facts_retrieved`` are *shared* totals: an access
    wanted by several queries is performed (and counted) once.
    """

    outcomes: Tuple[QueryOutcome, ...]
    rounds: int
    accesses_made: int
    facts_retrieved: int
    rounds_exhausted: bool = False

    @property
    def answers(self) -> Tuple[FrozenSet[Tuple[object, ...]], ...]:
        """The answer sets, in query submission order."""
        return tuple(outcome.answers for outcome in self.outcomes)

    @property
    def boolean_answers(self) -> Tuple[bool, ...]:
        """The Boolean readings, in query submission order."""
        return tuple(outcome.boolean_answer for outcome in self.outcomes)

    @property
    def degraded(self) -> bool:
        """Whether any query retired with a degraded (sound-subset) outcome."""
        return any(outcome.degraded for outcome in self.outcomes)


class _QueryState:
    """One query's strategy state inside an answer call."""

    __slots__ = (
        "query",
        "oracle",
        "screen",
        "prefilter_ltr",
        "certain",
        "relevance_checks",
        "exhausted",
        "index",
        "round_budget",
        "access_budget",
        "rounds_used",
        "accesses_charged",
        "deadline",
        "failed_keys",
        "attempts",
    )

    def __init__(self, query, oracle, screen, prefilter_ltr, index) -> None:
        self.query = query
        self.oracle = oracle
        self.screen = screen
        self.prefilter_ltr = prefilter_ltr
        self.certain = False
        self.relevance_checks = 0
        self.exhausted = False
        #: Submission-order position; tags spans and why-annotations so a
        #: trace names queries stably even when they lack a ``name``.
        self.index = index
        #: Fairness budgets (``None`` = unlimited) and the accounting they
        #: are metered against: rounds this query actively participated in,
        #: and accesses its relevance verdicts asked the batch to perform.
        self.round_budget = None
        self.access_budget = None
        self.rounds_used = 0
        self.accesses_charged = 0
        #: Fault accounting: the query's deadline (``None`` = unlimited),
        #: the keys of wanted accesses that failed past their retries, and
        #: the total source-call attempts spent on this query's accesses.
        self.deadline = None
        self.failed_keys = set()
        self.attempts = 0

    def deadline_expired(self) -> bool:
        """Whether this query's deadline (if any) has passed."""
        return self.deadline is not None and self.deadline.expired()

    def over_budget(self) -> bool:
        """Whether either fairness budget is spent."""
        if self.round_budget is not None and self.rounds_used >= self.round_budget:
            return True
        return (
            self.access_budget is not None
            and self.accesses_charged >= self.access_budget
        )


class QueryServer:
    """A long-lived multi-query answering runtime over one mediator.

    Parameters
    ----------
    mediator:
        The federated engine whose configuration every query shares.
    use_immediate / use_long_term / ltr_method:
        The relevance notions each query's strategy filters accesses with
        (same semantics as :func:`repro.planner.dynamic.relevance_guided_strategy`).
    search_workers:
        Only ``1`` is accepted: relevance searches run in-process.
    cache_path / cache_backend / persist:
        A :class:`PersistentWitnessCache` path (``cache_backend`` selects
        ``"auto"`` / ``"jsonl"`` / ``"sqlite"`` storage — see
        :mod:`repro.runtime.storage`), or a prebuilt cache or
        :class:`~repro.runtime.storage.WitnessStore` instance: witness paths
        captured by any query are recorded, and every store warms up from it,
        so a restarted server revalidates instead of searching fresh.  With
        the SQLite backend one store file may be shared by N concurrent
        server processes; the backend's generation counter invalidates each
        process's decode memo, so worker A's records seed worker B.  A cache
        opened from ``cache_path`` is closed by :meth:`close`; a supplied
        ``persist`` is left open for its owner.
    parallelism:
        Access-execution concurrency per round (source latency overlap),
        forwarded to the shared executor.
    metrics:
        A shared sink; per-query oracles, the screens, and the executor all
        record into it.
    max_stores:
        Bound on the per-query store registry (least-recently-used stores
        are evicted; an evicted query merely loses cross-request reuse).
    fixpoint_max_facts:
        Memory knob for the incremental-certainty state: the per-query
        :class:`~repro.queries.certain.CertaintyFixpoint` drops its
        materialized database when it exceeds this many facts (it rebuilds
        on the next certainty check).  Together with ``max_stores`` —
        evicting a store drops its fixpoint — this bounds certainty state
        to ``max_stores × fixpoint_max_facts`` facts.
    tracer:
        An optional :class:`~repro.runtime.tracing.Tracer` activated for the
        duration of every :meth:`answer` call.  With one attached the server
        records the full span hierarchy — ``answer → round → certainty /
        query → verdicts → oracle`` plus the executor's access batches.
        Without one the ambient (usually no-op) tracer is used and the
        overhead is a few thread-local reads per round.
    """

    def __init__(
        self,
        mediator: Mediator,
        *,
        use_immediate: bool = False,
        use_long_term: bool = True,
        ltr_method: str = "auto",
        metrics: Optional[RuntimeMetrics] = None,
        search_workers: int = 1,
        cache_path: Optional[str] = None,
        cache_backend: str = "auto",
        persist: Optional[Union[PersistentWitnessCache, WitnessStore]] = None,
        parallelism: int = 1,
        max_entries: Optional[int] = 65536,
        max_stores: int = 64,
        fixpoint_max_facts: int = 1_000_000,
        tracer: Optional[TracerLike] = None,
    ) -> None:
        if not use_immediate and not use_long_term:
            raise QueryError("at least one relevance notion must be enabled")
        if cache_path is not None and persist is not None:
            raise QueryError("pass either cache_path or a persist instance, not both")
        if search_workers != 1:
            raise QueryError(
                f"search_workers={search_workers} is not supported: relevance "
                "searches now run in-process"
            )
        self._mediator = mediator
        self._use_immediate = use_immediate
        self._use_long_term = use_long_term
        self._ltr_method = ltr_method
        self._metrics = metrics if metrics is not None else RuntimeMetrics()
        if isinstance(persist, WitnessStore):
            persist = PersistentWitnessCache(store=persist)
        self._persist = (
            PersistentWitnessCache(
                cache_path, backend=cache_backend, metrics=self._metrics
            )
            if cache_path is not None
            else persist
        )
        if self._persist is not None:
            self._persist.attach_metrics(self._metrics)
        self._own_persist = cache_path is not None
        self._parallelism = max(1, parallelism)
        self._max_entries = max_entries
        # An explicit tracer is activated for the span of every answer call;
        # without one the server joins whatever tracer is ambient on the
        # calling thread (usually the no-op tracer).
        self._tracer = tracer
        # Bounded LRU of per-query verdict stores: a server streaming
        # mostly-distinct queries must not pin one store (and its LRUs) per
        # query ever seen.  Evicting a store only costs reuse — a returning
        # query rebuilds its history (or re-seeds it from the persistent
        # cache), never a wrong answer.
        self._max_stores = max(1, max_stores)
        self._fixpoint_max_facts = fixpoint_max_facts
        self._stores: "OrderedDict[str, SharedVerdictStore]" = OrderedDict()
        # One executor for the server's lifetime: its deduplication set is
        # what makes an access performed by one answer call advance — and
        # never be re-sent by — every later call.
        self._executor = AccessExecutor(mediator, metrics=self._metrics)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def mediator(self) -> Mediator:
        """The mediator whose configuration the queries share."""
        return self._mediator

    @property
    def metrics(self) -> RuntimeMetrics:
        """The shared metrics sink."""
        return self._metrics

    @property
    def persist(self) -> Optional[PersistentWitnessCache]:
        """The attached persistent witness cache, if any."""
        return self._persist

    def store_for(self, query) -> SharedVerdictStore:
        """The per-(query, schema) verdict store, created on first use.

        Stores are keyed by the query's process-stable token, so two equal
        queries (even parsed from different strings) share one store, and
        the registry survives across :meth:`answer` calls — that is what
        makes the server a *server* rather than a per-request library.
        """
        boolean = query if query.is_boolean else query.boolean_closure()
        token = query_token(boolean)
        store = self._stores.get(token)
        if store is None:
            store = SharedVerdictStore(
                boolean,
                self._mediator.schema,
                max_entries=self._max_entries,
                fixpoint_max_facts=self._fixpoint_max_facts,
            )
            self._stores[token] = store
            while len(self._stores) > self._max_stores:
                self._stores.popitem(last=False)
        else:
            self._stores.move_to_end(token)
        return store

    def close(self) -> None:
        """Close the witness store opened from ``cache_path`` (idempotent).

        A caller-supplied ``persist`` stays open: its owner closes it.
        """
        if self._own_persist:
            self._persist.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Answering
    # ------------------------------------------------------------------ #
    def answer(
        self,
        queries: Sequence[object],
        *,
        max_rounds: int = 50,
        strategy: str = "guided",
        round_budgets: Optional[Sequence[Optional[int]]] = None,
        access_budgets: Optional[Sequence[Optional[int]]] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
        deadline_s: Optional[float] = None,
    ) -> ServerResult:
        """Answer a batch of queries over the shared configuration.

        ``strategy="guided"`` runs the shared relevance-guided rounds of the
        module docstring; ``strategy="exhaustive"`` retrieves the full
        accessible part once (every well-formed access to a fixpoint) and
        then evaluates all queries against it — the Li [18] baseline, here
        paying its retrieval cost once for the whole batch.

        ``round_budgets`` / ``access_budgets`` (guided strategy only) give
        each query, positionally, a private fairness budget: once a query
        has participated in that many shared rounds — or asked the batch to
        perform that many accesses — it is retired from the rounds with
        ``rounds_exhausted=True`` while the *other* queries' rounds
        continue.  This is how the network service stops one dominating
        query of a coalesced batch from starving the rest: the dominating
        query spends its budget and retires; everyone else keeps answering.
        ``None`` entries (and ``None`` budgets) mean unlimited.

        ``deadlines`` / ``deadline_s`` (guided strategy only) give each
        query, positionally (or uniformly with the scalar ``deadline_s``),
        a wall-clock budget in seconds, counted from this call's start.  A
        query whose deadline expires retires with a ``degraded`` outcome —
        its answers are the sound certain answers from the facts merged so
        far — while batchmates keep answering; a hung source cannot block
        past expiry (the executor abandons in-flight work unmerged).
        Accesses that fail past the mediator's retry policy likewise retire
        the wanting queries as degraded once rounds stop progressing, with
        the failing access keys in ``QueryOutcome.failed_accesses``.
        """
        if strategy not in ("guided", "exhaustive"):
            raise QueryError(f"unknown answering strategy {strategy!r}")
        queries = list(queries)
        for name, budgets in (
            ("round_budgets", round_budgets),
            ("access_budgets", access_budgets),
        ):
            if budgets is not None and len(budgets) != len(queries):
                raise QueryError(
                    f"{name} must align with queries "
                    f"({len(budgets)} budgets for {len(queries)} queries)"
                )
        if deadlines is not None and len(deadlines) != len(queries):
            raise QueryError(
                f"deadlines must align with queries "
                f"({len(deadlines)} deadlines for {len(queries)} queries)"
            )
        if deadlines is None and deadline_s is not None:
            deadlines = [deadline_s] * len(queries)
        if not queries:
            return ServerResult((), 0, 0, 0)
        # The clock starts here: convert the per-query second budgets into
        # absolute monotonic deadlines before any retrieval work begins.
        query_deadlines: Optional[List[Optional[Deadline]]] = None
        if deadlines is not None:
            query_deadlines = [
                Deadline.after(seconds) if seconds is not None else None
                for seconds in deadlines
            ]
        executor = self._executor
        accesses_before = self._mediator.access_count
        facts_before = len(self._mediator.configuration_view)
        started = time.perf_counter()
        tracer = self._tracer if self._tracer is not None else current_tracer()
        with activate_tracer(tracer) as active:
            with active.span("answer", queries=len(queries), strategy=strategy) as span:
                if strategy == "exhaustive":
                    states, rounds, exhausted = self._exhaustive_rounds(
                        queries, executor, max_rounds
                    )
                else:
                    states, rounds, exhausted = self._guided_rounds(
                        queries,
                        executor,
                        max_rounds,
                        round_budgets=round_budgets,
                        access_budgets=access_budgets,
                        deadlines=query_deadlines,
                    )
                outcomes = self._finalize(states)
                result = ServerResult(
                    outcomes=outcomes,
                    rounds=rounds,
                    accesses_made=self._mediator.access_count - accesses_before,
                    facts_retrieved=len(self._mediator.configuration_view) - facts_before,
                    rounds_exhausted=exhausted,
                )
                if active.enabled:
                    span.annotate(
                        rounds=result.rounds,
                        performed=result.accesses_made,
                        facts=result.facts_retrieved,
                        certain=sum(1 for outcome in outcomes if outcome.certain),
                    )
        self._metrics.observe("server.query_latency", time.perf_counter() - started)
        return result

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _make_states(
        self,
        queries: Sequence[object],
        round_budgets: Optional[Sequence[Optional[int]]] = None,
        access_budgets: Optional[Sequence[Optional[int]]] = None,
        deadlines: Optional[Sequence[Optional[Deadline]]] = None,
    ) -> List[_QueryState]:
        states: List[_QueryState] = []
        schema = self._mediator.schema
        for index, query in enumerate(queries):
            boolean = query if query.is_boolean else query.boolean_closure()
            oracle = RelevanceOracle(
                boolean,
                schema,
                ltr_method=self._ltr_method,
                metrics=self._metrics,
                max_entries=self._max_entries,
                store=self.store_for(boolean),
                persist=self._persist,
            )
            screen = CandidateScreen(boolean, schema, metrics=self._metrics)
            prefilter_ltr = self._use_long_term and self._ltr_method in (
                "auto",
                "direct",
                "independent",
                "single-occurrence",
            )
            state = _QueryState(query, oracle, screen, prefilter_ltr, index)
            if round_budgets is not None:
                state.round_budget = round_budgets[index]
            if access_budgets is not None:
                state.access_budget = access_budgets[index]
            if deadlines is not None:
                state.deadline = deadlines[index]
            states.append(state)
        return states

    def _resolve_certainty(
        self, states: Sequence[_QueryState], configuration: Configuration
    ) -> None:
        """Update ``state.certain`` for every state (monotone, so certain
        states are never re-checked).

        ``fast_certainty`` resolves by exact fingerprint hit *or* by a
        lineage-matched read of the query's certainty fixpoint — advanced
        each batch by the merged facts — so only queries needing a full
        (re-)evaluation reach the ``certainty`` span."""
        unresolved: List[_QueryState] = []
        for state in states:
            if state.certain:
                continue
            cached = state.oracle.fast_certainty(configuration)
            if cached is not None:
                state.certain = cached
            else:
                unresolved.append(state)
        if not unresolved:
            return
        tracer = current_tracer()
        with tracer.span("certainty", unresolved=len(unresolved)) as span:
            for state in unresolved:
                state.certain = state.oracle.is_certain(configuration)
            if tracer.enabled:
                span.annotate(
                    certain=sum(1 for state in unresolved if state.certain)
                )

    def _guided_rounds(
        self,
        queries: Sequence[object],
        executor: AccessExecutor,
        max_rounds: int,
        round_budgets: Optional[Sequence[Optional[int]]] = None,
        access_budgets: Optional[Sequence[Optional[int]]] = None,
        deadlines: Optional[Sequence[Optional[Deadline]]] = None,
    ) -> Tuple[List[_QueryState], int, bool]:
        mediator = self._mediator
        schema = mediator.schema
        states = self._make_states(queries, round_budgets, access_budgets, deadlines)
        rounds = 0
        progressed_out = False
        tracer = current_tracer()
        for _round in range(max_rounds):
            rounds += 1
            self._metrics.incr("server.rounds")
            round_started = time.perf_counter()
            # ``try/finally`` so the round histogram also sees the terminal
            # round, which returns from inside the span.
            try:
                with tracer.span("round", index=rounds - 1) as round_span:
                    result = self._one_guided_round(
                        states, executor, tracer, round_span
                    )
            finally:
                self._metrics.observe(
                    "server.round_latency", time.perf_counter() - round_started
                )
            if result is not None:
                exhausted_any = result[1] or any(
                    state.exhausted for state in states
                )
                return states, rounds, exhausted_any
        # Budget ran out while rounds were still progressing: conservatively
        # flag the still-open queries, unless nothing is left to try.
        final = mediator.configuration_view
        self._resolve_certainty(states, final)
        if candidate_accesses(schema, final, executor.has_performed_key):
            for state in states:
                if not state.certain:
                    state.exhausted = True
                    progressed_out = True
            if progressed_out:
                self._metrics.incr("server.rounds_exhausted")
        return states, rounds, progressed_out or any(s.exhausted for s in states)

    def _one_guided_round(
        self,
        states: List[_QueryState],
        executor: AccessExecutor,
        tracer: TracerLike,
        round_span,
    ) -> Optional[Tuple[bool, bool]]:
        """One shared round.  Returns ``(done, exhausted)`` when the rounds
        should stop, ``None`` to continue with the next round."""
        mediator = self._mediator
        schema = mediator.schema
        configuration = mediator.configuration_view
        self._resolve_certainty(
            [state for state in states if not state.exhausted], configuration
        )
        # Budget enforcement: a query whose round/access budget is spent is
        # retired from the shared rounds (its outcome flags
        # ``rounds_exhausted``) — the batch keeps answering everyone else.
        # A spent deadline retires the same way; ``_finalize`` turns the
        # retirement into a ``degraded`` outcome when certainty was missed.
        for state in states:
            if state.certain or state.exhausted:
                continue
            if state.over_budget():
                state.exhausted = True
                self._metrics.incr("server.budget_exhausted")
            elif state.deadline_expired():
                state.exhausted = True
                self._metrics.incr("deadline.expired")
        active = [
            state for state in states if not state.certain and not state.exhausted
        ]
        if not active:
            return (True, any(state.exhausted for state in states))
        for state in active:
            state.rounds_used += 1

        candidates = candidate_accesses(
            schema, configuration, executor.has_performed_key
        )
        if tracer.enabled:
            round_span.annotate(active=len(active), candidates=len(candidates))
        # Per query, inside its span: prefilter and group the candidates,
        # resolve each group's verdict, and add the relevant accesses to the
        # round's deduplicated batch.  Under a tracer every batched access
        # also gets a *why* record — which queries wanted it and whether its
        # verdict was computed directly or inherited from its group
        # representative — which the executor forwards onto the access's
        # ``source-call`` span.
        wanted: Dict[Tuple[str, Tuple[object, ...]], List[_QueryState]] = {}
        why: Dict[Tuple[str, Tuple[object, ...]], Dict[str, object]] = {}
        batch_accesses: List[Access] = []
        for state in active:
            with tracer.span(
                "query",
                query=getattr(state.query, "name", None),
                index=state.index,
            ):
                mine = candidates
                if state.prefilter_ltr:
                    mine = state.screen.prefilter(mine)
                elif self._use_immediate and not self._use_long_term:
                    mine = state.screen.prefilter(mine, immediate_only=True)
                groups = state.screen.group(mine, configuration)
                with tracer.span("verdicts", index=state.index) as vspan:
                    kept = 0
                    for representative, members in groups:
                        state.relevance_checks += 1
                        if not resolve_group_verdict(
                            state.oracle,
                            representative,
                            members,
                            configuration,
                            use_long_term=self._use_long_term,
                            use_immediate=self._use_immediate,
                        ):
                            continue
                        kept += 1
                        for access in [representative] + [m for m, _map in members]:
                            key = access_key(access)
                            owners = wanted.get(key)
                            if owners is None:
                                wanted[key] = [state]
                                batch_accesses.append(access)
                                state.accesses_charged += 1
                            elif state not in owners:
                                owners.append(state)
                                state.accesses_charged += 1
                            if tracer.enabled:
                                entry = why.setdefault(
                                    key,
                                    {
                                        "why": "relevant",
                                        "via": (
                                            "representative"
                                            if access is representative
                                            else "automorphism-group"
                                        ),
                                        "queries": [],
                                    },
                                )
                                entry["queries"].append(state.index)
                    if tracer.enabled:
                        vspan.annotate(groups=len(groups), relevant=kept)

        def annotate_access(access: Access) -> Optional[Dict[str, object]]:
            entry = why.get(access_key(access))
            if entry is None:
                return None
            tags = dict(entry)
            tags["queries"] = ",".join(str(index) for index in entry["queries"])
            return tags

        def precheck(access: Access) -> bool:
            live = mediator.configuration_view
            keep = False
            for state in wanted.get(access_key(access), ()):
                if state.certain:
                    continue
                state.relevance_checks += 1
                if access_is_relevant(
                    state.oracle,
                    access,
                    live,
                    use_long_term=self._use_long_term,
                    use_immediate=self._use_immediate,
                ):
                    keep = True
            return keep

        def stop() -> bool:
            live = mediator.configuration_view
            for state in states:
                # Retired (budget-exhausted) queries must not keep the
                # batch alive: the rounds stop once every *live* query is
                # certain, whatever the retired ones still lack.
                if state.certain or state.exhausted:
                    continue
                if not state.oracle.is_certain(live):
                    return False
                state.certain = True
            return True

        # Each merged response advances every query's certainty fixpoint
        # (one per shared store — duplicate queries share one state, so the
        # batch advances one state per *distinct* query, not per state)
        # before any subsequent stop() probe, which therefore resolves by
        # delta advance instead of re-evaluating the shared configuration
        # once per live query.
        absorbers: List[RelevanceOracle] = []
        seen_fixpoints = set()
        for state in states:
            fixpoint = state.oracle.certainty_fixpoint
            if fixpoint is None or id(fixpoint) in seen_fixpoints:
                continue
            seen_fixpoints.add(id(fixpoint))
            absorbers.append(state.oracle)

        def on_response(response) -> None:
            for oracle in absorbers:
                oracle.absorb_response(response)

        # The batch deadline is the most generous remaining deadline among
        # the round's active queries — the batch serves all of them, so it
        # may run as long as *any* participant is still allowed to wait.
        # (Per-query expiry is enforced at round boundaries above.)  With
        # even one unlimited query the batch itself is unlimited.
        batch_deadline: Optional[Deadline] = None
        if active and all(state.deadline is not None for state in active):
            batch_deadline = max(
                (state.deadline for state in active),
                key=lambda deadline: deadline.remaining(),
            )

        batch = executor.execute_batch(
            batch_accesses,
            precheck=precheck,
            stop=stop,
            max_concurrency=self._parallelism,
            annotate_access=annotate_access if tracer.enabled else None,
            on_response=on_response if absorbers else None,
            deadline=batch_deadline,
            tolerate_failures=True,
        )
        # Attribute the batch's failures and retry effort to the queries
        # that wanted each access.  Failed accesses stay un-performed (the
        # executor never marks them), so they re-candidate next round; once
        # nothing progresses, the wanting queries retire with the keys in
        # ``failed_accesses``.
        for access, _error, _attempts in batch.failed:
            key = executor.key(access)
            for state in wanted.get(key, ()):
                if key not in state.failed_keys:
                    state.failed_keys.add(key)
                    self._metrics.incr("server.access_failures")
        for key, attempts in batch.attempts_by_key.items():
            for state in wanted.get(key, ()):
                state.attempts += attempts
        if not batch.progressed:
            return (False, False)
        return None

    def _exhaustive_rounds(
        self,
        queries: Sequence[object],
        executor: AccessExecutor,
        max_rounds: int,
    ) -> Tuple[List[_QueryState], int, bool]:
        mediator = self._mediator
        schema = mediator.schema
        states = self._make_states(queries)
        rounds = 0
        tracer = current_tracer()
        for _round in range(max_rounds):
            rounds += 1
            self._metrics.incr("server.rounds")
            round_started = time.perf_counter()
            try:
                with tracer.span("round", index=rounds - 1):
                    candidates = candidate_accesses(
                        schema, mediator.configuration_view, executor.has_performed_key
                    )
                    batch = executor.execute_batch(
                        candidates, max_concurrency=self._parallelism
                    )
            finally:
                self._metrics.observe(
                    "server.round_latency", time.perf_counter() - round_started
                )
            if not batch.progressed:
                return states, rounds, False
        exhausted = bool(
            candidate_accesses(
                schema, mediator.configuration_view, executor.has_performed_key
            )
        )
        if exhausted:
            for state in states:
                state.exhausted = True
            self._metrics.incr("server.rounds_exhausted")
        return states, rounds, exhausted

    def _finalize(self, states: List[_QueryState]) -> Tuple[QueryOutcome, ...]:
        """Evaluate every query at the final configuration."""
        final = self._mediator.configuration_view
        with current_tracer().span("finalize", queries=len(states)):
            answer_sets = [certain_answers(state.query, final) for state in states]
        outcomes = []
        for state, answers in zip(states, answer_sets):
            # ``certain`` is monotone, so a flag set during the rounds is
            # final; otherwise ask the (memoized) oracle at the final
            # configuration — the rounds may have ended between the merge
            # that made a query certain and its next certainty check.
            certain = state.certain or state.oracle.is_certain(final)
            # Degraded = faults actually cost this query something: wanted
            # accesses failed past retries or its deadline expired, *and*
            # certainty was still missed.  A query that reached certainty
            # despite faults is simply certain — the failures were moot.
            degraded = (
                bool(state.failed_keys) or state.deadline_expired()
            ) and not certain
            if degraded:
                self._metrics.incr("server.degraded")
            outcomes.append(
                QueryOutcome(
                    query=state.query,
                    answers=answers,
                    certain=certain,
                    relevance_checks=state.relevance_checks,
                    rounds_exhausted=state.exhausted,
                    rounds_used=state.rounds_used,
                    accesses_charged=state.accesses_charged,
                    degraded=degraded,
                    failed_accesses=tuple(sorted(state.failed_keys, key=repr)),
                    attempts=state.attempts,
                )
            )
        return tuple(outcomes)
