"""The multi-query answering server: the runtime's one round kernel.

A traffic-serving mediator is asked many queries about the *same* sources at
once, and answering them one by one would waste what the queries could
share: an access performed for one query grows the one configuration every
other query reads, so a fact retrieved once should advance every query's
strategy (and an access wanted by three queries should be performed exactly
once).  The single-query strategies of :mod:`repro.planner.dynamic` are
this kernel run with one query and the oracle the caller supplied or built.

:class:`QueryServer` is that runtime.  It owns one
:class:`~repro.sources.service.Mediator` and, per distinct Boolean query, a
:class:`~repro.runtime.cache.RelevanceOracle` kept in a bounded registry — so
repeated :meth:`~QueryServer.answer` calls (the "requests" of the server)
reuse every earlier call's verdicts, LTR history, witness paths, certainty
state and screen.  With a ``cache_path`` the oracles additionally warm up
from a :class:`~repro.runtime.persist.PersistentWitnessCache`, surviving
process restarts, and re-seed from it whenever the registry hands them out
again, so records another process wrote arrive.

A :meth:`~QueryServer.answer` call schedules **shared rounds**:

1. resolve certainty for every still-open query and retire the certain
   ones;
2. enumerate the round's candidate accesses *once* against the shared
   configuration;
3. per query: prefilter by its relevant-relation closure, group bindings by
   configuration automorphism, and resolve the representatives' long-term
   relevance verdicts;
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

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import ConjunctiveQuery, certain_answers
from repro.runtime.cache import RelevanceOracle, SiblingGroup, access_key
from repro.runtime.executor import AccessExecutor, candidate_accesses
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.persist import PersistentWitnessCache
from repro.runtime.retry import Deadline
from repro.runtime.screening import access_is_relevant, resolve_group_verdict
from repro.runtime.serialize import query_token
from repro.schema import Access
from repro.sources.service import Mediator
from repro.tracing import stage

__all__ = ["QueryOutcome", "QueryServer", "ServerResult"]

#: LTR procedures whose bounded witness searches the closure prefilter
#: mirrors; the containment reductions do not share that structure.
_PREFILTERED_METHODS = frozenset({"auto", "direct", "independent", "single-occurrence"})


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
        "prefilter",
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

    def __init__(self, query, oracle, index) -> None:
        self.query = query
        self.oracle = oracle
        self.prefilter = oracle.ltr_method in _PREFILTERED_METHODS
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
    ltr_method:
        The long-term relevance procedure each query's oracle dispatches to
        (see :func:`repro.core.long_term_relevance_with_witness`).
    search_workers:
        Only ``1`` is accepted: relevance searches run in-process.
    cache_path / persist:
        The SQLite witness store file of a :class:`PersistentWitnessCache`
        (see :mod:`repro.runtime.storage`), or a prebuilt cache: witness
        paths captured by any query are recorded, and every store warms up
        from it, so a restarted server revalidates instead of searching
        fresh.  One store file may be shared by N concurrent server
        processes; the store's generation counter invalidates each
        process's decode memo, so worker A's records seed worker B.  A cache
        opened from ``cache_path`` is closed by :meth:`close`; a supplied
        ``persist`` is left open for its owner.  Each guided round's
        records are written together when the round ends.
    parallelism:
        Access-execution concurrency per round (source latency overlap),
        forwarded to the shared executor.
    metrics:
        A shared sink; per-query oracles, their screens, and the executor
        all record into it.
    max_entries:
        Bound on each of an oracle's two LRU caches: the verdicts, and one
        record per access (its last LTR verdict, its witness and that
        witness's provenance), so at most ``max_stores × 2 × max_entries``
        cached entries.
    max_stores:
        Bound on the per-query oracle registry (least-recently-used oracles
        are evicted; an evicted query merely loses cross-request reuse).
    fixpoint_max_facts:
        Memory knob for the incremental-certainty state: the per-query
        :class:`~repro.queries.certain.CertaintyFixpoint` drops its
        materialized database when it exceeds this many facts (it rebuilds
        on the next certainty check).  Together with ``max_stores`` —
        evicting an oracle drops its fixpoint — this bounds certainty state
        to ``max_stores × fixpoint_max_facts`` facts.

    Tracing follows the calling thread: inside
    ``with activate_tracer(tracer):`` every :meth:`answer` call records the
    full span hierarchy — ``answer → round → certainty / query → verdicts →
    oracle`` plus the executor's access batches and the round's
    ``persist.flush``.  Traced or not, the ``answer`` and ``round`` stages
    feed the ``server.query_latency`` and ``server.round_latency``
    histograms.
    """

    def __init__(
        self,
        mediator: Mediator,
        *,
        ltr_method: str = "auto",
        metrics: Optional[RuntimeMetrics] = None,
        search_workers: int = 1,
        cache_path: Optional[str] = None,
        persist: Optional[PersistentWitnessCache] = None,
        parallelism: int = 1,
        max_entries: Optional[int] = 65536,
        max_stores: int = 64,
        fixpoint_max_facts: int = 1_000_000,
    ) -> None:
        if cache_path is not None and persist is not None:
            raise QueryError("pass either cache_path or a persist instance, not both")
        if search_workers != 1:
            raise QueryError(
                f"search_workers={search_workers} is not supported: relevance "
                "searches now run in-process"
            )
        self._mediator = mediator
        self._ltr_method = ltr_method
        self._metrics = metrics if metrics is not None else RuntimeMetrics()
        self._persist = (
            PersistentWitnessCache(cache_path, metrics=self._metrics)
            if cache_path is not None
            else persist
        )
        if self._persist is not None:
            self._persist.attach_metrics(self._metrics)
        self._own_persist = cache_path is not None
        self._parallelism = max(1, parallelism)
        self._max_entries = max_entries
        # Bounded LRU of per-query oracles: a server streaming
        # mostly-distinct queries must not pin one oracle (and its LRUs) per
        # query ever seen.  Evicting an oracle only costs reuse — a returning
        # query rebuilds its history (or re-seeds it from the persistent
        # cache), never a wrong answer.
        self._max_stores = max(1, max_stores)
        self._fixpoint_max_facts = fixpoint_max_facts
        self._stores: "OrderedDict[str, RelevanceOracle]" = OrderedDict()
        # The registry's conjunctive-query oracles, grouped by template: the
        # siblings each one takes witness hints from.  Eviction leaves the
        # group, and an empty group leaves the index.
        self._siblings: Dict[Hashable, SiblingGroup] = {}
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

    def oracle_for(self, query) -> RelevanceOracle:
        """The query's long-lived oracle, created on first use.

        Oracles are keyed by the Boolean query's process-stable token, so
        two equal queries (even parsed from different strings) share one,
        and the registry survives across :meth:`answer` calls — that is
        what makes the server a *server* rather than a per-request library.
        A reused oracle first re-seeds from the persistent cache, so
        records another process wrote since arrive.  A new conjunctive
        query's oracle joins the :class:`SiblingGroup` of its template.
        """
        boolean = query if query.is_boolean else query.boolean_closure()
        token = query_token(boolean)
        oracle = self._stores.get(token)
        if oracle is None:
            oracle = RelevanceOracle(
                boolean,
                self._mediator.schema,
                ltr_method=self._ltr_method,
                metrics=self._metrics,
                max_entries=self._max_entries,
                fixpoint_max_facts=self._fixpoint_max_facts,
                persist=self._persist,
            )
            self._stores[token] = oracle
            if isinstance(boolean, ConjunctiveQuery):
                template = boolean.template[0]
                group = self._siblings.get(template)
                if group is None:
                    group = self._siblings[template] = SiblingGroup(template)
                group.add(oracle)
            while len(self._stores) > self._max_stores:
                _token, evicted = self._stores.popitem(last=False)
                group = evicted.sibling_group
                if group is not None:
                    group.remove(evicted)
                    if not group.oracles:
                        del self._siblings[group.key]
        else:
            self._stores.move_to_end(token)
            oracle.seed_witnesses()
        return oracle

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
        return self._run(
            queries,
            strategy,
            max_rounds,
            round_budgets=round_budgets,
            access_budgets=access_budgets,
            deadlines=query_deadlines,
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _run(
        self,
        queries: Sequence[object],
        strategy: str,
        max_rounds: int,
        *,
        oracles: Optional[Sequence[RelevanceOracle]] = None,
        round_budgets: Optional[Sequence[Optional[int]]] = None,
        access_budgets: Optional[Sequence[Optional[int]]] = None,
        deadlines: Optional[Sequence[Optional[Deadline]]] = None,
        tolerate_failures: bool = True,
    ) -> ServerResult:
        """The answering kernel behind :meth:`answer` and the single-query
        strategies of :mod:`repro.planner.dynamic`.

        Inside one ``answer`` span it builds the per-query states, runs the
        guided or exhaustive rounds, and evaluates every query at the final
        configuration.  ``queries`` is non-empty and the arguments are
        validated.  ``oracles``, aligned with ``queries``, replace the
        registry's oracles (a strategy passes the one it was given or
        built); ``deadlines`` are absolute.  With
        ``tolerate_failures=False`` an access failing past its retries
        raises out of the batch instead of degrading the queries that
        wanted it.
        """
        executor = self._executor
        # The paper's procedures assume the query constants are known
        # (Section 2): make them available before the first round.
        for query in queries:
            self._mediator.seed_constants(query.constants_with_domains())
        accesses_before = self._mediator.access_count
        facts_before = len(self._mediator.configuration_view)
        with stage(
            "answer",
            metrics=self._metrics,
            metric="server.query_latency",
            queries=len(queries),
            strategy=strategy,
        ) as span:
            if strategy == "exhaustive":
                states = self._make_states(queries, oracles)
                rounds, exhausted = self._exhaustive_rounds(states, executor, max_rounds)
            else:
                states = self._make_states(
                    queries, oracles, round_budgets, access_budgets, deadlines
                )
                rounds, exhausted = self._guided_rounds(
                    states, executor, max_rounds, tolerate_failures
                )
            outcomes = self._finalize(states)
            result = ServerResult(
                outcomes=outcomes,
                rounds=rounds,
                accesses_made=self._mediator.access_count - accesses_before,
                facts_retrieved=len(self._mediator.configuration_view) - facts_before,
                rounds_exhausted=exhausted,
            )
            if span:
                span.annotate(
                    rounds=result.rounds,
                    performed=result.accesses_made,
                    facts=result.facts_retrieved,
                    certain=sum(1 for outcome in outcomes if outcome.certain),
                )
        return result

    def _make_states(
        self,
        queries: Sequence[object],
        oracles: Optional[Sequence[RelevanceOracle]] = None,
        round_budgets: Optional[Sequence[Optional[int]]] = None,
        access_budgets: Optional[Sequence[Optional[int]]] = None,
        deadlines: Optional[Sequence[Optional[Deadline]]] = None,
    ) -> List[_QueryState]:
        states: List[_QueryState] = []
        for index, query in enumerate(queries):
            oracle = oracles[index] if oracles is not None else self.oracle_for(query)
            state = _QueryState(query, oracle, index)
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
        with stage("certainty", unresolved=len(unresolved)) as span:
            for state in unresolved:
                state.certain = state.oracle.is_certain(configuration)
            if span:
                span.annotate(
                    certain=sum(1 for state in unresolved if state.certain)
                )

    def _guided_rounds(
        self,
        states: List[_QueryState],
        executor: AccessExecutor,
        max_rounds: int,
        tolerate_failures: bool,
    ) -> Tuple[int, bool]:
        mediator = self._mediator
        schema = mediator.schema
        rounds = 0
        progressed_out = False
        for _round in range(max_rounds):
            rounds += 1
            self._metrics.incr("server.rounds")
            with stage(
                "round",
                metrics=self._metrics,
                metric="server.round_latency",
                index=rounds - 1,
            ) as round_span:
                # ``try/finally`` so a round that raises still writes the
                # witness paths it captured: the round's records land in
                # one store write, inside the round's stage.
                try:
                    result = self._one_guided_round(
                        states, executor, round_span, tolerate_failures
                    )
                finally:
                    if self._persist is not None:
                        self._persist.flush()
            if result is not None:
                exhausted_any = result[1] or any(
                    state.exhausted for state in states
                )
                return rounds, exhausted_any
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
        return rounds, progressed_out or any(s.exhausted for s in states)

    def _one_guided_round(
        self,
        states: List[_QueryState],
        executor: AccessExecutor,
        round_span,
        tolerate_failures: bool,
    ) -> Optional[Tuple[bool, bool]]:
        """One shared round.  Returns ``(done, exhausted)`` when the rounds
        should stop, ``None`` to continue with the next round.  The round's
        stage, ``round_span``, is falsy untraced."""
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
            with stage(
                "query",
                query=getattr(state.query, "name", None),
                index=state.index,
            ):
                screen = state.oracle.screen
                mine = screen.prefilter(candidates) if state.prefilter else candidates
                groups = screen.group(mine, configuration)
                with stage("verdicts", index=state.index) as vspan:
                    kept = 0
                    for representative, members in groups:
                        state.relevance_checks += 1
                        if not resolve_group_verdict(
                            state.oracle, representative, members, configuration
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
                            if vspan:
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
                if access_is_relevant(state.oracle, access, live):
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
        # (one per oracle — duplicate queries share one oracle, so the
        # batch advances one state per *distinct* query, not per state)
        # before any subsequent stop() probe, which therefore resolves by
        # delta advance instead of re-evaluating the shared configuration
        # once per live query.
        absorbers = list(
            {
                id(state.oracle): state.oracle
                for state in states
                if state.oracle.certainty_fixpoint is not None
            }.values()
        )

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
            annotate_access=annotate_access if round_span else None,
            on_response=on_response if absorbers else None,
            deadline=batch_deadline,
            tolerate_failures=tolerate_failures,
        )
        # Attribute the batch's failures and retry effort to the queries
        # that wanted each access.  Failed accesses stay un-performed (the
        # executor never marks them), so they re-candidate next round; once
        # nothing progresses, the wanting queries retire with the keys in
        # ``failed_accesses``.
        for access, _error, _attempts in batch.failed:
            key = access_key(access)
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
        states: List[_QueryState],
        executor: AccessExecutor,
        max_rounds: int,
    ) -> Tuple[int, bool]:
        mediator = self._mediator
        schema = mediator.schema
        rounds = 0
        for _round in range(max_rounds):
            rounds += 1
            self._metrics.incr("server.rounds")
            with stage(
                "round",
                metrics=self._metrics,
                metric="server.round_latency",
                index=rounds - 1,
            ):
                candidates = candidate_accesses(
                    schema, mediator.configuration_view, executor.has_performed_key
                )
                batch = executor.execute_batch(
                    candidates, max_concurrency=self._parallelism
                )
            if not batch.progressed:
                return rounds, False
        exhausted = bool(
            candidate_accesses(
                schema, mediator.configuration_view, executor.has_performed_key
            )
        )
        if exhausted:
            for state in states:
                state.exhausted = True
            self._metrics.incr("server.rounds_exhausted")
        return rounds, exhausted

    def _finalize(self, states: List[_QueryState]) -> Tuple[QueryOutcome, ...]:
        """Evaluate every query at the final configuration."""
        final = self._mediator.configuration_view
        with stage("finalize", queries=len(states)):
            # A Boolean query is evaluated as its oracle's equal query, whose
            # compiled join outlives the request.
            answer_sets = [
                certain_answers(
                    state.query if state.query.free_variables else state.oracle.query,
                    final,
                )
                for state in states
            ]
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
