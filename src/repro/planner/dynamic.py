"""Dynamic query answering: exhaustive vs. relevance-guided access strategies.

This is the application layer that motivates the paper.  A mediator holds a
configuration that grows with every access; the question at each step is
*which access to make next*:

* the **exhaustive** strategy (the recursive enumeration of Li [18], built on
  the inverse-rules idea) performs every well-formed access it has not made
  yet, until no access returns anything new — it retrieves the full
  accessible part of the sources;
* the **relevance-guided** strategies only perform accesses that are
  immediately relevant, long-term relevant, or both, for the query at the
  current configuration, and stop as soon as the (Boolean) query becomes
  certain.

Both strategies run on the :mod:`repro.runtime` layer: accesses are executed
through a deduplicating :class:`~repro.runtime.executor.AccessExecutor`
(exhaustive rounds are dispatched as batches), relevance and certainty
verdicts go through a :class:`~repro.runtime.cache.RelevanceOracle` that
memoizes them against the configuration's content fingerprint, and all
decisions read the mediator's *live view* of the configuration instead of
taking per-candidate deep copies.

All strategies return an :class:`AnsweringResult` recording the answers, the
number of accesses made, and the number of facts retrieved, so they can be
compared head to head in ``benchmarks/bench_dynamic_answering.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.core import ContainmentOptions
from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import certain_answers
from repro.runtime import (
    AccessExecutor,
    CandidateScreen,
    Deadline,
    PersistentWitnessCache,
    RelevanceOracle,
    RuntimeMetrics,
    SharedVerdictStore,
)
from repro.runtime.executor import candidate_accesses as _candidate_accesses
from repro.runtime.screening import access_is_relevant, resolve_group_verdict
from repro.runtime.tracing import TracerLike, activate_tracer, current_tracer
from repro.schema import Access
from repro.sources.service import Mediator

__all__ = ["AnsweringResult", "exhaustive_strategy", "relevance_guided_strategy"]


@dataclass(frozen=True)
class AnsweringResult:
    """Outcome of a dynamic answering run.

    ``degraded`` marks a *sound but possibly incomplete* run: accesses
    failed past their retries (their keys are in ``failed_accesses``) or
    the run's deadline expired before certainty.  The answers are still the
    certain answers at the facts actually merged — by monotonicity a subset
    of the fault-free answers, never a wrong claim.  ``attempts`` totals
    the source-call attempts (including retries) the run spent.
    """

    answers: FrozenSet[Tuple[object, ...]]
    accesses_made: int
    facts_retrieved: int
    relevance_checks: int = 0
    cache_hits: int = 0
    rounds_exhausted: bool = False
    degraded: bool = False
    failed_accesses: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    attempts: int = 0

    @property
    def boolean_answer(self) -> bool:
        """Boolean reading of the answer set (true iff non-empty)."""
        return bool(self.answers)


def _result(
    mediator: Mediator,
    query,
    facts_before: int,
    relevance_checks: int,
    cache_hits: int,
    rounds_exhausted: bool = False,
    degraded: bool = False,
    failed_accesses: Tuple[Tuple[str, Tuple[object, ...]], ...] = (),
    attempts: int = 0,
) -> AnsweringResult:
    final_configuration = mediator.configuration_view
    answers = certain_answers(query, final_configuration)
    return AnsweringResult(
        answers=answers,
        accesses_made=mediator.access_count,
        facts_retrieved=len(final_configuration) - facts_before,
        relevance_checks=relevance_checks,
        cache_hits=cache_hits,
        rounds_exhausted=rounds_exhausted,
        degraded=degraded,
        failed_accesses=failed_accesses,
        attempts=attempts,
    )


def exhaustive_strategy(
    mediator: Mediator,
    query,
    *,
    max_rounds: int = 50,
    metrics: Optional[RuntimeMetrics] = None,
    parallelism: int = 1,
    tracer: Optional[TracerLike] = None,
) -> AnsweringResult:
    """Perform every well-formed access until a fixpoint (Li [18]).

    Each round's candidate accesses are dispatched as one batch through the
    executor (with ``parallelism > 1``, up to that many accesses of the round
    overlap their source latency); the run stops when a round merges no new
    fact.  If ``max_rounds`` ends the run while rounds were still making
    progress, the result is flagged ``rounds_exhausted`` — the retrieved
    accessible part (and hence the answer) may be incomplete.

    ``tracer`` activates span recording for the run (a root ``query`` span
    with one ``round`` span per batch); omitted, the run inherits whatever
    tracer is ambient on the calling thread.  Per-query and per-round wall
    time always land in the ``query.latency`` / ``round.latency`` histograms
    of the metrics sink.
    """
    executor = AccessExecutor(mediator, metrics=metrics)
    facts_before = len(mediator.configuration_view)
    exhausted = False
    started = time.perf_counter()
    with activate_tracer(tracer if tracer is not None else current_tracer()) as active:
        with active.span(
            "query", query=getattr(query, "name", None), strategy="exhaustive"
        ):
            for round_index in range(max_rounds):
                executor.metrics.incr("strategy.rounds")
                round_started = time.perf_counter()
                with active.span("round", index=round_index):
                    candidates = _candidate_accesses(
                        mediator.schema,
                        mediator.configuration_view,
                        executor.has_performed_key,
                    )
                    batch = executor.execute_batch(
                        candidates, max_concurrency=parallelism
                    )
                executor.metrics.observe(
                    "round.latency", time.perf_counter() - round_started
                )
                if not batch.progressed:
                    break
            else:
                # The budget ran out while rounds were still progressing.  One
                # free re-enumeration settles the common complete case: no
                # candidate left means the fixpoint was reached in exactly
                # ``max_rounds`` rounds.
                if _candidate_accesses(
                    mediator.schema,
                    mediator.configuration_view,
                    executor.has_performed_key,
                ):
                    exhausted = True
                    executor.metrics.incr("strategy.rounds_exhausted")
    executor.metrics.observe("query.latency", time.perf_counter() - started)
    return _result(mediator, query, facts_before, 0, 0, rounds_exhausted=exhausted)


def relevance_guided_strategy(
    mediator: Mediator,
    query,
    *,
    use_immediate: bool = False,
    use_long_term: bool = True,
    options: Optional[ContainmentOptions] = None,
    max_rounds: int = 50,
    oracle: Optional[RelevanceOracle] = None,
    metrics: Optional[RuntimeMetrics] = None,
    parallelism: int = 1,
    store: Optional[SharedVerdictStore] = None,
    cache_path: Optional[str] = None,
    cache_backend: str = "auto",
    tracer: Optional[TracerLike] = None,
    deadline_s: Optional[float] = None,
    tolerate_failures: bool = False,
) -> AnsweringResult:
    """Only perform accesses that are relevant for the query.

    ``use_long_term`` filters accesses through the oracle's memoized
    long-term relevance; ``use_immediate`` additionally (or alternatively)
    requires immediate relevance.  For Boolean queries the run stops as soon
    as the query becomes certain.  A pre-built ``oracle`` may be supplied to
    share its verdict cache across runs over the same query and schema; in
    that case pass containment ``options`` when constructing the oracle
    (supplying both is rejected), and ``metrics`` only reaches the executor
    and the screening layer (the oracle keeps recording into its own sink).
    Alternatively a :class:`SharedVerdictStore` for the same (query, schema)
    lets this run inherit — and extend — the delta-inheritable LTR history
    and witness paths of earlier runs.

    Each round screens its candidates as a batch before touching the oracle:
    candidates outside the relevant-relation closure are dropped, the rest
    are grouped so structurally equivalent bindings share one verdict, and
    only the accesses the screening judged relevant are executed — each one
    re-checked against the configuration it actually runs at, which the
    oracle answers incrementally (witness revalidation or delta inheritance)
    rather than by a fresh search.

    With ``parallelism > 1`` the relevant accesses of a round execute
    concurrently (their simulated or real source latency overlaps), the
    certainty ``stop`` check still runs between completions, and all oracle
    work stays on the calling thread.  The answers are the same as a
    sequential run — the configuration's final content is the union of the
    same responses — though up to ``parallelism`` accesses dispatched before
    certainty is reached may additionally complete.

    ``cache_path`` attaches a :class:`PersistentWitnessCache`
    (``cache_backend`` selects ``"auto"`` / ``"jsonl"`` / ``"sqlite"``
    storage — see :mod:`repro.runtime.storage`): witness paths captured by
    this run are recorded, and paths from earlier runs (even earlier
    *processes*) are seeded so this run revalidates instead of searching
    fresh.  It configures the run's own oracle, and the run closes the
    cache before it returns.  With a pre-built ``oracle`` attach the cache
    (``persist=``) at its construction instead (supplying both is rejected,
    like ``options``); the run then only flushes it.  Either way each
    round's records are written together when the round ends.

    If ``max_rounds`` ends the run before certainty or a no-progress
    fixpoint, the result is flagged ``rounds_exhausted``.

    ``deadline_s`` gives the run a wall-clock budget: rounds stop at
    expiry, batch waits never outlast it, and a hung source is abandoned
    unmerged rather than blocking the run.  ``tolerate_failures`` keeps the
    run going when an access fails past the mediator's retry policy (the
    failing key lands in ``failed_accesses``) instead of raising the
    enriched :class:`~repro.exceptions.AccessError`; a deadline implies
    tolerance (an abandoned access must not abort the batchmates that did
    respond).  Either way the result flags ``degraded`` when faults cost
    the run certainty — the answers are then a sound subset.

    ``tracer`` activates span recording for the run: a root ``query`` span,
    one ``round`` span per round, and under each round the screening,
    oracle, access-batch, and source-call spans the instrumented layers
    record (see :mod:`repro.runtime.tracing`).  Omitted, the run inherits
    the calling thread's ambient tracer — off by default.  Per-query and
    per-round wall time always land in the ``query.latency`` /
    ``round.latency`` histograms of the metrics sink.
    """
    if not use_immediate and not use_long_term:
        raise QueryError("at least one relevance notion must be enabled")
    if oracle is not None and options is not None:
        raise QueryError(
            "pass containment options when constructing the RelevanceOracle; "
            "a pre-built oracle's cached verdicts already reflect its options"
        )
    if oracle is not None and store is not None:
        raise QueryError(
            "pass either a pre-built oracle or a SharedVerdictStore, not "
            "both; attach the store when constructing the oracle instead"
        )
    if oracle is not None and cache_path:
        raise QueryError(
            "attach the persistent cache when constructing the "
            "RelevanceOracle; a pre-built oracle keeps its own"
        )
    schema = mediator.schema
    boolean_query = query if query.is_boolean else query.boolean_closure()
    owned = None  # a cache this run opens, and so closes
    if oracle is None:
        # The run's private oracle needs no shards: all oracle calls stay on
        # this (the dispatching) thread.  Sharding pays on the genuinely
        # shared surfaces — the attached store, or a caller-built oracle
        # probed from several answering threads.
        owned = (
            PersistentWitnessCache(cache_path, backend=cache_backend, metrics=metrics)
            if cache_path
            else None
        )
        oracle = RelevanceOracle(
            query,
            schema,
            options=options,
            metrics=metrics,
            store=store,
            persist=owned,
        )
    elif oracle.query != boolean_query:
        raise QueryError(
            "the supplied RelevanceOracle was built for a different query; "
            "its cached verdicts do not apply"
        )
    elif oracle.schema is not schema:
        raise QueryError(
            "the supplied RelevanceOracle was built for a different schema "
            "object than the mediator's; build it with mediator.schema"
        )
    persist = oracle.persist
    executor = AccessExecutor(mediator, metrics=metrics)
    screen = CandidateScreen(
        boolean_query,
        schema,
        metrics=metrics if metrics is not None else oracle.metrics,
    )
    # The closure prefilter mirrors the bounded witness searches; the
    # containment-reduction procedures do not share that structure, so a
    # pre-built oracle dispatching to them opts out of prefiltering.
    prefilter_ltr = use_long_term and oracle.ltr_method in (
        "auto",
        "direct",
        "independent",
        "single-occurrence",
    )
    relevance_checks = 0
    hits_before = oracle.cache_hits
    facts_before = len(mediator.configuration_view)
    deadline = Deadline.after(deadline_s) if deadline_s is not None else None
    # A deadline implies tolerance: expiry abandons in-flight accesses as
    # failures, which must degrade the run, not abort it.
    tolerate = tolerate_failures or deadline is not None
    failed_keys = set()
    attempts_total = 0

    def done(configuration: Configuration) -> bool:
        return query.is_boolean and oracle.is_certain(configuration)

    def should_perform(access: Access, configuration: Configuration) -> bool:
        return access_is_relevant(
            oracle,
            access,
            configuration,
            use_long_term=use_long_term,
            use_immediate=use_immediate,
        )

    def _one_round() -> bool:
        """Run one answering round; True when the run is finished."""
        nonlocal relevance_checks
        configuration = mediator.configuration_view
        if done(configuration):
            return True
        candidates = _candidate_accesses(
            schema, configuration, executor.has_performed_key
        )
        if prefilter_ltr:
            candidates = screen.prefilter(candidates)
        elif use_immediate and not use_long_term:
            candidates = screen.prefilter(candidates, immediate_only=True)

        groups = screen.group(candidates, configuration)
        relevant: List[Access] = []
        for representative, members in groups:
            relevance_checks += 1
            if resolve_group_verdict(
                oracle,
                representative,
                members,
                configuration,
                use_long_term=use_long_term,
                use_immediate=use_immediate,
            ):
                relevant.append(representative)
                relevant.extend(member for member, _mapping in members)

        def precheck(access: Access) -> bool:
            nonlocal relevance_checks
            relevance_checks += 1
            return should_perform(access, mediator.configuration_view)

        # Each merged response advances the oracle's certainty fixpoint on
        # this thread before the next stop() check, so mid-batch and
        # end-of-round certainty probes resolve by delta advance instead of
        # re-evaluating the whole configuration.
        batch = executor.execute_batch(
            relevant,
            precheck=precheck,
            stop=lambda: done(mediator.configuration_view),
            max_concurrency=parallelism,
            on_response=oracle.absorb_response,
            deadline=deadline,
            tolerate_failures=tolerate,
        )
        nonlocal attempts_total
        for access, _error, _attempts in batch.failed:
            failed_keys.add(executor.key(access))
        attempts_total += sum(batch.attempts_by_key.values())
        return not batch.progressed or done(mediator.configuration_view)

    def _guided_rounds(active: TracerLike) -> bool:
        """Run the answering rounds; returns the rounds-exhausted flag."""
        for round_index in range(max_rounds):
            if deadline is not None and deadline.expired():
                executor.metrics.incr("deadline.expired")
                break
            executor.metrics.incr("strategy.rounds")
            round_started = time.perf_counter()
            # The round's witness paths land in one store write, even when
            # the round raises.
            try:
                with active.span("round", index=round_index):
                    finished = _one_round()
            finally:
                if persist is not None:
                    persist.flush()
                executor.metrics.observe(
                    "round.latency", time.perf_counter() - round_started
                )
            if finished:
                return False
        # Every allowed round progressed without reaching certainty (or, for
        # non-Boolean queries, a fixpoint): the answer may be incomplete.
        # Certainty reached exactly at the budget's edge, or no candidate
        # left to screen, still count as complete.
        if not done(mediator.configuration_view) and _candidate_accesses(
            schema, mediator.configuration_view, executor.has_performed_key
        ):
            executor.metrics.incr("strategy.rounds_exhausted")
            return True
        return False

    started = time.perf_counter()
    # No store handle opened here outlives the call; a supplied oracle's
    # cache belongs to its owner.
    try:
        with activate_tracer(tracer if tracer is not None else current_tracer()) as active:
            with active.span(
                "query", query=getattr(query, "name", None), strategy="guided"
            ):
                exhausted = _guided_rounds(active)
    finally:
        if owned is not None:
            owned.close()
    executor.metrics.observe("query.latency", time.perf_counter() - started)

    # Degraded = faults actually cost the run something.  For Boolean
    # queries certainty at the final configuration clears the flag (the
    # failures were moot); non-Boolean runs stay conservatively degraded.
    deadline_hit = deadline is not None and deadline.expired()
    degraded = bool(failed_keys) or deadline_hit
    if degraded and done(mediator.configuration_view):
        degraded = False
    return _result(
        mediator,
        query,
        facts_before,
        relevance_checks,
        oracle.cache_hits - hits_before,
        rounds_exhausted=exhausted,
        degraded=degraded,
        failed_accesses=tuple(sorted(failed_keys, key=repr)),
        attempts=attempts_total,
    )
