"""Dynamic query answering: exhaustive vs. relevance-guided access strategies.

This is the application layer that motivates the paper.  A mediator holds a
configuration that grows with every access; the question at each step is
*which access to make next*:

* the **exhaustive** strategy (the recursive enumeration of Li [18], built on
  the inverse-rules idea) performs every well-formed access it has not made
  yet, until no access returns anything new — it retrieves the full
  accessible part of the sources;
* the **relevance-guided** strategy only performs accesses that are
  long-term relevant for the query at the current configuration, and stops
  as soon as the (Boolean) query becomes certain.

Both strategies are single-query calls into the answering kernel of
:class:`~repro.runtime.server.QueryServer`: its rounds screen the candidate
accesses, decide relevance through a
:class:`~repro.runtime.cache.RelevanceOracle` that memoizes verdicts against
the configuration's content fingerprint, perform the relevant accesses as one
batch through a deduplicating
:class:`~repro.runtime.executor.AccessExecutor`, and check certainty.

All strategies return an :class:`AnsweringResult` recording the answers, the
number of accesses made, and the number of facts retrieved, so they can be
compared head to head in ``benchmarks/bench_dynamic_answering.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.core import ContainmentOptions
from repro.exceptions import QueryError
from repro.runtime import Deadline, QueryServer, RelevanceOracle, RuntimeMetrics
from repro.runtime.tracing import TracerLike
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


def _result(mediator: Mediator, run, cache_hits: int = 0) -> AnsweringResult:
    """An :class:`AnsweringResult` from a single-query kernel run."""
    (outcome,) = run.outcomes
    return AnsweringResult(
        answers=outcome.answers,
        accesses_made=mediator.access_count,
        facts_retrieved=run.facts_retrieved,
        relevance_checks=outcome.relevance_checks,
        cache_hits=cache_hits,
        rounds_exhausted=outcome.rounds_exhausted,
        degraded=outcome.degraded,
        failed_accesses=outcome.failed_accesses,
        attempts=outcome.attempts,
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

    The run is ``QueryServer.answer([query], strategy="exhaustive")`` over a
    fresh server: ``tracer`` activates span recording for it (the server's
    ``answer`` tree); omitted, the run inherits whatever tracer is ambient on
    the calling thread.  Counters and latency histograms land in ``metrics``
    under the server's ``server.*`` names.
    """
    with QueryServer(
        mediator, metrics=metrics, parallelism=parallelism, tracer=tracer
    ) as server:
        run = server._run([query], "exhaustive", max_rounds)
    return _result(mediator, run)


def relevance_guided_strategy(
    mediator: Mediator,
    query,
    *,
    options: Optional[ContainmentOptions] = None,
    max_rounds: int = 50,
    oracle: Optional[RelevanceOracle] = None,
    metrics: Optional[RuntimeMetrics] = None,
    parallelism: int = 1,
    cache_path: Optional[str] = None,
    tracer: Optional[TracerLike] = None,
    deadline_s: Optional[float] = None,
    tolerate_failures: bool = False,
) -> AnsweringResult:
    """Only perform accesses that are long-term relevant for the query.

    Accesses pass through the oracle's memoized long-term relevance, and
    the run stops as soon as the query (for a non-Boolean query, its
    Boolean closure) becomes certain.  A pre-built ``oracle`` for the same
    query and schema may be supplied to reuse — and extend — its verdicts,
    LTR history and witness paths across runs; in that case pass
    containment ``options`` when constructing the oracle (supplying both is
    rejected), and ``metrics`` only reaches the executor (the oracle and
    its screen keep recording into the oracle's sink, which also stands in
    for an omitted ``metrics``).

    The run is one query through the answering kernel of
    :class:`~repro.runtime.server.QueryServer` (see :mod:`repro.runtime.server`
    for the rounds): each round screens its candidates as a batch before
    touching the oracle, groups structurally equivalent bindings so they
    share one verdict, and executes only the accesses judged relevant — each
    one re-checked against the configuration it actually runs at, which the
    oracle answers incrementally (witness revalidation or delta inheritance)
    rather than by a fresh search.

    With ``parallelism > 1`` the relevant accesses of a round execute
    concurrently (their simulated or real source latency overlaps), the
    certainty ``stop`` check still runs before each dispatch, and all oracle
    work stays on the calling thread.  The answers are the same as a
    sequential run, though up to ``parallelism`` accesses dispatched before
    certainty is reached may additionally complete.

    ``cache_path`` attaches a :class:`~repro.runtime.persist.PersistentWitnessCache`
    over that SQLite store file (see :mod:`repro.runtime.storage`): witness
    paths captured by this run are recorded, and paths from earlier runs
    (even earlier *processes*) are seeded so this run revalidates instead of
    searching fresh.  It configures the run's own oracle, and the run closes the
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

    ``tracer`` activates span recording for the run — the server's tree: an
    ``answer`` root, one ``round`` span per round, and under each round the
    screening, oracle, access-batch, and source-call spans the instrumented
    layers record (see :mod:`repro.runtime.tracing`).  Omitted, the run
    inherits the calling thread's ambient tracer — off by default.
    Counters and latency histograms land under the server's ``server.*``
    names.
    """
    if oracle is not None:
        if options is not None:
            raise QueryError(
                "pass containment options when constructing the RelevanceOracle; "
                "a pre-built oracle's cached verdicts already reflect its options"
            )
        if cache_path:
            raise QueryError(
                "attach the persistent cache when constructing the "
                "RelevanceOracle; a pre-built oracle keeps its own"
            )
        boolean_query = query if query.is_boolean else query.boolean_closure()
        if oracle.query != boolean_query:
            raise QueryError(
                "the supplied RelevanceOracle was built for a different query; "
                "its cached verdicts do not apply"
            )
        if oracle.schema is not mediator.schema:
            raise QueryError(
                "the supplied RelevanceOracle was built for a different schema "
                "object than the mediator's; build it with mediator.schema"
            )
        if metrics is None:
            metrics = oracle.metrics
    # A cache opened from ``cache_path`` belongs to the server, which closes
    # it on exit; a supplied oracle's cache belongs to its owner.
    with QueryServer(
        mediator,
        metrics=metrics,
        parallelism=parallelism,
        tracer=tracer,
        cache_path=cache_path or None,
        persist=oracle.persist if oracle is not None else None,
    ) as server:
        if oracle is None:
            oracle = RelevanceOracle(
                query,
                mediator.schema,
                options=options,
                metrics=server.metrics,
                persist=server.persist,
            )
        hits_before = oracle.cache_hits
        run = server._run(
            [query],
            "guided",
            max_rounds,
            oracles=[oracle],
            deadlines=[Deadline.after(deadline_s) if deadline_s is not None else None],
            # A deadline implies tolerance: expiry abandons in-flight
            # accesses as failures, which must degrade the run, not abort it.
            tolerate_failures=tolerate_failures or deadline_s is not None,
        )
    return _result(mediator, run, oracle.cache_hits - hits_before)
