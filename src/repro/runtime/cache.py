"""Memoized relevance verdicts: the :class:`RelevanceOracle`.

The paper's runtime-relevance procedures (immediate relevance, long-term
relevance, certainty) are pure functions of the query, the access, and the
*content* of the configuration.  A dynamic answering run asks the same
questions over and over: an access judged irrelevant this round is judged
again next round, and the configuration has usually not changed in between.
The oracle memoizes every verdict keyed by ``(kind, access, configuration
fingerprint)``, where the fingerprint is the O(1) content hash maintained by
:class:`~repro.data.instance.Instance` — so a cache hit costs two dictionary
lookups instead of a witness search.

On a fingerprint *miss* the oracle does not immediately fall back to the full
search: long-term relevance goes through the incremental engine of
:mod:`repro.runtime.witness` first —

1. the last verdict for the access is *inherited* when the configuration
   delta since it was computed provably cannot change it
   (:meth:`~repro.runtime.witness.ConfigurationSnapshot.delta_safe`);
2. a stored positive witness path is *revalidated* in one O(|path|) replay
   (:meth:`~repro.runtime.witness.LtrWitness.revalidate`) — or, when this
   oracle already accepted the same witness by revalidation at a
   configuration the current one contains
   (:meth:`~repro.runtime.witness.ConfigurationSnapshot.contained_in`), by
   re-checking only its truncation
   (:meth:`~repro.runtime.witness.LtrWitness.recheck_truncation`): the
   queries are monotone and well-formedness reads only the active domain,
   so nothing else can have broken.  A seeded, fresh or adopted witness
   always gets one full revalidation first;
3. only then does the direct search run — and when it proves relevance, its
   witness path is captured for the next round.

Entries are evicted least-recently-used beyond ``max_entries`` so a
long-running mediator cannot grow the cache without bound.

An optional :class:`~repro.runtime.persist.PersistentWitnessCache`
(``persist=``; one SQLite store, see :mod:`repro.runtime.storage`) extends
the oracle beyond one process: it seeds stored witness paths at
construction — a warm restart revalidates instead of searching — and
buffers every newly captured path.  The caller owns the cache: it flushes
the buffer (the server and the guided strategy do so after every round)
and closes it.

Concurrency: every cache the oracle reads or writes is a lock-protected
:class:`~repro.runtime.shards.LRUCache`.  All oracle calls of an answering
run stay on its dispatching thread (the executor runs only source round
trips on pool threads), so the locks are safety code for the *cross-run*
surfaces — oracles in concurrent answering threads pooling a
:class:`SharedVerdictStore`, or any caller probing one oracle from several
threads — where they prevent corruption.  Verdicts are deterministic
functions of configuration content; two threads racing on the same miss
compute the same value, so no compute-level lock is needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Optional, Tuple

from repro.core import (
    ContainmentOptions,
    is_immediately_relevant,
    long_term_relevance_with_witness,
)
from repro.core.longterm_dependent import containment_cq_memo
from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import is_certain
from repro.queries.certain import CertaintyFixpoint
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.serialize import query_token, schema_token
from repro.runtime.shards import LRUCache, SharedVerdictStore
from repro.runtime.tracing import current_tracer
from repro.runtime.witness import (
    ConfigurationSnapshot,
    LtrWitness,
    dependent_input_domains,
)
from repro.schema import Access, Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.persist import PersistentWitnessCache

__all__ = ["LRUCache", "RelevanceOracle", "access_key"]


def access_key(access: Access) -> Tuple[str, Tuple[object, ...]]:
    """A hashable identity for an access: its method name and binding."""
    return (access.method.name, tuple(access.binding))


_MISSING = object()


class _LtrHistory:
    """The last LTR verdict for one access, with its dependency snapshot.

    ``revalidated_witness`` is the witness whose path the oracle accepted
    by revalidation at the snapshot (``None`` after a fresh search or an
    adoption): only that witness may skip to the truncation-only check.
    """

    __slots__ = ("verdict", "snapshot", "revalidated_witness")

    def __init__(
        self,
        verdict: bool,
        snapshot: ConfigurationSnapshot,
        revalidated_witness: Optional[LtrWitness] = None,
    ) -> None:
        self.verdict = verdict
        self.snapshot = snapshot
        self.revalidated_witness = revalidated_witness


class RelevanceOracle:
    """Memoized relevance and certainty decisions for one Boolean query.

    The oracle wraps the facade procedures of :mod:`repro.core` behind a
    cache keyed by ``(kind, access, configuration fingerprint)``, plus the
    incremental delta-inheritance and witness-revalidation layers described
    in the module docstring.  Because the underlying procedures are
    deterministic functions of the configuration's content, and the
    incremental layers only answer when a sound argument transfers the old
    verdict, a hit always returns the verdict the procedure would have
    computed — the property tests assert exactly this.
    """

    def __init__(
        self,
        query,
        schema: Schema,
        *,
        options: Optional[ContainmentOptions] = None,
        ltr_method: str = "auto",
        metrics: Optional[RuntimeMetrics] = None,
        max_entries: Optional[int] = 65536,
        incremental: bool = True,
        certainty_fixpoint: bool = True,
        fixpoint_max_facts: int = 1_000_000,
        store: Optional[SharedVerdictStore] = None,
        persist: Optional["PersistentWitnessCache"] = None,
    ) -> None:
        self._query = query if query.is_boolean else query.boolean_closure()
        self._schema = schema
        self._options = options
        self._ltr_method = ltr_method
        self._metrics = metrics if metrics is not None else RuntimeMetrics()
        self._persist = persist
        if persist is not None:
            # The cache counts ``persist.recorded`` when it flushes.
            persist.attach_metrics(self._metrics)
            self._persist_tokens = (query_token(self._query), schema_token(schema))
        self._cache = LRUCache(max_entries)
        self._incremental = incremental
        if store is not None:
            store.check_compatible(self._query, schema)
            if options is not None:
                raise QueryError(
                    "pass containment options when constructing the "
                    "SharedVerdictStore's oracles consistently; a store's "
                    "histories reflect the options they were computed under"
                )
            self._witnesses = store.witnesses
            self._ltr_history = store.ltr_history
        else:
            self._witnesses = LRUCache(max_entries)
            self._ltr_history = LRUCache(max_entries)
        self._query_relations = frozenset(self._query.relation_names())
        self._unsafe_domains = dependent_input_domains(schema)
        if incremental and certainty_fixpoint:
            self._fixpoint: Optional[CertaintyFixpoint] = (
                store.certainty
                if store is not None
                else CertaintyFixpoint(self._query, max_facts=fixpoint_max_facts)
            )
        else:
            self._fixpoint = None
        self._metrics.register_cache("oracle.cache", self._cache)
        self._metrics.register_cache("oracle.witnesses", self._witnesses)
        self._metrics.register_cache("oracle.ltr_history", self._ltr_history)
        if self._fixpoint is not None:
            self._metrics.register_cache("oracle.certainty_fixpoint", self._fixpoint)
        # The Proposition 3.5 memo is process-wide (module-level in
        # repro.core.longterm_dependent); registering it here surfaces its
        # hit/miss counters in this runtime's metrics snapshots.
        self._metrics.register_cache(
            "ltr.containment_cq_memo", containment_cq_memo()
        )
        # Provenance for trace annotations: which witness keys came off disk
        # (vs captured live this process).  LtrWitness is frozen, so
        # provenance lives here, not on the witness objects.
        if persist is not None and incremental:
            seeded_keys = persist.seed(self._witnesses, self._persist_tokens, schema)
            self._persist_seeded = frozenset(seeded_keys)
            if seeded_keys:
                self._metrics.incr("persist.seeded", len(seeded_keys))
        else:
            self._persist_seeded = frozenset()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def query(self):
        """The Boolean query the oracle answers about."""
        return self._query

    @property
    def schema(self) -> Schema:
        """The schema the oracle's verdicts were computed against."""
        return self._schema

    @property
    def metrics(self) -> RuntimeMetrics:
        """The metrics sink the oracle records into."""
        return self._metrics

    @property
    def ltr_method(self) -> str:
        """The long-term relevance procedure the oracle dispatches to."""
        return self._ltr_method

    @property
    def persist(self) -> Optional["PersistentWitnessCache"]:
        """The attached persistent witness cache, if any."""
        return self._persist

    @property
    def cache_hits(self) -> int:
        """Number of verdicts served from the cache."""
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        """Number of verdicts computed by the underlying procedures."""
        return self._cache.misses

    def stats(self) -> Dict[str, int]:
        """Cache statistics as a plain dictionary."""
        return {
            "hits": self._cache.hits,
            "misses": self._cache.misses,
            "entries": len(self._cache),
        }

    # ------------------------------------------------------------------ #
    # Memoized decisions
    # ------------------------------------------------------------------ #
    def _memoized(self, key: Hashable, compute) -> bool:
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._metrics.incr("oracle.hits")
            return bool(cached)
        self._metrics.incr("oracle.misses")
        verdict = bool(compute())
        self._cache.put(key, verdict)
        return verdict

    def is_certain(self, configuration: Configuration) -> bool:
        """Memoized, incrementally maintained certainty at ``configuration``.

        Resolution order mirrors the LTR chain: exact fingerprint hit →
        delta advance of the :class:`~repro.queries.certain.CertaintyFixpoint`
        (the materialized semi-naive state, matched by fact-fingerprint
        lineage and advanced by each batch's merged facts via
        :meth:`absorb_response`) → full re-evaluation only on a non-monotone
        reset (``restarted``) or when the query does not compile to a
        certainty program (``unsupported``, falling back to the direct
        evaluation).  Outcomes are counted as ``certainty.exact`` /
        ``certainty.advanced`` / ``certainty.restarted`` /
        ``certainty.unsupported``, and a ``certainty`` span carries the same
        outcome as its ``certainty=...`` tag.  Spans for exact and advanced
        resolutions are recorded only under an active tracer, so per-round
        certainty polling does not flood a trace with zero-duration entries.
        """
        key = ("certain", configuration.fingerprint())
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._metrics.incr("oracle.hits")
            self._metrics.incr("certainty.exact")
            tracer = current_tracer()
            if tracer.enabled:
                with tracer.span("certainty") as span:
                    span.annotate(certainty="exact", certain=bool(cached))
            return bool(cached)
        self._metrics.incr("oracle.misses")
        tracer = current_tracer()
        if self._fixpoint is not None:
            if tracer.enabled:
                with tracer.span("certainty") as span:
                    with self._metrics.timer("oracle.certain"):
                        verdict, outcome = self._fixpoint.check(configuration)
                    span.annotate(certainty=outcome, certain=verdict)
            else:
                with self._metrics.timer("oracle.certain"):
                    verdict, outcome = self._fixpoint.check(configuration)
            self._metrics.incr("certainty." + outcome)
            if verdict is not None:
                self._cache.put(key, bool(verdict))
                return bool(verdict)
            # Unsupported query: fall through to the direct evaluation.
        with tracer.span("certainty") as span:
            with self._metrics.timer("oracle.certain"):
                verdict = bool(is_certain(self._query, configuration))
            if tracer.enabled:
                span.annotate(certainty="computed", certain=verdict)
        self._cache.put(key, verdict)
        return verdict

    def immediately_relevant(self, access: Access, configuration: Configuration) -> bool:
        """Memoized immediate relevance of ``access`` at ``configuration``."""
        key = ("ir", access_key(access), configuration.fingerprint())
        with self._metrics.timer("oracle.immediate"):
            return self._memoized(
                key,
                lambda: is_immediately_relevant(self._query, access, configuration),
            )

    def long_term_relevant(self, access: Access, configuration: Configuration) -> bool:
        """Long-term relevance of ``access`` at ``configuration``.

        Resolution order: exact fingerprint hit → sound delta inheritance of
        the last verdict → O(|path|) revalidation of a stored witness (its
        truncation alone, when this oracle already accepted the witness at a
        configuration the current one contains) → fresh search (capturing
        the witness on a positive answer).

        Under an active tracer every call records an ``oracle`` span tagged
        with the ``outcome`` that resolved it (``exact-hit`` /
        ``delta-inherited`` / ``revalidated`` / ``fresh``)
        — the explain report's answer to *how* each verdict was obtained —
        with ``witness-revalidate`` (tagged ``check=full|truncation``) /
        ``fresh-search`` child spans around the expensive stages.  Untraced,
        the exact-hit path costs one extra thread-local read over the
        pre-tracing oracle.
        """
        akey = access_key(access)
        key = ("ltr", akey, configuration.fingerprint())
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._metrics.incr("oracle.hits")
            tracer = current_tracer()
            if tracer.enabled:
                with tracer.span("oracle", method=access.method.name) as span:
                    span.annotate(outcome="exact-hit", relevant=bool(cached))
            return bool(cached)
        self._metrics.incr("oracle.misses")
        tracer = current_tracer()
        if not tracer.enabled:
            return self._resolve_ltr_miss(
                access, akey, key, configuration, tracer, None
            )
        with tracer.span("oracle", method=access.method.name) as span:
            return self._resolve_ltr_miss(
                access, akey, key, configuration, tracer, span
            )

    def _resolve_ltr_miss(
        self, access, akey, key, configuration, tracer, span
    ) -> bool:
        """The miss path of :meth:`long_term_relevant` (``span`` may be None)."""
        if self._incremental:
            history = self._ltr_history.get(akey)
            if history is not None and history.snapshot.delta_safe(
                configuration, self._unsafe_domains
            ):
                self._metrics.incr("oracle.delta_hits")
                self._cache.put(key, history.verdict)
                if span is not None:
                    span.annotate(outcome="delta-inherited", relevant=history.verdict)
                return history.verdict

            witness = self._witnesses.get(akey)
            if witness is not None:
                # A path this oracle accepted at a configuration the current
                # one contains can only break in its truncation (monotone
                # queries; well-formedness reads only the active domain).
                truncation_only = (
                    history is not None
                    and history.revalidated_witness is witness
                    and history.snapshot.contained_in(configuration)
                )
                with tracer.span("witness-revalidate") as wspan:
                    with self._metrics.timer("witness.revalidate"):
                        if truncation_only:
                            revalidated = witness.recheck_truncation(
                                self._query, configuration
                            )
                        else:
                            revalidated = witness.revalidate(self._query, configuration)
                    if span is not None:
                        wspan.annotate(
                            ok=revalidated,
                            check="truncation" if truncation_only else "full",
                            provenance=(
                                "persisted"
                                if akey in self._persist_seeded
                                else "captured"
                            ),
                        )
                if truncation_only:
                    self._metrics.incr("witness.truncation_only")
                if revalidated:
                    self._metrics.incr("witness.revalidated")
                    self._record_ltr(
                        akey,
                        key,
                        True,
                        configuration,
                        witness=None,
                        revalidated_witness=witness,
                    )
                    if span is not None:
                        span.annotate(outcome="revalidated", relevant=True)
                    return True
                self._metrics.incr("witness.revalidation_failed")
                # On a growing configuration a failed revalidation means the
                # truncation now satisfies the (monotone) query — the stored
                # path can never work again, so retrying it on every miss
                # only adds two query evaluations.  Drop it; a positive fresh
                # search below re-captures a live witness.  (With a
                # SharedVerdictStore the next run's configuration may shrink
                # back below this one; dropping then merely costs reuse,
                # never soundness.)
                self._witnesses.discard(akey)

        self._metrics.incr("oracle.fresh_searches")
        with tracer.span("fresh-search") as search_span:
            with self._metrics.timer("oracle.long_term"):

                def budget_tripped() -> None:
                    # Anytime containment: the reduction blew its wall-clock
                    # budget and the facade is falling back to the sound
                    # direct search.  Counted here so operators can see how
                    # often the budget is doing its job.
                    self._metrics.incr("oracle.containment_budget_tripped")
                    search_span.annotate(budget_tripped=True)

                verdict, steps = long_term_relevance_with_witness(
                    self._query,
                    access,
                    configuration,
                    self._schema,
                    method=self._ltr_method,
                    options=self._options,
                    on_budget_trip=budget_tripped,
                )
        witness = LtrWitness(tuple(steps)) if steps else None
        self._record_ltr(akey, key, verdict, configuration, witness=witness, access=access)
        if span is not None:
            span.annotate(outcome="fresh", relevant=verdict)
        return verdict

    def _record_ltr(
        self,
        akey: Hashable,
        key: Hashable,
        verdict: bool,
        configuration: Configuration,
        *,
        witness: Optional[LtrWitness],
        access: Optional[Access] = None,
        revalidated_witness: Optional[LtrWitness] = None,
    ) -> None:
        self._cache.put(key, verdict)
        if not self._incremental:
            return
        self._ltr_history.put(
            akey,
            _LtrHistory(
                verdict,
                ConfigurationSnapshot.capture(configuration, self._query_relations),
                revalidated_witness,
            ),
        )
        if witness is not None:
            self._witnesses.put(akey, witness)
            if self._persist is not None and access is not None:
                self._persist.record(
                    self._persist_tokens, access, witness, configuration
                )

    def witness_for(self, access: Access) -> Optional[LtrWitness]:
        """The stored LTR witness for ``access``, if one was captured."""
        return self._witnesses.get(access_key(access))

    # ------------------------------------------------------------------ #
    # Externally computed verdicts
    # ------------------------------------------------------------------ #
    def absorb_response(self, response) -> None:
        """Advance the certainty fixpoint by a merged access response.

        Called (via the executor's ``on_response`` hook) on the dispatching
        thread right after each response's facts are merged into the
        configuration, so every subsequent certainty probe — including the
        executor's own mid-batch ``stop()`` checks — finds the fixpoint's
        lineage matching the live configuration and resolves by delta
        advance.  Feeding *all* of a response's facts is exact: the fixpoint
        deduplicates against its mirrored state.  No-op without a fixpoint.
        """
        if self._fixpoint is not None:
            self._fixpoint.absorb(response.as_facts())

    @property
    def certainty_fixpoint(self) -> Optional[CertaintyFixpoint]:
        """The attached incremental-certainty state, if enabled."""
        return self._fixpoint

    def fast_certainty(self, configuration: Configuration) -> Optional[bool]:
        """Certainty at ``configuration`` without a full evaluation.

        Resolves by exact fingerprint hit or by a lineage-matched read of the
        certainty fixpoint (:meth:`CertaintyFixpoint.peek` — never rebuilds);
        returns ``None`` when only a full (re-)evaluation could answer.  The
        query server uses this to find the queries whose certainty checks
        need one.
        """
        key = ("certain", configuration.fingerprint())
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._metrics.incr("certainty.exact")
            return bool(cached)
        if self._fixpoint is not None:
            verdict = self._fixpoint.peek(configuration)
            if verdict is not None:
                self._metrics.incr("certainty.advanced")
                self._cache.put(key, bool(verdict))
                return bool(verdict)
        return None

    def adopt_long_term_verdict(
        self,
        access: Access,
        configuration: Configuration,
        verdict: bool,
        *,
        witness: Optional[LtrWitness] = None,
    ) -> None:
        """Record an LTR verdict obtained outside the oracle's own search.

        Used by the batched screening layer: when two accesses' bindings are
        related by an automorphism of the configuration, one search decides
        both, and the second access adopts the verdict (and, positively, the
        translated witness) so later rounds can revalidate instead of
        searching.  The caller is responsible for the soundness of the
        transfer.
        """
        akey = access_key(access)
        self._metrics.incr("oracle.adopted")
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("oracle", method=access.method.name) as span:
                span.annotate(outcome="adopted", relevant=verdict)
        self._record_ltr(
            akey,
            ("ltr", akey, configuration.fingerprint()),
            verdict,
            configuration,
            witness=witness,
            access=access,
        )

    def adopt_immediate_verdict(
        self, access: Access, configuration: Configuration, verdict: bool
    ) -> None:
        """Record an immediate-relevance verdict transferred by screening."""
        akey = access_key(access)
        self._metrics.incr("oracle.adopted")
        self._cache.put(("ir", akey, configuration.fingerprint()), verdict)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RelevanceOracle(query={getattr(self._query, 'name', None)!r}, "
            f"hits={self._cache.hits}, misses={self._cache.misses})"
        )
