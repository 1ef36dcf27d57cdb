"""Memoized relevance verdicts: the :class:`RelevanceOracle`.

The paper's long-term relevance and certainty procedures are pure functions
of the query, the access, and the *content* of the configuration.  A dynamic
answering run asks the same questions over and over: an access judged
irrelevant this round is judged again next round, and the configuration has
usually not changed in between.  The oracle memoizes every verdict keyed by
``(kind, access, configuration fingerprint)``, where the fingerprint is the
O(1) content hash maintained by :class:`~repro.data.instance.Instance` — so
a cache hit costs two dictionary lookups instead of a witness search.

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
   so nothing else can have broken.  A seeded or fresh witness always
   gets one full revalidation first, and so does an adopted one, unless
   the screening representative it was translated from was accepted by
   revalidation at the configuration it was adopted at
   (:meth:`RelevanceOracle.adopt_group_verdict` gives the argument);
3. a *sibling* oracle's witness for the same access is tried: the query
   server groups the oracles of conjunctive queries that differ only in
   their constants (:class:`SiblingGroup`), and a sibling's witness,
   translated by the renaming of its constants to ours, is accepted by the
   same full revalidation a stored witness passes;
4. only then does the direct search run — and when it proves relevance, its
   witness path is captured for the next round.  It is the only rung that
   decides a negative verdict anew.

The oracle holds two :class:`~repro.lru.LRUCache` maps of ``max_entries``
each, so a long-running mediator cannot grow it without bound: the verdict
cache above (certainty verdicts too) and one record per access.  A record
carries the access's last LTR verdict with the snapshot it was decided at,
its witness, whether that witness came from the store and has not been
replaced since by a different path (``persisted``; a trace then tags its
revalidation ``provenance=persisted``, and ``captured`` otherwise), whether
it was accepted at the snapshot (the condition for the truncation-only
check), and, with a store attached, the witness it last discarded.

The oracle accounts for itself in :class:`~repro.runtime.metrics.RuntimeMetrics`
counters only: one per rung above (``oracle.hits``, ``oracle.delta_hits``,
``witness.revalidated``, ``oracle.sibling_hits``, ``oracle.fresh_searches``)
and one per certainty outcome (``certainty.*``).  The metrics sink holds
none of its caches.

An oracle is long-lived: the query server keeps one per distinct Boolean
query between :meth:`~repro.runtime.server.QueryServer.answer` calls, and a
caller reuses one across strategy runs by passing it as ``oracle=``.  The
oracle owns everything that carries over: the verdict cache, the
per-access records, the certainty fixpoint, and the query's
:class:`~repro.runtime.screening.CandidateScreen`.

An optional :class:`~repro.runtime.persist.PersistentWitnessCache`
(``persist=``; one SQLite store, see :mod:`repro.runtime.storage`) extends
the oracle beyond one process: it seeds stored witness paths at
construction and on every :meth:`RelevanceOracle.seed_witnesses` call, into
the records that hold no witness and, while the record LRU has room, into
new ones — a warm restart revalidates instead of searching — and buffers
every newly captured path.  A seeding at the store generation the oracle
last seeded at offers nothing, and a path equal to the stored one a record
holds is not buffered again, so a warm restart reads and checks each
stored witness once and writes nothing.  The caller owns the cache: it
flushes the buffer (the server and the guided strategy do so after every
round) and closes it.

Concurrency: every cache the oracle reads or writes is a lock-protected
:class:`~repro.lru.LRUCache`.  All oracle calls of an answering run stay on its
dispatching thread (the executor runs only source round trips on pool
threads), so the locks are safety code for a caller that probes one oracle
from several threads, where they prevent corruption.  Verdicts are
deterministic functions of configuration content; two threads racing on the
same miss compute the same value, so no compute-level lock is needed.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core import ContainmentOptions, long_term_relevance_with_witness
from repro.data import Configuration
from repro.lru import LRUCache
from repro.queries import is_certain
from repro.queries.certain import CertaintyFixpoint
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.screening import CandidateScreen
from repro.runtime.serialize import query_token, schema_token
from repro.runtime.witness import (
    ConfigurationSnapshot,
    LtrWitness,
    dependent_input_domains,
)
from repro.schema import Access, Schema
from repro.tracing import stage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.persist import PersistentWitnessCache

__all__ = ["RelevanceOracle", "SiblingGroup", "access_key"]

#: Failed sibling hints a miss tries before the fresh search decides.
_MAX_SIBLING_FAILURES = 2


def access_key(access: Access) -> Tuple[str, Tuple[object, ...]]:
    """A hashable identity for an access: its method name and binding."""
    return (access.method.name, tuple(access.binding))


_MISSING = object()


class SiblingGroup:
    """The registry oracles whose Boolean CQs share one template.

    Siblings' queries differ only in their constants
    (:attr:`~repro.queries.cq.ConjunctiveQuery.template`), so a witness one
    of them holds, translated by the constant renaming, is a candidate
    witness for another.  The group holds its oracles in registry order;
    each member holds only a weak reference back, so a dropped registry is
    freed without waiting for the cyclic collector.
    """

    __slots__ = ("key", "oracles", "__weakref__")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.oracles: List["RelevanceOracle"] = []

    def add(self, oracle: "RelevanceOracle") -> None:
        """Make ``oracle`` a member: it now takes hints from the others."""
        self.oracles.append(oracle)
        oracle._group_ref = weakref.ref(self)

    def remove(self, oracle: "RelevanceOracle") -> None:
        """Drop ``oracle`` from the group; it stops taking hints."""
        self.oracles.remove(oracle)
        oracle._group_ref = None


def _constant_renaming(
    theirs: Sequence[object], ours: Sequence[object]
) -> Optional[Dict[object, object]]:
    """``theirs[i] ↦ ours[i]`` for every position, moved values only.

    ``None`` when the map is not a function (one of their constants stands
    where we have two different ones).
    """
    renaming: Dict[object, object] = {}
    for source, target in zip(theirs, ours):
        if renaming.setdefault(source, target) != target:
            return None
    return {source: target for source, target in renaming.items() if source != target}


class _AccessRecord(NamedTuple):
    """What the oracle carries forward for one access.

    ``verdict`` and ``snapshot`` are the last LTR verdict and the snapshot
    of the configuration it was decided at (``None`` in a record seeded
    from the store before any decision).  ``witness`` is the path that
    certifies relevance, if any: ``persisted`` when it came from the store
    and has not been replaced since by a different path, ``revalidated``
    when this oracle accepted it by revalidation at ``snapshot``, or
    translated it from a screening representative it had so accepted there
    — only then may it skip to the truncation-only check.  ``discarded`` is
    the witness last lost to a failed revalidation, kept only with a store
    attached, so seeding does not hand it back.  Records are replaced,
    never mutated, so each one the LRU hands out is consistent; the hot
    paths build them positionally (``_replace`` costs about four times as
    much).
    """

    verdict: Optional[bool] = None
    snapshot: Optional[ConfigurationSnapshot] = None
    witness: Optional[LtrWitness] = None
    persisted: bool = False
    revalidated: bool = False
    discarded: Optional[LtrWitness] = None


_NO_RECORD = _AccessRecord()


class RelevanceOracle:
    """Memoized long-term relevance and certainty for one Boolean query.

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
        certainty_fixpoint: bool = True,
        fixpoint_max_facts: int = 1_000_000,
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
            # The store generation of the last seeding.
            self._seeded_at: Optional[Hashable] = None
        self._cache = LRUCache(max_entries)
        # One _AccessRecord per access key.
        self._records = LRUCache(max_entries)
        # A weak reference to the registry's SiblingGroup, if any.
        self._group_ref: Optional["weakref.ref[SiblingGroup]"] = None
        self._query_relations = frozenset(self._query.relation_names())
        self._unsafe_domains = dependent_input_domains(schema)
        self._fixpoint: Optional[CertaintyFixpoint] = (
            CertaintyFixpoint(self._query, max_facts=fixpoint_max_facts)
            if certainty_fixpoint
            else None
        )
        self._screen = CandidateScreen(self._query, schema, metrics=self._metrics)
        self.seed_witnesses()

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
    def screen(self) -> CandidateScreen:
        """The query's candidate screen (prefilter and grouping)."""
        return self._screen

    @property
    def sibling_group(self) -> Optional[SiblingGroup]:
        """The registry group this oracle takes witness hints from, if any."""
        return self._group_ref() if self._group_ref is not None else None

    def seed_witnesses(self) -> None:
        """Take the persistent cache's witnesses for accesses that hold none.

        The constructor seeds once; the query server calls this again each
        time it reuses the oracle, so records another process wrote since
        arrive.  A stored record equal to the witness this oracle last
        discarded for its access is skipped, and one for an access without
        a record is taken only while the record LRU has room.  While the
        store stands at the generation this oracle last seeded at, nothing
        is offered: so a stored witness whose record the LRU evicted, or had
        no room for, comes back only after the store changes.  No-op
        without a persistent cache.
        """
        if self._persist is None:
            return
        seeded, self._seeded_at = self._persist.seed(
            self._persist_tokens, self._schema, self._take_stored, since=self._seeded_at
        )
        if seeded:
            self._metrics.incr("persist.seeded", seeded)

    def _take_stored(self, akey: Hashable, witness: LtrWitness) -> bool:
        """Put a stored witness into ``akey``'s record; whether it was taken.

        Seeding fills free capacity only: a stored path never evicts a
        record, which may hold a verdict the last answer decided.
        """
        record = self._records.peek(akey)
        if record is None:
            if self._records.full():
                return False
            record = _NO_RECORD
        if record.witness is not None or record.discarded == witness:
            return False
        self._records.put(
            akey,
            _AccessRecord(record.verdict, record.snapshot, witness, True, False, record.discarded),
        )
        return True

    @property
    def cache_hits(self) -> int:
        """Number of verdicts served from the cache."""
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        """Number of verdicts computed by the underlying procedures."""
        return self._cache.misses

    # ------------------------------------------------------------------ #
    # Memoized decisions
    # ------------------------------------------------------------------ #
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
        outcome as its ``certainty=...`` tag (``computed`` without a
        fixpoint).  Every check past the exact hit is one ``certainty``
        stage, timed into the ``oracle.certain`` histogram.
        """
        key = ("certain", configuration.fingerprint())
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._metrics.incr("oracle.hits")
            self._metrics.incr("certainty.exact")
            with stage("certainty") as span:
                if span:
                    span.annotate(certainty="exact", certain=bool(cached))
            return bool(cached)
        self._metrics.incr("oracle.misses")
        with stage("certainty", metrics=self._metrics, metric="oracle.certain") as span:
            verdict, outcome = None, "computed"
            if self._fixpoint is not None:
                verdict, outcome = self._fixpoint.check(configuration)
            if verdict is None:
                # No fixpoint, or the query does not compile to one.
                verdict = is_certain(self._query, configuration)
        if self._fixpoint is not None:
            self._metrics.incr("certainty." + outcome)
        verdict = bool(verdict)
        if span:
            span.annotate(certainty=outcome, certain=verdict)
        self._cache.put(key, verdict)
        return verdict

    def long_term_relevant(self, access: Access, configuration: Configuration) -> bool:
        """Long-term relevance of ``access`` at ``configuration``.

        Resolution order: exact fingerprint hit → sound delta inheritance of
        the last verdict → O(|path|) revalidation of a stored witness (its
        truncation alone, when this oracle already accepted the witness at a
        configuration the current one contains) → a sibling query's witness
        for the same access, translated by the constant renaming and fully
        revalidated → fresh search (capturing the witness on a positive
        answer).  Only the fresh search answers negatively.

        Every call is an ``oracle`` stage tagged with the ``outcome`` that
        resolved it (``exact-hit`` / ``delta-inherited`` / ``revalidated`` /
        ``sibling`` / ``fresh``) — the explain report's answer to *how* each
        verdict was obtained — with ``witness-revalidate`` (tagged
        ``check=full|truncation`` and ``provenance=captured|persisted|sibling``,
        timed into ``witness.revalidate``) and ``fresh-search`` (timed into
        ``oracle.long_term``) stages around the expensive rungs.
        """
        akey = access_key(access)
        key = ("ltr", akey, configuration.fingerprint())
        cached = self._cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._metrics.incr("oracle.hits")
            with stage("oracle", method=access.method.name) as span:
                if span:
                    span.annotate(outcome="exact-hit", relevant=bool(cached))
            return bool(cached)
        self._metrics.incr("oracle.misses")
        with stage("oracle", method=access.method.name) as span:
            verdict, outcome = self._resolve_ltr_miss(access, akey, key, configuration)
            if span:
                span.annotate(outcome=outcome, relevant=verdict)
        return verdict

    def _resolve_ltr_miss(self, access, akey, key, configuration) -> Tuple[bool, str]:
        """The miss path of :meth:`long_term_relevant`: ``(verdict, outcome)``."""
        record = self._records.get(akey, _NO_RECORD)
        if record.snapshot is not None and record.snapshot.delta_safe(
            configuration, self._unsafe_domains
        ):
            self._metrics.incr("oracle.delta_hits")
            self._cache.put(key, record.verdict)
            return record.verdict, "delta-inherited"

        witness = record.witness
        if witness is not None:
            # A path this oracle accepted at a configuration the current
            # one contains can only break in its truncation (monotone
            # queries; well-formedness reads only the active domain).
            truncation_only = record.revalidated and record.snapshot.contained_in(
                configuration
            )
            with stage(
                "witness-revalidate", metrics=self._metrics, metric="witness.revalidate"
            ) as span:
                if truncation_only:
                    revalidated = witness.recheck_truncation(self._query, configuration)
                else:
                    revalidated = witness.revalidate(self._query, configuration)
            if span:
                span.annotate(
                    ok=revalidated,
                    check="truncation" if truncation_only else "full",
                    provenance="persisted" if record.persisted else "captured",
                )
            if truncation_only:
                self._metrics.incr("witness.truncation_only")
            if revalidated:
                self._metrics.incr("witness.revalidated")
                self._record_ltr(record, akey, key, True, configuration, revalidated=True)
                return True, "revalidated"
            self._metrics.incr("witness.revalidation_failed")
            # On a growing configuration a failed revalidation means the
            # truncation now satisfies the (monotone) query — the stored
            # path can never work again, so retrying it on every miss
            # only adds two query evaluations.  Drop it; a positive fresh
            # search below re-captures a live witness.  (An oracle reused
            # on another run may see a configuration below this one;
            # dropping then merely costs reuse, never soundness.)
            discarded = witness if self._persist is not None else None
            record = _AccessRecord(record.verdict, record.snapshot, None, False, False, discarded)
            self._records.put(akey, record)

        hint = self._sibling_hint(access, akey, configuration)
        if hint is not None:
            # Recorded like a fresh positive, and revalidated right here, so
            # the truncation-only rung applies to it next time.
            self._record_ltr(
                record,
                akey,
                key,
                True,
                configuration,
                witness=hint,
                access=access,
                revalidated=True,
            )
            return True, "sibling"

        self._metrics.incr("oracle.fresh_searches")
        with stage(
            "fresh-search", metrics=self._metrics, metric="oracle.long_term"
        ) as search_span:

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
        self._record_ltr(
            record, akey, key, verdict, configuration, witness=witness, access=access
        )
        return verdict, "fresh"

    def _sibling_hint(self, access, akey, configuration) -> Optional[LtrWitness]:
        """A sibling's witness for ``access`` that revalidates here, if any.

        Each sibling's witness is translated by the renaming of its
        constants to ours.  A sibling whose renaming is not a function, or
        moves a value of the probed binding (the translated path would not
        start with ``access``), is skipped.  Siblings with the fewest moved
        constants go first, ties in registry order, and the rung gives up
        after :data:`_MAX_SIBLING_FAILURES` failed attempts.  A hint is
        accepted by the full :meth:`LtrWitness.revalidate`, the check a
        witness loaded from the store passes, so it is sound whatever the
        sibling holds.  Reading a sibling's witness leaves its LRU recency
        and hit/miss counts alone.
        """
        group = self.sibling_group
        if group is None:
            return None
        ours = self._query.template[1]
        hints = []
        for sibling in group.oracles:
            if sibling is self:
                continue
            record = sibling._records.peek(akey)
            witness = record.witness if record is not None else None
            if witness is None:
                continue
            renaming = _constant_renaming(sibling._query.template[1], ours)
            if renaming is None or any(value in renaming for value in access.binding):
                continue
            hints.append((len(renaming), witness, renaming))
        hints.sort(key=lambda hint: hint[0])
        failures = 0
        for _moved, witness, renaming in hints:
            translated = witness.translated(renaming)
            with stage(
                "witness-revalidate", metrics=self._metrics, metric="witness.revalidate"
            ) as span:
                revalidated = (
                    translated is not None
                    and access_key(translated.access) == akey
                    and translated.revalidate(self._query, configuration)
                )
            if span:
                span.annotate(ok=revalidated, check="full", provenance="sibling")
            if revalidated:
                self._metrics.incr("witness.revalidated")
                self._metrics.incr("oracle.sibling_hits")
                return translated
            self._metrics.incr("witness.revalidation_failed")
            self._metrics.incr("oracle.sibling_misses")
            failures += 1
            if failures == _MAX_SIBLING_FAILURES:
                break
        return None

    def _record_ltr(
        self,
        record: _AccessRecord,
        akey: Hashable,
        key: Hashable,
        verdict: bool,
        configuration: Configuration,
        *,
        witness: Optional[LtrWitness] = None,
        access: Optional[Access] = None,
        revalidated: bool = False,
    ) -> None:
        """Cache ``verdict`` and store ``record`` with it as the last one.

        A new ``witness`` replaces the record's (and is buffered for the
        store); without one, the record keeps the witness it holds, and so
        it does when the new one equals the persisted path it holds — the
        store already has that path, so nothing is buffered.
        ``revalidated`` says the record's witness was accepted by
        revalidation at ``configuration``.
        """
        self._cache.put(key, verdict)
        persisted = record.persisted
        if witness is None or (persisted and witness == record.witness):
            witness = record.witness
        else:
            persisted = False
            if self._persist is not None and access is not None:
                self._persist.record(self._persist_tokens, access, witness, configuration)
        snapshot = ConfigurationSnapshot.capture(configuration, self._query_relations)
        self._records.put(
            akey,
            _AccessRecord(verdict, snapshot, witness, persisted, revalidated, record.discarded),
        )

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

    def adopt_group_verdict(
        self,
        representative: Access,
        members: Sequence[Tuple[Access, Dict[object, object]]],
        configuration: Configuration,
        verdict: bool,
    ) -> None:
        """Give each screening-group member the representative's LTR verdict.

        Called by :func:`~repro.runtime.screening.resolve_group_verdict`
        right after :meth:`long_term_relevant` decided ``representative`` at
        ``configuration``.  Each member comes with the value renaming σ that
        :meth:`~repro.runtime.screening.CandidateScreen.group` found: a
        bijection that fixes the query constants, extends to an automorphism
        of ``configuration`` (its facts and seed constants) and takes the
        representative's binding to the member's; the caller is responsible
        for σ.  A positive verdict comes with the representative's witness
        translated by σ, so later rounds revalidate instead of searching.

        When this oracle accepted the representative's witness W by
        revalidation at this very configuration C (its record is
        ``revalidated`` with a snapshot of ``configuration``'s fingerprint),
        each σ(W) is recorded as accepted too, so the member's next miss
        takes the truncation-only rung.  This is sound because σ(W) passes
        :meth:`~repro.runtime.witness.LtrWitness.revalidate` at C exactly
        when W does.  σ maps C onto itself, so it maps the active domain
        (value and domain pairs) of C plus any prefix of W onto that of C
        plus the same prefix of σ(W): each step of σ(W) is well-formed
        exactly where W's is, and the longest well-formed prefix of σ(W)'s
        truncation is σ of W's.  The query, whose constants σ fixes, holds
        on σ(X) exactly when it holds on X: at the path's end and on the
        truncation.  (A renaming that puts a value outside an enumerated
        domain gives no translated witness.)  Any other representative —
        decided by a fresh search or by delta inheritance, or accepted at
        another configuration — hands its members witnesses that get one
        full revalidation first.
        """
        fingerprint = configuration.fingerprint()
        record = _NO_RECORD
        if verdict:
            record = self._records.get(access_key(representative), _NO_RECORD)
        witness = record.witness
        accepted = record.revalidated and record.snapshot.fingerprint == fingerprint
        for member, mapping in members:
            akey = access_key(member)
            self._metrics.incr("oracle.adopted")
            with stage("oracle", method=member.method.name) as span:
                if span:
                    span.annotate(outcome="adopted", relevant=verdict)
            translated = witness.translated(mapping) if witness is not None else None
            self._record_ltr(
                self._records.peek(akey) or _NO_RECORD,
                akey,
                ("ltr", akey, fingerprint),
                verdict,
                configuration,
                witness=translated,
                access=member,
                revalidated=accepted and translated is not None,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RelevanceOracle(query={getattr(self._query, 'name', None)!r}, "
            f"hits={self._cache.hits}, misses={self._cache.misses})"
        )
