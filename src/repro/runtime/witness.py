"""Incremental reuse of long-term relevance verdicts.

The direct LTR search (:func:`repro.core.longterm_dependent.find_ltr_witness_steps`)
is the dominant cost of relevance-guided answering: every verdict at a new
configuration fingerprint redoes a witness-assignment × production-plan
search.  The paper's tree-like (crayfish-chase) witness shape makes most of
that work reusable, in both directions:

* **positive verdicts** carry an explicit witness path.  A path found at
  configuration ``C`` usually stays a valid witness at a later configuration
  ``C' ⊇ C`` — the active domain only grew, so every step stays well-formed —
  and checking that takes one replay of the path
  (:meth:`LtrWitness.revalidate`) instead of a fresh search.  Once a path
  was checked at ``C``, only its truncation can break at a ``C'`` that
  contains ``C``'s active domain and query-relation facts
  (:meth:`ConfigurationSnapshot.contained_in`): well-formedness reads only
  the active domain and the queries are monotone, so re-checking the
  truncation suffices (:meth:`LtrWitness.recheck_truncation`);
* **negative (and positive) verdicts** can be *inherited* across a
  configuration delta that provably cannot change them.  A verdict computed
  at ``C`` is a function of the query-relation facts of ``C``, of the active
  domain values usable as dependent-access inputs, and of nothing else; a
  superset configuration whose delta adds only facts over query-irrelevant
  relations, with values confined to domains no dependent method consumes,
  yields the same verdict (:meth:`ConfigurationSnapshot.delta_safe`).

This module is the mechanism; the policy (when to revalidate, when to fall
back to a fresh search) lives in :class:`repro.runtime.cache.RelevanceOracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.data import AccessPath, AccessResponse, Configuration, Fact, is_well_formed
from repro.data.paths import merge_well_formed_prefix
from repro.exceptions import AccessError, SchemaError
from repro.queries import evaluate_boolean
from repro.schema import AbstractDomain, Access, Schema

__all__ = [
    "ConfigurationSnapshot",
    "LtrWitness",
    "dependent_input_domains",
]


def dependent_input_domains(schema: Schema) -> FrozenSet[AbstractDomain]:
    """Domains some dependent access method consumes at an input place.

    A new active-domain value can only change a relevance verdict when a
    witness could bind it as a dependent input (directly, or inside a support
    chain); values of any other domain are interchangeable with fresh
    constants.  This is the *unsafe* domain set of the delta test.
    """
    unsafe = set()
    for method in schema.access_methods:
        if not method.dependent:
            continue
        for place in method.input_places:
            unsafe.add(method.relation.domain_of(place))
    return frozenset(unsafe)


@dataclass(frozen=True)
class ConfigurationSnapshot:
    """What a relevance verdict depended on, captured at computation time.

    The snapshot holds the configuration's fingerprint, its active domain
    (facts plus seed constants), and the frozen tuple sets of the query's
    relations.  Capturing is O(#query relations): the active-domain frozenset
    and the per-relation frozen views are maintained by
    :class:`~repro.data.instance.Instance` and shared, not copied.
    """

    fingerprint: Tuple[int, ...]
    active_domain: FrozenSet[Tuple[object, AbstractDomain]]
    query_facts: Tuple[Tuple[str, FrozenSet[Tuple[object, ...]]], ...]

    @staticmethod
    def capture(
        configuration: Configuration, query_relations: Iterable[str]
    ) -> "ConfigurationSnapshot":
        """Snapshot ``configuration`` for verdicts about ``query_relations``."""
        return ConfigurationSnapshot(
            fingerprint=configuration.fingerprint(),
            active_domain=configuration.active_domain(),
            query_facts=tuple(
                (name, configuration.tuples(name))
                for name in sorted(query_relations)
                if configuration.schema.has_relation(name)
            ),
        )

    def delta_safe(
        self,
        configuration: Configuration,
        unsafe_domains: FrozenSet[AbstractDomain],
    ) -> bool:
        """Whether a verdict captured with this snapshot holds at ``configuration``.

        Sound for both polarities of long-term relevance.  The test accepts
        when

        1. the snapshot's active domain survives (no value a witness may
           have used disappeared),
        2. the query relations hold exactly the same facts (certainty, the
           "already witnessed by the configuration" classification, and the
           truncation evaluation all read only these), and
        3. every *new* active-domain pair lies in a domain no dependent
           access method consumes (so no witness, support chain, or
           truncation step gains an input value it lacked before).

        Under these conditions every witness path valid at one configuration
        is valid at the other, with the same truncation, so the fresh search
        would return the same verdict.
        """
        if configuration.fingerprint() == self.fingerprint:
            return True
        current = configuration.active_domain()
        if not self.active_domain <= current:
            return False
        for name, facts in self.query_facts:
            if configuration.tuples(name) != facts:
                return False
        for _value, domain in current - self.active_domain:
            if domain in unsafe_domains:
                return False
        return True

    def contained_in(self, configuration: Configuration) -> bool:
        """Whether ``configuration`` contains what this snapshot read.

        True when the snapshot's active domain and each of its query
        relations' fact sets are subsets of ``configuration``'s.  A path
        :meth:`LtrWitness.revalidate` accepted at the snapshot then stays
        well-formed, with the query true at its end, at ``configuration``,
        so only its truncation needs re-checking
        (:meth:`LtrWitness.recheck_truncation`).  Any removal of a value or
        a query-relation fact the snapshot held makes this false.
        """
        if not self.active_domain <= configuration.active_domain():
            return False
        for name, facts in self.query_facts:
            if not facts <= configuration.tuples(name):
                return False
        return True


@dataclass(frozen=True)
class LtrWitness:
    """A captured long-term relevance witness: a well-formed path.

    The first step is the probed access; the remaining steps realise the rest
    of the witness (later accesses and their support chains).  By
    construction the query holds at the end of the path and fails on its
    truncation — that is exactly what :meth:`revalidate` re-checks against a
    *different* configuration, in one replay of the path and at most two
    query evaluations, and what :meth:`recheck_truncation` re-checks, for the
    truncation half alone, once a configuration extends one the path was
    checked at.  Both truncate through the one truncation loop,
    :func:`~repro.data.paths.merge_well_formed_prefix`.
    """

    steps: Tuple[AccessResponse, ...]

    @property
    def access(self) -> Access:
        """The access the witness certifies as long-term relevant."""
        return self.steps[0].access

    def revalidate(self, query, configuration: Configuration) -> bool:
        """Whether the stored path still witnesses LTR at ``configuration``.

        ``True`` is always sound: the path is then an explicit well-formed
        witness at ``configuration`` (every step well-formed in sequence, the
        query true at the end, and false on the truncation — if the query is
        already certain the truncation satisfies it, so certainty needs no
        separate check).  ``False`` only means the *stored* path no longer
        works; the caller decides whether to search afresh.

        The path is replayed once, truncation first:

        1. the probed access (step 0) must be well-formed at
           ``configuration``;
        2. the truncation's steps are merged by
           :func:`~repro.data.paths.merge_well_formed_prefix` — the loop
           behind :meth:`~repro.data.paths.AccessPath.truncation_view`, so an
           accepted revalidation certifies the path by *exactly* the
           criterion :func:`~repro.core.longterm_dependent.find_ltr_witness_steps`
           uses: the longest well-formed prefix after dropping the probed
           access (a step that is only well-formed given the probed access's
           outputs ends the truncation there, and later steps are dropped
           with it, whether or not they depend on the probed access);
        3. the query is evaluated: if the truncation satisfies it the answer
           is ``False``;
        4. step 0's facts are merged, then every step the truncation dropped,
           each checked for well-formedness in turn;
        5. the query is evaluated on the full path.

        This equals checking the full path and then its truncation
        separately: well-formedness only grows with the active domain, so
        every step the truncation kept stays well-formed once step 0's facts
        are added, and the merged fact set does not depend on the merge
        order.

        Cost: |path| well-formedness checks and fact merges, and at most two
        query evaluations — with **zero configuration copies**.  The replay
        mutates ``configuration`` in place behind one undo log and restores
        it exactly (content, fingerprint, cached views) before returning, so
        revalidation is O(|path|) in allocations as well as steps.  Like the
        rest of the oracle's incremental machinery this runs on the
        strategy's dispatching thread, where the live configuration view
        only changes between callbacks.
        """
        steps = self.steps
        probed = steps[0]
        if not is_well_formed(probed.access, configuration):
            return False
        added: List[Fact] = []
        try:
            kept = merge_well_formed_prefix(configuration, steps[1:], added)
            if evaluate_boolean(query, configuration):
                return False
            for fact in probed.as_facts():
                if configuration.add_fact(fact):
                    added.append(fact)
            dropped = steps[1 + kept :]
            if merge_well_formed_prefix(configuration, dropped, added) < len(dropped):
                return False
            return evaluate_boolean(query, configuration)
        finally:
            for fact in reversed(added):
                configuration.remove(fact.relation, fact.values)

    def recheck_truncation(self, query, configuration: Configuration) -> bool:
        """Whether the truncation still fails the query at ``configuration``.

        The caller guarantees that the whole path was accepted — by
        :meth:`revalidate`, or by this method under the same guarantee — at
        a configuration whose active domain and query-relation facts
        ``configuration`` contains
        (:meth:`ConfigurationSnapshot.contained_in`).  The rest of the check
        then holds by monotonicity: well-formedness reads only the active
        domain, so every step stays well-formed, and evaluation reads only
        the query-relation facts, so the (monotone) query still holds at the
        end of the path.  Only the truncation can change — it may keep more
        steps and see more facts — so this replays the truncation alone
        through :meth:`~repro.data.paths.AccessPath.truncation_view` and
        evaluates once.  The result equals :meth:`revalidate`'s at
        ``configuration``.
        """
        with AccessPath(configuration, list(self.steps)).truncation_view() as truncated:
            return not evaluate_boolean(query, truncated)

    def translated(self, mapping: Mapping[object, object]) -> Optional["LtrWitness"]:
        """The witness under a value renaming, or ``None`` if it does not type.

        When ``mapping`` extends to an automorphism of the configuration (and
        fixes the query constants), the image path witnesses LTR of the
        image access — this is how structurally equivalent bindings share one
        search result.  The oracle also translates a sibling query's witness
        by the renaming of its constants, a candidate that only
        :meth:`revalidate` can accept.  A renaming that puts a value at a
        place whose (enumerated) domain does not admit it gives ``None``.
        """
        steps = []
        try:
            for step in self.steps:
                method = step.access.method
                access = Access(
                    method,
                    tuple(mapping.get(value, value) for value in step.access.binding),
                )
                facts = []
                for row in step.facts:
                    image = tuple(mapping.get(value, value) for value in row)
                    if image != row:
                        method.relation.check_values(image)
                    facts.append(image)
                steps.append(AccessResponse.trusted(access, tuple(facts)))
        except (AccessError, SchemaError):
            return None
        return LtrWitness(tuple(steps))
