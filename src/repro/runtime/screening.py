"""Batched screening of candidate accesses before the relevance oracle.

A dynamic-answering round enumerates every well-formed access not yet made
and asks the oracle about each.  Two cheap structural arguments cut that
work before any witness search runs:

* **necessary-condition prefilter** — an access can only be long-term
  relevant when its relation either occurs in the query or can *feed* it:
  some chain of dependent accesses consumes the relation's output values and
  ends in a query relation.  The fixpoint of that "feeds" relation — the
  :func:`relevant_relation_closure` — is computed once per query, by the
  :class:`CandidateScreen` its :class:`~repro.runtime.cache.RelevanceOracle`
  owns; candidates outside it are discarded without consulting the oracle.
  The closure mirrors the structure of the bounded witness searches (every
  access of a searched path is a target over a query relation or a
  transitive support of one), so no access those searches could certify is
  dropped;
* **structural-equivalence grouping** — two bindings of the same method that
  differ by a value renaming extending to an automorphism of the
  configuration (and fixing the query constants) receive identical verdicts:
  the renaming maps witness paths of one access to witness paths of the
  other.  Each round's candidates are grouped by that relation, one
  representative per group is sent to the oracle, and the other members adopt
  the verdict — positively, together with the translated witness path, so the
  incremental engine can revalidate it later.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.data import Configuration
from repro.runtime.metrics import RuntimeMetrics
from repro.schema import Access, Schema
from repro.tracing import stage

__all__ = [
    "CandidateScreen",
    "access_is_relevant",
    "relevant_relation_closure",
    "resolve_group_verdict",
]


def access_is_relevant(oracle, access: Access, configuration: Configuration) -> bool:
    """Whether ``access`` is long-term relevant right now.

    The query server's dispatch-time re-check of an access some query
    wanted, against the configuration it actually runs at.  It stays a
    module-level function so ``perfbench/spans.py`` can time the precheck
    as its own span.
    """
    return oracle.long_term_relevant(access, configuration)


def resolve_group_verdict(
    oracle,
    representative: Access,
    members: Sequence[Tuple[Access, Dict[object, object]]],
    configuration: Configuration,
) -> bool:
    """Resolve one screening group's verdict through ``oracle``.

    Decides the representative's long-term relevance, has every member
    adopt the verdict — positively together with the representative's
    witness translated through the member's automorphism mapping, so later
    rounds revalidate instead of searching — and returns whether the
    group's accesses are relevant.
    """
    verdict = oracle.long_term_relevant(representative, configuration)
    witness = oracle.witness_for(representative) if verdict and members else None
    for member, mapping in members:
        oracle.adopt_long_term_verdict(
            member,
            configuration,
            verdict,
            witness=(witness.translated(mapping) if witness else None),
        )
    return verdict


def relevant_relation_closure(query, schema: Schema) -> FrozenSet[str]:
    """Relations whose accesses could possibly matter for ``query``.

    Least fixpoint of: the query's relations are relevant; a relation is
    relevant when one of its methods outputs a value domain that some
    *dependent* method of an already-relevant relation consumes as input.
    Accesses over relations outside the closure can neither witness a query
    subgoal nor (transitively) feed a value any witness or support chain
    needs, so the bounded LTR searches never answer ``True`` for them.
    """
    names = {
        name for name in query.relation_names() if schema.has_relation(name)
    }
    changed = True
    while changed:
        changed = False
        needed_domains = set()
        for name in names:
            for method in schema.methods_for(name):
                if not method.dependent:
                    continue
                for place in method.input_places:
                    needed_domains.add(method.relation.domain_of(place))
        for relation in schema.relations:
            if relation.name in names:
                continue
            for method in schema.methods_for(relation):
                if any(
                    relation.domain_of(place) in needed_domains
                    for place in method.output_places
                ):
                    names.add(relation.name)
                    changed = True
                    break
    return frozenset(names)


def _binding_automorphism(
    source: Sequence[object],
    target: Sequence[object],
    configuration: Configuration,
    fixed_values: FrozenSet[object],
) -> Optional[Dict[object, object]]:
    """A configuration automorphism mapping ``source`` to ``target``, if the
    pointwise transpositions extend to one.

    The candidate permutation swaps ``source[i] ↔ target[i]`` for every
    position; it qualifies when the swaps are mutually consistent, move no
    fixed value (a query constant, or a value both bindings share at one
    position), map the seed-constant set onto itself, and map every
    configuration fact containing a moved value to a configuration fact.
    Being an involution, ``π(Conf) ⊆ Conf`` already forces ``π(Conf) =
    Conf``.
    """
    mapping: Dict[object, object] = {}
    shared = set()
    for s_value, t_value in zip(source, target):
        if s_value == t_value:
            shared.add(s_value)
            continue
        if mapping.get(s_value, t_value) != t_value:
            return None
        if mapping.get(t_value, s_value) != s_value:
            return None
        mapping[s_value] = t_value
        mapping[t_value] = s_value
    if not mapping:
        return {}
    moved = set(mapping)
    if moved & fixed_values or moved & shared:
        return None
    seeds = configuration.seed_constants
    for value, domain in seeds:
        if value in moved and (mapping[value], domain) not in seeds:
            return None
    schema = configuration.schema
    for relation in schema.relations:
        name = relation.name
        for place in range(relation.arity):
            for value in moved:
                for row in configuration.tuples_matching(name, {place: value}):
                    mapped = tuple(mapping.get(v, v) for v in row)
                    if not configuration.contains(name, mapped):
                        return None
    return mapping


class CandidateScreen:
    """Per-(query, schema) screening state, kept across answering rounds.

    Each :class:`~repro.runtime.cache.RelevanceOracle` owns the screen of
    its query, so the closure is computed once per oracle, not per request.
    """

    def __init__(
        self,
        query,
        schema: Schema,
        *,
        metrics: Optional[RuntimeMetrics] = None,
        max_group_probes: int = 16,
    ) -> None:
        self._metrics = metrics if metrics is not None else RuntimeMetrics()
        self._closure = relevant_relation_closure(query, schema)
        self._fixed_values = frozenset(
            value for value, _domain in query.constants_with_domains()
        )
        self._max_group_probes = max_group_probes

    @property
    def closure(self) -> FrozenSet[str]:
        """The relevant-relation closure the prefilter tests against."""
        return self._closure

    def prefilter(self, candidates: Sequence[Access]) -> List[Access]:
        """Drop candidates whose relation is outside the closure."""
        with stage("screen.prefilter") as span:
            kept = [
                access
                for access in candidates
                if access.relation.name in self._closure
            ]
            dropped = len(candidates) - len(kept)
            span.annotate(kept=len(kept), dropped=dropped)
        if dropped:
            self._metrics.incr("screen.prefiltered", dropped)
        return kept

    def group(
        self, candidates: Sequence[Access], configuration: Configuration
    ) -> List[Tuple[Access, List[Tuple[Access, Dict[object, object]]]]]:
        """Partition a round's candidates into verdict-sharing groups.

        Returns ``(representative, members)`` pairs where each member carries
        the value renaming taking the representative's binding to its own.
        Comparisons are capped at ``max_group_probes`` representatives per
        method; candidates beyond the cap open their own group (correct,
        merely less sharing).
        """
        with stage("screen.group") as span:
            groups: List[Tuple[Access, List[Tuple[Access, Dict[object, object]]]]] = []
            by_method: Dict[str, List[int]] = {}
            for access in candidates:
                indices = by_method.setdefault(access.method.name, [])
                mapped = None
                for group_index in indices[: self._max_group_probes]:
                    representative = groups[group_index][0]
                    mapping = _binding_automorphism(
                        representative.binding,
                        access.binding,
                        configuration,
                        self._fixed_values,
                    )
                    if mapping is not None:
                        groups[group_index][1].append((access, mapping))
                        mapped = group_index
                        break
                if mapped is None:
                    indices.append(len(groups))
                    groups.append((access, []))
            shared = sum(len(members) for _rep, members in groups)
            span.annotate(groups=len(groups), shared=shared)
        if shared:
            self._metrics.incr("screen.shared_verdicts", shared)
        return groups
