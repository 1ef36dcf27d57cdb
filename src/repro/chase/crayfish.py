"""Crayfish-chase style construction of well-formed witness paths.

The upper-bound proofs of the paper (following Calì and Martinenghi) rely on
*tree-like* counterexample instances: every element outside the initial
configuration is generated as the output of exactly one access, and may be
used as the input of later accesses.  This module implements the constructive
side of that idea: given a set of *target facts* that a witness must contain,
it searches for

* an ordering of the targets such that each can be produced by a well-formed
  access (its chosen method's input values are available when it is made), and
* a set of *support facts* — extra accesses whose only purpose is to emit a
  value that some target needs as a dependent input (the "chains" of the
  crayfish chase).

The search is a bounded backtracking enumeration.  Different support choices
lead to different final fact sets, which matters for the containment search
(the support facts may accidentally satisfy the containing query — this is
exactly the phenomenon of Example 3.2), so all plans within the budget are
enumerated and the caller filters them.

Three structural optimisations keep the enumeration cheap without changing
the set of plans reachable within the budgets:

* backtracking uses an **undo log** instead of copying the whole search state
  at every branch — a branch records the operations it performs (pending
  pops, step appends, availability additions) and reverses them on exit;
* the per-domain view of the available values and the per-domain index of
  *emitting* methods are maintained **incrementally** / computed **once**,
  instead of being rebuilt and re-sorted at every stuck node;
* a **reachability closure** over abstract domains ("which domains can any
  chain of well-formed accesses ever emit a value for, starting from this
  configuration") is computed up front and used to cut support branches whose
  missing value lies in a domain no chain can ever produce.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

from repro.data import AccessPath, AccessResponse, Configuration, Fact
from repro.chase.fresh import FreshConstants
from repro.schema import Access, AccessMethod, Schema
from repro.tracing import stage

__all__ = [
    "ProductionPlan",
    "iter_production_plans",
    "can_ever_produce",
    "emittable_domains",
]


@dataclass(frozen=True)
class ProductionPlan:
    """A successful plan: a well-formed path producing the targets.

    Attributes
    ----------
    path:
        The well-formed access path (starting at the initial configuration).
    target_facts:
        The facts the caller asked for.
    support_facts:
        Extra facts introduced only to make dependent inputs available.
    """

    path: AccessPath
    target_facts: Tuple[Fact, ...]
    support_facts: Tuple[Fact, ...]

    def all_new_facts(self) -> Tuple[Fact, ...]:
        """Targets and supports together (the facts added to the configuration)."""
        return tuple(self.target_facts) + tuple(self.support_facts)

    def final_configuration(self) -> Configuration:
        """The configuration reached at the end of the plan's path."""
        return self.path.final_configuration()


def can_ever_produce(schema: Schema, fact: Fact) -> bool:
    """Whether some access method exists for the fact's relation.

    Facts over relations without access methods can never be revealed — their
    content is fixed to the initial configuration.
    """
    return schema.has_access(fact.relation)


def _reachability_closure(
    schema: Schema, available_domains: FrozenSet[object]
) -> Tuple[FrozenSet[object], FrozenSet[object]]:
    """Least fixpoint of value reachability over abstract domains.

    Returns ``(populatable, emittable)``:

    * a domain is **populatable** when *some* value of it can ever appear in
      a produced fact — any place of a feasible method qualifies, because a
      produced fact makes every one of its values available (independent
      methods invent fresh input values; dependent inputs are filled with
      available values or recursively supported fresh ones);
    * a domain is **emittable** when a *chosen specific* value of it can be
      produced — only *output* places qualify, since a support fact carries
      the needed value at an output place.

    A method is feasible when it is independent, or every dependent input's
    domain already has an available value, is populatable, or is enumerated
    (fresh enumeration values are assumed to remain).  Both sets
    **over-approximate** reachability, which is the safe direction for
    pruning: a domain outside them provably admits no producing chain.
    """
    populatable: Set[object] = set()
    emittable: Set[object] = set()
    changed = True
    while changed:
        changed = False
        for method in schema.access_methods:
            relation = method.relation
            all_domains = {
                relation.domain_of(place) for place in range(relation.arity)
            }
            outputs = {relation.domain_of(place) for place in method.output_places}
            if all_domains <= populatable and outputs <= emittable:
                continue
            if method.dependent:
                fillable = True
                for place in method.input_places:
                    domain = relation.domain_of(place)
                    if (
                        domain in available_domains
                        or domain in populatable
                        or domain.is_enumerated
                    ):
                        continue
                    fillable = False
                    break
                if not fillable:
                    continue
            populatable.update(all_domains)
            emittable.update(outputs)
            changed = True
    return frozenset(populatable), frozenset(emittable)


def emittable_domains(
    schema: Schema, available: Set[Tuple[object, object]]
) -> FrozenSet[object]:
    """Domains some chain of well-formed accesses can emit a chosen value for.

    The *emittable* component of :func:`_reachability_closure`: a support
    chain can produce a specific value of the domain at an output place.
    Over-approximates, which is the safe direction for pruning.
    """
    available_domains = frozenset(domain for _value, domain in available)
    _populatable, emittable = _cached_closure(schema, available_domains)
    return emittable


class _SearchState:
    """Mutable search state; branches record undo information explicitly."""

    __slots__ = ("available", "available_by_domain", "pending", "steps", "supports")

    def __init__(
        self,
        available: Set[Tuple[object, object]],
        pending: List[Tuple[Fact, Optional[AccessMethod]]],
    ) -> None:
        self.available = available
        self.available_by_domain: Dict[object, List[object]] = {}
        for value, domain in sorted(available, key=repr):
            self.available_by_domain.setdefault(domain, []).append(value)
        self.pending = pending
        self.steps: List[AccessResponse] = []
        self.supports: List[Fact] = []

    def add_available(
        self, pairs: Sequence[Tuple[object, object]]
    ) -> List[Tuple[object, object]]:
        """Add pairs to the availability index; return the ones actually new."""
        added: List[Tuple[object, object]] = []
        for pair in pairs:
            if pair in self.available:
                continue
            self.available.add(pair)
            self.available_by_domain.setdefault(pair[1], []).append(pair[0])
            added.append(pair)
        return added

    def remove_available(self, pairs: Sequence[Tuple[object, object]]) -> None:
        """Undo :meth:`add_available` for pairs known to have been appended."""
        for value, domain in reversed(pairs):
            self.available.discard((value, domain))
            values = self.available_by_domain.get(domain)
            if values and values[-1] == value:
                values.pop()
            elif values is not None:  # pragma: no cover - defensive
                values.remove(value)


def _fact_available_pairs(schema: Schema, fact: Fact) -> Tuple[Tuple[object, object], ...]:
    relation = schema.relation(fact.relation)
    return tuple(
        (value, relation.domain_of(place)) for place, value in enumerate(fact.values)
    )


def _producible_with(
    schema: Schema,
    fact: Fact,
    method: AccessMethod,
    available: Set[Tuple[object, object]],
) -> bool:
    """Whether ``fact`` can be produced by ``method`` given available values."""
    if method.relation.name != fact.relation:
        return False
    if not method.dependent:
        return True
    relation = schema.relation(fact.relation)
    for place in method.input_places:
        pair = (fact.values[place], relation.domain_of(place))
        if pair not in available:
            return False
    return True


def _access_for(schema: Schema, fact: Fact, method: AccessMethod) -> AccessResponse:
    binding = tuple(fact.values[place] for place in method.input_places)
    access = Access(method, binding)
    return AccessResponse(access, (fact.values,))


#: Schema-keyed caches: the emitter index depends only on the schema, the
#: reachability closure on the schema plus the set of available *domains* —
#: both are consulted once per production-plan search, which the LTR and
#: containment procedures run per candidate assignment.
_EMITTERS_CACHE: "WeakKeyDictionary[Schema, Dict[object, Tuple[Tuple[AccessMethod, int], ...]]]" = (
    WeakKeyDictionary()
)
_CLOSURE_CACHE: "WeakKeyDictionary[Schema, Dict[FrozenSet[object], Tuple[FrozenSet[object], FrozenSet[object]]]]" = (
    WeakKeyDictionary()
)


def _emitter_index(schema: Schema) -> Dict[object, Tuple[Tuple[AccessMethod, int], ...]]:
    """Map each abstract domain to the ``(method, output place)`` pairs emitting it."""
    cached = _EMITTERS_CACHE.get(schema)
    if cached is None:
        emitters: Dict[object, List[Tuple[AccessMethod, int]]] = {}
        for method in schema.access_methods:
            relation = method.relation
            for output_place in method.output_places:
                domain = relation.domain_of(output_place)
                emitters.setdefault(domain, []).append((method, output_place))
        cached = {domain: tuple(pairs) for domain, pairs in emitters.items()}
        _EMITTERS_CACHE[schema] = cached
    return cached


def _cached_closure(
    schema: Schema, available_domains: FrozenSet[object]
) -> Tuple[FrozenSet[object], FrozenSet[object]]:
    per_schema = _CLOSURE_CACHE.setdefault(schema, {})
    cached = per_schema.get(available_domains)
    if cached is None:
        if len(per_schema) > 128:
            per_schema.clear()
        cached = _reachability_closure(schema, available_domains)
        per_schema[available_domains] = cached
    return cached


def iter_production_plans(
    schema: Schema,
    configuration: Configuration,
    targets: Sequence[Fact],
    *,
    max_support_facts: int = 4,
    max_plans: int = 64,
    support_value_choices: int = 2,
    max_nodes: int = 20000,
) -> Iterator[ProductionPlan]:
    """Enumerate well-formed plans producing every fact of ``targets``.

    Parameters
    ----------
    max_support_facts:
        Budget on the number of support facts a single plan may introduce.
    max_plans:
        Stop after yielding this many plans.
    support_value_choices:
        When a support fact needs an available input value, how many distinct
        available values are tried (the rest of the branching is pruned).
    max_nodes:
        Global budget on explored search nodes, a safety valve against
        exponential blow-up.
    """
    deduped: List[Fact] = []
    seen: Set[Tuple[str, Tuple[object, ...]]] = set()
    for fact in targets:
        key = (fact.relation, fact.values)
        if key in seen or configuration.contains(fact.relation, fact.values):
            continue
        seen.add(key)
        deduped.append(fact)

    for fact in deduped:
        if not can_ever_produce(schema, fact):
            return

    initial_available = set(configuration.active_domain())
    emitters = _emitter_index(schema)

    # Every value a target fact carries becomes available the moment that
    # target is produced, so the reachability arguments below must count the
    # targets' own (value, domain) pairs as available — otherwise a target
    # that supplies another target's dependent input is wrongly pruned.
    prune_available: Set[Tuple[object, object]] = set(initial_available)
    for fact in deduped:
        prune_available.update(_fact_available_pairs(schema, fact))
    emittable = emittable_domains(schema, prune_available)

    # Reachability pruning at the root: a target none of whose methods can
    # ever see its dependent inputs filled (no available value, domain not
    # emittable) admits no plan at all.
    for fact in deduped:
        if not any(
            _method_eventually_producible(schema, fact, method, prune_available, emittable)
            for method in schema.methods_for(fact.relation)
        ):
            return

    reserved = {value for value, _ in configuration.active_domain()}
    for fact in deduped:
        reserved.update(fact.values)

    produced_count = 0
    nodes_explored = 0

    state = _SearchState(initial_available, [(fact, None) for fact in deduped])
    fresh = FreshConstants(reserved)

    def plans(state: _SearchState) -> Iterator[ProductionPlan]:
        nonlocal produced_count, nodes_explored
        if produced_count >= max_plans or nodes_explored >= max_nodes:
            return
        nodes_explored += 1

        # Greedily produce every pending fact that is already producible,
        # recording each operation so the branch can be unwound on exit.
        trail: List[Tuple[int, Tuple[Fact, Optional[AccessMethod]], List[Tuple[object, object]]]] = []
        try:
            progressed = True
            while progressed:
                progressed = False
                for index in range(len(state.pending)):
                    fact, forced = state.pending[index]
                    usable = None
                    for method in schema.methods_for(fact.relation):
                        if _producible_with(schema, fact, method, state.available):
                            usable = method
                            break
                    if usable is None:
                        continue
                    state.pending.pop(index)
                    state.steps.append(_access_for(schema, fact, usable))
                    added = state.add_available(_fact_available_pairs(schema, fact))
                    trail.append((index, (fact, forced), added))
                    progressed = True
                    break

            if not state.pending:
                path = AccessPath(configuration.copy(), list(state.steps))
                produced_count += 1
                yield ProductionPlan(path, tuple(deduped), tuple(state.supports))
                return

            if len(state.supports) >= max_support_facts:
                return

            # Stuck: some pending fact needs an unavailable dependent input
            # value.  Branch over (pending fact, method, missing value) and
            # over ways of supporting that value.
            for fact, _forced in list(state.pending):
                relation = schema.relation(fact.relation)
                for method in schema.methods_for(fact.relation):
                    if not method.dependent:
                        continue
                    missing = [
                        (fact.values[place], relation.domain_of(place))
                        for place in method.input_places
                        if (fact.values[place], relation.domain_of(place))
                        not in state.available
                    ]
                    if not missing:
                        continue
                    value, domain = missing[0]
                    if domain not in emittable:
                        # No chain of accesses can ever emit a value of this
                        # domain: the branch can never terminate.
                        continue
                    for support in _support_candidates(
                        schema,
                        state,
                        value,
                        domain,
                        fresh,
                        support_value_choices,
                        emitters,
                    ):
                        state.pending.append((support, None))
                        state.supports.append(support)
                        yield from plans(state)
                        state.supports.pop()
                        state.pending.pop()
                        if produced_count >= max_plans or nodes_explored >= max_nodes:
                            return
        finally:
            for index, item, added in reversed(trail):
                state.remove_available(added)
                state.steps.pop()
                state.pending.insert(index, item)

    # Traced, the span covers the generator's whole lifetime — plan-guided
    # searches consume plans inline, so its duration reads as "time spent in
    # (and between) chase enumeration for this search".
    with stage("chase.plans", targets=len(deduped)) as span:
        yield from plans(state)
        span.annotate(plans=produced_count, nodes=nodes_explored)


def _method_eventually_producible(
    schema: Schema,
    fact: Fact,
    method: AccessMethod,
    available: Set[Tuple[object, object]],
    emittable: FrozenSet[object],
) -> bool:
    """Whether ``method`` could produce ``fact`` after some support chain."""
    if method.relation.name != fact.relation:
        return False
    if not method.dependent:
        return True
    relation = schema.relation(fact.relation)
    for place in method.input_places:
        pair = (fact.values[place], relation.domain_of(place))
        if pair not in available and pair[1] not in emittable:
            return False
    return True


def _support_candidates(
    schema: Schema,
    state: _SearchState,
    value: object,
    domain: object,
    fresh: FreshConstants,
    support_value_choices: int,
    emitters: Dict[object, Tuple[Tuple[AccessMethod, int], ...]],
) -> List[Fact]:
    """Candidate support facts that would emit ``value`` (of ``domain``).

    A support fact lives in a relation with an access method whose *output*
    places include a place of the right domain; its input places are filled
    with already-available values (a bounded number of choices) or fresh
    values (which will recursively need their own support), and its remaining
    output places are filled with fresh values so that the support interferes
    as little as possible with the rest of the witness.

    The candidates are materialised eagerly so the enumeration reads one
    consistent snapshot of the availability index (the caller mutates it
    while recursing between candidates).
    """
    candidates: List[Fact] = []
    available_by_domain = state.available_by_domain
    for method, output_place in emitters.get(domain, ()):
        relation = method.relation
        input_choice_lists: List[List[object]] = []
        feasible = True
        for place in method.input_places:
            place_domain = relation.domain_of(place)
            if method.dependent:
                choices = list(
                    available_by_domain.get(place_domain, ())[:support_value_choices]
                )
                fresh_value = fresh.new(place_domain)
                if fresh_value is not None:
                    choices.append(fresh_value)
            else:
                fresh_value = fresh.new(place_domain)
                choices = [fresh_value] if fresh_value is not None else []
            if not choices:
                feasible = False
                break
            input_choice_lists.append(choices)
        if not feasible:
            continue
        for input_values in itertools.product(*input_choice_lists):
            values: List[object] = [None] * relation.arity
            for place, chosen in zip(method.input_places, input_values):
                values[place] = chosen
            values[output_place] = value
            usable = True
            for place in method.output_places:
                if place == output_place:
                    continue
                filler = fresh.new(relation.domain_of(place))
                if filler is None:
                    usable = False
                    break
                values[place] = filler
            if usable:
                candidates.append(Fact(relation.name, tuple(values)))
    return candidates
