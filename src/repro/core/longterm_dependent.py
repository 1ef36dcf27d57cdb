"""Long-term relevance in the presence of dependent accesses (Section 5).

Three procedures are provided, all for Boolean queries:

* :func:`is_ltr_direct` — a direct bounded search for a witness path, valid
  for any mix of dependent and independent access methods and any access.
  It mirrors the definition: guess which subgoals the first access witnesses,
  produce the remaining subgoals by a well-formed path (support chains
  included), and check that the query fails at the end of the truncated path.
* :func:`is_ltr_via_containment_cq` — the nondeterministic polynomial-time
  Turing reduction of Proposition 3.5 for conjunctive queries: loop over the
  proper subsets of the access-compatible subgoals and call the containment
  oracle.  Its verdicts are memoized process-wide in one
  :class:`~repro.lru.LRUCache` (:func:`containment_cq_memo`).
* :func:`is_ltr_via_containment_pq` — the many-one reduction of
  Proposition 3.4 for positive queries and Boolean accesses: rewrite the
  query with an ``IsBind`` relation and test non-containment.

The direct search is the default used by the facade
(:func:`repro.core.relevance.is_long_term_relevant`); the reduction-based
procedures exist to make the paper's reductions executable and are
cross-checked against the direct search in the test suite.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.data import (
    AccessPath,
    AccessResponse,
    Configuration,
    Fact,
    is_well_formed,
)
from repro.exceptions import QueryError
from repro.queries import (
    ConjunctiveQuery,
    disjuncts,
    evaluate_boolean,
    is_certain,
)
from repro.queries.terms import is_variable
from repro.chase import iter_production_plans
from repro.core.assignments import (
    iter_witness_assignments,
    split_grounding,
    witnessable_atom_checker,
)
from repro.core.containment import ContainmentOptions, SearchDeadline, decide_containment
from repro.core.reductions import ltr_to_containment
from repro.lru import LRUCache
from repro.schema import Access, Schema

__all__ = [
    "containment_cq_memo",
    "is_ltr_direct",
    "find_ltr_witness_steps",
    "is_ltr_via_containment_cq",
    "is_ltr_via_containment_pq",
]


def find_ltr_witness_steps(
    query,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    *,
    options: Optional[ContainmentOptions] = None,
    max_assignments: Optional[int] = 200000,
) -> Optional[Tuple[AccessResponse, ...]]:
    """Bounded direct search for a long-term relevance witness path.

    Returns the steps of a well-formed path that starts with ``access``,
    makes the query true at its end, and whose truncation does not satisfy
    the query — or ``None`` when no witness was found within the budgets.
    The returned steps are the raw material of the incremental engine in
    :mod:`repro.runtime.witness`: a stored path can be *revalidated* against
    a later configuration in time linear in its length instead of redoing
    this search.

    Sound: any non-``None`` answer is backed by the explicit path.  Complete
    up to the search budgets (fresh constants per domain, support facts,
    plans per guess).

    Two witness shapes are explored:

    1. the first access witnesses one or more subgoals of the query (the only
       shape possible for Boolean accesses, and the shape the paper's
       Section 5 procedures cover);
    2. for non-Boolean accesses, the first access contributes only *values*:
       its response is a single generic fact (binding at the input places,
       fresh values at the outputs) whose fresh values later dependent
       accesses consume — the EmpManAcc pattern of the paper's introduction.
       The paper leaves non-Boolean accesses to future work; this mode is the
       natural extension.
    """
    if not query.is_boolean:
        raise QueryError("long-term relevance is defined for Boolean queries")
    options = options or ContainmentOptions()
    if not is_well_formed(access, configuration):
        return None
    if is_certain(query, configuration):
        return None

    searched: set = set()
    for disjunct in disjuncts(query):
        variables = disjunct.variables
        variable_domains = disjunct.variable_domains()
        fresh_count = max(1, len(variables))
        for grounding in iter_witness_assignments(
            disjunct.atoms,
            variable_domains,
            configuration,
            access,
            schema=schema,
            fresh_per_domain=fresh_count,
            max_assignments=max_assignments,
            atom_feasible=witnessable_atom_checker(
                disjunct.atoms, configuration, schema, access
            ),
        ):
            first_facts, later_facts = split_grounding(
                disjunct.atoms, grounding, configuration, access
            )
            # Distinct assignments frequently ground to the same fact sets
            # (they differ only on variables absorbed by the configuration);
            # one production-plan search per fact-set suffices.
            search_key = (frozenset(first_facts), frozenset(later_facts))
            if search_key in searched:
                continue
            searched.add(search_key)

            first_response = AccessResponse(
                access, tuple(fact.values for fact in first_facts)
            )
            after_first = configuration.extended_with(first_facts)
            for plan in iter_production_plans(
                schema,
                after_first,
                later_facts,
                max_support_facts=options.max_support_facts,
                max_plans=options.max_plans_per_assignment,
                support_value_choices=options.support_value_choices,
                max_nodes=options.max_nodes,
            ):
                steps = (first_response,) + tuple(plan.path.steps)
                truncated = AccessPath(configuration, list(steps)).truncation_view()
                if not evaluate_boolean(query, truncated):
                    return steps

    return _ltr_via_generic_response(
        query, access, configuration, schema, options, max_assignments
    )


def is_ltr_direct(
    query,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    *,
    options: Optional[ContainmentOptions] = None,
    max_assignments: Optional[int] = 200000,
) -> bool:
    """Boolean facade over :func:`find_ltr_witness_steps`."""
    return (
        find_ltr_witness_steps(
            query,
            access,
            configuration,
            schema,
            options=options,
            max_assignments=max_assignments,
        )
        is not None
    )


def _ltr_via_generic_response(
    query,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    options: ContainmentOptions,
    max_assignments: Optional[int],
) -> Optional[Tuple[AccessResponse, ...]]:
    """Witness shape 2: the first access only contributes fresh output values."""
    method = access.method
    if not method.output_places:
        return None

    # A generic response can matter in exactly two ways: a later dependent
    # access (target or support) consumes one of its fresh output values, or
    # a query subgoal is mapped onto the generic fact itself (so the
    # truncation loses it).  When no dependent method consumes any of the
    # output domains and no subgoal is binding-compatible, neither can
    # happen and the whole search is provably fruitless.
    relation = method.relation
    output_domains = {relation.domain_of(place) for place in method.output_places}
    consumable = {
        other.relation.domain_of(place)
        for other in schema.access_methods
        if other.dependent
        for place in other.input_places
    }
    if not (output_domains & consumable):
        compatible_subgoal = any(
            _compatible_with_access(atom, access)
            for disjunct in disjuncts(query)
            for atom in disjunct.atoms
        )
        if not compatible_subgoal:
            return None

    from repro.chase.fresh import FreshConstants

    fresh = FreshConstants({value for value, _ in configuration.active_domain()})
    relation = method.relation
    values: List[object] = [None] * relation.arity
    for place, bound in access.binding_by_place.items():
        values[place] = bound
    for place in method.output_places:
        fresh_value = fresh.new(relation.domain_of(place))
        if fresh_value is None:
            return None
        values[place] = fresh_value
    first_fact = Fact(relation.name, tuple(values))
    first_response = AccessResponse(access, (tuple(values),))
    after_first = configuration.extended_with([first_fact])
    # The interesting witnesses are the ones that consume the first access's
    # fresh outputs; try those values first when enumerating assignments.
    fresh_outputs = tuple(values[place] for place in method.output_places)

    searched: set = set()
    for disjunct in disjuncts(query):
        variable_domains = disjunct.variable_domains()
        fresh_count = max(1, len(disjunct.variables))
        for grounding in iter_witness_assignments(
            disjunct.atoms,
            variable_domains,
            after_first,
            None,
            schema=schema,
            fresh_per_domain=fresh_count,
            max_assignments=max_assignments,
            prefer_fresh=True,
            preferred_values=fresh_outputs,
            atom_feasible=witnessable_atom_checker(
                disjunct.atoms, after_first, schema, None
            ),
        ):
            _first, later_facts = split_grounding(
                disjunct.atoms, grounding, after_first
            )
            if not later_facts:
                continue
            search_key = frozenset(later_facts)
            if search_key in searched:
                continue
            searched.add(search_key)
            for plan in iter_production_plans(
                schema,
                after_first,
                later_facts,
                max_support_facts=options.max_support_facts,
                max_plans=options.max_plans_per_assignment,
                support_value_choices=options.support_value_choices,
                max_nodes=options.max_nodes,
            ):
                steps = (first_response,) + tuple(plan.path.steps)
                truncated = AccessPath(configuration, list(steps)).truncation_view()
                if not evaluate_boolean(query, truncated):
                    return steps
    return None


def _compatible_with_access(atom, access: Access) -> bool:
    """Whether a subgoal could be witnessed by the access (Proposition 3.5)."""
    if atom.relation.name != access.relation.name:
        return False
    for place, bound_value in access.binding_by_place.items():
        term = atom.terms[place]
        if not is_variable(term) and term != bound_value:
            return False
    return True


#: Proposition 3.5 verdicts, shared across calls.  Each verdict of
#: :func:`is_ltr_via_containment_cq` is a pure function of the query's
#: canonical form, the probed access (method name and binding), the
#: configuration's fingerprint, the schema's relations and access methods
#: (value tuples of frozen objects, so a rebuilt-but-equal schema shares
#: entries), and the containment options.  One subset loop can issue dozens
#: of containment-oracle calls, so repeated probes pay for the search once.
_CONTAINMENT_CQ_MEMO = LRUCache(4096)


def containment_cq_memo() -> LRUCache:
    """The process-wide memo behind :func:`is_ltr_via_containment_cq`.

    Its ``hits`` and ``misses`` count the probes; ``clear()`` drops the
    verdicts (benchmarks call it so every run starts cold).
    """
    return _CONTAINMENT_CQ_MEMO


def is_ltr_via_containment_cq(
    query: ConjunctiveQuery,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    *,
    options: Optional[ContainmentOptions] = None,
) -> bool:
    """Proposition 3.5: LTR for a CQ via an oracle for containment.

    Splits the query into access-compatible subgoals ``Q1`` and the rest
    ``Q2``; the access is long-term relevant iff, for some proper subset
    ``Q1' ⊊ Q1``, the query ``Q1' ∧ Q2`` is *not* contained in ``Q`` under
    access limitations starting from the configuration.

    Verdicts are memoized in :func:`containment_cq_memo`, keyed by the
    canonical forms of every input the verdict depends on; the validation
    errors above the key construction are never cached.

    Anytime mode: when ``options.time_budget_s`` is set, the whole subset
    sweep shares one wall-clock budget and raises
    :class:`~repro.exceptions.SearchBudgetExceeded` when it trips.  A
    tripped decision is *not* memoized (the memo key carries no wall-clock,
    and a budget-starved verdict must not shadow a later full one); the
    relevance facade catches the exception and falls back to the sound,
    more conservative direct witness search.
    """
    if not isinstance(query, ConjunctiveQuery):
        raise QueryError("Proposition 3.5 applies to conjunctive queries")
    if not query.is_boolean:
        raise QueryError("long-term relevance is defined for Boolean queries")
    if not is_well_formed(access, configuration):
        return False

    memo = _CONTAINMENT_CQ_MEMO
    key = (
        query.canonical_form(),
        access.method.name,
        tuple(access.binding),
        configuration.fingerprint(),
        tuple(schema.relations),
        tuple(schema.access_methods),
        options,
    )
    cached = memo.get(key)
    if cached is not None:
        return cached
    verdict = _ltr_via_containment_cq_search(
        query, access, configuration, schema, options
    )
    memo.put(key, verdict)
    return verdict


def _ltr_via_containment_cq_search(
    query: ConjunctiveQuery,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    options: Optional[ContainmentOptions],
) -> bool:
    deadline = SearchDeadline.from_options(options)
    # Partition by occurrence *index*, not by atom equality: a query may
    # repeat a subgoal, and the membership split ``atom not in compatible``
    # silently moves every equal copy to the compatible side, conflating
    # distinct occurrences (and the subsets built from them).
    compatible_indices = [
        index
        for index, atom in enumerate(query.atoms)
        if _compatible_with_access(atom, access)
    ]
    compatible_set = set(compatible_indices)
    others = [
        atom
        for index, atom in enumerate(query.atoms)
        if index not in compatible_set
    ]
    if not compatible_indices:
        return False

    for size in range(len(compatible_indices)):
        for subset in itertools.combinations(compatible_indices, size):
            if deadline is not None:
                deadline.check()
            lhs_atoms = [query.atoms[index] for index in subset] + others
            if not lhs_atoms:
                # The empty conjunction is identically true; it is contained in
                # Q iff Q holds at every reachable configuration, and the
                # initial configuration is reachable.
                if not is_certain(query, configuration):
                    return True
                continue
            lhs = ConjunctiveQuery(tuple(lhs_atoms), (), f"{query.name}_guess")
            if not decide_containment(
                lhs, query, schema, configuration, options, deadline
            ):
                return True
    return False


def is_ltr_via_containment_pq(
    query,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    *,
    options: Optional[ContainmentOptions] = None,
) -> bool:
    """Proposition 3.4: LTR for a positive query via one non-containment test.

    Rewrites the query with the ``IsBind`` relation and checks that the
    rewriting is not contained in the original query under access limitations
    starting from the extended configuration.
    """
    if not query.is_boolean:
        raise QueryError("long-term relevance is defined for Boolean queries")
    if not is_well_formed(access, configuration):
        return False
    instance = ltr_to_containment(query, access, configuration, schema)
    return not decide_containment(
        instance.contained_query,
        instance.containing_query,
        instance.schema,
        instance.configuration,
        options,
        SearchDeadline.from_options(options),
    )
