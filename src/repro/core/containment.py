"""Containment under access limitations (Definition 3.1, Theorems 5.1/5.2/5.6).

``Q1 ⊑_{ACS, Conf} Q2`` holds when ``Q1(Conf') ⊆ Q2(Conf')`` for every
configuration ``Conf'`` reachable from ``Conf`` by well-formed accesses.  For
Boolean monotone queries, *non*-containment is witnessed by a reachable
configuration where ``Q1`` holds and ``Q2`` does not.

The decision procedure searches for such a witness, following the tree-like
(crayfish-chase) shape that the paper's upper-bound proofs establish:

1. pick a disjunct of ``Q1`` (DNF) and an assignment of its variables into
   the active domain of ``Conf`` plus fresh constants;
2. the facts of the disjunct's image that are not already in ``Conf`` must be
   produced by a well-formed access path; :func:`repro.chase.iter_production_plans`
   enumerates such paths, introducing *support facts* whenever a dependent
   input needs a value that no previous access has emitted;
3. the witness is accepted when ``Q2`` is false on the final configuration.

The witness size for dependent accesses is exponential in the worst case
(Theorem 5.1's tiling lower bound), so the search is *bounded*: the caller
controls the budgets through :class:`ContainmentOptions`.  Within the budget
the procedure is sound in both directions on the benchmark workloads; when
the budget is exhausted without finding a witness the procedure answers
"contained", which matches the asymmetric use made of it by the long-term
relevance algorithms (a missed witness can only make relevance answers more
conservative).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

from repro.data import Configuration, Fact
from repro.exceptions import QueryError, SearchBudgetExceeded
from repro.queries import (
    ConjunctiveQuery,
    PositiveQuery,
    evaluate_boolean,
)
from repro.queries.terms import Variable
from repro.chase import iter_production_plans
from repro.core.assignments import iter_witness_assignments, split_grounding
from repro.schema import Schema

__all__ = [
    "ContainmentOptions",
    "ContainmentWitness",
    "SearchDeadline",
    "find_non_containment_witness",
    "decide_containment",
    "decide_cm_containment",
]


@dataclass(frozen=True)
class ContainmentOptions:
    """Search budgets for the containment procedure."""

    #: Fresh values made available per abstract domain when guessing the
    #: homomorphism of the contained query (defaults to the number of
    #: variables when ``None``).
    fresh_per_domain: Optional[int] = None
    #: Maximum number of support facts per production plan.
    max_support_facts: int = 4
    #: Maximum number of production plans considered per homomorphism guess.
    max_plans_per_assignment: int = 32
    #: Maximum number of homomorphism guesses per disjunct.
    max_assignments: Optional[int] = 200000
    #: Maximum number of DNF disjuncts of the contained query.
    max_disjuncts: int = 4096
    #: Number of available values tried per dependent input of a support fact.
    support_value_choices: int = 2
    #: Global cap on nodes explored by each production-plan search.
    max_nodes: int = 20000
    #: Wall-clock budget for one containment-*based* decision (the whole
    #: subset sweep of ``is_ltr_via_containment_cq``, not each inner
    #: containment call).  ``None`` disables the budget.  When the budget
    #: trips, :class:`~repro.exceptions.SearchBudgetExceeded` is raised and
    #: the relevance facade falls back to the sound direct witness search.
    time_budget_s: Optional[float] = None


class SearchDeadline:
    """A monotonic wall-clock budget threaded through a containment sweep.

    One instance covers a whole anytime decision (e.g. every subset the
    LTR-via-containment reduction tries); the loops of
    :func:`find_non_containment_witness` call :meth:`check` between
    assignments so a single pathological search also respects it.
    """

    __slots__ = ("_expires_at", "checked")

    def __init__(self, budget_s: float) -> None:
        self._expires_at = time.monotonic() + budget_s
        self.checked = 0

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self) -> None:
        """Raise :class:`SearchBudgetExceeded` once the budget is spent."""
        self.checked += 1
        if self.expired():
            raise SearchBudgetExceeded(
                "containment time budget exhausted", explored=self.checked
            )

    @classmethod
    def from_options(cls, options: Optional[ContainmentOptions]) -> Optional["SearchDeadline"]:
        if options is None or options.time_budget_s is None:
            return None
        return cls(options.time_budget_s)


@dataclass(frozen=True)
class ContainmentWitness:
    """A witness of non-containment: the reached configuration and its facts."""

    configuration: Configuration
    new_facts: Tuple[Fact, ...]


def _disjuncts(query, options: ContainmentOptions) -> Sequence[ConjunctiveQuery]:
    if isinstance(query, ConjunctiveQuery):
        return (query,)
    if isinstance(query, PositiveQuery):
        return query.to_ucq(max_disjuncts=options.max_disjuncts)
    raise QueryError(f"unsupported query type {type(query)!r}")


def _check_boolean(query, role: str) -> None:
    if not query.is_boolean:
        raise QueryError(
            f"containment under access limitations is implemented for Boolean "
            f"queries; {role} has arity {len(query.free_variables)}"
        )


def find_non_containment_witness(
    query1,
    query2,
    schema: Schema,
    configuration: Optional[Configuration] = None,
    options: Optional[ContainmentOptions] = None,
    deadline: Optional[SearchDeadline] = None,
) -> Optional[ContainmentWitness]:
    """Search for a reachable configuration satisfying ``query1`` but not ``query2``.

    Returns a witness, or ``None`` when no witness was found within the
    budgets (which the caller interprets as containment).  When ``deadline``
    is given, the assignment loop raises
    :class:`~repro.exceptions.SearchBudgetExceeded` as soon as the shared
    wall-clock budget is spent (anytime mode; the caller owns the fallback).
    """
    options = options or ContainmentOptions()
    configuration = (
        configuration
        if configuration is not None
        else Configuration.empty(schema)
    )
    _check_boolean(query1, "the contained query")
    _check_boolean(query2, "the containing query")

    # The query constants are assumed present in the configuration (Section 2).
    configuration = configuration.with_constants(
        query1.constants_with_domains() | query2.constants_with_domains()
    )

    # Monotone exit: configurations only grow and ``query2`` is positive, so
    # once it holds initially it holds on every reachable configuration.
    if evaluate_boolean(query2, configuration):
        return None
    # The empty path: the initial configuration is reachable.
    if evaluate_boolean(query1, configuration):
        return ContainmentWitness(configuration.copy(), ())

    for disjunct in _disjuncts(query1, options):
        variables = disjunct.variables
        variable_domains = disjunct.variable_domains()
        fresh_count = (
            options.fresh_per_domain
            if options.fresh_per_domain is not None
            else max(1, len(variables))
        )
        disjunct_atoms = disjunct.atoms

        def atom_feasible(atom_index: int, values, _atoms=disjunct_atoms) -> bool:
            atom = _atoms[atom_index]
            return configuration.contains(
                atom.relation.name, values
            ) or schema.has_access(atom.relation.name)

        for grounding in iter_witness_assignments(
            disjunct.atoms,
            variable_domains,
            configuration,
            None,
            schema=schema,
            fresh_per_domain=fresh_count,
            max_assignments=options.max_assignments,
            atom_feasible=atom_feasible,
        ):
            if deadline is not None:
                deadline.check()
            _first, target_facts = split_grounding(
                disjunct.atoms, grounding, configuration
            )
            if not target_facts:
                # The disjunct holds already; only relevant if query2 fails,
                # which the empty-path check above already covered.
                continue
            # Monotone pruning: if query2 already holds on the targets alone,
            # every plan (which can only add support facts) also satisfies it.
            direct = configuration.extended_with(target_facts)
            if evaluate_boolean(query2, direct):
                continue
            for plan in iter_production_plans(
                schema,
                configuration,
                target_facts,
                max_support_facts=options.max_support_facts,
                max_plans=options.max_plans_per_assignment,
                support_value_choices=options.support_value_choices,
                max_nodes=options.max_nodes,
            ):
                final = plan.final_configuration()
                if not evaluate_boolean(query2, final):
                    return ContainmentWitness(final, plan.all_new_facts())
    return None


def decide_containment(
    query1,
    query2,
    schema: Schema,
    configuration: Optional[Configuration] = None,
    options: Optional[ContainmentOptions] = None,
    deadline: Optional[SearchDeadline] = None,
) -> bool:
    """Decide ``query1 ⊑_{ACS, Conf} query2`` (config-containment)."""
    witness = find_non_containment_witness(
        query1, query2, schema, configuration, options, deadline
    )
    return witness is None


def decide_cm_containment(
    query1,
    query2,
    schema: Schema,
    constants: Sequence[Tuple[object, object]] = (),
    options: Optional[ContainmentOptions] = None,
) -> bool:
    """Calì–Martinenghi containment (Proposition 3.6's special case).

    CM-containment requires exactly one access method per relation (relations
    without access methods play the role of the *artificial relations* of
    [5]) and is defined with respect to a set of pre-existing constants rather
    than a configuration of ground facts.  It is decided by building the
    configuration that holds exactly those constants and calling the
    config-containment procedure.
    """
    for relation in schema.relations:
        if len(schema.methods_for(relation)) > 1:
            raise QueryError(
                f"CM-containment requires at most one access method per "
                f"relation; {relation.name!r} has "
                f"{len(schema.methods_for(relation))}"
            )
    configuration = Configuration.empty(schema)
    for value, domain in constants:
        configuration.add_constant(value, domain)
    return decide_containment(query1, query2, schema, configuration, options)
