"""Conjunctive queries (CQs).

A conjunctive query is a conjunction of atoms with an (optionally empty) tuple
of free variables; all other variables are implicitly existentially
quantified.  Boolean queries have no free variables.  The paper's domain
discipline — a variable shared across subgoals must always occupy attributes
of the same abstract domain — is enforced at construction time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.queries.atoms import Atom
from repro.queries.join import JoinPlan, plan_free_state
from repro.queries.terms import Term, Variable, is_variable
from repro.schema import AbstractDomain, Relation

__all__ = ["ConjunctiveQuery"]


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: a tuple of atoms and a tuple of free variables."""

    atoms: Tuple[Atom, ...]
    free_variables: Tuple[Variable, ...] = ()
    name: str = field(default="Q", compare=False)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryError("a conjunctive query needs at least one atom")
        all_vars = set(self.variables)
        for variable in self.free_variables:
            if variable not in all_vars:
                raise QueryError(
                    f"free variable {variable!r} does not occur in any atom"
                )
        self._check_domain_consistency()

    def _check_domain_consistency(self) -> None:
        domains: Dict[Variable, AbstractDomain] = {}
        for atom in self.atoms:
            for place, term in enumerate(atom.terms):
                if not is_variable(term):
                    continue
                domain = atom.relation.domain_of(place)
                previous = domains.get(term)
                if previous is None:
                    domains[term] = domain
                elif previous != domain:
                    raise QueryError(
                        f"variable {term!r} occurs at attributes of different "
                        f"abstract domains ({previous.name!r} and {domain.name!r})"
                    )

    # ------------------------------------------------------------------ #
    # Compiled joins and the template (cached outside ==, hash,
    # canonical_form and pickles)
    # ------------------------------------------------------------------ #
    @cached_property
    def join_plan(self) -> JoinPlan:
        """The compiled join of the query's atoms."""
        return JoinPlan.of_atoms(self.atoms)

    @cached_property
    def _rest_plans(self) -> List[Optional[JoinPlan]]:
        return [None] * len(self.atoms)

    def rest_plan(self, index: int) -> JoinPlan:
        """The compiled join of the atoms without atom ``index``.

        The delta check joins these once it has matched atom ``index`` on a
        new fact; each is compiled on its first join and kept.
        """
        plans = self._rest_plans
        plan = plans[index]
        if plan is None:
            plan = JoinPlan.of_atoms(self.atoms[:index] + self.atoms[index + 1 :])
            plans[index] = plan
        return plan

    @cached_property
    def template(self) -> Tuple[Tuple[object, ...], Tuple[object, ...]]:
        """The query with its constants lifted out: ``(key, constants)``.

        ``key`` encodes the atoms with every constant replaced by one
        placeholder and the variables numbered in first-occurrence order;
        ``constants`` lists the constants position by position (atom by
        atom, place by place, repeats kept).  Two queries with equal keys
        differ only in their constants and variable names, and mapping one's
        constants to the other's position by position translates between
        them.  The query server groups the oracles of such *sibling* queries
        so they can share witness paths.  Cached like the join plans.
        """
        numbers: Dict[Variable, int] = {}
        constants: List[object] = []
        atoms = []
        for atom in self.atoms:
            terms = []
            for term in atom.terms:
                if is_variable(term):
                    terms.append(numbers.setdefault(term, len(numbers)))
                else:
                    terms.append(None)
                    constants.append(term)
            atoms.append((atom.relation.name, tuple(terms)))
        free = tuple(numbers[variable] for variable in self.free_variables)
        return ("cq", tuple(atoms), free), tuple(constants)

    def __getstate__(self) -> Dict[str, object]:
        state = plan_free_state(self)
        state.pop("template", None)
        return state

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def make(
        atoms: Sequence[Atom],
        free_variables: Sequence[Variable] = (),
        name: str = "Q",
    ) -> "ConjunctiveQuery":
        """Build a query from sequences (tuples are made internally)."""
        return ConjunctiveQuery(tuple(atoms), tuple(free_variables), name)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[Variable, ...]:
        """All variables, deduplicated, in first-occurrence order."""
        seen: List[Variable] = []
        for atom in self.atoms:
            for variable in atom.variables:
                if variable not in seen:
                    seen.append(variable)
        return tuple(seen)

    @property
    def constants(self) -> Tuple[object, ...]:
        """All constants, deduplicated, in first-occurrence order."""
        seen: List[object] = []
        for atom in self.atoms:
            for constant in atom.constants:
                if constant not in seen:
                    seen.append(constant)
        return tuple(seen)

    def constants_with_domains(self) -> FrozenSet[Tuple[object, AbstractDomain]]:
        """Constants paired with the abstract domains of the places they occupy."""
        pairs: Set[Tuple[object, AbstractDomain]] = set()
        for atom in self.atoms:
            for place, term in enumerate(atom.terms):
                if not is_variable(term):
                    pairs.add((term, atom.relation.domain_of(place)))
        return frozenset(pairs)

    @property
    def is_boolean(self) -> bool:
        """Whether the query has no free variables."""
        return not self.free_variables

    @property
    def arity(self) -> int:
        """Number of free variables (the output arity)."""
        return len(self.free_variables)

    def relations(self) -> Tuple[Relation, ...]:
        """Relations mentioned by the query, deduplicated."""
        seen: List[Relation] = []
        for atom in self.atoms:
            if atom.relation not in seen:
                seen.append(atom.relation)
        return tuple(seen)

    def relation_names(self) -> FrozenSet[str]:
        """Names of the relations mentioned by the query."""
        return frozenset(atom.relation.name for atom in self.atoms)

    def atoms_over(self, relation_name: str) -> Tuple[Atom, ...]:
        """Atoms of the query whose relation is called ``relation_name``."""
        return tuple(
            atom for atom in self.atoms if atom.relation.name == relation_name
        )

    def occurrences(self, relation_name: str) -> int:
        """How many subgoals use the relation called ``relation_name``."""
        return len(self.atoms_over(relation_name))

    def variable_domains(self) -> Dict[Variable, AbstractDomain]:
        """Map each variable to its (unique) abstract domain."""
        domains: Dict[Variable, AbstractDomain] = {}
        for atom in self.atoms:
            domains.update(
                {
                    variable: domain
                    for variable, domain in atom.variable_domains().items()
                    if variable not in domains
                }
            )
        return domains

    def output_domains(self) -> Tuple[AbstractDomain, ...]:
        """Abstract domains of the free variables, in order."""
        domains = self.variable_domains()
        return tuple(domains[variable] for variable in self.free_variables)

    # ------------------------------------------------------------------ #
    # Connectivity (used by Proposition 4.3)
    # ------------------------------------------------------------------ #
    def connected_components(self) -> Tuple[Tuple[Atom, ...], ...]:
        """Partition the subgoals into connected components of the query graph.

        Two subgoals are connected when they share a variable (Gaifman graph
        on subgoals).  Ground atoms form singleton components.
        """
        remaining = list(range(len(self.atoms)))
        components: List[Tuple[Atom, ...]] = []
        while remaining:
            frontier = [remaining.pop(0)]
            component = set(frontier)
            while frontier:
                index = frontier.pop()
                atom_vars = set(self.atoms[index].variables)
                still_left = []
                for other in remaining:
                    if atom_vars & set(self.atoms[other].variables):
                        component.add(other)
                        frontier.append(other)
                    else:
                        still_left.append(other)
                remaining = still_left
            components.append(tuple(self.atoms[index] for index in sorted(component)))
        return tuple(components)

    def is_connected(self) -> bool:
        """Whether the query graph has a single connected component."""
        return len(self.connected_components()) <= 1

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def substitute(self, assignment: Mapping[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a (possibly partial) substitution to every atom.

        Free variables that get substituted by constants are dropped from the
        free-variable tuple.
        """
        new_atoms = tuple(atom.substitute(assignment) for atom in self.atoms)
        new_free = tuple(
            assignment.get(variable, variable)
            for variable in self.free_variables
        )
        kept_free = tuple(term for term in new_free if is_variable(term))
        return ConjunctiveQuery(new_atoms, kept_free, self.name)

    def rename_apart(self, suffix: str) -> "ConjunctiveQuery":
        """Rename every variable by appending ``suffix`` (for disjoint unions)."""
        renaming = {
            variable: Variable(variable.name + suffix) for variable in self.variables
        }
        return self.substitute(renaming)

    def conjoin(self, other: "ConjunctiveQuery", name: Optional[str] = None) -> "ConjunctiveQuery":
        """The conjunction of two queries (free variables are concatenated)."""
        free = list(self.free_variables)
        for variable in other.free_variables:
            if variable not in free:
                free.append(variable)
        return ConjunctiveQuery(
            self.atoms + other.atoms, tuple(free), name or self.name
        )

    def boolean_closure(self) -> "ConjunctiveQuery":
        """The Boolean query obtained by dropping all free variables."""
        return ConjunctiveQuery(self.atoms, (), self.name)

    def canonical_form(self) -> Tuple[object, ...]:
        """A process-stable structural encoding of the query.

        Two queries compare equal exactly when their canonical forms are
        equal (the ``name`` is excluded, matching ``compare=False``), and the
        encoding contains only strings and tuples — so hashing it with a
        cryptographic digest gives the same token in every process, which is
        what the persistent witness cache keys on.
        """
        return (
            "cq",
            tuple(atom.canonical_form() for atom in self.atoms),
            tuple(variable.name for variable in self.free_variables),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = (
            f"{self.name}({', '.join(v.name for v in self.free_variables)})"
            if self.free_variables
            else f"{self.name}()"
        )
        body = " & ".join(repr(atom) for atom in self.atoms)
        return f"{head} :- {body}"
