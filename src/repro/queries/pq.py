"""Positive (existential) queries: arbitrary nestings of conjunction and
disjunction over atoms, with implicit existential quantification.

The paper calls these *positive queries* (PQs).  They strictly generalise
conjunctive queries and unions of conjunctive queries.  This module models
them as expression trees and provides a conversion to disjunctive normal form
(a union of conjunctive queries), which several decision procedures rely on;
the conversion is exponential in the worst case, so it accepts a size guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.exceptions import QueryError
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.join import JoinPlan, plan_free_state
from repro.queries.terms import Term, Variable, is_variable
from repro.schema import AbstractDomain, Relation

__all__ = ["PQNode", "AtomNode", "AndNode", "OrNode", "PositiveQuery", "disjuncts"]


class PQNode:
    """Base class of positive-query expression nodes."""

    def atoms(self) -> Tuple[Atom, ...]:
        """All atoms occurring in the subtree."""
        raise NotImplementedError

    def substitute(self, assignment: Mapping[Variable, Term]) -> "PQNode":
        """Apply a substitution to the subtree."""
        raise NotImplementedError

    def dnf(self) -> Tuple[Tuple[Atom, ...], ...]:
        """Disjunctive normal form: a tuple of conjunctions of atoms."""
        raise NotImplementedError

    def canonical_form(self) -> Tuple[object, ...]:
        """A process-stable structural encoding of the subtree."""
        raise NotImplementedError

    def size(self) -> int:
        """Number of atoms in the subtree (with multiplicity)."""
        return len(self.atoms())


@dataclass(frozen=True)
class AtomNode(PQNode):
    """A leaf: a single atom."""

    atom: Atom

    def atoms(self) -> Tuple[Atom, ...]:
        return (self.atom,)

    def substitute(self, assignment: Mapping[Variable, Term]) -> "AtomNode":
        return AtomNode(self.atom.substitute(assignment))

    def dnf(self) -> Tuple[Tuple[Atom, ...], ...]:
        return ((self.atom,),)

    def canonical_form(self) -> Tuple[object, ...]:
        return ("atom", self.atom.canonical_form())

    @cached_property
    def join_plan(self) -> JoinPlan:
        """The compiled one-atom join (cached outside ``==``, hash and pickles)."""
        return JoinPlan.of_atoms((self.atom,))

    def __getstate__(self) -> Dict[str, object]:
        return plan_free_state(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.atom)


@dataclass(frozen=True)
class AndNode(PQNode):
    """A conjunction of sub-expressions."""

    children: Tuple[PQNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise QueryError("an And node needs at least one child")

    def atoms(self) -> Tuple[Atom, ...]:
        collected: List[Atom] = []
        for child in self.children:
            collected.extend(child.atoms())
        return tuple(collected)

    def substitute(self, assignment: Mapping[Variable, Term]) -> "AndNode":
        return AndNode(tuple(child.substitute(assignment) for child in self.children))

    def dnf(self) -> Tuple[Tuple[Atom, ...], ...]:
        child_dnfs = [child.dnf() for child in self.children]
        conjunctions: List[Tuple[Atom, ...]] = []
        for combination in itertools.product(*child_dnfs):
            merged: List[Atom] = []
            for conjunct in combination:
                merged.extend(conjunct)
            conjunctions.append(tuple(merged))
        return tuple(conjunctions)

    def canonical_form(self) -> Tuple[object, ...]:
        return ("and", tuple(child.canonical_form() for child in self.children))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " & ".join(repr(child) for child in self.children) + ")"


@dataclass(frozen=True)
class OrNode(PQNode):
    """A disjunction of sub-expressions."""

    children: Tuple[PQNode, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise QueryError("an Or node needs at least one child")

    def atoms(self) -> Tuple[Atom, ...]:
        collected: List[Atom] = []
        for child in self.children:
            collected.extend(child.atoms())
        return tuple(collected)

    def substitute(self, assignment: Mapping[Variable, Term]) -> "OrNode":
        return OrNode(tuple(child.substitute(assignment) for child in self.children))

    def dnf(self) -> Tuple[Tuple[Atom, ...], ...]:
        conjunctions: List[Tuple[Atom, ...]] = []
        for child in self.children:
            conjunctions.extend(child.dnf())
        return tuple(conjunctions)

    def canonical_form(self) -> Tuple[object, ...]:
        return ("or", tuple(child.canonical_form() for child in self.children))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "(" + " | ".join(repr(child) for child in self.children) + ")"


@dataclass(frozen=True)
class PositiveQuery:
    """A positive query: an expression tree plus a tuple of free variables."""

    root: PQNode
    free_variables: Tuple[Variable, ...] = ()
    name: str = field(default="Q", compare=False)

    def __post_init__(self) -> None:
        all_vars = set(self.variables)
        for variable in self.free_variables:
            if variable not in all_vars:
                raise QueryError(
                    f"free variable {variable!r} does not occur in the query"
                )
        self._check_domain_consistency()

    def _check_domain_consistency(self) -> None:
        domains: Dict[Variable, AbstractDomain] = {}
        for atom in self.root.atoms():
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
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def from_cq(query: ConjunctiveQuery) -> "PositiveQuery":
        """View a conjunctive query as a positive query."""
        node: PQNode
        if len(query.atoms) == 1:
            node = AtomNode(query.atoms[0])
        else:
            node = AndNode(tuple(AtomNode(atom) for atom in query.atoms))
        return PositiveQuery(node, query.free_variables, query.name)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """All atoms of the query, with multiplicity, in tree order."""
        return self.root.atoms()

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
        """Number of free variables."""
        return len(self.free_variables)

    def relation_names(self) -> FrozenSet[str]:
        """Names of the relations mentioned anywhere in the query."""
        return frozenset(atom.relation.name for atom in self.atoms)

    def variable_domains(self) -> Dict[Variable, AbstractDomain]:
        """Map each variable to its (unique) abstract domain."""
        domains: Dict[Variable, AbstractDomain] = {}
        for atom in self.atoms:
            for variable, domain in atom.variable_domains().items():
                domains.setdefault(variable, domain)
        return domains

    def size(self) -> int:
        """Number of atoms in the query."""
        return self.root.size()

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def substitute(self, assignment: Mapping[Variable, Term]) -> "PositiveQuery":
        """Apply a substitution; substituted free variables are dropped."""
        new_root = self.root.substitute(assignment)
        new_free = tuple(
            variable
            for variable in self.free_variables
            if not (variable in assignment and not is_variable(assignment[variable]))
        )
        renamed_free = tuple(
            assignment.get(variable, variable) for variable in new_free
        )
        return PositiveQuery(new_root, tuple(renamed_free), self.name)

    def to_ucq(self, max_disjuncts: int = 4096) -> Tuple[ConjunctiveQuery, ...]:
        """Convert to a union of conjunctive queries (DNF).

        Raises :class:`~repro.exceptions.QueryError` if the DNF would exceed
        ``max_disjuncts`` disjuncts (the conversion is worst-case exponential).
        """
        conjunctions = self.root.dnf()
        if len(conjunctions) > max_disjuncts:
            raise QueryError(
                f"DNF of {self.name!r} has {len(conjunctions)} disjuncts, "
                f"exceeding the limit of {max_disjuncts}"
            )
        disjuncts = []
        for index, atoms in enumerate(conjunctions):
            atom_vars = {v for atom in atoms for v in atom.variables}
            free = tuple(v for v in self.free_variables if v in atom_vars)
            if set(free) != set(self.free_variables):
                # A disjunct that does not mention a free variable would be
                # unsafe; the paper restricts attention to Boolean queries
                # where this cannot happen.  We keep the disjunct and simply
                # project on the variables it does bind.
                pass
            disjuncts.append(
                ConjunctiveQuery(tuple(atoms), free, f"{self.name}_d{index}")
            )
        return tuple(disjuncts)

    def boolean_closure(self) -> "PositiveQuery":
        """The Boolean query obtained by dropping all free variables."""
        return PositiveQuery(self.root, (), self.name)

    def canonical_form(self) -> Tuple[object, ...]:
        """A process-stable structural encoding (see the CQ counterpart)."""
        return (
            "pq",
            self.root.canonical_form(),
            tuple(variable.name for variable in self.free_variables),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        head = (
            f"{self.name}({', '.join(v.name for v in self.free_variables)})"
            if self.free_variables
            else f"{self.name}()"
        )
        return f"{head} :- {self.root!r}"


def disjuncts(query, max_disjuncts: int = 4096) -> Tuple[ConjunctiveQuery, ...]:
    """The union-of-CQs form of a CQ (itself) or of a positive query.

    Raises :class:`~repro.exceptions.QueryError` for any other query type,
    or when a positive query's DNF exceeds ``max_disjuncts`` disjuncts.
    """
    if isinstance(query, ConjunctiveQuery):
        return (query,)
    if isinstance(query, PositiveQuery):
        return query.to_ucq(max_disjuncts=max_disjuncts)
    raise QueryError(f"unsupported query type {type(query)!r}")
