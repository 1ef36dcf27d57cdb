"""Atoms: a relation applied to a tuple of terms."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.exceptions import QueryError
from repro.queries.terms import (
    Term,
    Variable,
    canonical_term,
    constants_in,
    is_variable,
    variables_in,
)
from repro.schema import AbstractDomain, Relation

__all__ = ["Atom"]


@dataclass(frozen=True)
class Atom:
    """An atom ``R(t1, ..., tk)`` over a relation ``R`` of the schema."""

    relation: Relation
    terms: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != self.relation.arity:
            raise QueryError(
                f"atom over {self.relation.name!r} has {len(self.terms)} terms "
                f"but the relation has arity {self.relation.arity}"
            )
        for place, term in enumerate(self.terms):
            if not is_variable(term):
                domain = self.relation.domain_of(place)
                if not domain.admits(term):
                    raise QueryError(
                        f"constant {term!r} is not admitted by domain "
                        f"{domain.name!r} at place {place} of {self.relation.name!r}"
                    )

    # ------------------------------------------------------------------ #
    # Term accessors
    # ------------------------------------------------------------------ #
    @property
    def variables(self) -> Tuple[Variable, ...]:
        """Variables of the atom, deduplicated, in order."""
        return variables_in(self.terms)

    @property
    def constants(self) -> Tuple[object, ...]:
        """Constants of the atom, deduplicated, in order."""
        return constants_in(self.terms)

    def variable_domains(self) -> Dict[Variable, AbstractDomain]:
        """Map each variable to the domain of (one of) its places in this atom."""
        domains: Dict[Variable, AbstractDomain] = {}
        for place, term in enumerate(self.terms):
            if is_variable(term):
                domains.setdefault(term, self.relation.domain_of(place))
        return domains

    # ------------------------------------------------------------------ #
    # Substitution
    # ------------------------------------------------------------------ #
    def substitute(self, assignment: Mapping[Variable, Term]) -> "Atom":
        """Apply a (possibly partial) variable assignment to the atom."""
        new_terms = tuple(
            assignment.get(term, term) if is_variable(term) else term
            for term in self.terms
        )
        return Atom(self.relation, new_terms)

    def ground_values(self, assignment: Mapping[Variable, object]) -> Tuple[object, ...]:
        """The fully ground tuple obtained by applying a total assignment."""
        values = []
        for term in self.terms:
            if is_variable(term):
                if term not in assignment:
                    raise QueryError(
                        f"assignment does not cover variable {term!r} of {self!r}"
                    )
                values.append(assignment[term])
            else:
                values.append(term)
        return tuple(values)

    def is_ground(self) -> bool:
        """Whether the atom contains no variable."""
        return not any(is_variable(term) for term in self.terms)

    def canonical_form(self) -> Tuple[object, ...]:
        """A process-stable structural encoding (relation name + terms)."""
        return (self.relation.name, tuple(canonical_term(term) for term in self.terms))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(
            term.name if is_variable(term) else repr(term) for term in self.terms
        )
        return f"{self.relation.name}({rendered})"
