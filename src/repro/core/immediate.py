"""Immediate relevance (IR) — Proposition 4.1.

An access ``(AcM, Bind)`` is *immediately relevant* for a Boolean query ``Q``
at a configuration ``Conf`` when some response to the access turns ``Q`` from
not-certain into certain.  The decision procedure follows the proof of
Proposition 4.1:

1. if ``Q`` is already certain at ``Conf``, the access is not IR;
2. otherwise guess a mapping ``h`` of the query variables into
   ``Adom(Conf)`` plus fresh constants; a subgoal is *witnessed* under ``h``
   when its ground image is already a fact of ``Conf``, or when it lies in the
   accessed relation and agrees with the binding on the input places (such a
   fact can be part of the response);
3. the access is IR iff some guess makes the (positive) Boolean structure of
   the query evaluate to true.

The same procedure is valid for dependent and independent access methods
because only a single access is considered.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import ConjunctiveQuery, PositiveQuery, is_certain
from repro.queries.atoms import Atom
from repro.queries.pq import AndNode, AtomNode, OrNode, PQNode
from repro.core.assignments import iter_witness_assignments
from repro.schema import Access

__all__ = ["is_immediately_relevant"]


def _atom_witnessed(
    atom: Atom,
    values: Tuple[object, ...],
    configuration: Configuration,
    access: Access,
) -> bool:
    """Whether the ground image ``values`` of ``atom`` is witnessed."""
    if configuration.contains(atom.relation.name, values):
        return True
    if atom.relation.name != access.relation.name:
        return False
    return access.matches(values)


def _structure_holds(
    query, predicate: Callable[[Atom], bool]
) -> bool:
    """Evaluate the positive Boolean structure of a query under a truth oracle."""
    if isinstance(query, ConjunctiveQuery):
        return all(predicate(atom) for atom in query.atoms)

    def evaluate_node(node: PQNode) -> bool:
        if isinstance(node, AtomNode):
            return predicate(node.atom)
        if isinstance(node, AndNode):
            return all(evaluate_node(child) for child in node.children)
        if isinstance(node, OrNode):
            return any(evaluate_node(child) for child in node.children)
        raise QueryError(f"unknown node type {type(node)!r}")  # pragma: no cover

    return evaluate_node(query.root)


def is_immediately_relevant(
    query,
    access: Access,
    configuration: Configuration,
    *,
    assume_not_certain: bool = False,
    max_assignments: Optional[int] = None,
) -> bool:
    """Decide immediate relevance of ``access`` for a Boolean ``query``.

    Parameters
    ----------
    query:
        A Boolean conjunctive or positive query.
    access:
        The access whose immediate impact is being analysed.
    configuration:
        The current configuration.
    assume_not_certain:
        Skip the (coNP) certainty pre-check; useful when the caller already
        knows the query is not certain (this turns the problem NP-complete,
        as noted in Proposition 4.1).  The enumeration only guesses mappings
        in which the access supplies a missing subgoal, which loses no
        witness exactly when the query is not certain.
    max_assignments:
        Optional cap on the number of guessed assignments (for benchmarks).
    """
    if not query.is_boolean:
        raise QueryError(
            "immediate relevance is defined for Boolean queries; reduce non-"
            "Boolean queries first (Proposition 2.2)"
        )
    if not assume_not_certain and is_certain(query, configuration):
        return False

    variable_domains = query.variable_domains()
    atom_feasible = None
    if isinstance(query, ConjunctiveQuery):
        # For a conjunction every subgoal must be witnessed, so branches with
        # an unwitnessable ground atom can be pruned inside the enumeration.
        # Positive queries have disjunctive structure and cannot prune
        # per-atom.
        atoms = query.atoms

        def atom_feasible(atom_index: int, values) -> bool:
            return _atom_witnessed(atoms[atom_index], values, configuration, access)

    for grounding in iter_witness_assignments(
        query.atoms,
        variable_domains,
        configuration,
        access,
        fresh_per_domain=1,
        max_assignments=max_assignments,
        atom_feasible=atom_feasible,
    ):
        # Equal atoms ground equally, so the image is keyed by the atom.
        image = dict(zip(query.atoms, grounding))

        def witnessed(atom: Atom) -> bool:
            return _atom_witnessed(atom, image[atom], configuration, access)

        if _structure_holds(query, witnessed):
            return True
    return False
