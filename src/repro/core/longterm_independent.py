"""Long-term relevance for independent access methods (Section 4).

Two procedures are provided:

* :func:`is_ltr_single_occurrence` — the polynomial component-based algorithm
  of Proposition 4.3, valid for conjunctive queries in which the accessed
  relation occurs exactly once;
* :func:`is_ltr_independent` — the general Σ₂ᵖ guess-and-check of
  Proposition 4.5, valid for conjunctive and positive queries with repeated
  relations.

Both assume every access method of the schema is independent (values can be
guessed freely), which is what makes a witness path prunable to the subgoals
of the query.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import (
    ConjunctiveQuery,
    PositiveQuery,
    has_homomorphism,
    is_certain,
)
from repro.core.assignments import (
    holds_after_adding,
    iter_witness_assignments,
    split_grounding,
    unify_terms,
    witnessable_atom_checker,
)
from repro.schema import Access, Schema

__all__ = ["is_ltr_single_occurrence", "is_ltr_independent"]


# --------------------------------------------------------------------------- #
# Proposition 4.3: single occurrence of the accessed relation
# --------------------------------------------------------------------------- #
def is_ltr_single_occurrence(
    query: ConjunctiveQuery,
    access: Access,
    configuration: Configuration,
) -> bool:
    """Proposition 4.3's polynomial case: the accessed relation occurs once.

    As in the paper, every relation of the query is assumed to carry at least
    one (independent) access method, so every subgoal other than the accessed
    one can be witnessed by later accesses with fresh values.  A witness path
    can then be normalised to: the probed access returning the image of the
    accessed subgoal (with the binding at the input places and fresh values
    elsewhere), followed by accesses returning the images of all other
    subgoals with maximally fresh values.  The access is long-term relevant
    iff the binding unifies with the accessed subgoal and the query does *not*
    hold on the truncation of that path — the configuration plus the frozen
    images of the other subgoals — which is a single homomorphism check.
    """
    if not isinstance(query, ConjunctiveQuery):
        raise QueryError("the single-occurrence algorithm only applies to CQs")
    if not query.is_boolean:
        raise QueryError("long-term relevance is defined for Boolean queries")
    relation_name = access.relation.name
    occurrences = query.atoms_over(relation_name)
    if len(occurrences) != 1:
        raise QueryError(
            f"relation {relation_name!r} occurs {len(occurrences)} times in the "
            f"query; the single-occurrence algorithm requires exactly one"
        )
    accessed_atom = occurrences[0]
    binding = access.binding_by_place
    substitution = unify_terms(
        [accessed_atom.terms[place] for place in binding], tuple(binding.values())
    )
    if substitution is None:
        return False

    # Build the truncation of the normalised witness path: the configuration
    # plus the frozen images of every subgoal except the accessed one, with
    # the binding substituted in (shared variables of the accessed subgoal are
    # forced to the binding values there).
    substituted = query.substitute(substitution)
    accessed_after = accessed_atom.substitute(substitution)
    other_atoms = [atom for atom in substituted.atoms if atom != accessed_after]
    if len(other_atoms) == len(substituted.atoms):
        # The substituted accessed atom coincides with another subgoal; drop
        # one occurrence explicitly.
        other_atoms = list(substituted.atoms)
        other_atoms.remove(accessed_after)

    from repro.queries.homomorphism import CanonicalInstance

    truncation = CanonicalInstance()
    for fact in configuration.facts():
        truncation.add(fact.relation, fact.values)
    frozen = {
        variable: f"_ltr_fresh_{variable.name}"
        for atom in other_atoms
        for variable in atom.variables
    }
    for atom in other_atoms:
        truncation.add(atom.relation.name, atom.ground_values(frozen))
    return not has_homomorphism(query.join_plan, truncation)


# --------------------------------------------------------------------------- #
# Proposition 4.5: the general Σ₂ᵖ procedure
# --------------------------------------------------------------------------- #
def _disjuncts(query) -> Sequence[ConjunctiveQuery]:
    if isinstance(query, ConjunctiveQuery):
        return (query,)
    if isinstance(query, PositiveQuery):
        return query.to_ucq()
    raise QueryError(f"unsupported query type {type(query)!r}")


def is_ltr_independent(
    query,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    *,
    assume_not_certain: bool = False,
    max_assignments: Optional[int] = None,
) -> bool:
    """Decide long-term relevance when every access method is independent.

    The procedure enumerates, per disjunct ``D`` of the query, assignments of
    the variables of ``D`` into the active domain plus fresh constants; each
    subgoal is then witnessed by the configuration, by the first access
    (when compatible with the binding), or by a later access (when its
    relation has an access method).  The guess is accepted when ``D`` is fully
    witnessed and the *whole* query is still false on the configuration
    extended with only the later-access facts — i.e. on the truncated path.

    The classification is by priority (configuration, then first access, then
    later accesses); by monotonicity of positive queries this is without loss
    of generality.

    The truncated-path check is the delta check
    :func:`~repro.core.assignments.holds_after_adding`, whose precondition is
    that the query is false on ``configuration``: a caller passing
    ``assume_not_certain=True`` guarantees exactly that.
    """
    if not query.is_boolean:
        raise QueryError("long-term relevance is defined for Boolean queries")
    if not assume_not_certain and is_certain(query, configuration):
        return False

    disjuncts = _disjuncts(query)
    for disjunct in disjuncts:
        fresh_count = max(1, len(disjunct.variables))
        for grounding in iter_witness_assignments(
            disjunct.atoms,
            disjunct.variable_domains(),
            configuration,
            access,
            schema=schema,
            fresh_per_domain=fresh_count,
            max_assignments=max_assignments,
            atom_feasible=witnessable_atom_checker(
                disjunct.atoms, configuration, schema, access
            ),
        ):
            _first, later_facts = split_grounding(
                disjunct.atoms, grounding, configuration, access
            )
            if not holds_after_adding(disjuncts, configuration, later_facts):
                return True
    return False
