"""Classical query containment (no access limitations).

This is the textbook notion used as a baseline and inside several reductions:

* containment of conjunctive queries is decided with the Chandra–Merlin
  homomorphism criterion (freeze the contained query, evaluate the containing
  query on the canonical instance);
* containment of unions of conjunctive queries reduces to containing each
  disjunct;
* containment of positive queries goes through the DNF of the contained query
  (the containing query is evaluated structurally, so only one side pays the
  DNF cost).

Containment *under access limitations* — the notion the paper studies — lives
in :mod:`repro.core.containment` and behaves very differently (Example 3.2).
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.exceptions import QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import Query, evaluate_boolean
from repro.queries.homomorphism import freeze_query
from repro.queries.pq import disjuncts

__all__ = [
    "cq_contained_in",
    "ucq_contained_in",
    "contained_in",
]


def _check_same_arity(query1: Query, query2: Query) -> None:
    if len(query1.free_variables) != len(query2.free_variables):
        raise QueryError(
            "containment requires queries of the same arity: "
            f"{len(query1.free_variables)} vs {len(query2.free_variables)}"
        )


def cq_contained_in(query1: ConjunctiveQuery, query2: ConjunctiveQuery) -> bool:
    """Chandra–Merlin containment test ``query1 ⊑ query2``.

    Freeze ``query1``; ``query1 ⊑ query2`` iff the frozen head of ``query1``
    is an answer of ``query2`` on the canonical instance.
    """
    _check_same_arity(query1, query2)
    store, assignment = freeze_query(query1)
    partial = {
        variable2: assignment[variable1]
        for variable1, variable2 in zip(query1.free_variables, query2.free_variables)
    }
    return evaluate_boolean(query2, store, partial)


def ucq_contained_in(
    disjuncts1: Sequence[ConjunctiveQuery], query2: Query
) -> bool:
    """Containment of a union of CQs in an arbitrary (positive) query."""
    for disjunct in disjuncts1:
        store, assignment = freeze_query(disjunct)
        partial = {
            variable2: assignment[variable1]
            for variable1, variable2 in zip(
                disjunct.free_variables, query2.free_variables
            )
        }
        if not evaluate_boolean(query2, store, partial):
            return False
    return True


def contained_in(query1: Query, query2: Query) -> bool:
    """Classical containment ``query1 ⊑ query2`` for CQs and positive queries."""
    _check_same_arity(query1, query2)
    return ucq_contained_in(disjuncts(query1), query2)
