"""Static (ab-initio) query planning under access patterns.

This is the baseline the paper contrasts with: prior work (Rajaraman, Sagiv,
Ullman; Li and Chang) asks whether a query can be answered by a *fixed* plan
that respects the binding patterns, without looking at the configuration.

A conjunctive query is *executable* (feasible) when its subgoals can be
ordered so that each subgoal is answered through some access method whose
input places are, at that point of the plan, bound by constants of the query
or by variables occurring in earlier subgoals.  :func:`find_executable_order`
searches for such an ordering; :func:`is_feasible` is the Boolean version.

When no executable ordering exists, the dynamic strategies of
:mod:`repro.planner.dynamic` may still produce the complete answer by using
values discovered at run time — that contrast is what
``benchmarks/bench_dynamic_answering.py`` measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.queries import ConjunctiveQuery
from repro.queries.atoms import Atom
from repro.queries.terms import Variable, is_variable
from repro.schema import AccessMethod, Schema

__all__ = ["PlanStep", "ExecutablePlan", "find_executable_order", "is_feasible"]


@dataclass(frozen=True)
class PlanStep:
    """One step of a static plan: answer ``atom`` through ``method``."""

    atom: Atom
    method: AccessMethod


@dataclass(frozen=True)
class ExecutablePlan:
    """An executable ordering of the query's subgoals."""

    query: ConjunctiveQuery
    steps: Tuple[PlanStep, ...]


def _atom_answerable(
    atom: Atom, method: AccessMethod, bound_variables: Set[Variable]
) -> bool:
    """Whether ``atom`` can be answered by ``method`` given bound variables.

    Every input place of the method must carry either a constant of the atom
    or a variable that is already bound.  Independent methods have no such
    requirement (any value can be guessed).
    """
    if method.relation.name != atom.relation.name:
        return False
    if not method.dependent:
        return True
    for place in method.input_places:
        term = atom.terms[place]
        if is_variable(term) and term not in bound_variables:
            return False
    return True


def find_executable_order(
    query: ConjunctiveQuery, schema: Schema
) -> Optional[ExecutablePlan]:
    """Search for an executable ordering of the query's subgoals.

    Greedy with backtracking: at each step, pick a remaining subgoal
    answerable with the currently bound variables; after answering it, all of
    its variables become bound.
    """
    if not isinstance(query, ConjunctiveQuery):
        raise QueryError("static planning is implemented for conjunctive queries")

    def backtrack(
        remaining: List[Atom], bound: Set[Variable], steps: List[PlanStep]
    ) -> Optional[List[PlanStep]]:
        if not remaining:
            return steps
        for index, atom in enumerate(remaining):
            for method in schema.methods_for(atom.relation.name):
                if not _atom_answerable(atom, method, bound):
                    continue
                next_remaining = remaining[:index] + remaining[index + 1 :]
                next_bound = bound | set(atom.variables)
                result = backtrack(
                    next_remaining, next_bound, steps + [PlanStep(atom, method)]
                )
                if result is not None:
                    return result
        return None

    steps = backtrack(list(query.atoms), set(), [])
    if steps is None:
        return None
    return ExecutablePlan(query, tuple(steps))


def is_feasible(query: ConjunctiveQuery, schema: Schema) -> bool:
    """Whether the query admits a static executable plan."""
    return find_executable_order(query, schema) is not None
