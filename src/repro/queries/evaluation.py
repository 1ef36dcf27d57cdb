"""Query evaluation over fact stores (instances, configurations, canonical
instances).

Evaluation of conjunctive queries is a homomorphism search run from the
query's compiled :attr:`~repro.queries.cq.ConjunctiveQuery.join_plan`;
positive queries are evaluated structurally (so no DNF blow-up is paid at
evaluation time), each atom node from its own one-atom plan.
Both Boolean and non-Boolean queries are supported; non-Boolean evaluation
returns the set of answer tuples, i.e. the projections of the satisfying
assignments onto the free variables.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Mapping, Optional, Set, Tuple, Union

from repro.exceptions import QueryError
from repro.queries.cq import ConjunctiveQuery
from repro.queries.homomorphism import FactStore
from repro.queries.pq import AndNode, AtomNode, OrNode, PQNode, PositiveQuery
from repro.queries.terms import Variable

__all__ = [
    "Query",
    "evaluate_boolean",
    "evaluate",
    "satisfying_assignments",
]

Query = Union[ConjunctiveQuery, PositiveQuery]


# --------------------------------------------------------------------------- #
# Conjunctive queries
# --------------------------------------------------------------------------- #
def _cq_assignments(
    query: ConjunctiveQuery,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[Variable, object]]:
    yield from query.join_plan.solutions(data, partial, limit)


# --------------------------------------------------------------------------- #
# Positive queries: structural evaluation
# --------------------------------------------------------------------------- #
def _node_assignments(
    node: PQNode,
    data: FactStore,
    assignment: Dict[Variable, object],
) -> Iterator[Dict[Variable, object]]:
    """Yield assignments (extending ``assignment``) that satisfy ``node``.

    Disjunction yields the union of the children's assignments; conjunction
    threads assignments left to right.  Duplicates may be produced; callers
    deduplicate when materialising answer sets.
    """
    if isinstance(node, AtomNode):
        yield from node.join_plan.solutions(data, assignment)
    elif isinstance(node, AndNode):
        def conjoin(index: int, current: Dict[Variable, object]) -> Iterator[Dict[Variable, object]]:
            if index == len(node.children):
                yield current
                return
            for extended in _node_assignments(node.children[index], data, current):
                yield from conjoin(index + 1, extended)

        yield from conjoin(0, assignment)
    elif isinstance(node, OrNode):
        for child in node.children:
            yield from _node_assignments(child, data, assignment)
    else:  # pragma: no cover - defensive
        raise QueryError(f"unknown positive-query node type: {type(node)!r}")


def satisfying_assignments(
    query: Query,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[Variable, object]]:
    """Enumerate satisfying assignments of a CQ or PQ over ``data``."""
    if isinstance(query, ConjunctiveQuery):
        yield from _cq_assignments(query, data, partial, limit)
        return
    if isinstance(query, PositiveQuery):
        produced = 0
        for assignment in _node_assignments(query.root, data, dict(partial or {})):
            yield assignment
            produced += 1
            if limit is not None and produced >= limit:
                return
        return
    raise QueryError(f"unsupported query type: {type(query)!r}")


# --------------------------------------------------------------------------- #
# Public evaluation API
# --------------------------------------------------------------------------- #
def evaluate_boolean(
    query: Query,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
) -> bool:
    """Whether a Boolean query (or a query read as Boolean) holds in ``data``."""
    if isinstance(query, ConjunctiveQuery):
        return query.join_plan.exists(data, partial)
    for _ in satisfying_assignments(query, data, partial, limit=1):
        return True
    return False


def evaluate(
    query: Query,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
) -> FrozenSet[Tuple[object, ...]]:
    """Evaluate a query and return its answer set.

    Boolean queries return ``frozenset({()})`` when true and ``frozenset()``
    when false, mirroring relational-algebra conventions.
    """
    free = query.free_variables
    answers: Set[Tuple[object, ...]] = set()
    for assignment in satisfying_assignments(query, data, partial):
        try:
            answers.add(tuple(assignment[variable] for variable in free))
        except KeyError as missing:
            raise QueryError(
                f"unsafe query {query.name!r}: free variable {missing} is not "
                f"bound by every disjunct"
            ) from None
        if not free:
            break
    return frozenset(answers)
