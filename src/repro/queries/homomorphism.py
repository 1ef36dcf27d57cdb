"""Homomorphism search: the engine underneath evaluation and containment.

A homomorphism from a set of atoms into a fact store is an assignment of the
variables to values such that every atom, once ground, is a fact of the store.
The search runs the compiled join of :mod:`repro.queries.join`: the body
becomes a :class:`~repro.queries.join.JoinPlan` with integer variable slots,
and every search orders the atoms by one rule (fewest unbound variable
places first, then the smallest relation, then the earliest atom).  The
public functions accept atoms or a plan.  Plans live on their owners: a
:class:`ConjunctiveQuery` keeps ``join_plan`` (and, for the delta check, one
plan per removed atom), a positive query's atom node and a Datalog rule keep
theirs.  A bare atom sequence compiles a plan per call.

Fact stores that expose a ``tuples_matching(relation_name, bound)`` method
(see :class:`~repro.data.instance.Instance` and :class:`CanonicalInstance`)
are joined through their (place, constant) indexes: at every step only the
tuples compatible with the constants and already-bound variables of the atom
are enumerated.  Stores exposing only ``tuples`` are scanned and filtered, so
any mapping-backed store keeps working; both paths skip rows of the wrong
arity.

The module also provides :class:`CanonicalInstance`, a lightweight fact store
used for canonical databases of queries: unlike
:class:`~repro.data.instance.Instance`, it skips domain validation, because
frozen variables are fresh symbols that enumerated domains would reject.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.data.indexing import candidates_from_index, index_add
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.join import JoinPlan
from repro.queries.terms import Variable

__all__ = [
    "CanonicalInstance",
    "FactStore",
    "find_homomorphisms",
    "find_homomorphism",
    "has_homomorphism",
    "canonical_instance",
    "freeze_query",
]

_EMPTY: Tuple[Tuple[object, ...], ...] = ()


class CanonicalInstance:
    """A minimal indexed fact store: relation names to sets of tuples.

    Exposes the same ``tuples`` / ``tuples_matching`` interface as
    :class:`~repro.data.instance.Instance`, which is all the homomorphism
    search needs.
    """

    def __init__(
        self, facts: Optional[Mapping[str, Iterable[Tuple[object, ...]]]] = None
    ) -> None:
        self._tuples: Dict[str, Set[Tuple[object, ...]]] = {}
        self._indexes: Dict[str, Dict[Tuple[int, object], Set[Tuple[object, ...]]]] = {}
        if facts:
            for relation_name, rows in facts.items():
                for row in rows:
                    self.add(relation_name, row)

    def add(self, relation_name: str, values: Sequence[object]) -> None:
        """Add a fact without any validation."""
        row = tuple(values)
        rows = self._tuples.setdefault(relation_name, set())
        if row in rows:
            return
        rows.add(row)
        index_add(self._indexes.setdefault(relation_name, {}), row)

    def tuples(self, relation: Union[str, object]) -> FrozenSet[Tuple[object, ...]]:
        """Tuples stored for the relation (empty if unknown)."""
        name = relation if isinstance(relation, str) else getattr(relation, "name")
        return frozenset(self._tuples.get(name, set()))

    def tuples_matching(
        self, relation: Union[str, object], bound: Mapping[int, object]
    ) -> Iterable[Tuple[object, ...]]:
        """Tuples agreeing with ``bound`` (``place -> value``), via the index.

        Canonical instances follow a build-then-query lifecycle, so internal
        sets may be returned directly; do not mutate them, and do not mutate
        the store while iterating lazily over matches.
        """
        name = relation if isinstance(relation, str) else getattr(relation, "name")
        rows = self._tuples.get(name)
        if rows is None:
            return _EMPTY
        return candidates_from_index(rows, self._indexes.get(name, {}), bound)

    def contains(self, relation_name: str, values: Sequence[object]) -> bool:
        """Whether the fact is stored."""
        return tuple(values) in self._tuples.get(relation_name, set())

    def relation_names(self) -> FrozenSet[str]:
        """Names of the relations having at least one fact."""
        return frozenset(name for name, rows in self._tuples.items() if rows)

    def relation_size(self, relation: Union[str, object]) -> int:
        """Number of tuples stored for the relation (0 if unknown)."""
        name = relation if isinstance(relation, str) else getattr(relation, "name")
        return len(self._tuples.get(name, ()))

    def size(self) -> int:
        """Total number of facts."""
        return sum(len(rows) for rows in self._tuples.values())

    def copy(self) -> "CanonicalInstance":
        """A shallow copy."""
        return CanonicalInstance(self._tuples)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CanonicalInstance(size={self.size()})"


#: Anything exposing ``tuples(relation_name_or_relation) -> iterable of tuples``.
FactStore = object

#: A join body: atoms, or the :class:`~repro.queries.join.JoinPlan` compiled
#: from them.
Body = Union[Sequence[Atom], JoinPlan]


def _plan(atoms: Body) -> JoinPlan:
    # A bare atom sequence compiles a plan per call; the hot paths pass the
    # plan their query, node or disjunct keeps.
    return atoms if isinstance(atoms, JoinPlan) else JoinPlan.of_atoms(atoms)


def find_homomorphisms(
    atoms: Body,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[Variable, object]]:
    """Enumerate homomorphisms of ``atoms`` (or their plan) into ``data``.

    ``partial`` pre-binds some variables; ``limit`` stops the enumeration
    after the given number of homomorphisms.  Each homomorphism is a new
    dict: ``partial``'s keys first, then the other variables in the order
    the join binds them.
    """
    return _plan(atoms).solutions(data, partial, limit)


def find_homomorphism(
    atoms: Body,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
) -> Optional[Dict[Variable, object]]:
    """The first homomorphism found, or ``None``."""
    for homomorphism in find_homomorphisms(atoms, data, partial, limit=1):
        return homomorphism
    return None


def has_homomorphism(
    atoms: Body,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
) -> bool:
    """Whether at least one homomorphism exists."""
    return _plan(atoms).exists(data, partial)


def freeze_query(
    query: ConjunctiveQuery, prefix: str = "_frozen_"
) -> Tuple[CanonicalInstance, Dict[Variable, object]]:
    """Freeze a conjunctive query into its canonical instance.

    Returns the canonical instance together with the assignment mapping each
    variable to its frozen constant.
    """
    assignment = {
        variable: f"{prefix}{variable.name}" for variable in query.variables
    }
    store = CanonicalInstance()
    for atom in query.atoms:
        store.add(atom.relation.name, atom.ground_values(assignment))
    return store, assignment


def canonical_instance(query: ConjunctiveQuery, prefix: str = "_frozen_") -> CanonicalInstance:
    """The canonical instance (frozen body) of a conjunctive query."""
    store, _ = freeze_query(query, prefix)
    return store
