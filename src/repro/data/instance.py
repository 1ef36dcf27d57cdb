"""Database instances and facts.

An *instance* assigns a finite set of tuples to every relation of a schema.
Instances play two roles in the paper and in this library:

* the *source instance* ``I``: the hidden content of the data sources, only
  observable through accesses;
* *configurations* (see :mod:`repro.data.configuration`): the part of ``I``
  already revealed by past accesses.  A configuration is itself an instance,
  with extra bookkeeping.

Instances are *indexed*: every relation maintains a hash index from
``(place, constant)`` to the set of tuples carrying that constant at that
place.  The homomorphism search (:mod:`repro.queries.homomorphism`) and the
Datalog engine (:mod:`repro.datalog.engine`) use these indexes to look up only
the tuples compatible with the values already bound, instead of scanning whole
relations.  The active domain and the per-relation tuple sets are cached and
invalidated incrementally, and every instance maintains an order-independent
content *fingerprint* used by the memoization layer in :mod:`repro.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass
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

from repro.data.indexing import (
    candidates_from_index,
    fact_hash,
    index_add,
    index_discard,
)
from repro.exceptions import SchemaError
from repro.schema import AbstractDomain, Relation, Schema

__all__ = ["Fact", "Instance"]


@dataclass(frozen=True)
class Fact:
    """A ground fact: a relation name together with a tuple of values."""

    relation: str
    values: Tuple[object, ...]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        rendered = ", ".join(repr(value) for value in self.values)
        return f"{self.relation}({rendered})"


#: Index of one relation: ``(place, constant) -> set of tuples``.
_RelationIndex = Dict[Tuple[int, object], Set[Tuple[object, ...]]]


class Instance:
    """A finite relational instance over a schema.

    The instance validates arity (and enumerated-domain membership) of every
    tuple it stores.  Tuples are stored as plain Python tuples; the abstract
    domain of a value is implied by the place it occupies.
    """

    def __init__(
        self,
        schema: Schema,
        facts: Union[Mapping[str, Iterable[Sequence[object]]], Iterable[Fact], None] = None,
    ) -> None:
        self._schema = schema
        self._tuples: Dict[str, Set[Tuple[object, ...]]] = {
            relation.name: set() for relation in schema.relations
        }
        self._indexes: Dict[str, _RelationIndex] = {
            relation.name: {} for relation in schema.relations
        }
        # Reference counts of (value, domain) pairs over all stored tuples,
        # kept incrementally so ``active_domain`` is O(1) amortised.
        self._adom_counts: Dict[Tuple[object, AbstractDomain], int] = {}
        self._adom_cache: Optional[FrozenSet[Tuple[object, AbstractDomain]]] = None
        self._pools_cache: Optional[Dict[AbstractDomain, Tuple[object, ...]]] = None
        # Per-relation frozen views of the tuple sets, invalidated on mutation.
        self._frozen: Dict[str, Optional[FrozenSet[Tuple[object, ...]]]] = {}
        # Order-independent content hash (xor of per-fact hashes).
        self._content_hash = 0
        self._size = 0
        if facts is None:
            return
        if isinstance(facts, Mapping):
            for relation_name, rows in facts.items():
                for row in rows:
                    self.add(relation_name, row)
        else:
            for fact in facts:
                self.add(fact.relation, fact.values)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The schema this instance is defined over."""
        return self._schema

    def tuples(self, relation: Union[str, Relation]) -> FrozenSet[Tuple[object, ...]]:
        """The set of tuples currently stored for ``relation``."""
        name = relation if isinstance(relation, str) else relation.name
        if name not in self._tuples:
            raise SchemaError(f"unknown relation {name!r}")
        frozen = self._frozen.get(name)
        if frozen is None:
            frozen = frozenset(self._tuples[name])
            self._frozen[name] = frozen
        return frozen

    def tuples_matching(
        self, relation: Union[str, Relation], bound: Mapping[int, object]
    ) -> Iterable[Tuple[object, ...]]:
        """Tuples of ``relation`` agreeing with ``bound`` (``place -> value``).

        Served from the per-(place, constant) index: the smallest matching
        bucket is scanned and filtered on the remaining bound places.  The
        result is a snapshot: instances (notably configurations held as live
        views) may be mutated while a caller is still iterating lazily over
        matches, so internal sets are never returned directly.
        """
        name = relation if isinstance(relation, str) else relation.name
        if name not in self._tuples:
            raise SchemaError(f"unknown relation {name!r}")
        return candidates_from_index(
            self._tuples[name], self._indexes[name], bound, snapshot=True
        )

    def relation_size(self, relation: Union[str, Relation]) -> int:
        """Number of tuples stored for ``relation``."""
        name = relation if isinstance(relation, str) else relation.name
        if name not in self._tuples:
            raise SchemaError(f"unknown relation {name!r}")
        return len(self._tuples[name])

    def facts(self) -> Iterator[Fact]:
        """Iterate over all facts of the instance."""
        for relation_name in self._tuples:
            for values in sorted(self._tuples[relation_name], key=repr):
                yield Fact(relation_name, values)

    def contains(self, relation: Union[str, Relation], values: Sequence[object]) -> bool:
        """Whether ``relation(values)`` is a fact of the instance."""
        name = relation if isinstance(relation, str) else relation.name
        if name not in self._tuples:
            raise SchemaError(f"unknown relation {name!r}")
        return tuple(values) in self._tuples[name]

    def __contains__(self, fact: Fact) -> bool:
        return self.contains(fact.relation, fact.values)

    def size(self) -> int:
        """Total number of facts."""
        return self._size

    def __len__(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        """Whether the instance has no facts at all."""
        return self._size == 0

    def fingerprint(self) -> Tuple[int, int]:
        """An order-independent content fingerprint.

        Two instances over the same schema with the same facts always have
        equal fingerprints; distinct contents collide only with hash-collision
        probability.  Stable within a process (not across processes), which is
        what the in-memory caches of :mod:`repro.runtime` need.
        """
        return (self._size, self._content_hash)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, relation: Union[str, Relation], values: Sequence[object]) -> bool:
        """Add a fact, returning ``True`` if it was new."""
        name = relation if isinstance(relation, str) else relation.name
        rel = self._schema.relation(name)
        row = tuple(values)
        rows = self._tuples[name]
        if row in rows:
            # Already validated when first added; skip re-validation.
            return False
        rel.check_values(row)
        rows.add(row)
        index_add(self._indexes[name], row)
        counts = self._adom_counts
        for place, value in enumerate(row):
            pair = (value, rel.domain_of(place))
            previous = counts.get(pair, 0)
            counts[pair] = previous + 1
            if previous == 0:
                self._invalidate_adom()
        self._frozen[name] = None
        self._content_hash ^= fact_hash(name, row)
        self._size += 1
        return True

    def add_fact(self, fact: Fact) -> bool:
        """Add a :class:`Fact`, returning ``True`` if it was new."""
        return self.add(fact.relation, fact.values)

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Add many facts; return how many were new."""
        return sum(1 for fact in facts if self.add_fact(fact))

    def remove(self, relation: Union[str, Relation], values: Sequence[object]) -> bool:
        """Remove a fact, returning ``True`` if it was present."""
        name = relation if isinstance(relation, str) else relation.name
        if name not in self._tuples:
            raise SchemaError(f"unknown relation {name!r}")
        row = tuple(values)
        rows = self._tuples[name]
        if row not in rows:
            return False
        rows.remove(row)
        rel = self._schema.relation(name)
        index_discard(self._indexes[name], row)
        counts = self._adom_counts
        for place, value in enumerate(row):
            pair = (value, rel.domain_of(place))
            remaining = counts.get(pair, 0) - 1
            if remaining <= 0:
                counts.pop(pair, None)
                self._invalidate_adom()
            else:
                counts[pair] = remaining
        self._frozen[name] = None
        self._content_hash ^= fact_hash(name, row)
        self._size -= 1
        return True

    def _invalidate_adom(self) -> None:
        self._adom_cache = None
        self._pools_cache = None

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def wire_facts(self) -> Dict[str, Tuple[Tuple[object, ...], ...]]:
        """The facts as a compact, deterministically ordered mapping.

        This is the instance's wire format: relation name to sorted tuple of
        rows, with empty relations omitted.  It is what :meth:`__reduce__`
        ships across a pickle boundary (the per-place indexes, caches, and
        fingerprint are rebuilt on the receiving side) and what the stable
        digests of :mod:`repro.runtime.serialize` hash.
        """
        return {
            name: tuple(sorted(rows, key=repr))
            for name, rows in self._tuples.items()
            if rows
        }

    def __reduce__(self):
        # Ship schema + facts, not the internal indexes: the constructor
        # re-derives indexes, caches, and the content fingerprint, so an
        # unpickled instance is indistinguishable from one built fresh in the
        # receiving process (in particular its fingerprint uses that
        # process's string hashing).
        return (self.__class__, (self._schema, self.wire_facts()))

    # ------------------------------------------------------------------ #
    # Set-like operations
    # ------------------------------------------------------------------ #
    def copy(self) -> "Instance":
        """A deep copy (sharing the schema)."""
        clone = Instance(self._schema)
        self._copy_storage_into(clone)
        return clone

    def _copy_storage_into(self, clone: "Instance") -> None:
        """Duplicate the tuple sets, indexes, and caches into ``clone``."""
        clone._tuples = {name: set(rows) for name, rows in self._tuples.items()}
        clone._indexes = {
            name: {key: set(bucket) for key, bucket in index.items()}
            for name, index in self._indexes.items()
        }
        clone._adom_counts = dict(self._adom_counts)
        clone._adom_cache = self._adom_cache
        clone._pools_cache = self._pools_cache
        clone._frozen = dict(self._frozen)
        clone._content_hash = self._content_hash
        clone._size = self._size

    def union(self, other: "Instance") -> "Instance":
        """A new instance containing the facts of both instances."""
        merged = self.copy()
        for fact in other.facts():
            merged.add_fact(fact)
        return merged

    def issubset(self, other: "Instance") -> bool:
        """Whether every fact of this instance is in ``other``."""
        for relation_name, rows in self._tuples.items():
            if not rows <= other._tuples.get(relation_name, set()):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._tuples == other._tuples

    def __hash__(self) -> int:  # pragma: no cover - instances are mutable
        raise TypeError("Instance objects are mutable and unhashable")

    # ------------------------------------------------------------------ #
    # Active domain
    # ------------------------------------------------------------------ #
    def active_domain(self) -> FrozenSet[Tuple[object, AbstractDomain]]:
        """Constants appearing in the instance, paired with their abstract domains.

        Following the paper, the active domain is a set of pairs
        ``(value, domain)``: the same value occurring at attributes of two
        different domains yields two entries.  The set is maintained
        incrementally, so repeated calls are cheap.
        """
        cached = self._adom_cache
        if cached is None:
            cached = frozenset(self._adom_counts)
            self._adom_cache = cached
        return cached

    def active_values_by_domain(self) -> Dict[AbstractDomain, Tuple[object, ...]]:
        """Active-domain values grouped by domain, each group sorted by ``repr``.

        Cached together with :meth:`active_domain`; the returned mapping and
        tuples must not be mutated.
        """
        pools = self._pools_cache
        if pools is None:
            grouped: Dict[AbstractDomain, list] = {}
            for value, domain in self.active_domain():
                grouped.setdefault(domain, []).append(value)
            pools = {
                domain: tuple(sorted(values, key=repr))
                for domain, values in grouped.items()
            }
            self._pools_cache = pools
        return pools

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for relation_name, rows in self._tuples.items():
            if rows:
                parts.append(f"{relation_name}:{len(rows)}")
        return f"Instance({', '.join(parts) or 'empty'})"
