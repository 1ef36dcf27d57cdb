"""Shared (place, constant) index lookup.

All indexed fact stores in this library (:class:`~repro.data.instance.Instance`,
:class:`~repro.queries.homomorphism.CanonicalInstance`, the Datalog engine's
:class:`~repro.datalog.engine.IndexedDatabase`) keep, per relation, a hash
index ``(place, constant) -> set of rows``.  This module centralises the
lookup strategy: pick the smallest bucket among the bound places, then filter
it on the remaining bound places.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

__all__ = [
    "candidates_from_index",
    "fact_hash",
    "index_add",
    "index_discard",
]

_EMPTY: Tuple[Tuple[object, ...], ...] = ()


def candidates_from_index(
    rows: Iterable[Tuple[object, ...]],
    index: Mapping[Tuple[int, object], Set[Tuple[object, ...]]],
    bound: Mapping[int, object],
    *,
    snapshot: bool = False,
) -> Iterable[Tuple[object, ...]]:
    """Rows agreeing with ``bound`` (``place -> value``), served from ``index``.

    ``rows`` is the full row set (returned when nothing is bound).  With
    ``snapshot=True`` the aliasing paths return an immutable copy, so callers
    may keep iterating while the underlying store is mutated; with
    ``snapshot=False`` internal sets may be returned directly and must
    neither be mutated nor iterated across store mutations.

    Rows shorter than a bound place are filtered out (mixed-arity stores);
    schema-validated stores never hit that guard.
    """
    if not bound:
        return tuple(rows) if snapshot else rows
    best: Optional[Set[Tuple[object, ...]]] = None
    for place, value in bound.items():
        bucket = index.get((place, value))
        if bucket is None:
            return _EMPTY
        if best is None or len(bucket) < len(best):
            best = bucket
    assert best is not None
    if len(bound) == 1:
        return tuple(best) if snapshot else best
    return [
        row
        for row in best
        if all(
            place < len(row) and row[place] == value
            for place, value in bound.items()
        )
    ]


_HASH_MASK = (1 << 64) - 1


def fact_hash(label: str, row: Tuple[object, ...]) -> int:
    """A 64-bit content hash of one fact, safe to XOR-accumulate.

    CPython reserves ``-1`` as an error sentinel, so ``hash(-1) == hash(-2)``
    — and tuple hashing inherits that collision, making ``('R', (-1,))`` and
    ``('R', (-2,))`` hash equal *deterministically*.  Fingerprints built from
    plain ``hash`` would therefore confuse ordinary integer data.  This
    combiner feeds raw integer values (exact ``int`` only, not ``bool``)
    into a polynomial accumulator instead, leaving only the generic
    hash-collision probability.
    """
    acc = hash(label)
    for value in row:
        part = value if type(value) is int else hash(value)
        acc = (acc * 1000003 + part) & _HASH_MASK
    return acc


def index_add(
    index: Dict[Tuple[int, object], Set[Tuple[object, ...]]],
    row: Tuple[object, ...],
) -> None:
    """Register ``row`` under every ``(place, value)`` key of ``index``."""
    for place, value in enumerate(row):
        bucket = index.get((place, value))
        if bucket is None:
            index[(place, value)] = {row}
        else:
            bucket.add(row)


def index_discard(
    index: Dict[Tuple[int, object], Set[Tuple[object, ...]]],
    row: Tuple[object, ...],
) -> None:
    """Remove ``row`` from every ``(place, value)`` bucket, dropping empties."""
    for place, value in enumerate(row):
        bucket = index.get((place, value))
        if bucket is not None:
            bucket.discard(row)
            if not bucket:
                del index[(place, value)]
