"""The one bounded LRU map, shared by every layer.

Imports nothing from :mod:`repro`, so the lowest layers use it at module
top: :mod:`repro.core.longterm_dependent` keeps the Proposition 3.5 memo in
one, and :class:`~repro.runtime.cache.RelevanceOracle` its verdicts,
witnesses and LTR history.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional

__all__ = ["LRUCache"]


class LRUCache:
    """A small LRU map with hit/miss accounting, safe under concurrent use.

    A single internal lock serialises structural mutation (lookup refreshes
    recency, so even ``get`` mutates).  ``hits`` and ``misses`` count the
    :meth:`get` probes.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``key`` and evict the least-recently-used overflow."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self._max_entries is not None:
                while len(self._entries) > self._max_entries:
                    self._entries.popitem(last=False)

    def peek(self, key: Hashable) -> object:
        """``key``'s value or ``None``, without refreshing recency or
        counting a probe."""
        with self._lock:
            return self._entries.get(key)

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present (no recency or hit/miss accounting)."""
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry; ``hits`` and ``misses`` keep counting."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
