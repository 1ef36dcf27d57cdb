"""Fresh constant generation for witness construction.

Witnesses to non-containment and to long-term relevance populate the virtual
database with values that do not occur in the initial configuration.  For
infinite abstract domains any new symbol will do; for enumerated domains
(Booleans, tile types, ...) "fresh" values must be drawn from the unused part
of the enumeration — and may simply not exist, in which case ``None`` is
returned and the caller must fall back to existing values.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Set, Tuple

from repro.schema import AbstractDomain

__all__ = ["FreshConstants"]


class FreshConstants:
    """A generator of values that are guaranteed not to clash with a reserved set."""

    def __init__(self, reserved: Iterable[object] = (), prefix: str = "fresh") -> None:
        self._reserved: Set[object] = set(reserved)
        self._prefix = prefix
        self._counter = itertools.count()

    def new(self, domain: AbstractDomain) -> Optional[object]:
        """A fresh value of ``domain``, or ``None`` if the domain is exhausted.

        Infinite domains always yield a value of the form
        ``"<prefix>:<domain>:<n>"``.  Enumerated domains yield an unused value
        of the enumeration, or ``None`` when every value is already reserved.
        """
        if domain.is_enumerated:
            for value in sorted(domain.values or (), key=repr):
                if value not in self._reserved:
                    self._reserved.add(value)
                    return value
            return None
        while True:
            value = f"{self._prefix}:{domain.name}:{next(self._counter)}"
            if value not in self._reserved:
                self._reserved.add(value)
                return value

    def several(self, domain: AbstractDomain, count: int) -> Tuple[object, ...]:
        """``count`` fresh values (fewer if an enumerated domain runs out)."""
        values = []
        for _ in range(count):
            value = self.new(domain)
            if value is None:
                break
            values.append(value)
        return tuple(values)
