"""Access methods and accesses (Section 2 of the paper).

An *access method* is attached to a relation and designates a set of input
places.  Using an access method requires supplying a *binding*: one value per
input place.  The combination of an access method and a binding is an
*access*; the paper writes, e.g., ``R(3, ?)`` for an access to a binary
relation with the first place bound to 3.

Access methods come in two varieties:

* **independent** — the binding values can be arbitrary ("free guess");
* **dependent** — every binding value (paired with the abstract domain of the
  corresponding input attribute) must already occur in the active domain of
  the current configuration.

Two degenerate shapes get names in the paper: a **Boolean access method** has
every place as an input (the access merely checks membership), and a **free
access method** has no input places at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.exceptions import AccessError, SchemaError
from repro.schema.domains import AbstractDomain
from repro.schema.relations import Relation

__all__ = ["AccessMethod", "Access"]


@dataclass(frozen=True)
class AccessMethod:
    """An access method on a relation.

    Parameters
    ----------
    name:
        Unique name of the method within a schema (e.g. ``"EmpOffAcc"``).
    relation:
        The relation the method gives access to.
    input_places:
        The (0-based) places of the relation that must be bound when using
        the method, stored in increasing order.
    dependent:
        Whether binding values must come from the active domain of the
        configuration (``True``) or can be guessed freely (``False``).
    """

    name: str
    relation: Relation
    input_places: Tuple[int, ...]
    dependent: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("an access method must have a non-empty name")
        places = tuple(sorted(set(self.input_places)))
        if places != tuple(self.input_places):
            object.__setattr__(self, "input_places", places)
        for place in self.input_places:
            if not 0 <= place < self.relation.arity:
                raise SchemaError(
                    f"access method {self.name!r}: input place {place} is out of "
                    f"range for relation {self.relation.name!r} "
                    f"(arity {self.relation.arity})"
                )

    @property
    def output_places(self) -> Tuple[int, ...]:
        """Places of the relation that are returned (not bound) by the method."""
        bound = set(self.input_places)
        return tuple(
            place for place in range(self.relation.arity) if place not in bound
        )

    @property
    def is_boolean(self) -> bool:
        """Whether every place is an input (the access is a membership test)."""
        return len(self.input_places) == self.relation.arity

    @property
    def is_free(self) -> bool:
        """Whether no place is an input (any tuple of the relation may be returned)."""
        return not self.input_places

    @property
    def independent(self) -> bool:
        """Convenience negation of :attr:`dependent`."""
        return not self.dependent

    def binding_from_mapping(self, mapping: Mapping[int, object]) -> Tuple[object, ...]:
        """Build a binding tuple from a ``{place: value}`` mapping."""
        try:
            return tuple(mapping[place] for place in self.input_places)
        except KeyError as missing:
            raise AccessError(
                f"binding for method {self.name!r} is missing place {missing}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "dependent" if self.dependent else "independent"
        return (
            f"AccessMethod({self.name!r}, {self.relation.name}, "
            f"inputs={list(self.input_places)}, {kind})"
        )


@dataclass(frozen=True)
class Access:
    """An access: an access method together with a binding of its input places.

    The binding is a tuple aligned with :attr:`AccessMethod.input_places`.
    """

    method: AccessMethod
    binding: Tuple[object, ...] = ()

    def __post_init__(self) -> None:
        if len(self.binding) != len(self.method.input_places):
            raise AccessError(
                f"access via {self.method.name!r} needs "
                f"{len(self.method.input_places)} binding values, "
                f"got {len(self.binding)}"
            )
        for value, place in zip(self.binding, self.method.input_places):
            domain = self.method.relation.domain_of(place)
            if not domain.admits(value):
                raise AccessError(
                    f"binding value {value!r} is not admitted by domain "
                    f"{domain.name!r} at place {place} of relation "
                    f"{self.method.relation.name!r}"
                )

    @property
    def relation(self) -> Relation:
        """The relation being accessed."""
        return self.method.relation

    @property
    def binding_by_place(self) -> Dict[int, object]:
        """The binding as a ``{place: value}`` dictionary."""
        return dict(zip(self.method.input_places, self.binding))

    def binding_with_domains(self) -> Tuple[Tuple[object, AbstractDomain], ...]:
        """Binding values paired with the abstract domain of their place.

        This is the shape in which the well-formedness condition of dependent
        accesses is checked against the active domain of a configuration.
        """
        return tuple(
            (value, self.method.relation.domain_of(place))
            for value, place in zip(self.binding, self.method.input_places)
        )

    def matches(self, values: Sequence[object]) -> bool:
        """Whether a full tuple of the relation agrees with this binding."""
        if len(values) != self.relation.arity:
            return False
        return all(
            values[place] == value
            for place, value in zip(self.method.input_places, self.binding)
        )

    def select(self, tuples: Iterable[Sequence[object]]) -> Tuple[Tuple[object, ...], ...]:
        """Filter ``tuples`` down to those compatible with the binding."""
        return tuple(tuple(values) for values in tuples if self.matches(values))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        bound = self.binding_by_place
        rendered = ", ".join(
            repr(bound[place]) if place in bound else "?"
            for place in range(self.relation.arity)
        )
        return f"{self.relation.name}({rendered}) via {self.method.name}"
