"""Schemas: collections of relations together with their access methods."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import SchemaError
from repro.schema.access import AccessMethod
from repro.schema.domains import AbstractDomain, DomainRegistry
from repro.schema.relations import Attribute, Relation

__all__ = ["Schema", "SchemaBuilder"]


class Schema:
    """A relational schema with access methods (``Sch`` and ``ACS`` of the paper).

    A schema holds a set of relations and a set of access methods over them.
    A relation may have zero, one, or several access methods.  Relations with
    no access method are *fixed*: no new facts about them can ever be learned,
    so their content is exactly that of the initial configuration.
    """

    def __init__(
        self,
        relations: Iterable[Relation],
        access_methods: Iterable[AccessMethod] = (),
    ) -> None:
        self._relations: Dict[str, Relation] = {}
        for relation in relations:
            if relation.name in self._relations:
                raise SchemaError(f"duplicate relation name {relation.name!r}")
            self._relations[relation.name] = relation
        self._methods: Dict[str, AccessMethod] = {}
        self._methods_by_relation: Dict[str, List[AccessMethod]] = {
            name: [] for name in self._relations
        }
        for method in access_methods:
            self.add_access_method(method)

    # ------------------------------------------------------------------ #
    # Relations
    # ------------------------------------------------------------------ #
    @property
    def relations(self) -> Tuple[Relation, ...]:
        """All relations of the schema, in declaration order."""
        return tuple(self._relations.values())

    def relation(self, name: str) -> Relation:
        """Return the relation called ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def has_relation(self, name: str) -> bool:
        """Whether a relation called ``name`` exists."""
        return name in self._relations

    # ------------------------------------------------------------------ #
    # Access methods
    # ------------------------------------------------------------------ #
    def add_access_method(self, method: AccessMethod) -> None:
        """Register an access method (its relation must be in the schema)."""
        if method.relation.name not in self._relations:
            raise SchemaError(
                f"access method {method.name!r} refers to relation "
                f"{method.relation.name!r} which is not in the schema"
            )
        if self._relations[method.relation.name] is not method.relation and (
            self._relations[method.relation.name] != method.relation
        ):
            raise SchemaError(
                f"access method {method.name!r} refers to a relation object that "
                f"differs from the schema's {method.relation.name!r}"
            )
        if method.name in self._methods:
            raise SchemaError(f"duplicate access method name {method.name!r}")
        self._methods[method.name] = method
        self._methods_by_relation[method.relation.name].append(method)

    @property
    def access_methods(self) -> Tuple[AccessMethod, ...]:
        """All access methods, in declaration order."""
        return tuple(self._methods.values())

    def access_method(self, name: str) -> AccessMethod:
        """Return the access method called ``name``."""
        try:
            return self._methods[name]
        except KeyError:
            raise SchemaError(f"unknown access method {name!r}") from None

    def methods_for(self, relation: Union[str, Relation]) -> Tuple[AccessMethod, ...]:
        """All access methods whose relation is ``relation``."""
        name = relation if isinstance(relation, str) else relation.name
        if name not in self._relations:
            raise SchemaError(f"unknown relation {name!r}")
        return tuple(self._methods_by_relation[name])

    def has_access(self, relation: Union[str, Relation]) -> bool:
        """Whether the relation has at least one access method."""
        return bool(self.methods_for(relation))

    # ------------------------------------------------------------------ #
    # Derived properties used by the decision procedures
    # ------------------------------------------------------------------ #
    def all_independent(self) -> bool:
        """Whether every access method of the schema is independent."""
        return all(not method.dependent for method in self.access_methods)

    def all_dependent(self) -> bool:
        """Whether every access method of the schema is dependent."""
        return all(method.dependent for method in self.access_methods)

    def max_arity(self) -> int:
        """Maximum arity over the relations of the schema (0 if empty)."""
        return max((relation.arity for relation in self.relations), default=0)

    def domains(self) -> Tuple[AbstractDomain, ...]:
        """All abstract domains mentioned by some attribute, deduplicated."""
        seen: Dict[str, AbstractDomain] = {}
        for relation in self.relations:
            for attribute in relation.attributes:
                seen.setdefault(attribute.domain.name, attribute.domain)
        return tuple(seen.values())

    def output_domains(self) -> frozenset:
        """Domains that some access method can produce values for as output."""
        produced = set()
        for method in self.access_methods:
            for place in method.output_places:
                produced.add(method.relation.domain_of(place))
        return frozenset(produced)

    def extend(
        self,
        relations: Iterable[Relation] = (),
        access_methods: Iterable[AccessMethod] = (),
    ) -> "Schema":
        """Return a new schema extending this one (used by the reductions)."""
        return Schema(
            list(self.relations) + list(relations),
            list(self.access_methods) + list(access_methods),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schema(relations={[r.name for r in self.relations]}, "
            f"methods={[m.name for m in self.access_methods]})"
        )


class SchemaBuilder:
    """Fluent helper for declaring domains, relations, and access methods.

    Example
    -------
    >>> builder = SchemaBuilder()
    >>> builder.domain("EmpId")                                   # doctest: +ELLIPSIS
    AbstractDomain('EmpId')
    >>> _ = builder.relation("Employee", [("id", "EmpId"), ("office", "OffId")])
    >>> _ = builder.access("EmpAcc", "Employee", inputs=["id"], dependent=True)
    >>> schema = builder.build()
    >>> schema.relation("Employee").arity
    2
    """

    def __init__(self) -> None:
        self._domains = DomainRegistry()
        self._relations: Dict[str, Relation] = {}
        self._methods: List[AccessMethod] = []

    def domain(
        self, name: str, values: Optional[Iterable[object]] = None
    ) -> AbstractDomain:
        """Declare an abstract domain (idempotent for identical declarations)."""
        return self._domains.declare(name, values)

    def relation(
        self, name: str, attributes: Sequence[Tuple[str, Union[str, AbstractDomain]]]
    ) -> Relation:
        """Declare a relation; unknown domain names are declared on the fly."""
        attrs = []
        for attr_name, domain_spec in attributes:
            if isinstance(domain_spec, AbstractDomain):
                domain = self._domains.declare(domain_spec.name, domain_spec.values)
            else:
                domain = (
                    self._domains.get(domain_spec)
                    if domain_spec in self._domains
                    else self._domains.declare(domain_spec)
                )
            attrs.append(Attribute(attr_name, domain))
        if name in self._relations:
            raise SchemaError(f"duplicate relation name {name!r}")
        relation = Relation(name, tuple(attrs))
        self._relations[name] = relation
        return relation

    def access(
        self,
        name: str,
        relation: Union[str, Relation],
        inputs: Sequence[Union[int, str]] = (),
        dependent: bool = True,
    ) -> AccessMethod:
        """Declare an access method; ``inputs`` are place indices or attribute names."""
        rel = (
            self._relations.get(relation)
            if isinstance(relation, str)
            else relation
        )
        if rel is None:
            raise SchemaError(f"unknown relation {relation!r}")
        places = []
        for spec in inputs:
            if isinstance(spec, int):
                places.append(spec)
            else:
                places.append(rel.attribute_index(spec))
        method = AccessMethod(name, rel, tuple(places), dependent=dependent)
        self._methods.append(method)
        return method

    def build(self) -> Schema:
        """Assemble the declared relations and methods into a :class:`Schema`."""
        return Schema(self._relations.values(), self._methods)
