"""Unit tests for repro.schema: domains, relations, access methods, schemas."""

from __future__ import annotations

import pytest

from repro import (
    AbstractDomain,
    Access,
    AccessMethod,
    Attribute,
    Relation,
    Schema,
    SchemaBuilder,
)
from repro.exceptions import AccessError, SchemaError
from repro.schema.domains import DomainRegistry


class TestAbstractDomain:
    def test_infinite_domain_admits_everything(self):
        domain = AbstractDomain("D")
        assert domain.admits("anything")
        assert domain.admits(42)
        assert not domain.is_enumerated

    def test_enumerated_domain_restricts_values(self):
        domain = AbstractDomain("B", frozenset({0, 1}))
        assert domain.is_enumerated
        assert domain.admits(0)
        assert not domain.admits(2)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            AbstractDomain("")

    def test_equality_is_by_name(self):
        assert AbstractDomain("D") == AbstractDomain("D")
        assert AbstractDomain("D") != AbstractDomain("E")


class TestDomainRegistry:
    def test_declare_is_idempotent(self):
        registry = DomainRegistry()
        first = registry.declare("D")
        second = registry.declare("D")
        assert first is second

    def test_conflicting_redeclaration_rejected(self):
        registry = DomainRegistry()
        registry.declare("B", values=(0, 1))
        with pytest.raises(SchemaError):
            registry.declare("B", values=(0, 1, 2))

    def test_get_unknown_raises(self):
        registry = DomainRegistry()
        with pytest.raises(SchemaError):
            registry.get("missing")

    def test_contains_and_len(self):
        registry = DomainRegistry()
        registry.declare("D")
        assert "D" in registry
        assert "E" not in registry
        assert len(registry) == 1


class TestRelation:
    def test_make_and_accessors(self):
        domain = AbstractDomain("D")
        relation = Relation.make("R", [("a", domain), ("b", domain)])
        assert relation.arity == 2
        assert relation.attribute_index("b") == 1
        assert relation.domain_of(0) == domain

    def test_duplicate_attribute_names_rejected(self):
        domain = AbstractDomain("D")
        with pytest.raises(SchemaError):
            Relation.make("R", [("a", domain), ("a", domain)])

    def test_unknown_attribute_raises(self):
        domain = AbstractDomain("D")
        relation = Relation.make("R", [("a", domain)])
        with pytest.raises(SchemaError):
            relation.attribute_index("zzz")
        with pytest.raises(SchemaError):
            relation.domain_of(5)

    def test_check_values_arity(self):
        domain = AbstractDomain("D")
        relation = Relation.make("R", [("a", domain), ("b", domain)])
        with pytest.raises(SchemaError):
            relation.check_values((1,))

    def test_check_values_enumerated_domain(self):
        boolean = AbstractDomain("B", frozenset({0, 1}))
        relation = Relation.make("R", [("a", boolean)])
        relation.check_values((1,))
        with pytest.raises(SchemaError):
            relation.check_values((7,))


class TestAccessMethod:
    def _relation(self):
        domain = AbstractDomain("D")
        return Relation.make("R", [("a", domain), ("b", domain), ("c", domain)])

    def test_input_output_places(self):
        method = AccessMethod("m", self._relation(), (0, 2))
        assert method.input_places == (0, 2)
        assert method.output_places == (1,)
        assert not method.is_boolean

    def test_boolean_and_free(self):
        relation = self._relation()
        boolean = AccessMethod("mb", relation, (0, 1, 2))
        free = AccessMethod("mf", relation, ())
        assert boolean.is_boolean
        assert not free.is_boolean and free.output_places == (0, 1, 2)

    def test_out_of_range_place_rejected(self):
        with pytest.raises(SchemaError):
            AccessMethod("m", self._relation(), (5,))


class TestAccess:
    def _method(self):
        domain = AbstractDomain("D")
        relation = Relation.make("R", [("a", domain), ("b", domain)])
        return AccessMethod("m", relation, (0,))

    def test_binding_arity_checked(self):
        with pytest.raises(AccessError):
            Access(self._method(), ())

    def test_matches_and_select(self):
        access = Access(self._method(), (1,))
        assert access.matches((1, 5))
        assert not access.matches((2, 5))
        assert access.select([(1, 5), (2, 5), (1, 7)]) == ((1, 5), (1, 7))

    def test_binding_with_domains(self):
        access = Access(self._method(), (1,))
        pairs = access.binding_with_domains()
        assert len(pairs) == 1
        assert pairs[0][0] == 1
        assert pairs[0][1].name == "D"

    def test_enumerated_binding_validated(self):
        boolean = AbstractDomain("B", frozenset({0, 1}))
        relation = Relation.make("R", [("a", boolean)])
        method = AccessMethod("m", relation, (0,))
        with pytest.raises(AccessError):
            Access(method, (5,))


class TestSchema:
    def test_builder_and_lookup(self, binary_schema):
        assert binary_schema.has_relation("R")
        assert binary_schema.relation("S").arity == 2
        assert binary_schema.access_method("mR").relation.name == "R"
        assert len(binary_schema.methods_for("R")) == 1

    def test_unknown_lookups_raise(self, binary_schema):
        with pytest.raises(SchemaError):
            binary_schema.relation("Z")
        with pytest.raises(SchemaError):
            binary_schema.access_method("nope")
        with pytest.raises(SchemaError):
            binary_schema.methods_for("Z")

    def test_fixed_and_accessible_relations(self):
        builder = SchemaBuilder()
        builder.relation("R", [("a", "D")])
        builder.relation("Fixed", [("a", "D")])
        builder.access("m", "R", inputs=[], dependent=False)
        schema = builder.build()
        assert schema.has_access("R")
        assert not schema.has_access("Fixed")

    def test_all_independent_and_dependent(self, binary_schema, dependent_schema):
        assert binary_schema.all_independent()
        assert not binary_schema.all_dependent()
        assert dependent_schema.all_dependent()

    def test_duplicate_names_rejected(self):
        builder = SchemaBuilder()
        builder.relation("R", [("a", "D")])
        with pytest.raises(SchemaError):
            builder.relation("R", [("a", "D")])

    def test_extend_creates_new_schema(self, binary_schema):
        domain = AbstractDomain("D")
        extra = Relation.make("T", [("a", domain)])
        extended = binary_schema.extend([extra])
        assert extended.has_relation("T")
        assert not binary_schema.has_relation("T")

    def test_output_domains(self, mixed_schema):
        names = {domain.name for domain in mixed_schema.output_domains()}
        # mA outputs an E value, mB outputs a D value, mC outputs a D value.
        assert names == {"D", "E"}

    def test_max_arity(self, mixed_schema):
        assert mixed_schema.max_arity() == 2

    def test_duplicate_method_name_rejected(self):
        builder = SchemaBuilder()
        builder.relation("R", [("a", "D")])
        builder.access("m", "R", inputs=[])
        with pytest.raises(SchemaError):
            schema = builder.build()
            method = schema.access_method("m")
            schema.add_access_method(method)
