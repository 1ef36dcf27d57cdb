"""Unit tests for repro.data: instances, configurations, access paths."""

from __future__ import annotations

import pytest

from repro import (
    Access,
    AccessPath,
    AccessResponse,
    Configuration,
    Fact,
    Instance,
    apply_access,
    enumerate_well_formed_accesses,
    is_well_formed,
    response_from_instance,
)
from repro.exceptions import AccessError, ConsistencyError, SchemaError


class TestInstance:
    def test_add_and_contains(self, binary_schema):
        instance = Instance(binary_schema)
        assert instance.add("R", (1, 2))
        assert not instance.add("R", (1, 2))
        assert instance.contains("R", (1, 2))
        assert not instance.contains("R", (2, 2))
        assert instance.size() == 1

    def test_arity_validated(self, binary_schema):
        instance = Instance(binary_schema)
        with pytest.raises(SchemaError):
            instance.add("R", (1,))

    def test_unknown_relation_rejected(self, binary_schema):
        instance = Instance(binary_schema)
        with pytest.raises(SchemaError):
            instance.add("Z", (1,))
        with pytest.raises(SchemaError):
            instance.tuples("Z")

    def test_facts_roundtrip(self, binary_instance):
        facts = list(binary_instance.facts())
        clone = Instance(binary_instance.schema, facts)
        assert clone == binary_instance

    def test_union_and_subset(self, binary_schema):
        left = Instance(binary_schema, {"R": [(1, 2)]})
        right = Instance(binary_schema, {"S": [(2, 3)]})
        merged = left.union(right)
        assert left.issubset(merged)
        assert right.issubset(merged)
        assert merged.size() == 2

    def test_remove(self, binary_schema):
        instance = Instance(binary_schema, {"R": [(1, 2)]})
        assert instance.remove("R", (1, 2))
        assert not instance.remove("R", (1, 2))
        assert instance.is_empty()

    def test_active_domain_pairs_domains(self, mixed_schema):
        instance = Instance(mixed_schema, {"A": [("d1", "e1")]})
        adom = instance.active_domain()
        names = {(value, domain.name) for value, domain in adom}
        assert names == {("d1", "D"), ("e1", "E")}

    def test_active_values_by_domain(self, mixed_schema):
        instance = Instance(mixed_schema, {"A": [("d1", "e1")], "C": [("d2",)]})
        domain_d = mixed_schema.relation("C").domain_of(0)
        assert instance.active_values_by_domain()[domain_d] == ("d1", "d2")

    def test_instances_unhashable(self, binary_schema):
        with pytest.raises(TypeError):
            hash(Instance(binary_schema))


class TestConfiguration:
    def test_consistency(self, binary_schema, binary_instance):
        configuration = Configuration(binary_schema, {"R": [(1, 2)]})
        assert configuration.is_consistent_with(binary_instance)
        configuration.add("R", (9, 9))
        assert not configuration.is_consistent_with(binary_instance)
        with pytest.raises(ConsistencyError):
            configuration.check_consistent_with(binary_instance)

    def test_seed_constants_in_active_domain(self, binary_schema):
        configuration = Configuration.empty(binary_schema)
        domain = binary_schema.relation("R").domain_of(0)
        configuration.add_constant("seed", domain)
        assert ("seed", domain) in configuration.active_domain()

    def test_with_constants_is_non_destructive(self, binary_schema):
        configuration = Configuration.empty(binary_schema)
        domain = binary_schema.relation("R").domain_of(0)
        extended = configuration.with_constants([("c", domain)])
        assert ("c", domain) in extended.active_domain()
        assert ("c", domain) not in configuration.active_domain()

    def test_extended_with_copies(self, binary_schema):
        configuration = Configuration.empty(binary_schema)
        extended = configuration.extended_with([Fact("R", (1, 2))])
        assert extended.contains("R", (1, 2))
        assert not configuration.contains("R", (1, 2))

    def test_union_merges_constants(self, binary_schema):
        domain = binary_schema.relation("R").domain_of(0)
        left = Configuration.empty(binary_schema)
        left.add_constant("a", domain)
        right = Configuration.empty(binary_schema)
        right.add_constant("b", domain)
        merged = left.union(right)
        values = {value for value, _ in merged.active_domain()}
        assert values == {"a", "b"}


class TestWellFormedness:
    def test_independent_always_well_formed(self, binary_schema):
        access = Access(binary_schema.access_method("mR"), (42,))
        assert is_well_formed(access, Configuration.empty(binary_schema))

    def test_dependent_requires_active_domain(self, dependent_schema):
        access = Access(dependent_schema.access_method("accR"), ("v",))
        empty = Configuration.empty(dependent_schema)
        assert not is_well_formed(access, empty)
        domain = dependent_schema.relation("R").domain_of(0)
        known = empty.with_constants([("v", domain)])
        assert is_well_formed(access, known)

    def test_free_dependent_access_always_well_formed(self, dependent_schema):
        access = Access(dependent_schema.access_method("accS"), ())
        assert is_well_formed(access, Configuration.empty(dependent_schema))


class TestResponsesAndPaths:
    def test_response_must_match_binding(self, binary_schema):
        access = Access(binary_schema.access_method("mR"), (2,))
        with pytest.raises(AccessError):
            AccessResponse(access, ((1, 3),))
        response = AccessResponse(access, ((1, 2),))
        assert len(response) == 1
        assert response.as_facts()[0] == Fact("R", (1, 2))

    def test_response_from_instance_exact_and_subset(self, binary_schema, binary_instance):
        access = Access(binary_schema.access_method("mS"), (2,))
        exact = response_from_instance(access, binary_instance)
        assert set(exact.facts) == {(2, 5)}
        partial = response_from_instance(access, binary_instance, subset=[])
        assert partial.is_empty()
        with pytest.raises(AccessError):
            response_from_instance(access, binary_instance, subset=[(9, 9)])

    def test_apply_access_grows_configuration(self, binary_schema):
        configuration = Configuration.empty(binary_schema)
        access = Access(binary_schema.access_method("mR"), (2,))
        response = AccessResponse(access, ((1, 2),))
        successor = apply_access(configuration, response)
        assert successor.contains("R", (1, 2))
        assert not configuration.contains("R", (1, 2))

    def test_apply_access_checks_well_formedness(self, dependent_schema):
        configuration = Configuration.empty(dependent_schema)
        access = Access(dependent_schema.access_method("accR"), ("v",))
        response = AccessResponse(access, (("v",),))
        with pytest.raises(AccessError):
            apply_access(configuration, response)

    def test_path_final_configuration_and_well_formedness(self, dependent_schema):
        configuration = Configuration.empty(dependent_schema)
        free_access = Access(dependent_schema.access_method("accS"), ())
        boolean_access = Access(dependent_schema.access_method("accR"), ("v",))
        path = AccessPath(
            configuration,
            [
                AccessResponse(free_access, (("v",),)),
                AccessResponse(boolean_access, (("v",),)),
            ],
        )
        assert path.is_well_formed()
        final = path.final_configuration()
        assert final.contains("R", ("v",))
        assert final.contains("S", ("v",))
        assert len(list(path.configurations())) == 3

    def test_truncation_drops_dependent_suffix(self, dependent_schema):
        """Removing the first access invalidates accesses that needed its output."""
        configuration = Configuration.empty(dependent_schema)
        free_access = Access(dependent_schema.access_method("accS"), ())
        boolean_access = Access(dependent_schema.access_method("accR"), ("v",))
        path = AccessPath(
            configuration,
            [
                AccessResponse(free_access, (("v",),)),
                AccessResponse(boolean_access, (("v",),)),
            ],
        )
        truncated = path.truncation()
        assert len(truncated) == 0
        assert truncated.final_configuration().is_empty()

    def test_truncation_keeps_independent_suffix(self, binary_schema):
        configuration = Configuration.empty(binary_schema)
        first = Access(binary_schema.access_method("mR"), (2,))
        second = Access(binary_schema.access_method("mS"), (7,))
        path = AccessPath(
            configuration,
            [
                AccessResponse(first, ((1, 2),)),
                AccessResponse(second, ((7, 8),)),
            ],
        )
        truncated = path.truncation()
        assert len(truncated) == 1
        assert truncated.final_configuration().contains("S", (7, 8))

    def test_path_soundness_check(self, binary_schema, binary_instance):
        configuration = Configuration.empty(binary_schema)
        access = Access(binary_schema.access_method("mR"), (2,))
        sound = AccessPath(configuration, [AccessResponse(access, ((1, 2),))])
        unsound = AccessPath(configuration, [AccessResponse(access, ((9, 2),))])
        assert sound.is_sound_for(binary_instance)
        assert not unsound.is_sound_for(binary_instance)


class TestEnumerateAccesses:
    def test_dependent_bindings_come_from_active_domain(self, dependent_schema):
        domain = dependent_schema.relation("R").domain_of(0)
        configuration = Configuration.empty(dependent_schema).with_constants(
            [("v", domain)]
        )
        accesses = list(enumerate_well_formed_accesses(dependent_schema, configuration))
        rendered = {(a.method.name, a.binding) for a in accesses}
        assert ("accR", ("v",)) in rendered
        assert ("accS", ()) in rendered

    def test_independent_bindings_use_extra_pool(self, binary_schema):
        configuration = Configuration.empty(binary_schema)
        accesses = list(
            enumerate_well_formed_accesses(
                binary_schema, configuration, independent_values=["z"]
            )
        )
        rendered = {(a.method.name, a.binding) for a in accesses}
        assert ("mR", ("z",)) in rendered
        assert ("mS", ("z",)) in rendered
