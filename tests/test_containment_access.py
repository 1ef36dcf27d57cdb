"""Tests for containment under access limitations (Definition 3.1, Section 5)."""

from __future__ import annotations

import pytest

from repro import (
    Configuration,
    ContainmentOptions,
    cq_contained_in,
    decide_cm_containment,
    decide_containment,
    find_non_containment_witness,
    parse_cq,
    parse_pq,
)
from repro.core import containment
from repro.core.assignments import holds_after_adding
from repro.data import Fact
from repro.exceptions import QueryError, SchemaError
from repro.workloads import chain_schema, containment_example_scenario


class TestExample32:
    """Example 3.2: containment under access limitations is weaker than classical."""

    def test_contained_under_access_limitations(self):
        schema, configuration, query_r, query_s = containment_example_scenario()
        assert decide_containment(query_r, query_s, schema, configuration)

    def test_not_classically_contained(self):
        _, _, query_r, query_s = containment_example_scenario()
        assert not cq_contained_in(query_r, query_s)

    def test_reverse_direction_not_contained(self):
        schema, configuration, query_r, query_s = containment_example_scenario()
        witness = find_non_containment_witness(query_s, query_r, schema, configuration)
        assert witness is not None
        # The witness configuration satisfies S but not R.
        from repro import evaluate_boolean

        assert evaluate_boolean(query_s, witness.configuration)
        assert not evaluate_boolean(query_r, witness.configuration)


class TestBasicProperties:
    def test_classical_containment_implies_access_containment(self, binary_schema):
        specific = parse_cq(binary_schema, "R(x, y), R(y, z)")
        general = parse_cq(binary_schema, "R(u, v)")
        assert cq_contained_in(specific, general)
        assert decide_containment(specific, general, binary_schema)

    def test_non_containment_with_free_accesses_matches_classical(self, binary_schema):
        specific = parse_cq(binary_schema, "R(x, y), R(y, z)")
        general = parse_cq(binary_schema, "R(u, v)")
        # With independent accesses, containment under access limitations
        # coincides with classical containment.
        assert not decide_containment(general, specific, binary_schema)

    def test_reflexivity(self, binary_schema):
        query = parse_cq(binary_schema, "R(x, y), S(y, z)")
        assert decide_containment(query, query, binary_schema)

    def test_configuration_facts_matter(self, dependent_schema):
        # Q1 = R(x), Q2 = S(x).  Starting from a configuration that already
        # contains an R fact, Q1 holds while Q2 does not: non-containment.
        query_r = parse_cq(dependent_schema, "R(x)")
        query_s = parse_cq(dependent_schema, "S(x)")
        configuration = Configuration(dependent_schema, {"R": [("v",)]})
        assert not decide_containment(query_r, query_s, dependent_schema, configuration)
        # From the empty configuration, containment holds (Example 3.2).
        assert decide_containment(query_r, query_s, dependent_schema)

    def test_inaccessible_relation_limits_witnesses(self):
        from repro import SchemaBuilder

        builder = SchemaBuilder()
        builder.domain("D")
        builder.relation("R", [("a", "D")])
        builder.relation("Fixed", [("a", "D")])
        builder.access("accR", "R", inputs=[], dependent=True)
        schema = builder.build()
        query_fixed = parse_cq(schema, "Fixed(x)")
        query_r = parse_cq(schema, "R(x)")
        # Fixed never grows, so from the empty configuration Fixed(x) never
        # becomes true: it is (vacuously) contained in anything.
        assert decide_containment(query_fixed, query_r, schema)
        # R can become true while Fixed stays empty: non-containment.
        assert not decide_containment(query_r, query_fixed, schema)

    def test_positive_queries(self, binary_schema):
        union = parse_pq(binary_schema, "R(x, y) | S(x, y)")
        left = parse_cq(binary_schema, "R(x, y)")
        assert decide_containment(left, union, binary_schema)
        assert not decide_containment(union, left, binary_schema)

    def test_non_boolean_rejected(self, binary_schema):
        unary = parse_cq(binary_schema, "Q(x) :- R(x, y)")
        boolean = parse_cq(binary_schema, "R(x, y)")
        with pytest.raises(QueryError):
            decide_containment(unary, boolean, binary_schema)

    def test_witness_reports_new_facts(self, binary_schema):
        specific = parse_cq(binary_schema, "R(x, y)")
        general = parse_cq(binary_schema, "S(x, y)")
        witness = find_non_containment_witness(specific, general, binary_schema)
        assert witness is not None
        assert any(fact.relation == "R" for fact in witness.new_facts)


class TestQueryConstants:
    def test_query_constants_available_for_dependent_bindings(self, dependent_schema):
        # Q1 = R('c'): the paper assumes query constants are present in the
        # configuration, so the dependent Boolean access R('c')? is
        # well-formed without any prior S access.  The Example 3.2 containment
        # therefore breaks as soon as a constant of the right domain is known:
        # R('c') can become true while S stays empty.
        query_r = parse_cq(dependent_schema, "R('c')")
        query_s = parse_cq(dependent_schema, "S(x)")
        assert not decide_containment(query_r, query_s, dependent_schema)
        # The variable version from the *empty* configuration is still
        # contained, because only an S access can generate a value.
        query_r_var = parse_cq(dependent_schema, "R(x)")
        assert decide_containment(query_r_var, query_s, dependent_schema)


class TestCMContainment:
    def test_single_method_per_relation_enforced(self):
        from repro import SchemaBuilder

        builder = SchemaBuilder()
        builder.domain("D")
        builder.relation("R", [("a", "D")])
        builder.access("m1", "R", inputs=[], dependent=True)
        builder.access("m2", "R", inputs=["a"], dependent=True)
        schema = builder.build()
        query = parse_cq(schema, "R(x)")
        with pytest.raises(QueryError):
            decide_cm_containment(query, query, schema)

    def test_cm_containment_with_constants(self, dependent_schema):
        query_r = parse_cq(dependent_schema, "R(x)")
        query_s = parse_cq(dependent_schema, "S(x)")
        domain = dependent_schema.relation("R").domain_of(0)
        # With a pre-existing constant of the right domain, R(x) can be made
        # true by the Boolean access on that constant without touching S:
        # CM-containment, unlike the empty-constant case, fails.
        assert not decide_cm_containment(
            query_r, query_s, dependent_schema, constants=[("c", domain)]
        )

    def test_cm_equals_config_containment_on_empty_configuration(self, dependent_schema):
        query_r = parse_cq(dependent_schema, "R(x)")
        query_s = parse_cq(dependent_schema, "S(x)")
        assert decide_cm_containment(query_r, query_s, dependent_schema) == (
            decide_containment(query_r, query_s, dependent_schema)
        )


class TestBudgets:
    def test_support_budget_affects_completeness(self, dependent_schema):
        """With no support facts allowed, the R-needs-S witness is not even
        attempted, but the answer stays on the sound (contained) side."""
        query_r = parse_cq(dependent_schema, "R(x)")
        query_s = parse_cq(dependent_schema, "S(x)")
        options = ContainmentOptions(max_support_facts=0)
        assert decide_containment(
            query_r, query_s, dependent_schema, options=options
        )


class TestMonotoneExit:
    """Configurations only grow, so a containing query that holds on the
    initial configuration holds on every reachable one."""

    @staticmethod
    def _chain(size: int, with_l2: bool):
        schema = chain_schema(2)
        configuration = Configuration.empty(schema)
        for index in range(size):
            configuration.add("L1", (f"a{index}", f"b{index}"))
            if with_l2:
                configuration.add("L2", (f"b{index}", f"c{index}"))
        return schema, configuration, parse_cq(schema, "L1(x, y), L2(y, z)")

    @staticmethod
    def _count_groundings(monkeypatch):
        groundings = []
        enumerate_groundings = containment.iter_witness_assignments

        def counting(*args, **kwargs):
            for grounding in enumerate_groundings(*args, **kwargs):
                groundings.append(grounding)
                yield grounding

        monkeypatch.setattr(containment, "iter_witness_assignments", counting)
        return groundings

    @pytest.mark.parametrize("size", [1, 5, 10])
    def test_old_bench_family_keeps_its_verdict_without_search(self, size, monkeypatch):
        schema, configuration, query = self._chain(size, with_l2=True)
        link = parse_cq(schema, "L1(x, y)")
        groundings = self._count_groundings(monkeypatch)
        assert decide_containment(query, link, schema, configuration)
        assert groundings == []

    def test_false_containing_query_is_still_searched(self, monkeypatch):
        schema, configuration, query = self._chain(5, with_l2=False)
        target = parse_cq(schema, "L2(y, z)")
        groundings = self._count_groundings(monkeypatch)
        assert decide_containment(query, target, schema, configuration)
        assert groundings


class TestDeltaCheck:
    """``query2`` is false on the initial configuration past the monotone
    exit, so whether a grounding's or a plan's new facts make it true is
    decided from those facts, without copying the configuration."""

    def test_bench_family_copies_no_configuration(self, monkeypatch):
        schema, configuration, query = TestMonotoneExit._chain(40, with_l2=False)
        target = parse_cq(schema, "L2(y, z)")
        groundings = TestMonotoneExit._count_groundings(monkeypatch)
        copies = []
        extended_with = Configuration.extended_with

        def counting(self, facts):
            copies.append(facts)
            return extended_with(self, facts)

        monkeypatch.setattr(Configuration, "extended_with", counting)
        assert decide_containment(query, target, schema, configuration)
        assert len(groundings) == 6725
        assert copies == []

    def test_malformed_fact_raises_even_when_no_join_needs_it(self):
        schema, configuration, _query = TestMonotoneExit._chain(3, with_l2=False)
        target = parse_cq(schema, "L2(y, z)")
        before = configuration.fingerprint()
        facts = [Fact("L2", ("b0", "c0")), Fact("L1", ("a9",))]
        with pytest.raises(SchemaError):
            holds_after_adding((target,), configuration, facts)
        assert configuration.fingerprint() == before
        assert holds_after_adding((target,), configuration, facts[:1])

    def test_containing_pq_over_the_dnf_budget_raises(self):
        schema, configuration, query = TestMonotoneExit._chain(3, with_l2=False)
        target = parse_pq(schema, "L2(y, z) | L2(z, y)")
        with pytest.raises(QueryError):
            find_non_containment_witness(
                query, target, schema, configuration, ContainmentOptions(max_disjuncts=1)
            )
        assert decide_containment(query, target, schema, configuration)

    def test_plan_witness_carries_the_final_configuration(self, monkeypatch):
        schema, configuration, query_r, query_s = containment_example_scenario()
        plans = []
        enumerate_plans = containment.iter_production_plans

        def recording(*args, **kwargs):
            for plan in enumerate_plans(*args, **kwargs):
                plans.append(plan)
                yield plan

        monkeypatch.setattr(containment, "iter_production_plans", recording)
        before = configuration.fingerprint()
        witness = find_non_containment_witness(query_s, query_r, schema, configuration)
        assert witness is not None and plans
        final = plans[-1].final_configuration()
        assert witness.configuration == final
        assert witness.configuration.fingerprint() == final.fingerprint()
        assert witness.new_facts == plans[-1].all_new_facts()
        assert configuration.fingerprint() == before
