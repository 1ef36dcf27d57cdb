"""Tests for the planner (static plans, inverse rules, dynamic strategies) and
the simulated deep-Web sources, including the bank scenario end to end."""

from __future__ import annotations

import pytest

from repro import Access, Configuration, Instance, parse_cq
from repro.exceptions import AccessError, QueryError, SchemaError
from repro.planner import (
    exhaustive_strategy,
    find_executable_order,
    is_feasible,
    maximally_contained_answers,
    query_plan_program,
    relevance_guided_strategy,
)
from repro.schema import SchemaBuilder
from repro.sources import DataSource, Mediator, build_bank_scenario, build_bank_schema
from repro.workloads import chain_query, chain_schema


@pytest.fixture(scope="module")
def small_bank():
    return build_bank_scenario(employees=6, offices=3, states=3, known_employees=2)


class TestStaticPlans:
    def test_chain_query_is_feasible_with_seeded_start(self):
        schema = chain_schema(3)
        query = chain_query(schema, 3)
        # x0 is unbound, and every access method needs its first attribute:
        # no static plan exists (the classic motivating example).
        assert not is_feasible(query, schema)

    def test_constant_start_makes_chain_feasible(self):
        schema = chain_schema(2)
        query = parse_cq(schema, "L1('start', y), L2(y, z)")
        plan = find_executable_order(query, schema)
        assert plan is not None
        assert [step.method.name for step in plan.steps] == ["accL1", "accL2"]

    def test_independent_methods_are_always_feasible(self, binary_schema):
        query = parse_cq(binary_schema, "R(x, y), S(y, z)")
        assert is_feasible(query, binary_schema)

    def test_bank_query_not_statically_feasible(self, small_bank):
        # The query engine only knows EmpIds at run time; no static plan binds
        # the Employee access's input from the query alone.
        assert not is_feasible(small_bank.query, small_bank.schema)

    def test_positive_query_rejected(self, binary_schema):
        from repro import parse_pq

        with pytest.raises(QueryError):
            find_executable_order(parse_pq(binary_schema, "R(x, y) | S(x, y)"), binary_schema)


class TestInverseRules:
    def test_plan_program_has_answer_rule(self):
        schema = chain_schema(2)
        query = chain_query(schema, 2)
        program = query_plan_program(query, schema)
        assert "answer__" in program.idb_predicates()

    def test_maximally_contained_answers_on_chain(self):
        schema = chain_schema(2)
        query = chain_query(schema, 2)
        instance = Instance(
            schema,
            {"L1": [("a", "b"), ("x", "y")], "L2": [("b", "c"), ("y", "z")]},
        )
        configuration = Configuration.empty(schema)
        domain = schema.relation("L1").domain_of(0)
        configuration.add_constant("a", domain)
        # Only the a -> b -> c chain is reachable, and it satisfies the query.
        assert maximally_contained_answers(query, instance, configuration)

    def test_unreachable_data_gives_empty_answer(self):
        schema = chain_schema(2)
        query = chain_query(schema, 2)
        instance = Instance(schema, {"L1": [("x", "y")], "L2": [("y", "z")]})
        configuration = Configuration.empty(schema)
        domain = schema.relation("L1").domain_of(0)
        configuration.add_constant("a", domain)
        assert not maximally_contained_answers(query, instance, configuration)


class TestSources:
    def test_source_checks_method(self, binary_schema, binary_instance):
        source = DataSource(binary_schema.access_method("mR"), binary_instance)
        wrong = Access(binary_schema.access_method("mS"), (2,))
        with pytest.raises(AccessError):
            source.respond(wrong)

    def test_exact_source_returns_all_matches(self, binary_schema, binary_instance):
        source = DataSource(binary_schema.access_method("mS"), binary_instance)
        response = source.respond(Access(binary_schema.access_method("mS"), (2,)))
        assert set(response.facts) == {(2, 5)}
        assert source.calls == 1

    def test_partial_source_is_sound(self, binary_schema, binary_instance):
        source = DataSource(
            binary_schema.access_method("mS"), binary_instance, completeness=0.0
        )
        response = source.respond(Access(binary_schema.access_method("mS"), (2,)))
        assert response.is_empty()

    def test_invalid_completeness_rejected(self, binary_schema, binary_instance):
        with pytest.raises(AccessError):
            DataSource(
                binary_schema.access_method("mS"), binary_instance, completeness=2.0
            )

    def test_mediator_rejects_ill_formed_access(self):
        schema = chain_schema(1)
        instance = Instance(schema, {"L1": [("a", "b")]})
        mediator = Mediator(
            schema, [DataSource(schema.access_method("accL1"), instance)]
        )
        with pytest.raises(AccessError):
            mediator.perform(Access(schema.access_method("accL1"), ("a",)))

    def test_mediator_grows_configuration_and_logs(self):
        schema = chain_schema(1)
        instance = Instance(schema, {"L1": [("a", "b")]})
        mediator = Mediator(
            schema, [DataSource(schema.access_method("accL1"), instance)]
        )
        domain = schema.relation("L1").domain_of(0)
        mediator.seed_constants([("a", domain)])
        response = mediator.perform(Access(schema.access_method("accL1"), ("a",)))
        assert len(response) == 1
        assert mediator.configuration.contains("L1", ("a", "b"))
        assert mediator.access_count == 1
        assert mediator.access_log[0][1] == 1

    def test_duplicate_sources_rejected(self, binary_schema, binary_instance):
        source = DataSource(binary_schema.access_method("mR"), binary_instance)
        with pytest.raises(SchemaError):
            Mediator(binary_schema, [source, source])

    def test_bank_schema_shape(self):
        schema = build_bank_schema()
        assert {m.name for m in schema.access_methods} == {
            "EmpOffAcc",
            "EmpManAcc",
            "OfficeInfoAcc",
            "StateApprAcc",
        }
        assert schema.all_dependent()


class TestDynamicStrategies:
    def test_exhaustive_retrieves_accessible_answer(self, small_bank):
        mediator = small_bank.mediator()
        result = exhaustive_strategy(mediator, small_bank.query)
        expected = maximally_contained_answers(
            small_bank.query,
            small_bank.hidden_instance,
            small_bank.initial_configuration(),
        )
        assert result.answers == expected
        assert result.boolean_answer

    def test_relevance_guided_matches_exhaustive_with_fewer_accesses(self, small_bank):
        exhaustive = exhaustive_strategy(small_bank.mediator(), small_bank.query)
        guided = relevance_guided_strategy(small_bank.mediator(), small_bank.query)
        assert guided.boolean_answer == exhaustive.boolean_answer
        assert guided.accesses_made <= exhaustive.accesses_made
        assert guided.relevance_checks > 0

    def test_chain_scenario_strategies_agree(self):
        schema = chain_schema(2)
        query = chain_query(schema, 2)
        instance = Instance(
            schema,
            {"L1": [("start", "m"), ("x", "y")], "L2": [("m", "end"), ("y", "z")]},
        )
        configuration = Configuration.empty(schema)
        domain = schema.relation("L1").domain_of(0)
        configuration.add_constant("start", domain)
        sources = [
            DataSource(method, instance) for method in schema.access_methods
        ]
        exhaustive = exhaustive_strategy(
            Mediator(schema, sources, configuration), query
        )
        guided = relevance_guided_strategy(
            Mediator(schema, sources, configuration), query
        )
        assert exhaustive.boolean_answer
        assert guided.boolean_answer
        assert guided.accesses_made <= exhaustive.accesses_made
