"""Unit tests for the Datalog engine and the accessible-part construction."""

from __future__ import annotations

import pytest

from repro import Configuration, Instance, SchemaBuilder, Variable
from repro.datalog import (
    Literal,
    Program,
    Rule,
    accessible_part,
    accessible_program,
    accessible_values,
    evaluate_program,
    query_database,
)
from repro.exceptions import QueryError


def _x(name: str) -> Variable:
    return Variable(name)


class TestProgram:
    def test_unsafe_rule_rejected(self):
        with pytest.raises(QueryError):
            Rule(Literal("p", (_x("x"),)), (Literal("q", (_x("y"),)),))

    def test_fact_must_be_ground(self):
        with pytest.raises(QueryError):
            Rule(Literal("p", (_x("x"),)))
        fact = Rule(Literal("p", (1,)))
        assert fact.is_fact

    def test_idb_edb_partition(self):
        program = Program(
            [
                Rule(Literal("t", (_x("x"), _x("y"))), (Literal("e", (_x("x"), _x("y"))),)),
                Rule(
                    Literal("t", (_x("x"), _x("z"))),
                    (Literal("e", (_x("x"), _x("y"))), Literal("t", (_x("y"), _x("z")))),
                ),
            ]
        )
        assert program.idb_predicates() == frozenset({"t"})
        assert not program.is_monadic()


class TestEngine:
    def test_transitive_closure(self):
        program = Program(
            [
                Rule(Literal("t", (_x("x"), _x("y"))), (Literal("e", (_x("x"), _x("y"))),)),
                Rule(
                    Literal("t", (_x("x"), _x("z"))),
                    (Literal("e", (_x("x"), _x("y"))), Literal("t", (_x("y"), _x("z")))),
                ),
            ]
        )
        database = evaluate_program(program, {"e": [(1, 2), (2, 3), (3, 4)]})
        assert (1, 4) in database["t"]
        assert len(database["t"]) == 6

    def test_facts_in_program(self):
        program = Program(
            [
                Rule(Literal("base", (1,))),
                Rule(Literal("copy", (_x("x"),)), (Literal("base", (_x("x"),)),)),
            ]
        )
        database = evaluate_program(program, {})
        assert database["copy"] == {(1,)}

    def test_query_database_projection(self):
        program = Program(
            [Rule(Literal("t", (_x("x"), _x("y"))), (Literal("e", (_x("x"), _x("y"))),))]
        )
        database = evaluate_program(program, {"e": [(1, 2), (1, 3)]})
        answers = query_database(database, Literal("t", (1, _x("y"))))
        assert answers == frozenset({(2,), (3,)})


class TestAccessiblePart:
    def _chain_setup(self):
        builder = SchemaBuilder()
        builder.domain("D")
        builder.relation("L1", [("src", "D"), ("dst", "D")])
        builder.relation("L2", [("src", "D"), ("dst", "D")])
        builder.access("m1", "L1", inputs=["src"], dependent=True)
        builder.access("m2", "L2", inputs=["src"], dependent=True)
        schema = builder.build()
        instance = Instance(
            schema,
            {
                "L1": [("a", "b"), ("x", "y")],
                "L2": [("b", "c"), ("y", "z")],
            },
        )
        return schema, instance

    def test_only_reachable_facts_are_accessible(self):
        schema, instance = self._chain_setup()
        configuration = Configuration.empty(schema)
        domain = schema.relation("L1").domain_of(0)
        configuration.add_constant("a", domain)
        reachable = accessible_part(instance, configuration)
        assert reachable.contains("L1", ("a", "b"))
        assert reachable.contains("L2", ("b", "c"))
        assert not reachable.contains("L1", ("x", "y"))
        assert not reachable.contains("L2", ("y", "z"))

    def test_accessible_values(self):
        schema, instance = self._chain_setup()
        configuration = Configuration.empty(schema)
        domain = schema.relation("L1").domain_of(0)
        configuration.add_constant("a", domain)
        values = accessible_values(instance, configuration)
        assert values["D"] == {"a", "b", "c"}

    def test_independent_methods_expose_everything(self):
        builder = SchemaBuilder()
        builder.domain("D")
        builder.relation("R", [("a", "D")])
        builder.access("m", "R", inputs=["a"], dependent=False)
        schema = builder.build()
        instance = Instance(schema, {"R": [("u",), ("v",)]})
        reachable = accessible_part(instance, Configuration.empty(schema))
        assert reachable.size() == 2

    def test_relation_without_access_stays_fixed(self):
        builder = SchemaBuilder()
        builder.domain("D")
        builder.relation("R", [("a", "D")])
        builder.relation("Fixed", [("a", "D")])
        builder.access("m", "R", inputs=[], dependent=True)
        schema = builder.build()
        instance = Instance(schema, {"R": [("u",)], "Fixed": [("w",)]})
        configuration = Configuration(schema, {"Fixed": [("k",)]})
        # "k" is not in the hidden instance, but the point here is reachability:
        # the Fixed relation never grows beyond the configuration.
        reachable = accessible_part(instance, configuration)
        assert reachable.contains("R", ("u",))
        assert reachable.contains("Fixed", ("k",))
        assert not reachable.contains("Fixed", ("w",))

    def test_program_is_well_formed(self):
        schema, _ = self._chain_setup()
        program = accessible_program(schema)
        assert len(program) > 0
        assert "acc_rel__L1" in program.idb_predicates()
