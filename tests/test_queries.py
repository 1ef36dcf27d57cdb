"""Unit tests for repro.queries: terms, atoms, CQs, PQs, parsing, evaluation,
homomorphisms, classical containment, certain answers."""

from __future__ import annotations

import pytest

from repro import (
    Atom,
    Configuration,
    ConjunctiveQuery,
    Instance,
    PositiveQuery,
    Variable,
    certain_answers,
    contained_in,
    cq_contained_in,
    evaluate,
    evaluate_boolean,
    is_certain,
    parse_atom,
    parse_cq,
    parse_pq,
    parse_query,
)
from repro.exceptions import QueryError
from repro.queries import (
    CanonicalInstance,
    canonical_instance,
    find_homomorphism,
    find_homomorphisms,
    freeze_query,
    has_homomorphism,
)
from repro.queries.pq import AndNode, AtomNode, OrNode
from repro.queries.terms import constants_in, is_variable, variables_in
from repro.workloads import chain_schema


class TestTermsAndAtoms:
    def test_variable_identity(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")
        assert is_variable(Variable("x"))
        assert not is_variable("x")

    def test_variables_and_constants_in(self):
        terms = (Variable("x"), "a", Variable("x"), 3)
        assert variables_in(terms) == (Variable("x"),)
        assert constants_in(terms) == ("a", 3)

    def test_atom_arity_checked(self, binary_schema):
        relation = binary_schema.relation("R")
        with pytest.raises(QueryError):
            Atom(relation, (Variable("x"),))

    def test_atom_substitute_and_ground(self, binary_schema):
        relation = binary_schema.relation("R")
        atom = Atom(relation, (Variable("x"), 5))
        grounded = atom.substitute({Variable("x"): 3})
        assert grounded.is_ground()
        assert grounded.ground_values({}) == (3, 5)
        with pytest.raises(QueryError):
            atom.ground_values({})


class TestConjunctiveQuery:
    def test_structure_accessors(self, binary_schema):
        query = parse_cq(binary_schema, "R(x, y), S(y, 5)")
        assert query.is_boolean
        assert set(v.name for v in query.variables) == {"x", "y"}
        assert query.constants == (5,)
        assert query.relation_names() == frozenset({"R", "S"})
        assert query.occurrences("R") == 1

    def test_free_variable_must_occur(self, binary_schema):
        relation = binary_schema.relation("R")
        atom = Atom(relation, (Variable("x"), Variable("y")))
        with pytest.raises(QueryError):
            ConjunctiveQuery((atom,), (Variable("z"),))

    def test_domain_discipline_enforced(self, mixed_schema):
        # Variable x would occur at a D place and an E place.
        with pytest.raises(QueryError):
            parse_cq(mixed_schema, "A(x, y), B(x, z)")

    def test_connected_components(self, binary_schema):
        query = parse_cq(binary_schema, "R(x, y), S(y, z), R(u, v)")
        components = query.connected_components()
        assert len(components) == 2
        assert not query.is_connected()
        assert parse_cq(binary_schema, "R(x, y), S(y, z)").is_connected()

    def test_substitute_drops_bound_free_variables(self, binary_schema):
        query = parse_cq(binary_schema, "Q(x) :- R(x, y)")
        grounded = query.substitute({Variable("x"): 7})
        assert grounded.is_boolean
        assert grounded.atoms[0].terms[0] == 7

    def test_conjoin_and_rename_apart(self, binary_schema):
        left = parse_cq(binary_schema, "R(x, y)")
        right = parse_cq(binary_schema, "S(x, y)").rename_apart("_2")
        combined = left.conjoin(right)
        assert len(combined.atoms) == 2
        assert Variable("x_2") in combined.variables

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            ConjunctiveQuery((), ())


class TestPositiveQuery:
    def test_from_cq_and_to_ucq(self, binary_schema):
        query = parse_pq(binary_schema, "R(x, y) & (S(y, z) | S(z, y))")
        disjuncts = query.to_ucq()
        assert len(disjuncts) == 2
        assert all(len(d.atoms) == 2 for d in disjuncts)

    def test_dnf_blowup_guard(self, binary_schema):
        text = " & ".join(f"(R(a{i}, b{i}) | S(a{i}, b{i}))" for i in range(6))
        query = parse_pq(binary_schema, text)
        with pytest.raises(QueryError):
            query.to_ucq(max_disjuncts=10)

    def test_domain_discipline_enforced(self, mixed_schema):
        with pytest.raises(QueryError):
            parse_pq(mixed_schema, "A(x, y) | B(x, y)")

    def test_substitute(self, binary_schema):
        query = parse_pq(binary_schema, "R(x, y) | S(x, y)")
        grounded = query.substitute({Variable("x"): 1})
        assert 1 in grounded.atoms[0].terms


class TestParser:
    def test_parse_atom_constants(self, binary_schema):
        atom = parse_atom(binary_schema, "R(x, 'hello')")
        assert atom.terms == (Variable("x"), "hello")
        atom2 = parse_atom(binary_schema, "R(3, -2)")
        assert atom2.terms == (3, -2)

    def test_parse_cq_with_head(self, binary_schema):
        query = parse_cq(binary_schema, "Ans(x) :- R(x, y), S(y, z)")
        assert query.name == "Ans"
        assert query.free_variables == (Variable("x"),)

    def test_parse_pq_precedence(self, binary_schema):
        query = parse_pq(binary_schema, "R(x, y) & S(y, z) | S(z, y)")
        # '&' binds tighter than '|': (R & S) | S.
        assert isinstance(query.root, OrNode)

    def test_parse_query_dispatch(self, binary_schema):
        assert isinstance(parse_query(binary_schema, "R(x, y), S(y, z)"), ConjunctiveQuery)
        assert isinstance(parse_query(binary_schema, "R(x, y) | S(x, y)"), PositiveQuery)

    def test_parse_errors(self, binary_schema):
        from repro.exceptions import ReproError

        with pytest.raises(QueryError):
            parse_cq(binary_schema, "R(x, y")
        with pytest.raises(ReproError):
            parse_cq(binary_schema, "Unknown(x)")
        with pytest.raises(QueryError):
            parse_atom(binary_schema, "R(x, y) extra")


class TestEvaluation:
    def test_boolean_cq(self, binary_schema, binary_instance):
        assert evaluate_boolean(parse_cq(binary_schema, "R(x, y), S(y, z)"), binary_instance)
        assert not evaluate_boolean(parse_cq(binary_schema, "R(x, x)"), binary_instance)

    def test_answers_projection(self, binary_schema, binary_instance):
        query = parse_cq(binary_schema, "A(x, z) :- R(x, y), S(y, z)")
        assert evaluate(query, binary_instance) == frozenset({(1, 5), (2, 5)})

    def test_constants_in_query(self, binary_schema, binary_instance):
        assert evaluate_boolean(parse_cq(binary_schema, "R(1, y)"), binary_instance)
        assert not evaluate_boolean(parse_cq(binary_schema, "R(5, y)"), binary_instance)

    def test_pq_structural_evaluation(self, binary_schema, binary_instance):
        query = parse_pq(binary_schema, "R(x, x) | S(x, 5)")
        assert evaluate_boolean(query, binary_instance)
        query2 = parse_pq(binary_schema, "R(x, x) | S(x, 9)")
        assert not evaluate_boolean(query2, binary_instance)

    def test_pq_answers(self, binary_schema, binary_instance):
        query = parse_pq(binary_schema, "A(x) :- R(x, 2) | S(x, 5)")
        assert evaluate(query, binary_instance) == frozenset({(1,), (2,), (3,)})

    def test_boolean_answer_encoding(self, binary_schema, binary_instance):
        query = parse_cq(binary_schema, "R(x, y)")
        assert evaluate(query, binary_instance) == frozenset({()})
        empty = Instance(binary_schema)
        assert evaluate(query, empty) == frozenset()


class TestHomomorphisms:
    def test_find_all_homomorphisms(self, binary_schema, binary_instance):
        query = parse_cq(binary_schema, "R(x, y)")
        homs = list(find_homomorphisms(query.atoms, binary_instance))
        assert len(homs) == 2

    def test_partial_assignment_respected(self, binary_schema, binary_instance):
        query = parse_cq(binary_schema, "R(x, y)")
        homs = list(
            find_homomorphisms(query.atoms, binary_instance, {Variable("x"): 2})
        )
        assert len(homs) == 1
        assert homs[0][Variable("y")] == 3

    def test_freeze_and_canonical_instance(self, binary_schema):
        query = parse_cq(binary_schema, "R(x, y), S(y, 5)")
        store, assignment = freeze_query(query)
        assert store.size() == 2
        assert store.contains("S", (assignment[Variable("y")], 5))
        assert canonical_instance(query).size() == 2

    def test_has_homomorphism(self, binary_schema, binary_instance):
        query = parse_cq(binary_schema, "S(x, 5)")
        assert has_homomorphism(query.atoms, binary_instance)
        assert find_homomorphism(query.atoms, binary_instance) is not None

    @pytest.mark.parametrize("row", [("a",), ("a", "b", "c")])
    def test_rows_of_the_wrong_arity_match_nothing(self, row):
        """A scan-only store and an indexed store agree on short and long
        rows: neither matches them (the scan once raised on the short row
        and matched a prefix of the long one)."""

        class ScanStore:
            def __init__(self, facts):
                self._facts = facts

            def tuples(self, relation):
                return frozenset(self._facts.get(relation, ()))

        query = parse_cq(chain_schema(2), "L1(x, y)")
        facts = {"L1": [row]}
        for store in (ScanStore(facts), CanonicalInstance(facts)):
            assert list(find_homomorphisms(query.atoms, store)) == []
            assert list(find_homomorphisms(query.join_plan, store)) == []
            assert not has_homomorphism(query.atoms, store)


class TestClassicalContainment:
    def test_chandra_merlin(self, binary_schema):
        specific = parse_cq(binary_schema, "R(x, y), R(y, z)")
        general = parse_cq(binary_schema, "R(u, v)")
        assert cq_contained_in(specific, general)
        assert not cq_contained_in(general, specific)

    def test_containment_with_constants(self, binary_schema):
        specific = parse_cq(binary_schema, "R(1, y)")
        general = parse_cq(binary_schema, "R(x, y)")
        assert cq_contained_in(specific, general)
        assert not cq_contained_in(general, specific)

    def test_non_boolean_containment(self, binary_schema):
        specific = parse_cq(binary_schema, "Q(x) :- R(x, y), S(y, z)")
        general = parse_cq(binary_schema, "Q(u) :- R(u, v)")
        assert cq_contained_in(specific, general)
        assert not cq_contained_in(general, specific)

    def test_arity_mismatch_rejected(self, binary_schema):
        boolean = parse_cq(binary_schema, "R(x, y)")
        unary = parse_cq(binary_schema, "Q(x) :- R(x, y)")
        with pytest.raises(QueryError):
            cq_contained_in(boolean, unary)

    def test_pq_containment(self, binary_schema):
        union = parse_pq(binary_schema, "R(x, y) | S(x, y)")
        left = parse_cq(binary_schema, "R(x, y)")
        assert contained_in(left, union)
        assert not contained_in(union, left)

    def test_ucq_disjunct_not_contained_in_single_disjunct(self, binary_schema):
        # Containment of a UCQ does not require each disjunct to be contained
        # in a fixed disjunct of the right-hand side; but it does require each
        # disjunct to be contained in the whole right-hand side.
        union = parse_pq(binary_schema, "R(x, y) | S(x, y)")
        right = parse_pq(binary_schema, "S(a, b) | R(a, b)")
        assert contained_in(union, right)


class TestCertainAnswers:
    def test_certain_equals_evaluation_on_configuration(self, binary_schema):
        configuration = Configuration(binary_schema, {"R": [(1, 2)], "S": [(2, 3)]})
        query = parse_cq(binary_schema, "R(x, y), S(y, z)")
        assert is_certain(query, configuration)
        assert certain_answers(query, configuration) == frozenset({()})

    def test_not_certain_on_partial_configuration(self, binary_schema):
        configuration = Configuration(binary_schema, {"R": [(1, 2)]})
        query = parse_cq(binary_schema, "R(x, y), S(y, z)")
        assert not is_certain(query, configuration)

    def test_certain_answers_with_free_variables(self, binary_schema):
        configuration = Configuration(binary_schema, {"R": [(1, 2), (4, 2)]})
        query = parse_cq(binary_schema, "A(x) :- R(x, 2)")
        assert certain_answers(query, configuration) == frozenset({(1,), (4,)})
