"""Equivalence properties for the indexed evaluation core.

The indexed paths introduced for performance must be *observationally
identical* to the naive reference implementations they replaced:

* the join kernel over an :class:`Instance`, a :class:`CanonicalInstance`
  and a scan-only store returns exactly the assignments of a brute-force
  reference (the product of the store's values over the variables);
* indexed semi-naive Datalog evaluation computes the same fixpoint as the
  naive evaluator, on the accessible-part program and on recursive programs;
* the incremental caches of :class:`Instance` (active domain, fingerprint,
  per-domain pools) agree with recomputation from scratch after arbitrary
  add/remove sequences;
* the incremental relevance engine (fingerprint memoization, delta
  inheritance, witness revalidation, screening adoption) serves exactly the
  verdict a fresh, cache-free ``is_long_term_relevant`` run computes on the
  same configuration, across arbitrary sequences of additions and removals;
* the one-replay ``LtrWitness.revalidate`` and the truncation-only
  ``LtrWitness.recheck_truncation`` answer what the copy-based ``AccessPath``
  reference (``is_well_formed``, ``final_configuration``, ``truncation``)
  answers, and leave the configuration exactly as they found it;
* the ground-once witness kernel with first-fact pruning yields exactly the
  groundings of the dict-yielding reference enumerator it replaced, in
  order, and every decision procedure built on it keeps its verdicts and
  witness steps;
* the delta check ``holds_after_adding`` answers exactly what evaluating the
  query on a copy extended with the facts answers, leaves the configuration
  untouched (even when its join raises), and keeps the witnesses of
  containment and the verdicts of ``is_ltr_independent``.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Access, Configuration, Instance, SchemaBuilder
from repro.chase.fresh import FreshConstants
from repro.core import (
    assignments,
    containment,
    decide_containment,
    immediate,
    is_immediately_relevant,
    is_long_term_relevant,
    is_ltr_independent,
    longterm_dependent,
    longterm_independent,
)
from repro.core.assignments import (
    holds_after_adding,
    iter_witness_assignments,
    split_grounding,
    witnessable_atom_checker,
)
from repro.core.longterm_dependent import containment_cq_memo, find_ltr_witness_steps
from repro.data import AccessPath, AccessResponse
from repro.datalog import accessible_program
from repro.datalog.engine import evaluate_program, evaluate_program_naive
from repro.queries import (
    Atom,
    CanonicalInstance,
    ConjunctiveQuery,
    evaluate_boolean,
    find_homomorphisms,
    has_homomorphism,
)
from repro.queries.terms import Variable, is_variable
from repro.runtime import LtrWitness, QueryServer, RelevanceOracle, RuntimeMetrics
from repro.runtime.executor import candidate_accesses
from repro.workloads import (
    MultiQueryScenario,
    bank_multi_query_scenario,
    fanout_scenario,
    random_configuration,
    random_cq,
    random_instance,
    random_pq,
    random_schema,
)


def _schema():
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("R", [("a", "D"), ("b", "D")])
    builder.relation("S", [("a", "D"), ("b", "D")])
    builder.access("mR", "R", inputs=["b"], dependent=True)
    builder.access("mS", "S", inputs=[], dependent=False)
    return builder.build()


SCHEMA = _schema()
VALUES = st.sampled_from(["v0", "v1", "v2", "v3"])
PAIRS = st.tuples(VALUES, VALUES)
FACTSETS = st.fixed_dictionaries(
    {
        "R": st.lists(PAIRS, max_size=6),
        "S": st.lists(PAIRS, max_size=6),
    }
)
QUERIES = st.integers(min_value=0, max_value=300).map(
    lambda seed: random_cq(SCHEMA, atoms=3, variables=3, seed=seed)
)

common_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class _ScanStore:
    """A fact store exposing only ``tuples``: forces the scan fallback."""

    def __init__(self, instance: Instance) -> None:
        self._instance = instance

    def tuples(self, relation):
        return self._instance.tuples(relation)


def _assignment_set(assignments):
    return {frozenset(assignment.items()) for assignment in assignments}


def brute_force_homomorphisms(atoms, instance, partial):
    """The join's independent reference: every assignment of the atoms'
    variables outside ``partial`` to the store's values, extended with
    ``partial``, that makes every atom a fact."""
    values = sorted(
        {
            value
            for relation in SCHEMA.relations
            for row in instance.tuples(relation)
            for value in row
        }
    )
    variables = [
        variable
        for variable in dict.fromkeys(
            term for atom in atoms for term in atom.terms if is_variable(term)
        )
        if variable not in partial
    ]
    found = set()
    for choice in itertools.product(values, repeat=len(variables)):
        assignment = dict(partial)
        assignment.update(zip(variables, choice))
        if all(
            instance.contains(atom.relation.name, atom.ground_values(assignment))
            for atom in atoms
        ):
            found.add(frozenset(assignment.items()))
    return found


_X, _Y, _Z, _OUTSIDE = (Variable(name) for name in ("x", "y", "z", "w"))
_TERMS = st.sampled_from([_X, _Y, _Z, "v0", "v1"])
#: Bodies of 0-3 atoms over R and S: constants and repeated variables
#: (``R(x, x)``) arise, as do joins and cross products.
_BODIES = st.one_of(
    QUERIES.map(lambda query: query.atoms),
    st.lists(
        st.builds(
            lambda name, first, second: Atom(SCHEMA.relation(name), (first, second)),
            st.sampled_from(["R", "S"]),
            _TERMS,
            _TERMS,
        ),
        max_size=3,
    ).map(tuple),
)
#: Partial assignments, possibly binding ``w``, which no body mentions.
_PARTIALS = st.dictionaries(st.sampled_from([_X, _OUTSIDE]), VALUES, max_size=2)


@common_settings
@given(facts=FACTSETS, atoms=_BODIES, partial=_PARTIALS, limit=st.integers(1, 3))
@example(facts={"R": [], "S": []}, atoms=(), partial={_OUTSIDE: "v0"}, limit=1)
@example(
    facts={"R": [("v0", "v0"), ("v0", "v1")], "S": [("v0", "v0"), ("v1", "v0")]},
    atoms=(Atom(SCHEMA.relation("R"), (_X, _X)), Atom(SCHEMA.relation("S"), (_Y, "v0"))),
    partial={_OUTSIDE: "v3"},
    limit=1,
)
def test_indexed_homomorphisms_match_scan_search(facts, atoms, partial, limit):
    """The indexed, canonical and scan-only stores all enumerate exactly the
    brute-force reference's homomorphisms, each once; ``limit=k`` gives the
    first k of the unlimited enumeration; the empty body gives the partial."""
    instance = Instance(SCHEMA, facts)
    expected = brute_force_homomorphisms(atoms, instance, partial)
    canonical = CanonicalInstance(
        {relation.name: instance.tuples(relation) for relation in SCHEMA.relations}
    )
    for store in (instance, canonical, _ScanStore(instance)):
        found = list(find_homomorphisms(atoms, store, partial))
        assert len(found) == len(expected)
        assert _assignment_set(found) == expected
        assert list(find_homomorphisms(atoms, store, partial, limit=limit)) == found[:limit]
        assert has_homomorphism(atoms, store, partial) == bool(expected)
        if not atoms:
            assert found == [partial]


@common_settings
@given(facts=FACTSETS, seeds=st.lists(VALUES, min_size=1, max_size=2))
def test_semi_naive_accessible_program_matches_naive(facts, seeds):
    instance = Instance(SCHEMA, facts)
    configuration = Configuration.empty(SCHEMA)
    domain = SCHEMA.relation("R").domain_of(0)
    for seed in seeds:
        configuration.add_constant(seed, domain)
    program = accessible_program(SCHEMA)
    edb = {relation.name: instance.tuples(relation) for relation in SCHEMA.relations}
    for value, dom in configuration.active_domain():
        edb.setdefault(f"acc_dom__{dom.name}", set()).add((value,))
    fast = evaluate_program(program, edb)
    slow = evaluate_program_naive(program, edb)
    assert {k: v for k, v in fast.items() if v} == {k: v for k, v in slow.items() if v}


@common_settings
@given(edges=st.lists(PAIRS, max_size=8))
def test_semi_naive_transitive_closure_matches_naive(edges):
    from repro.datalog.program import Literal, Program, Rule
    from repro.queries.terms import Variable

    x, y, z = Variable("x"), Variable("y"), Variable("z")
    program = Program(
        [
            Rule(Literal("t", (x, y)), (Literal("e", (x, y)),)),
            Rule(Literal("t", (x, z)), (Literal("t", (x, y)), Literal("e", (y, z)))),
        ]
    )
    edb = {"e": set(edges)}
    fast = evaluate_program(program, edb)
    slow = evaluate_program_naive(program, edb)
    assert fast.get("t", set()) == slow.get("t", set())


@common_settings
@given(
    facts=FACTSETS,
    removals=st.lists(st.tuples(st.sampled_from(["R", "S"]), PAIRS), max_size=4),
    additions=st.lists(st.tuples(st.sampled_from(["R", "S"]), PAIRS), max_size=4),
)
def test_incremental_caches_agree_with_recomputation(facts, removals, additions):
    instance = Instance(SCHEMA, facts)
    for relation, row in removals:
        instance.remove(relation, row)
    for relation, row in additions:
        instance.add(relation, row)

    rebuilt = Instance(SCHEMA)
    for fact in instance.facts():
        rebuilt.add_fact(fact)

    assert instance.active_domain() == rebuilt.active_domain()
    assert instance.fingerprint() == rebuilt.fingerprint()
    assert instance.size() == rebuilt.size()
    assert instance.active_values_by_domain() == rebuilt.active_values_by_domain()
    # Index consistency: every bound lookup equals a filtered scan.
    for relation in ("R", "S"):
        for row in instance.tuples(relation):
            for place, value in enumerate(row):
                via_index = set(instance.tuples_matching(relation, {place: value}))
                via_scan = {
                    other
                    for other in instance.tuples(relation)
                    if other[place] == value
                }
                assert via_index == via_scan


_FANOUT = fanout_scenario(2)
_M = _FANOUT.schema.relation("Hub").domain_of(1)
_GROWTH_FACTS = st.sampled_from(
    [
        ("Hub", ("start", "m0")),
        ("Hub", ("start", "m1")),
        ("B1", ("m0", "p")),
        ("B1", ("m1", "q")),
        ("B2", ("m0", "r")),
        ("B2", ("m1", "r")),
        ("Audit", ("m0", "n0")),
        ("Audit", ("m1", "n1")),
    ]
)
_PROBES = [
    Access(_FANOUT.schema.access_method("accHub"), ("start",)),
    Access(_FANOUT.schema.access_method("accB1"), ("m0",)),
    Access(_FANOUT.schema.access_method("accB2"), ("m1",)),
    Access(_FANOUT.schema.access_method("accAudit"), ("m0",)),
]


#: A move adds or removes one fact; all-"add" lists are the growth sequences.
_MOVES = st.tuples(st.sampled_from(["add", "remove"]), _GROWTH_FACTS)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(moves=st.lists(_MOVES, max_size=5))
@example(
    moves=[
        ("add", ("Hub", ("start", "m0"))),
        ("add", ("Hub", ("start", "m1"))),
        ("remove", ("Hub", ("start", "m0"))),
    ]
)
def test_incremental_ltr_verdicts_match_fresh_search(moves):
    """Every oracle answer — memoized, delta-inherited, or served by witness
    revalidation (full or truncation-only) — equals a fresh
    ``is_long_term_relevant`` run on the same configuration content, across
    additions and removals.

    The pinned example revalidates ``accB1(m0)``'s witness at
    ``{Hub(start, m0), Hub(start, m1)}``, then removes ``Hub(start, m0)``:
    the configuration no longer contains that revalidation's snapshot, so
    the truncation-only check must not run (it would keep the now
    ill-formed path)."""
    schema = _FANOUT.schema
    query = _FANOUT.query
    oracle = RelevanceOracle(query, schema, metrics=RuntimeMetrics())
    configuration = _FANOUT.configuration.copy()
    for move in [None] + list(moves):
        if move is not None:
            kind, (relation, values) = move
            if kind == "add":
                configuration.add(relation, values)
            else:
                configuration.remove(relation, values)
        for probe in _PROBES:
            incremental = oracle.long_term_relevant(probe, configuration)
            fresh = is_long_term_relevant(query, probe, configuration, schema)
            assert incremental == fresh
            # Asking again is an exact-fingerprint hit and must not flip.
            assert oracle.long_term_relevant(probe, configuration) == fresh


def _fanout_step(method_name, binding, outputs):
    method = _FANOUT.schema.access_method(method_name)
    return AccessResponse(
        Access(method, (binding,)), tuple((binding, value) for value in outputs)
    )


_MIDS = st.sampled_from(["m0", "m1", "m2"])
#: One access and its response per step, over every ``_FANOUT`` method.  A
#: binding may be missing from the active domain (an ill-formed step), may
#: only enter it through an earlier step (e.g. ``accB1(m0)`` after
#: ``accHub(start)`` returned ``m0``), or may not depend on earlier steps at
#: all; responses may repeat configuration facts.
_FANOUT_STEPS = st.one_of(
    st.builds(
        _fanout_step,
        st.just("accHub"),
        st.sampled_from(["start", "s1"]),
        st.lists(_MIDS, max_size=2, unique=True),
    ),
    st.builds(
        _fanout_step,
        st.just("accB1"),
        _MIDS,
        st.lists(st.sampled_from(["p", "q"]), max_size=2, unique=True),
    ),
    st.builds(
        _fanout_step,
        st.just("accB2"),
        _MIDS,
        st.lists(st.sampled_from(["r", "t"]), max_size=2, unique=True),
    ),
    st.builds(_fanout_step, st.just("accAudit"), _MIDS, st.lists(st.just("n0"), max_size=1)),
)


@st.composite
def _witness_shaped_paths(draw):
    """``accHub(start)``, ``accB1(m)`` and ``accB2(m)`` for one ``m``, one
    of them probed first, with up to two random steps inserted: the query
    holds at the end of every well-formed one."""
    mid = draw(st.sampled_from(["m0", "m1"]))
    rest = [
        _fanout_step("accHub", "start", [mid]),
        _fanout_step("accB1", mid, ["p"]),
        _fanout_step("accB2", mid, ["r"]),
    ]
    probed = rest.pop(draw(st.integers(min_value=0, max_value=2)))
    for step in draw(st.lists(_FANOUT_STEPS, max_size=2)):
        rest.insert(draw(st.integers(min_value=0, max_value=len(rest))), step)
    return (probed, *rest)


_FANOUT_PATHS = st.one_of(
    st.lists(_FANOUT_STEPS, min_size=1, max_size=4).map(tuple),
    _witness_shaped_paths(),
)


def _reference_witnesses(query, configuration, steps) -> bool:
    """The copy-based reference: the path is well-formed, the query holds at
    its end and fails on its truncation, each on a configuration copy."""
    path = AccessPath(configuration, list(steps))
    return (
        path.is_well_formed()
        and evaluate_boolean(query, path.final_configuration())
        and not evaluate_boolean(query, path.truncation().final_configuration())
    )


def _configuration_state(configuration):
    """What a read-only replay must leave alone: the content, fingerprint and
    active domain, and the cached active-domain set and per-relation
    ``tuples()`` views themselves.  Those are also compared by ``id``, so a
    replay that invalidates a cache and rebuilds an equal one is caught (the
    returned state keeps the cached objects alive, so no id is reused)."""
    relations = configuration.schema.relations
    active_domain = configuration.active_domain()
    views = {relation.name: configuration.tuples(relation) for relation in relations}
    return (
        configuration.fingerprint(),
        active_domain,
        views,
        id(active_domain),
        {name: id(view) for name, view in views.items()},
    )


#: A valid witness whose middle step is ill-formed without the probed
#: access and whose later step does not depend on it: the truncation ends
#: at the middle step and drops the later one with it.
_TRUNCATED_WITNESS = (
    _fanout_step("accHub", "start", ["m1", "m0"]),
    _fanout_step("accB1", "m0", ["p"]),
    _fanout_step("accB2", "m1", ["r"]),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    facts=st.lists(_GROWTH_FACTS, max_size=4),
    steps=_FANOUT_PATHS,
    extra=st.lists(_GROWTH_FACTS, min_size=1, max_size=3),
)
@example(
    facts=[("Hub", ("start", "m1")), ("B1", ("m1", "q"))],
    steps=_TRUNCATED_WITNESS,
    extra=[("Hub", ("start", "m0"))],
)
@example(
    facts=[("Hub", ("start", "m1")), ("B1", ("m1", "q"))],
    steps=_TRUNCATED_WITNESS,
    extra=[("Audit", ("m1", "n1"))],
)
def test_revalidation_matches_copy_based_reference(facts, steps, extra):
    """The one-replay ``LtrWitness.revalidate`` answers what the copy-based
    ``AccessPath`` reference answers and leaves the configuration, and its
    cached active domain and relation views, untouched;
    on any ``C' ⊇ C`` of a path valid at ``C``, ``recheck_truncation`` at
    ``C'`` answers what the reference answers at ``C'``."""
    query = _FANOUT.query
    configuration = _FANOUT.configuration.copy()
    for relation, values in facts:
        configuration.add(relation, values)
    witness = LtrWitness(steps)
    before = _configuration_state(configuration)
    expected = _reference_witnesses(query, configuration, steps)
    assert witness.revalidate(query, configuration) == expected
    assert _configuration_state(configuration) == before
    if not expected:
        return
    grown = configuration.copy()
    for relation, values in extra:
        grown.add(relation, values)
    grown_before = _configuration_state(grown)
    assert witness.recheck_truncation(query, grown) == _reference_witnesses(
        query, grown, steps
    )
    assert _configuration_state(grown) == grown_before


def test_fingerprint_distinguishes_minus_one_from_minus_two():
    """Regression: CPython's hash(-1) == hash(-2) must not collide
    fingerprints of configurations over ordinary integer data."""
    builder = SchemaBuilder()
    builder.domain("N")
    builder.relation("T", [("a", "N")])
    schema = builder.build()
    one = Instance(schema, {"T": [(-1,)]})
    two = Instance(schema, {"T": [(-2,)]})
    assert one.fingerprint() != two.fingerprint()

    domain = schema.relation("T").domain_of(0)
    c1 = Configuration(schema)
    c1.add_constant(-1, domain)
    c2 = Configuration(schema)
    c2.add_constant(-2, domain)
    assert c1.fingerprint() != c2.fingerprint()


@common_settings
@given(facts=FACTSETS, extra=PAIRS)
def test_fingerprint_is_content_based(facts, extra):
    one = Instance(SCHEMA, facts)
    # Same content inserted in a different order fingerprints identically.
    other = Instance(SCHEMA)
    for fact in reversed(list(one.facts())):
        other.add_fact(fact)
    assert one.fingerprint() == other.fingerprint()

    changed = one.copy()
    if changed.add("R", extra):
        assert changed.fingerprint() != one.fingerprint()
        changed.remove("R", extra)
        assert changed.fingerprint() == one.fingerprint()


# --------------------------------------------------------------------------- #
# The ground-once witness kernel against the dict-yielding reference
# --------------------------------------------------------------------------- #
def reference_witness_assignments(
    atoms,
    variable_domains,
    configuration,
    access=None,
    *,
    schema=None,
    fresh_per_domain: int = 1,
    max_assignments: Optional[int] = None,
    prefer_fresh: bool = False,
    preferred_values: Sequence[object] = (),
    atom_feasible: Optional[Callable[[int, Tuple[object, ...]], bool]] = None,
):
    """The enumerator the ground-once kernel replaced, kept as the reference.

    It yields one ``{Variable: value}`` dict per assignment over the same
    useful values, canonical fresh choices and per-atom pruning, and has no
    first-fact pruning: callers grounded every atom of every assignment, and
    the long-term relevance searches dropped the groundings without a
    first-access fact afterwards.
    """
    atoms = tuple(atoms)
    variables: List[Variable] = []
    for atom in atoms:
        for variable in atom.variables:
            if variable not in variables:
                variables.append(variable)

    useful: Dict[Variable, set] = {variable: set() for variable in variables}
    binding_by_place = access.binding_by_place if access is not None else {}
    seed_constants = getattr(configuration, "seed_constants", frozenset())
    for atom in atoms:
        rows = configuration.tuples(atom.relation.name)
        for place, term in enumerate(atom.terms):
            if term not in useful:
                continue
            for row in rows:
                useful[term].add(row[place])
            if (
                access is not None
                and atom.relation.name == access.relation.name
                and place in binding_by_place
            ):
                useful[term].add(binding_by_place[place])
    for variable in variables:
        domain = variable_domains[variable]
        for value, constant_domain in seed_constants:
            if constant_domain == domain:
                useful[variable].add(value)

    if schema is not None:
        adom = configuration.active_domain()
        input_place_variables = set()
        for atom in atoms:
            if not schema.has_relation(atom.relation.name):
                continue
            input_places = set()
            for method in schema.methods_for(atom.relation.name):
                if method.dependent:
                    input_places.update(method.input_places)
            for place in input_places:
                term = atom.terms[place]
                if term in useful:
                    input_place_variables.add(term)
        for variable in input_place_variables:
            domain = variable_domains[variable]
            for value, value_domain in adom:
                if value_domain == domain:
                    useful[variable].add(value)

    fresh = FreshConstants({value for value, _ in configuration.active_domain()})
    fresh_pools: Dict[str, Tuple[object, ...]] = {}
    known_pools = []
    for variable in variables:
        domain = variable_domains[variable]
        if domain.is_enumerated:
            pool = tuple(sorted(domain.values or (), key=repr))
            if preferred_values:
                front = tuple(v for v in preferred_values if v in pool)
                if front:
                    pool = front + tuple(v for v in pool if v not in front)
            if not pool:
                return
            known_pools.append(((), pool))
        else:
            if domain.name not in fresh_pools:
                fresh_pools[domain.name] = fresh.several(domain, fresh_per_domain)
            known = tuple(sorted(useful[variable], key=repr))
            preferred_front: Tuple[object, ...] = ()
            if preferred_values:
                preferred_front = tuple(v for v in preferred_values if v in known)
                if preferred_front:
                    known = tuple(v for v in known if v not in preferred_front)
            known_pools.append((preferred_front, known))

    variable_index = {variable: index for index, variable in enumerate(variables)}
    compiled = []
    for atom in atoms:
        slots = tuple(
            (variable_index[term], None) if is_variable(term) else (-1, term)
            for term in atom.terms
        )
        last_depth = max(
            (variable_index[term] for term in atom.terms if is_variable(term)),
            default=-1,
        )
        compiled.append((slots, last_depth))

    def ground(slots, chosen):
        return tuple(chosen[index] if index >= 0 else constant for index, constant in slots)

    if atom_feasible is not None:
        for atom_index, (slots, last_depth) in enumerate(compiled):
            if last_depth == -1 and not atom_feasible(atom_index, ground(slots, [])):
                return
    atoms_at_depth: Dict[int, List[int]] = {}
    if atom_feasible is not None:
        for atom_index, (_slots, last_depth) in enumerate(compiled):
            if last_depth >= 0:
                atoms_at_depth.setdefault(last_depth, []).append(atom_index)

    total = len(variables)
    chosen: List[object] = [None] * total
    used_fresh = {name: 0 for name in fresh_pools}
    produced = 0

    def expand(depth):
        nonlocal produced
        if depth == total:
            yield dict(zip(variables, chosen))
            produced += 1
            return
        preferred_front, known = known_pools[depth]
        domain = variable_domains[variables[depth]]
        if domain.is_enumerated:
            choices = [(value, False) for value in known]
        else:
            pool = fresh_pools[domain.name]
            used = used_fresh[domain.name]
            fresh_choices = [(value, False) for value in pool[:used]]
            if used < len(pool):
                fresh_choices.append((pool[used], True))
            front_choices = [(value, False) for value in preferred_front]
            known_choices = [(value, False) for value in known]
            if prefer_fresh:
                choices = front_choices + fresh_choices + known_choices
            else:
                choices = front_choices + known_choices + fresh_choices
        for value, is_new_fresh in choices:
            if max_assignments is not None and produced >= max_assignments:
                return
            chosen[depth] = value
            if is_new_fresh:
                used_fresh[domain.name] += 1
            feasible = all(
                atom_feasible(atom_index, ground(compiled[atom_index][0], chosen))
                for atom_index in atoms_at_depth.get(depth, ())
            )
            if feasible:
                yield from expand(depth + 1)
            if is_new_fresh:
                used_fresh[domain.name] -= 1

    yield from expand(0)


def _has_first_fact(atoms, grounding, configuration, access) -> bool:
    return any(
        not configuration.contains(atom.relation.name, values)
        and atom.relation.name == access.relation.name
        and access.matches(values)
        for atom, values in zip(atoms, grounding)
    )


def unfiltered_reference_groundings(
    atoms, variable_domains, configuration, access=None, **options
):
    """The reference's assignments grounded atom by atom, in order."""
    atoms = tuple(atoms)
    for assignment in reference_witness_assignments(
        atoms, variable_domains, configuration, access, **options
    ):
        yield tuple(atom.ground_values(assignment) for atom in atoms)


def reference_groundings(atoms, variable_domains, configuration, access=None, **options):
    """The reference's groundings, with a first-access fact when probing.

    With an ``access`` only the groundings with a first-access fact are
    kept, which is the filter the long-term relevance callers applied after
    grounding.
    """
    atoms = tuple(atoms)
    for grounding in unfiltered_reference_groundings(
        atoms, variable_domains, configuration, access, **options
    ):
        if access is None or _has_first_fact(atoms, grounding, configuration, access):
            yield grounding


_KERNEL_CALLERS = (containment, immediate, longterm_dependent, longterm_independent)


@contextlib.contextmanager
def _through_reference():
    """Route every decision procedure's enumeration through the reference.

    Immediate relevance applied no first-fact filter, so it gets the
    unfiltered reference: equal verdicts show the kernel's pruning loses
    none of its witnesses.
    """
    with contextlib.ExitStack() as stack:
        for module in _KERNEL_CALLERS:
            reference = (
                unfiltered_reference_groundings
                if module is immediate
                else reference_groundings
            )
            stack.enter_context(
                mock.patch.object(module, "iter_witness_assignments", reference)
            )
        yield


def _random_case(seed: int):
    """A generated (schema, configuration, query, access, other query) case."""
    rng = random.Random(seed)
    schema = random_schema(
        relations=rng.randint(2, 4),
        domains=rng.randint(1, 2),
        dependent_ratio=rng.random(),
        methods_per_relation=rng.randint(1, 2),
        seed=seed,
    )
    instance = random_instance(
        schema, tuples_per_relation=rng.randint(2, 5), value_pool=4, seed=seed
    )
    configuration = random_configuration(instance, fraction=0.6 * rng.random(), seed=seed)
    if rng.random() < 0.6:
        query = random_cq(schema, atoms=rng.randint(2, 4), variables=rng.randint(2, 4), seed=seed)
    else:
        query = random_pq(schema, disjuncts=2, atoms_per_disjunct=2, variables=3, seed=seed)
    method = rng.choice(schema.access_methods)
    active = sorted(configuration.active_domain(), key=repr)
    binding = []
    for place in method.input_places:
        domain = method.relation.domain_of(place)
        pool = [value for value, dom in active if dom == domain] if rng.random() < 0.8 else []
        binding.append(rng.choice(pool or [f"{domain.name.lower()}{i}" for i in range(4)]))
    other = random_cq(schema, atoms=rng.randint(1, 2), variables=2, seed=seed + 1000)
    return schema, configuration, query, Access(method, tuple(binding)), other


CASES = st.integers(min_value=0, max_value=100_000).map(_random_case)
_SMALL_SEARCH = containment.ContainmentOptions(max_nodes=2000, max_plans_per_assignment=8)


def _disjuncts(query):
    return query.to_ucq() if hasattr(query, "to_ucq") else (query,)


@common_settings
@given(
    case=CASES,
    with_access=st.booleans(),
    with_schema=st.booleans(),
    with_feasibility=st.booleans(),
    prefer_fresh=st.booleans(),
)
def test_kernel_groundings_match_reference_in_order(
    case, with_access, with_schema, with_feasibility, prefer_fresh
):
    schema, configuration, query, probe, _other = case
    access = probe if with_access else None
    for disjunct in _disjuncts(query):
        options = dict(
            schema=schema if with_schema else None,
            fresh_per_domain=max(1, len(disjunct.variables)),
            prefer_fresh=prefer_fresh,
            preferred_values=probe.binding if prefer_fresh else (),
            atom_feasible=(
                witnessable_atom_checker(disjunct.atoms, configuration, schema, access)
                if with_feasibility
                else None
            ),
        )
        args = (disjunct.atoms, disjunct.variable_domains(), configuration, access)
        assert list(iter_witness_assignments(*args, **options)) == list(
            reference_groundings(*args, **options)
        )


def _steps_signature(steps):
    if steps is None:
        return None
    return [(step.access, sorted(step.facts, key=repr)) for step in steps]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_decision_procedures_match_reference_enumeration(case):
    schema, configuration, query, access, other = case

    def decide():
        return (
            _steps_signature(
                find_ltr_witness_steps(
                    query, access, configuration, schema, options=_SMALL_SEARCH
                )
            ),
            is_ltr_independent(query, access, configuration, schema),
            is_immediately_relevant(query, access, configuration),
            decide_containment(other, query, schema, configuration, _SMALL_SEARCH),
        )

    kernel = decide()
    with _through_reference():
        reference = decide()
    assert kernel == reference


def test_unused_probe_enumerates_no_first_fact_grounding():
    """``EmpManAcc`` probes ``Manager``, which no bank subgoal uses: the
    shape-1 search enumerates nothing, and the access stays relevant through
    the generic-response shape."""
    scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
    schema, query = scenario.schema, scenario.queries[0]
    counts = {True: 0, False: 0}

    def counting(atoms, variable_domains, configuration, access, **kwargs):
        for grounding in iter_witness_assignments(
            atoms, variable_domains, configuration, access, **kwargs
        ):
            counts[access is not None] += 1
            yield grounding

    manager = Access(schema.access_method("EmpManAcc"), ("emp0",))
    office = Access(schema.access_method("EmpOffAcc"), ("emp0",))
    with mock.patch.object(longterm_dependent, "iter_witness_assignments", counting):
        assert find_ltr_witness_steps(query, manager, scenario.configuration, schema)
        assert counts[True] == 0 and counts[False] > 0
        assert find_ltr_witness_steps(query, office, scenario.configuration, schema)
        assert counts[True] > 0


@pytest.mark.parametrize(
    "kwargs, fresh_searches, sibling_hits, accesses",
    [
        (dict(n_queries=8, employees=6, offices=3, states=4), 24, 48, 15),
        ({}, 42, 60, 19),
    ],
)
def test_bank_batches_keep_their_search_and_access_counts(
    kwargs, fresh_searches, sibling_hits, accesses
):
    """The bank's queries are one template: a sibling's witness, translated
    by the constants, replaces a positive fresh search one for one (the two
    sum to the 72 and 102 searches made without sibling hints)."""
    containment_cq_memo().clear()
    scenario = bank_multi_query_scenario(**kwargs)
    metrics = RuntimeMetrics()
    with QueryServer(scenario.mediator(), metrics=metrics) as server:
        result = server.answer(scenario.queries)
    counters = metrics.snapshot()["counters"]
    assert counters["oracle.fresh_searches"] == fresh_searches
    assert counters["oracle.sibling_hits"] == sibling_hits
    assert result.accesses_made == accesses


def _template_family(seed: int) -> Optional[MultiQueryScenario]:
    """One ``random_cq`` with a constant, instantiated three times.

    Each instance replaces every constant position by a value the hidden
    instance holds in that place's domain, so the queries are siblings: one
    template, different constants (equal or not, position by position).
    The query constants are seeded into the configuration, as the bank
    scenario seeds its own.  Relations have arity at most 2, which keeps
    the slow tail of the generated corpus (ROADMAP items 9 and 10) out of a
    tier-1 property.  ``None`` when the drawn query has no constant.
    """
    rng = random.Random(seed)
    schema = random_schema(
        relations=rng.randint(2, 3),
        max_arity=2,
        domains=rng.randint(1, 2),
        dependent_ratio=rng.choice([rng.random(), 1.0]),
        seed=seed,
    )
    instance = random_instance(
        schema, tuples_per_relation=rng.randint(2, 4), value_pool=3, seed=seed
    )
    configuration = random_configuration(instance, fraction=0.3 * rng.random(), seed=seed)
    template = random_cq(
        schema, atoms=2, variables=2, constant_probability=0.5, value_pool=3, seed=seed
    )
    if not template.constants:
        return None
    values: Dict[object, List[object]] = {}
    for value, domain in sorted(instance.active_domain(), key=repr):
        values.setdefault(domain, []).append(value)
    queries = []
    for index in range(3):
        atoms = []
        for atom in template.atoms:
            terms = tuple(
                term
                if is_variable(term)
                else rng.choice(values.get(atom.relation.domain_of(place), [term]))
                for place, term in enumerate(atom.terms)
            )
            atoms.append(Atom(atom.relation, terms))
        query = ConjunctiveQuery(tuple(atoms), (), f"sibling{index}")
        for value, domain in query.constants_with_domains():
            configuration.add_constant(value, domain)
        queries.append(query)
    return MultiQueryScenario(
        f"family{seed}", schema, configuration, tuple(queries), instance
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_sibling_hints_keep_answers_and_verdicts(seed):
    """Guided answers with sibling hints equal the exhaustive strategy's, and
    every registry oracle's verdict at the final configuration equals the
    fresh procedure's, for every well-formed access.

    Where an independent method has an input place the guided answers may
    be a strict subset (ROADMAP item 11), so only inclusion is asserted
    there."""
    scenario = _template_family(seed)
    if scenario is None:
        return
    containment_cq_memo().clear()
    mediator = scenario.mediator()
    with QueryServer(mediator) as server:
        guided = server.answer(scenario.queries)
        oracles = list(server._stores.values())
    with QueryServer(scenario.mediator()) as server:
        exhaustive = server.answer(scenario.queries, strategy="exhaustive")
    schema = scenario.schema
    if any(not m.dependent and m.input_places for m in schema.access_methods):
        assert all(g <= e for g, e in zip(guided.answers, exhaustive.answers))
    else:
        assert guided.answers == exhaustive.answers
    final = mediator.configuration_view
    for access in candidate_accesses(schema, final, lambda _key: False):
        for oracle in oracles:
            assert oracle.long_term_relevant(access, final) == is_long_term_relevant(
                oracle.query, access, final, schema
            ), (oracle.query, access)


# --------------------------------------------------------------------------- #
# The delta check against copy-then-evaluate
# --------------------------------------------------------------------------- #
def reference_holds_after_adding(disjuncts, configuration, facts) -> bool:
    """The copy-then-evaluate check the delta check replaced, kept as the
    reference: copy the configuration, add the facts, evaluate from scratch."""
    extended = configuration.extended_with(facts)
    return any(evaluate_boolean(disjunct, extended) for disjunct in disjuncts)


def _grounding_fact_sets(queries, configuration, schema, per_disjunct: int = 8):
    """Fact sets drawn from the kernel's groundings of the queries' disjuncts.

    Each grounding gives its missing subgoals, the same without the last one,
    and their union with the previous grounding's (fresh values recur across
    groundings, so the union can join facts of two groundings).
    """
    previous: List = []
    for query in queries:
        for disjunct in _disjuncts(query):
            groundings = iter_witness_assignments(
                disjunct.atoms,
                disjunct.variable_domains(),
                configuration,
                None,
                schema=schema,
                fresh_per_domain=max(1, len(disjunct.variables)),
            )
            for grounding in itertools.islice(groundings, per_disjunct):
                _first, facts = split_grounding(disjunct.atoms, grounding, configuration)
                yield facts
                if len(facts) > 1:
                    yield facts[:-1]
                yield previous + facts
                previous = facts


class _JoinFailure(Exception):
    pass


def _check_delta_against_reference(case, stats) -> None:
    schema, configuration, query, _access, other = case
    queries = (query, other)
    fact_sets = list(_grounding_fact_sets(queries, configuration, schema))
    join_sizes = stats.setdefault("join_sizes", [])
    real_join = assignments.has_homomorphism

    def recording_join(atoms, data, partial=None):
        join_sizes.append(len(atoms))
        return real_join(atoms, data, partial)

    def failing_join(atoms, data, partial=None):
        raise _JoinFailure

    for checked in queries:
        if evaluate_boolean(checked, configuration):
            continue  # outside the delta check's precondition
        disjuncts = _disjuncts(checked)
        for facts in fact_sets:
            before = _configuration_state(configuration)
            with mock.patch.object(assignments, "has_homomorphism", recording_join):
                delta = holds_after_adding(disjuncts, configuration, facts)
            assert _configuration_state(configuration) == before
            expected = reference_holds_after_adding(disjuncts, configuration, facts)
            assert delta == expected, (checked, facts)
            stats.setdefault("answers", set()).add(delta)
            with mock.patch.object(assignments, "has_homomorphism", failing_join):
                try:
                    assert holds_after_adding(disjuncts, configuration, facts) == delta
                except _JoinFailure:
                    stats["raised"] = stats.get("raised", 0) + 1
            assert _configuration_state(configuration) == before


@common_settings
@given(case=CASES)
def test_holds_after_adding_matches_copy_then_evaluate(case):
    _check_delta_against_reference(case, {})


def test_delta_property_covers_joins_repeated_variables_and_constants():
    """The generated cases reach the shapes the property is meant to cover:
    CQs and PQs, repeated variables, constants, joins of several remaining
    atoms (also failing ones), and both answers."""
    stats: Dict[str, object] = {}
    kinds = set()
    for seed in range(40):
        case = _random_case(seed)
        query = case[2]
        kinds.add(type(query).__name__)
        atoms = [atom for disjunct in _disjuncts(query) for atom in disjunct.atoms]
        if any(len(atom.variables) < len(atom.terms) for atom in atoms):
            kinds.add("repeated")
        if any(atom.constants for atom in atoms):
            kinds.add("constants")
        _check_delta_against_reference(case, stats)
    assert kinds >= {"ConjunctiveQuery", "PositiveQuery", "repeated", "constants"}
    assert max(stats["join_sizes"]) >= 2
    assert stats["raised"] > 0
    assert stats["answers"] == {True, False}


@contextlib.contextmanager
def _delta_through_reference():
    """Route containment and ``is_ltr_independent`` through copy-then-evaluate."""
    with contextlib.ExitStack() as stack:
        for module in (containment, longterm_independent):
            stack.enter_context(
                mock.patch.object(module, "holds_after_adding", reference_holds_after_adding)
            )
        yield


def _witness_signature(witness):
    if witness is None:
        return None
    reached = witness.configuration
    return witness.new_facts, reached.wire_facts(), reached.wire_constants()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=CASES)
def test_containment_and_ltr_keep_their_answers_under_the_delta_check(case):
    schema, configuration, query, access, other = case

    def decide():
        return (
            _witness_signature(
                containment.find_non_containment_witness(
                    other, query, schema, configuration, _SMALL_SEARCH
                )
            ),
            _witness_signature(
                containment.find_non_containment_witness(
                    query, other, schema, configuration, _SMALL_SEARCH
                )
            ),
            is_ltr_independent(query, access, configuration, schema),
            is_ltr_independent(other, access, configuration, schema),
        )

    before = _configuration_state(configuration)
    delta = decide()
    assert _configuration_state(configuration) == before
    with _delta_through_reference():
        reference = decide()
    assert delta == reference
