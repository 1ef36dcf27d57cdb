"""Delta-driven certainty maintenance and the read-only replay paths.

The load-bearing claims of the incremental certainty engine:

* advancing a :class:`~repro.queries.certain.CertaintyFixpoint` by each
  batch's facts yields *exactly* the verdict a from-scratch
  :func:`~repro.queries.is_certain` computes, at every intermediate
  configuration, for any arrival order and batching of the facts;
* dropping the state — an explicit ``reset()``, the ``max_facts`` bound, or
  eviction of the owning :class:`~repro.runtime.cache.RelevanceOracle` from
  the server's bounded registry — only costs a restart, never a wrong
  verdict;
* the truncation replay and witness revalidation read the live
  configuration through a read-only path view: zero ``copy()``, ``add`` or
  ``remove`` calls on the hot path, even when the caller or a merge raises,
  so the configuration and its cached views stay as they were;
* the Proposition 3.5 containment memo returns the cached verdict for
  repeated probes and misses when any verdict-relevant input changes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Access,
    AccessPath,
    AccessResponse,
    Configuration,
    Fact,
    Instance,
    SchemaBuilder,
    parse_cq,
)
from repro.core.longterm_dependent import (
    containment_cq_memo,
    is_ltr_via_containment_cq,
)
from repro.exceptions import SchemaError
from repro.queries import is_certain
from repro.queries.certain import CertaintyFixpoint
from repro.runtime import QueryServer
from repro.runtime.witness import LtrWitness
from repro.workloads import (
    bank_multi_query_scenario,
    dependent_chain_scenario,
    diamond_scenario,
    fanout_scenario,
    multi_query_scenario,
    star_join_scenario,
)


def _boolean(query):
    return query if query.is_boolean else query.boolean_closure()


def _fact_pool(configuration, hidden):
    """The hidden facts an answering run could merge, in a stable order."""
    pool = []
    for relation in hidden.schema.relations:
        for row in hidden.tuples(relation.name):
            if not configuration.contains(relation.name, row):
                pool.append(Fact(relation.name, row))
    pool.sort(key=repr)
    return pool


def _scenario_cases():
    cases = []
    bank = bank_multi_query_scenario(
        2, employees=3, offices=2, states=2, known_employees=1
    )
    cases.append(("bank", bank))
    cases.append(("star-join", star_join_scenario(2, spokes=3, keys=2)))
    cases.append(("multi-query", multi_query_scenario(3, branches=4)))
    for scenario in (fanout_scenario(3), diamond_scenario()):
        cases.append((scenario.name, scenario))
    prepared = []
    for name, scenario in cases:
        queries = getattr(scenario, "queries", None) or (scenario.query,)
        prepared.append(
            (
                name,
                scenario.configuration,
                tuple(_boolean(query) for query in queries),
                _fact_pool(scenario.configuration, scenario.hidden_instance),
            )
        )
    return prepared


CASES = _scenario_cases()


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), seed=st.integers(min_value=0, max_value=10**6))
def test_delta_advanced_certainty_matches_from_scratch(case, seed):
    """Fixpoint verdicts ≡ from-scratch is_certain for any arrival order."""
    name, base_configuration, queries, pool = case
    rng = random.Random(seed)
    order = list(pool)
    rng.shuffle(order)
    configuration = base_configuration.copy()
    fixpoints = [CertaintyFixpoint(query) for query in queries]
    for fixpoint, query in zip(fixpoints, queries):
        assert fixpoint.supported, name
        verdict, outcome = fixpoint.check(configuration)
        assert outcome == "restarted"
        assert verdict == is_certain(query, configuration)
    index = 0
    while index < len(order):
        size = rng.randint(1, 4)
        batch = order[index : index + size]
        index += size
        for fact in batch:
            configuration.add_fact(fact)
        for fixpoint, query in zip(fixpoints, queries):
            fixpoint.absorb(batch)
            verdict, outcome = fixpoint.check(configuration)
            assert outcome == "advanced"
            assert verdict == is_certain(query, configuration)


def test_reset_falls_back_soundly():
    scenario = fanout_scenario(3)
    query = _boolean(scenario.query)
    configuration = scenario.configuration.copy()
    pool = _fact_pool(configuration, scenario.hidden_instance)
    fixpoint = CertaintyFixpoint(query)
    fixpoint.check(configuration)
    for fact in pool:
        configuration.add_fact(fact)
    fixpoint.absorb(pool)
    verdict, outcome = fixpoint.check(configuration)
    assert outcome == "advanced"
    assert verdict == is_certain(query, configuration)

    fixpoint.reset()
    assert fixpoint.fact_count() == 0
    # With no materialized state, absorb is a no-op — the next check must
    # rebuild from the configuration rather than trust a stale lineage.
    assert fixpoint.absorb(pool) == 0
    verdict, outcome = fixpoint.check(configuration)
    assert outcome == "restarted"
    assert verdict == is_certain(query, configuration)


def test_max_facts_bound_drops_state_but_keeps_verdicts():
    scenario = fanout_scenario(3)
    query = _boolean(scenario.query)
    configuration = scenario.configuration.copy()
    for fact in _fact_pool(configuration, scenario.hidden_instance):
        configuration.add_fact(fact)
    expected = is_certain(query, configuration)

    bounded = CertaintyFixpoint(query, max_facts=1)
    verdict, outcome = bounded.check(configuration)
    assert (verdict, outcome) == (expected, "restarted")
    assert bounded.fact_count() == 0  # over the bound: state dropped
    verdict, outcome = bounded.check(configuration)
    assert (verdict, outcome) == (expected, "restarted")
    assert bounded.peek(configuration) is None


def test_store_eviction_drops_fixpoint_state():
    scenario = multi_query_scenario(2, branches=4, atoms_per_query=2)
    mediator = scenario.mediator()
    with QueryServer(mediator, max_stores=1) as server:
        first, second = scenario.queries[:2]
        fixpoint = server.oracle_for(first).certainty_fixpoint
        fixpoint.check(mediator.configuration_view)
        # Registering a second query evicts the first oracle — and the
        # materialized certainty state it owns — from the bounded registry.
        server.oracle_for(second)
        fresh = server.oracle_for(first).certainty_fixpoint
        assert fresh is not fixpoint
        assert fresh.fact_count() == 0
        verdict, outcome = fresh.check(mediator.configuration_view)
        assert outcome == "restarted"
        assert verdict == is_certain(_boolean(first), mediator.configuration_view)


def _witness_fixture():
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("R", [("a", "D"), ("b", "D")])
    builder.relation("S", [("a", "D"), ("b", "D")])
    builder.access("mR", "R", inputs=["a"], dependent=False)
    builder.access("mS", "S", inputs=["a"], dependent=True)
    schema = builder.build()
    query = parse_cq(schema, "R(x, y), S(y, z)")
    configuration = Configuration.empty(schema)
    steps = (
        AccessResponse(Access(schema.access_method("mR"), ("a",)), (("a", "b"),)),
        AccessResponse(Access(schema.access_method("mS"), ("b",)), (("b", "c"),)),
    )
    return schema, query, configuration, steps


def _count_configuration_writes(monkeypatch):
    """Record every ``copy``, ``add`` and ``remove`` on any instance."""
    calls = []
    for cls, name in (
        (Instance, "copy"),
        (Configuration, "copy"),
        (Instance, "add"),
        (Instance, "remove"),
    ):
        original = getattr(cls, name)

        def counting(self, *args, _name=name, _original=original):
            calls.append((_name, self))
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counting)
    return calls


def test_revalidate_performs_zero_configuration_copies(monkeypatch):
    """Regression: the revalidation hot path never copies a configuration,
    and no replay writes to one: no ``Instance.add`` or ``Instance.remove``
    runs while a witness is revalidated or its truncation rechecked."""
    _schema, query, configuration, steps = _witness_fixture()
    witness = LtrWitness(steps)
    before = configuration.fingerprint()
    calls = _count_configuration_writes(monkeypatch)

    # The second step is a dependent access whose input only enters the
    # active domain through the first step's output, so the truncation is
    # empty and the query fails on it: a genuine witness.
    assert witness.revalidate(query, configuration) is True
    assert witness.recheck_truncation(query, configuration) is True
    assert calls == []
    assert configuration.fingerprint() == before
    assert configuration.size() == 0


def test_truncation_view_restores_configuration_on_exception(monkeypatch):
    """A replay reads a :class:`~repro.data.paths.PathView` and writes
    nothing, so there is nothing to restore when the caller raises while
    reading the view, or when a merge into it raises."""
    import repro.runtime.witness as witness_module

    schema, query, configuration, steps = _witness_fixture()
    path = AccessPath(configuration, list(steps))
    before = configuration.fingerprint()
    adom = configuration.active_domain()
    calls = _count_configuration_writes(monkeypatch)

    class Boom(Exception):
        pass

    def raising_evaluation(_query, _data):
        raise Boom()

    with monkeypatch.context() as patch:
        patch.setattr(witness_module, "evaluate_boolean", raising_evaluation)
        with pytest.raises(Boom):
            LtrWitness(steps).revalidate(query, configuration)
        with pytest.raises(Boom):
            LtrWitness(steps).recheck_truncation(query, configuration)
    # A row its relation does not admit is refused as it enters the view,
    # as Instance.add refuses it.
    malformed = AccessResponse.trusted(
        Access(schema.access_method("mR"), ("a",)), (("a", "b", "extra"),)
    )
    with pytest.raises(SchemaError):
        LtrWitness((steps[0], malformed)).revalidate(query, configuration)
    assert calls == []
    assert configuration.fingerprint() == before
    assert configuration.active_domain() is adom

    # The truncation keeps only the steps well-formed without the probed
    # access (none here); the stand-alone copy agrees with the view and
    # with the copy-based reference.
    view = path.truncation_view()
    truncated = path.truncation_final_configuration()
    reference = path.truncation().final_configuration()
    for relation in schema.relations:
        assert view.tuples(relation.name) == truncated.tuples(relation.name)
        assert truncated.tuples(relation.name) == reference.tuples(relation.name)
    assert truncated.fingerprint() == reference.fingerprint()


def test_containment_cq_memo_hits_and_invalidates():
    memo = containment_cq_memo()
    memo.clear()
    hits, misses = memo.hits, memo.misses
    scenario = dependent_chain_scenario(2)
    args = (scenario.query, scenario.access, scenario.configuration, scenario.schema)

    first = is_ltr_via_containment_cq(*args)
    assert (memo.hits - hits, memo.misses - misses) == (0, 1)

    assert is_ltr_via_containment_cq(*args) == first
    assert (memo.hits - hits, memo.misses - misses) == (1, 1)
    assert len(memo) == 1

    # Any configuration change is a different key: the memo must not serve
    # a verdict computed at another configuration.
    grown = scenario.configuration.copy()
    relation = scenario.schema.relations[0]
    grown.add(relation.name, tuple(f"fresh{i}" for i in range(relation.arity)))
    is_ltr_via_containment_cq(
        scenario.query, scenario.access, grown, scenario.schema
    )
    assert (memo.hits - hits, memo.misses - misses) == (1, 2)
    assert len(memo) == 2
