"""Tests for the runtime layer: RelevanceOracle, AccessExecutor, metrics.

The load-bearing property is that memoization is *invisible*: a cache hit
returns exactly the verdict the underlying procedure computes, for every
reachable configuration content.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Access,
    Configuration,
    Instance,
    RelevanceOracle,
    RuntimeMetrics,
    SchemaBuilder,
    is_long_term_relevant,
    parse_cq,
)
from repro.runtime import (
    AccessExecutor,
    CandidateScreen,
    LRUCache,
    Tracer,
    activate_tracer,
)
from repro.runtime.cache import access_key
from repro.runtime.screening import resolve_group_verdict
from repro.sources import DataSource, Mediator
from repro.tracing import stage
from repro.workloads import fanout_scenario, random_cq


def _schema():
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("R", [("a", "D"), ("b", "D")])
    builder.relation("S", [("a", "D"), ("b", "D")])
    builder.access("mR", "R", inputs=["b"], dependent=False)
    builder.access("mS", "S", inputs=["a"], dependent=False)
    return builder.build()


SCHEMA = _schema()
VALUES = st.sampled_from(["v0", "v1", "v2"])
PAIRS = st.tuples(VALUES, VALUES)
FACTSETS = st.fixed_dictionaries(
    {
        "R": st.lists(PAIRS, max_size=4),
        "S": st.lists(PAIRS, max_size=4),
    }
)
QUERIES = st.integers(min_value=0, max_value=150).map(
    lambda seed: random_cq(SCHEMA, atoms=2, variables=2, seed=seed)
)

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@common_settings
@given(query=QUERIES, facts=FACTSETS, binding=VALUES, extra=PAIRS)
def test_oracle_cache_hits_never_change_a_verdict(query, facts, binding, extra):
    configuration = Configuration(SCHEMA, facts)
    access = Access(SCHEMA.access_method("mR"), (binding,))
    oracle = RelevanceOracle(query, SCHEMA)

    first_ltr = oracle.long_term_relevant(access, configuration)
    first_certain = oracle.is_certain(configuration)

    # Repeats are cache hits and must return the same verdicts.
    hits_before = oracle.cache_hits
    assert oracle.long_term_relevant(access, configuration) == first_ltr
    assert oracle.is_certain(configuration) == first_certain
    assert oracle.cache_hits == hits_before + 2

    # And they agree with the unmemoized procedures.
    boolean_query = oracle.query
    assert first_ltr == is_long_term_relevant(
        boolean_query, access, configuration, SCHEMA
    )

    # Mutating the configuration changes the fingerprint: verdicts are
    # recomputed for the new content, and remain correct.
    mutated = configuration.extended_with([])
    mutated.add("R", extra)
    assert oracle.long_term_relevant(access, mutated) == is_long_term_relevant(
        boolean_query, access, mutated, SCHEMA
    )


@common_settings
@given(facts=FACTSETS, extra=PAIRS)
def test_fingerprint_distinguishes_mutations_and_restores(facts, extra):
    configuration = Configuration(SCHEMA, facts)
    before = configuration.fingerprint()
    if configuration.add("R", extra):
        assert configuration.fingerprint() != before
        configuration.remove("R", extra)
    assert configuration.fingerprint() == before

    domain = SCHEMA.relation("R").domain_of(0)
    configuration.add_constant("seeded", domain)
    assert configuration.fingerprint() != before


def test_fingerprint_copy_equality():
    configuration = Configuration(SCHEMA, {"R": [("a", "b")]})
    domain = SCHEMA.relation("R").domain_of(0)
    configuration.add_constant("c", domain)
    clone = configuration.copy()
    assert clone.fingerprint() == configuration.fingerprint()
    clone.add("S", ("x", "y"))
    assert clone.fingerprint() != configuration.fingerprint()


def test_executor_deduplicates_accesses():
    instance = Instance(SCHEMA, {"R": [("a", "b"), ("c", "b")], "S": [("b", "d")]})
    mediator = Mediator(
        SCHEMA,
        [DataSource(method, instance) for method in SCHEMA.access_methods],
    )
    metrics = RuntimeMetrics()
    executor = AccessExecutor(mediator, metrics=metrics)
    access = Access(SCHEMA.access_method("mR"), ("b",))

    first = executor.execute_batch([access])
    assert first.performed == 1 and len(first.responses[0]) == 2
    assert executor.already_performed(access)
    second = executor.execute_batch([access])
    assert second.performed == 0 and second.skipped == 1 and not second.responses
    assert mediator.access_count == 1
    assert metrics.count("executor.performed") == 1
    assert metrics.count("executor.skipped") == 1
    assert metrics.count("executor.facts") == 2


def test_executor_batch_reports_progress():
    instance = Instance(SCHEMA, {"R": [("a", "b")], "S": []})
    mediator = Mediator(
        SCHEMA,
        [DataSource(method, instance) for method in SCHEMA.access_methods],
    )
    executor = AccessExecutor(mediator)
    batch = executor.execute_batch(
        [
            Access(SCHEMA.access_method("mR"), ("b",)),
            Access(SCHEMA.access_method("mS"), ("b",)),
            Access(SCHEMA.access_method("mR"), ("b",)),  # duplicate
        ]
    )
    assert batch.performed == 2
    assert batch.skipped == 1
    assert batch.progressed
    assert batch.facts_returned == 1


def test_mediator_view_tracks_and_snapshot_does_not():
    instance = Instance(SCHEMA, {"R": [("a", "b")]})
    mediator = Mediator(
        SCHEMA,
        [DataSource(method, instance) for method in SCHEMA.access_methods],
    )
    view = mediator.configuration_view
    snapshot = mediator.configuration
    mediator.perform(Access(SCHEMA.access_method("mR"), ("b",)))
    assert view.contains("R", ("a", "b"))
    assert not snapshot.contains("R", ("a", "b"))
    assert mediator.fingerprint == view.fingerprint()


def test_lazy_iteration_survives_live_view_mutation():
    """Regression: iterating answers over the live view while the mediator
    merges new facts must not raise (tuples_matching snapshots)."""
    from repro.queries import satisfying_assignments

    instance = Instance(SCHEMA, {"R": [("a", "b"), ("c", "b"), ("d", "e")]})
    mediator = Mediator(
        SCHEMA,
        [DataSource(method, instance) for method in SCHEMA.access_methods],
    )
    mediator.perform(Access(SCHEMA.access_method("mR"), ("b",)))
    query = random_cq(SCHEMA, atoms=1, variables=2, seed=5)
    iterator = satisfying_assignments(query, mediator.configuration_view)
    next(iterator, None)
    mediator.perform(Access(SCHEMA.access_method("mR"), ("e",)))
    list(iterator)  # must not raise RuntimeError


def test_guided_strategy_rejects_mismatched_oracle_and_reports_per_run_hits():
    import pytest

    from repro.exceptions import QueryError
    from repro.planner import relevance_guided_strategy
    from repro.sources import build_bank_scenario

    bank = build_bank_scenario(employees=3, offices=2, states=2, known_employees=1)
    other_query = random_cq(SCHEMA, atoms=2, variables=2, seed=9)
    wrong_oracle = RelevanceOracle(other_query, SCHEMA)
    with pytest.raises(QueryError):
        relevance_guided_strategy(bank.mediator(), bank.query, oracle=wrong_oracle)

    wrong_schema_oracle = RelevanceOracle(bank.query, SCHEMA)  # not the mediator's schema
    with pytest.raises(QueryError):
        relevance_guided_strategy(
            bank.mediator(), bank.query, oracle=wrong_schema_oracle
        )

    oracle = RelevanceOracle(bank.query, bank.schema)
    first = relevance_guided_strategy(bank.mediator(), bank.query, oracle=oracle)
    second = relevance_guided_strategy(bank.mediator(), bank.query, oracle=oracle)
    # cache_hits is per run: the second run's count must not include the
    # first run's hits (the shared oracle's lifetime counter keeps growing).
    assert oracle.cache_hits >= first.cache_hits + second.cache_hits
    assert second.answers == first.answers


def test_mediator_merge_is_atomic_on_invalid_response():
    """A response that fails validation part-way must leave the
    configuration untouched (no partially merged facts)."""
    import pytest

    from repro import AccessResponse
    from repro.exceptions import SchemaError

    class RogueSource:
        def __init__(self, method):
            self.method = method

        def respond(self, access):
            # Second tuple has the wrong arity; bypass response validation
            # the way a buggy duck-typed source could.
            return AccessResponse.trusted(access, (("ok", "b"), ("bad",)))

    mediator = Mediator(SCHEMA, [RogueSource(SCHEMA.access_method("mR"))])
    before = mediator.configuration_view.fingerprint()
    with pytest.raises(SchemaError):
        mediator.perform(Access(SCHEMA.access_method("mR"), ("b",)))
    assert mediator.configuration_view.fingerprint() == before
    assert mediator.access_count == 0


def test_lru_cache_evicts_oldest():
    cache = LRUCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts "b"
    assert "b" not in cache
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert len(cache) == 2
    assert cache.get("b") is None
    assert (cache.hits, cache.misses, len(cache)) == (3, 1, 2)
    cache.discard("a")
    assert "a" not in cache and len(cache) == 1
    # clear() drops the entries and keeps counting probes.
    cache.clear()
    assert len(cache) == 0 and cache.get("c") is None
    assert (cache.hits, cache.misses) == (3, 2)


def test_metrics_counters_and_timers():
    """Counters add up; a timed stage lands in its histogram; reset clears both."""
    metrics = RuntimeMetrics()
    metrics.incr("x")
    metrics.incr("x", 4)
    with stage("t", metrics=metrics, metric="t"):
        pass
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["x"] == 5
    assert snapshot["histograms"]["t"]["count"] == 1
    assert snapshot["histograms"]["t"]["sum"] >= 0.0
    metrics.reset()
    assert metrics.count("x") == 0
    assert metrics.histogram("t") is None


def test_oracle_requires_nothing_but_query_and_schema():
    query = random_cq(SCHEMA, atoms=2, variables=2, seed=1)
    oracle = RelevanceOracle(query, SCHEMA)
    assert oracle.query.is_boolean
    assert oracle.cache_hits == oracle.cache_misses == 0


# --------------------------------------------------------------------------- #
# Incremental relevance engine: witness reuse, delta inheritance, screening
# --------------------------------------------------------------------------- #
def test_witness_revalidation_reuses_positive_verdicts():
    scenario = fanout_scenario(2)
    metrics = RuntimeMetrics()
    oracle = RelevanceOracle(scenario.query, scenario.schema, metrics=metrics)
    configuration = scenario.configuration.copy()

    assert oracle.long_term_relevant(scenario.access, configuration)
    assert oracle._records.peek(access_key(scenario.access)).witness is not None

    # Growth that invalidates the fingerprint but not the witness path.
    configuration.add("Hub", ("start", "m9"))
    assert oracle.long_term_relevant(scenario.access, configuration)
    counters = metrics.snapshot()["counters"]
    assert counters.get("witness.revalidated", 0) >= 1

    # The reused verdict agrees with a fresh search on the same content.
    assert is_long_term_relevant(
        oracle.query, scenario.access, configuration, scenario.schema
    )


def _chain():
    """``Hub(src, mid)`` read by ``accHub(src)``, ``Next(mid, leaf)`` by
    ``accNext(mid)`` and by the input-free ``accNextAll``, all dependent;
    the query ``Next(m, l)``, a configuration holding only the constant
    ``start``, and the probed access ``accHub('start')``."""
    builder = SchemaBuilder()
    builder.domain("S")
    builder.domain("M")
    builder.domain("L")
    builder.relation("Hub", [("src", "S"), ("mid", "M")])
    builder.relation("Next", [("mid", "M"), ("leaf", "L")])
    builder.access("accHub", "Hub", inputs=["src"], dependent=True)
    builder.access("accNext", "Next", inputs=["mid"], dependent=True)
    # A second, input-free method over Next: well-formed at any
    # configuration, so its step never depends on the probed access.
    builder.access("accNextAll", "Next", inputs=[], dependent=True)
    schema = builder.build()
    query = parse_cq(schema, "Next(m, l)", name="reach")

    configuration = Configuration(schema)
    configuration.add_constant("start", schema.relation("Hub").domain_of(0))

    probed = Access(schema.access_method("accHub"), ("start",))
    return schema, query, configuration, probed


def test_revalidate_truncation_matches_fresh_search_exactly():
    """Regression for the truncation semantics of ``LtrWitness.revalidate``.

    The fresh search truncates a candidate path by dropping the probed access
    and keeping the longest *well-formed prefix* of the rest: a middle step
    that is only well-formed given the probed access's outputs ends the
    truncation there, and every later step is dropped with it — even one
    that does not depend on the probed access.  ``revalidate`` must apply the
    identical rule (it shares the truncation loop of
    ``AccessPath.truncation_view``, ``merge_well_formed_prefix``); a
    skip-the-ill-formed-step variant would keep the later step and flip the
    verdict on this path.
    """
    from repro import AccessResponse
    from repro.core import find_ltr_witness_steps
    from repro.data import AccessPath
    from repro.runtime import LtrWitness

    schema, query, configuration, probed = _chain()
    steps = (
        AccessResponse.trusted(probed, (("start", "m0"),)),
        # Middle step: well-formed only once the probed access exposed m0.
        AccessResponse.trusted(
            Access(schema.access_method("accNext"), ("m0",)), (("m0", "leaf0"),)
        ),
        # Later step: independent of the probed access, and its fact alone
        # satisfies the query — kept, it would invalidate the witness.
        AccessResponse.trusted(
            Access(schema.access_method("accNextAll"), ()), (("m1", "leaf1"),)
        ),
    )
    witness = LtrWitness(steps)

    # The shared truncation drops the middle step AND the later independent
    # step with it; a skip variant would keep Next(m1, leaf1).
    truncated = AccessPath(configuration, list(steps)).truncation_final_configuration()
    assert not truncated.contains("Next", ("m1", "leaf1"))
    assert len(truncated) == 0

    assert witness.revalidate(query, configuration)
    # ... which matches the fresh search's verdict for the probed access.
    assert find_ltr_witness_steps(query, probed, configuration, schema) is not None

    # Once the query is certain the truncation satisfies it, and both the
    # revalidation and the fresh search refuse the witness.
    certain = configuration.copy()
    certain.add("Next", ("m9", "leaf9"))
    assert not witness.revalidate(query, certain)
    assert find_ltr_witness_steps(query, probed, certain, schema) is None


def test_a_recaptured_witness_is_traced_as_captured(tmp_path):
    """A stored witness that fails revalidation and is replaced by a fresh
    search's is no longer the store's: the next revalidation is traced
    ``provenance=captured``."""
    from repro import AccessResponse
    from repro.runtime import LtrWitness, PersistentWitnessCache
    from repro.runtime.serialize import query_token, schema_token

    schema, query, configuration, probed = _chain()
    path = str(tmp_path / "w.sqlite")
    # Hub(start, m0) alone reaches no Next fact: the path cannot revalidate.
    stale = LtrWitness((AccessResponse.trusted(probed, (("start", "m0"),)),))
    with PersistentWitnessCache(path) as writer:
        writer.record((query_token(query), schema_token(schema)), probed, stale)
    metrics = RuntimeMetrics()
    tracer = Tracer()
    with PersistentWitnessCache(path) as persist, activate_tracer(tracer):
        oracle = RelevanceOracle(query, schema, metrics=metrics, persist=persist)
        assert metrics.count("persist.seeded") == 1
        assert oracle.long_term_relevant(probed, configuration)
        assert oracle._records.peek(access_key(probed)).witness != stale
        configuration.add("Hub", ("start", "m5"))
        assert oracle.long_term_relevant(probed, configuration)
    revalidations = [
        (span.tags["provenance"], span.tags["ok"])
        for span in tracer.spans()
        if span.name == "witness-revalidate"
    ]
    assert revalidations == [("persisted", False), ("captured", True)]
    assert metrics.count("oracle.fresh_searches") == 1


def test_captured_witness_is_a_valid_path():
    scenario = fanout_scenario(2)
    oracle = RelevanceOracle(scenario.query, scenario.schema)
    configuration = scenario.configuration.copy()
    assert oracle.long_term_relevant(scenario.access, configuration)
    witness = oracle._records.peek(access_key(scenario.access)).witness
    assert witness.access.method.name == scenario.access.method.name
    assert witness.steps[0].access.binding == scenario.access.binding
    assert witness.revalidate(oracle.query, configuration)


def test_delta_inheritance_on_query_irrelevant_growth():
    scenario = fanout_scenario(2, audit=True)
    metrics = RuntimeMetrics()
    oracle = RelevanceOracle(scenario.query, scenario.schema, metrics=metrics)
    configuration = scenario.configuration.copy()
    configuration.add("Hub", ("start", "m0"))

    first = oracle.long_term_relevant(scenario.access, configuration)
    # Audit facts touch no query relation, and their fresh Note values lie in
    # a domain no dependent method consumes: the verdict is inherited.
    configuration.add("Audit", ("m0", "n0"))
    assert oracle.long_term_relevant(scenario.access, configuration) == first
    configuration.add("Audit", ("m0", "n1"))
    assert oracle.long_term_relevant(scenario.access, configuration) == first
    counters = metrics.snapshot()["counters"]
    assert counters.get("oracle.delta_hits", 0) >= 2
    assert first == is_long_term_relevant(
        oracle.query, scenario.access, configuration, scenario.schema
    )


def test_delta_inheritance_refuses_consumable_values():
    """A delta adding a value of a dependent-input domain must NOT be
    inherited: it can genuinely flip a verdict."""
    scenario = fanout_scenario(2)
    metrics = RuntimeMetrics()
    oracle = RelevanceOracle(scenario.query, scenario.schema, metrics=metrics)
    configuration = scenario.configuration.copy()
    probe = Access(scenario.schema.access_method("accB1"), ("m0",))

    # Ill-formed at first (m0 unknown) — not relevant.
    assert not oracle.long_term_relevant(probe, configuration)
    # m0 enters the active domain: the old verdict must not transfer.
    configuration.add("Hub", ("start", "m0"))
    assert oracle.long_term_relevant(probe, configuration)


def test_truncation_only_check_needs_a_prior_full_check_on_a_contained_snapshot():
    """The oracle re-checks only the truncation of a witness it already
    revalidated at a configuration the current one contains; a freshly found
    witness, and any configuration after a removal, get the full check."""
    scenario = fanout_scenario(2)
    metrics = RuntimeMetrics()
    oracle = RelevanceOracle(scenario.query, scenario.schema, metrics=metrics)
    configuration = scenario.configuration.copy()
    probe = Access(scenario.schema.access_method("accB1"), ("m0",))
    tracer = Tracer()
    # Each move adds a dependent-input value, so no verdict is inherited.
    moves = [
        ("add", "m0", "fresh", None),
        ("add", "m1", "revalidated", "full"),
        ("add", "m2", "revalidated", "truncation"),
        ("remove", "m0", "fresh", "full"),
    ]
    with activate_tracer(tracer):
        for kind, mid, outcome, check in moves:
            if kind == "add":
                configuration.add("Hub", ("start", mid))
            else:
                configuration.remove("Hub", ("start", mid))
            tracer.reset()
            verdict = oracle.long_term_relevant(probe, configuration)
            assert verdict == is_long_term_relevant(
                oracle.query, probe, configuration, scenario.schema
            )
            (span,) = [span for span in tracer.spans() if span.name == "oracle"]
            assert span.tags["outcome"] == outcome
            checks = [
                span.tags["check"]
                for span in tracer.spans()
                if span.name == "witness-revalidate"
            ]
            assert checks == ([check] if check else [])
    counters = metrics.snapshot()["counters"]
    assert counters["witness.truncation_only"] == 1
    assert counters["witness.revalidated"] == 2
    assert counters["witness.revalidation_failed"] == 1


def _interchangeable_hubs():
    """``accHub('start')`` and ``accHub('start2')`` of ``fanout_scenario(2)``:
    swapping the two constants is an automorphism of the configuration, so
    the screen groups them with ``start`` representing.  ``Audit`` facts
    keep the swap and add a dependent-input value, so no verdict is
    inherited across them."""
    scenario = fanout_scenario(2)
    schema = scenario.schema
    configuration = scenario.configuration.copy()
    configuration.add_constant("start2", schema.relation("Hub").domain_of(0))
    oracle = RelevanceOracle(scenario.query, schema)
    member = Access(schema.access_method("accHub"), ("start2",))
    return oracle, configuration, scenario.access, member


def _traced(oracle, configuration, call):
    """Run ``call()`` under a tracer: ``(result, [(outcome, relevant)] of the
    oracle spans, [check] of the witness-revalidate spans)``."""
    tracer = Tracer()
    with activate_tracer(tracer):
        result = call()
    spans = tracer.spans()
    outcomes = [(s.tags["outcome"], s.tags["relevant"]) for s in spans if s.name == "oracle"]
    checks = [s.tags["check"] for s in spans if s.name == "witness-revalidate"]
    return result, outcomes, checks


def _resolve_group(oracle, configuration, accesses):
    """Resolve the one screening group of ``accesses``, traced."""
    ((representative, members),) = oracle.screen.group(accesses, configuration)
    assert members
    return _traced(
        oracle,
        configuration,
        lambda: resolve_group_verdict(oracle, representative, members, configuration),
    )


def _next_check(oracle, configuration, access):
    """Grow ``configuration``, probe ``access``: its witness checks."""
    configuration.add("Audit", (f"m{len(configuration.tuples('Audit')) + 10}", "n"))
    verdict, outcomes, checks = _traced(
        oracle, configuration, lambda: oracle.long_term_relevant(access, configuration)
    )
    assert verdict == is_long_term_relevant(
        oracle.query, access, configuration, oracle.schema
    )
    assert outcomes == [("revalidated", True)]
    return checks


def test_a_member_adopted_from_a_representative_accepted_here_checks_its_truncation():
    """A screening member whose representative's witness the oracle accepted
    by revalidation at this configuration holds the translated witness as
    accepted there: its next miss takes the truncation-only rung."""
    oracle, configuration, representative, member = _interchangeable_hubs()
    assert _resolve_group(oracle, configuration, [representative, member])[1] == [
        ("fresh", True),
        ("adopted", True),
    ]
    configuration.add("Audit", ("m7", "n7"))
    verdict, outcomes, checks = _resolve_group(oracle, configuration, [representative, member])
    assert verdict and outcomes == [("revalidated", True), ("adopted", True)]
    assert checks == ["full"]
    assert _next_check(oracle, configuration, member) == ["truncation"]


def test_a_member_adopted_from_a_fresh_search_gets_the_full_check():
    """A representative decided by a fresh search hands its members a
    witness nobody checked here: the member's next miss replays it fully."""
    oracle, configuration, representative, member = _interchangeable_hubs()
    verdict, outcomes, _checks = _resolve_group(oracle, configuration, [representative, member])
    assert verdict and outcomes == [("fresh", True), ("adopted", True)]
    assert _next_check(oracle, configuration, member) == ["full"]


def test_an_exact_hit_accepted_at_another_configuration_does_not_qualify():
    """A representative served by an exact hit whose record was accepted at
    another configuration (here, a larger one it has since shrunk back
    from) qualifies nothing: the member's next miss replays fully."""
    oracle, configuration, representative, member = _interchangeable_hubs()
    assert oracle.long_term_relevant(representative, configuration)
    configuration.add("Audit", ("m7", "n7"))
    assert oracle.long_term_relevant(representative, configuration)
    configuration.remove("Audit", ("m7", "n7"))
    verdict, outcomes, checks = _resolve_group(oracle, configuration, [representative, member])
    assert verdict and outcomes == [("exact-hit", True), ("adopted", True)]
    assert checks == []
    assert _next_check(oracle, configuration, member) == ["full"]


def test_screen_prefilter_drops_unfeedable_relations():
    scenario = fanout_scenario(2, audit=True)
    screen = CandidateScreen(scenario.query, scenario.schema)
    assert "Hub" in screen.closure
    assert "B1" in screen.closure and "B2" in screen.closure
    assert "Audit" not in screen.closure

    audit = Access(scenario.schema.access_method("accAudit"), ("m0",))
    kept = screen.prefilter([scenario.access, audit])
    assert kept == [scenario.access]
    # ...and the dropped access is indeed never long-term relevant.
    configuration = scenario.configuration.copy()
    configuration.add("Hub", ("start", "m0"))
    assert not is_long_term_relevant(
        scenario.query if scenario.query.is_boolean else scenario.query.boolean_closure(),
        audit,
        configuration,
        scenario.schema,
    )


def test_screen_groups_interchangeable_bindings():
    scenario = fanout_scenario(2)
    schema = scenario.schema
    configuration = scenario.configuration.copy()
    domain = schema.relation("Hub").domain_of(0)
    configuration.add_constant("start2", domain)

    screen = CandidateScreen(scenario.query, schema)
    first = Access(schema.access_method("accHub"), ("start",))
    second = Access(schema.access_method("accHub"), ("start2",))
    groups = screen.group([first, second], configuration)
    assert len(groups) == 1
    representative, members = groups[0]
    assert representative is first
    assert members[0][0] is second
    assert members[0][1] == {"start": "start2", "start2": "start"}

    # A fact mentioning only one of the two breaks the symmetry.
    configuration.add("Hub", ("start", "m0"))
    groups = screen.group([first, second], configuration)
    assert len(groups) == 2


def test_screen_never_groups_bindings_no_swap_maps_onto_each_other():
    """``(a, a)`` and ``(a, b)`` share ``a`` at one position, and no value
    renaming maps the first onto the second: they must not share a verdict
    (a member adopting the swap ``a <-> b`` would get a witness path for
    ``(b, b)``)."""
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("P", [("x", "D"), ("y", "D")])
    builder.access("mP", "P", inputs=["x", "y"], dependent=True)
    schema = builder.build()
    query = parse_cq(schema, "P(u, v)")
    configuration = Configuration.empty(schema)
    domain = schema.relation("P").domain_of(0)
    for value in ("a", "b"):
        configuration.add_constant(value, domain)
    method = schema.access_method("mP")
    pairs = [Access(method, ("a", "a")), Access(method, ("a", "b"))]
    groups = CandidateScreen(query, schema).group(pairs, configuration)
    assert len(groups) == 2
    # The mirrored pair is a genuine swap and still shares one verdict.
    mirrored = [Access(method, ("a", "b")), Access(method, ("b", "a"))]
    groups = CandidateScreen(query, schema).group(mirrored, configuration)
    assert len(groups) == 1 and groups[0][1][0][1] == {"a": "b", "b": "a"}


def test_adopted_verdicts_flow_through_guided_strategy():
    from repro.planner import exhaustive_strategy, relevance_guided_strategy
    from repro.sources import build_bank_scenario

    bank = build_bank_scenario(employees=4, offices=2, states=2, known_employees=2)
    exhaustive = exhaustive_strategy(bank.mediator(), bank.query)
    metrics = RuntimeMetrics()
    oracle = RelevanceOracle(bank.query, bank.schema, metrics=metrics)
    result = relevance_guided_strategy(bank.mediator(), bank.query, oracle=oracle)
    assert result.boolean_answer == exhaustive.boolean_answer
    assert result.accesses_made <= exhaustive.accesses_made
    counters = metrics.snapshot()["counters"]
    # The two known employees are interchangeable in the empty configuration:
    # screening shares their verdicts, and execution-time rechecks are served
    # by witness revalidation.
    assert counters.get("oracle.adopted", 0) >= 1
    assert counters.get("witness.revalidated", 0) >= 1


def test_executor_batch_precheck_and_stop():
    scenario = fanout_scenario(2)
    mediator = scenario.mediator()
    executor = AccessExecutor(mediator)
    hub = Access(scenario.schema.access_method("accHub"), ("start",))
    batch = executor.execute_batch([hub, hub], precheck=lambda access: True)
    assert batch.performed == 1 and batch.skipped == 1  # dedup still applies

    b1 = Access(scenario.schema.access_method("accB1"), ("m0",))
    b2 = Access(scenario.schema.access_method("accB2"), ("m0",))
    batch = executor.execute_batch(
        [b1, b2], precheck=lambda access: access.method.name != "accB2"
    )
    assert batch.performed == 1
    assert batch.skipped == 1
    assert executor.metrics.count("executor.precheck_skipped") == 1

    audit = Access(scenario.schema.access_method("accAudit"), ("m0",))
    batch = executor.execute_batch([audit], stop=lambda: True)
    assert batch.performed == 0 and batch.responses == []
