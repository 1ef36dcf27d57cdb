"""Query-server runtime tests.

Covers the multi-query mediator end to end: agreement with the single-query
strategies, access sharing across a batch, the in-process-only
``search_workers`` surface, the persistent witness cache across simulated
restarts (and its closing with the server), the oracle registry across
``answer`` calls, and the metrics surfaces (timer call counts, cache
gauges).
"""

from __future__ import annotations

import gc
import os
import re
import sqlite3
import weakref

import pytest

from repro import Access, Configuration, Instance, SchemaBuilder
from repro.core import is_long_term_relevant
from repro.data import AccessResponse
from repro.exceptions import QueryError
from repro.lru import LRUCache
from repro.planner import exhaustive_strategy, relevance_guided_strategy
from repro.queries import parse_cq
from repro.runtime import (
    CandidateScreen,
    LtrWitness,
    PersistentWitnessCache,
    QueryServer,
    RelevanceOracle,
    RuntimeMetrics,
    Tracer,
    activate_tracer,
    prometheus_text,
)
from repro.runtime.executor import candidate_accesses
from repro.runtime.serialize import query_token, schema_token
from repro.tracing import stage
from repro.workloads import (
    MultiQueryScenario,
    bank_multi_query_scenario,
    multi_query_scenario,
    star_join_scenario,
)


def _access_set(mediator):
    return sorted(
        (access.method.name, access.binding) for access, _n in mediator.access_log
    )


@pytest.fixture(
    params=["multi", "star"],
    ids=["multi-query", "star-join"],
)
def scenario(request):
    if request.param == "multi":
        return multi_query_scenario(6, 5, 2, atoms_per_query=3, seed=3)
    return star_join_scenario(6, 5, 3, atoms_per_query=3, seed=1)


# --------------------------------------------------------------------------- #
# Scenario sanity
# --------------------------------------------------------------------------- #
class TestScenarios:
    def test_queries_are_boolean_and_distinct_stores(self, scenario):
        assert len(scenario.queries) == 6
        assert all(query.is_boolean for query in scenario.queries)
        server = QueryServer(scenario.mediator())
        oracles = {id(server.oracle_for(query)) for query in scenario.queries}
        # Distinct queries get distinct oracles; equal queries share.
        assert len(oracles) == len(set(scenario.queries))
        assert server.oracle_for(scenario.queries[0]) is server.oracle_for(
            scenario.queries[0]
        )

    def test_scenario_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            multi_query_scenario(2, 3, 1, atoms_per_query=9)
        with pytest.raises(ValueError):
            star_join_scenario(2, 3, 2, atoms_per_query=1)

    def test_bank_scenario_mixes_satisfiable_and_not(self):
        scenario = bank_multi_query_scenario(6, employees=5, offices=3, states=3)
        results = [
            relevance_guided_strategy(scenario.mediator(), query)
            for query in scenario.queries
        ]
        answers = [result.boolean_answer for result in results]
        assert answers[0] is True  # the guaranteed motivating combination
        assert len(answers) == 6


# --------------------------------------------------------------------------- #
# Agreement with the single-query strategies
# --------------------------------------------------------------------------- #
class TestServerAgreement:
    def test_server_matches_per_query_guided_runs(self, scenario):
        singles = [
            relevance_guided_strategy(scenario.mediator(), query)
            for query in scenario.queries
        ]
        with QueryServer(scenario.mediator()) as server:
            result = server.answer(scenario.queries)
        assert list(result.boolean_answers) == [
            single.boolean_answer for single in singles
        ]
        assert [outcome.answers for outcome in result.outcomes] == [
            single.answers for single in singles
        ]
        # The batch shares accesses: the server performs no more than the
        # per-query runs combined, and each outcome reports its certainty.
        assert result.accesses_made <= sum(s.accesses_made for s in singles)
        for outcome, single in zip(result.outcomes, singles):
            assert outcome.certain == single.boolean_answer

    def test_server_matches_exhaustive_strategy(self, scenario):
        exhaustives = [
            exhaustive_strategy(scenario.mediator(), query)
            for query in scenario.queries
        ]
        with QueryServer(scenario.mediator()) as server:
            result = server.answer(scenario.queries, strategy="exhaustive")
        assert list(result.boolean_answers) == [
            ex.boolean_answer for ex in exhaustives
        ]

    def test_guided_server_not_worse_than_exhaustive_on_accesses(self, scenario):
        with QueryServer(scenario.mediator()) as guided:
            guided_result = guided.answer(scenario.queries)
        with QueryServer(scenario.mediator()) as exhaustive:
            exhaustive_result = exhaustive.answer(
                scenario.queries, strategy="exhaustive"
            )
        assert guided_result.accesses_made <= exhaustive_result.accesses_made
        assert list(guided_result.boolean_answers) == list(
            exhaustive_result.boolean_answers
        )

    def test_unknown_strategy_and_empty_batch(self, scenario):
        with QueryServer(scenario.mediator()) as server:
            with pytest.raises(QueryError):
                server.answer(scenario.queries, strategy="psychic")
            result = server.answer([])
            assert result.outcomes == () and result.accesses_made == 0


def _unseeded_constant_case():
    """A query constant, ``d00``, that no configuration fact mentions.

    ``R0(a)`` is read by a method dependent on ``a``; ``R1(a, b)`` by one
    with no input, and only ``R1`` brings ``d00`` into the active domain.
    """
    builder = SchemaBuilder()
    builder.domain("D0")
    builder.relation("R0", [("a", "D0")])
    builder.relation("R1", [("a", "D0"), ("b", "D0")])
    builder.access("m0", "R0", inputs=["a"], dependent=True)
    builder.access("m1", "R1", inputs=[])
    schema = builder.build()
    hidden = Instance(
        schema,
        {
            "R0": [("d00",), ("d01",), ("d02",)],
            "R1": [("d01", "d02"), ("d02", "d00")],
        },
    )
    configuration = Configuration(schema, {"R1": [("d01", "d02")]})
    query = parse_cq(schema, "R0('d00'), R0('d02')")
    return MultiQueryScenario("unseeded", schema, configuration, (query,), hidden)


@pytest.mark.parametrize("strategy", ["guided", "exhaustive"])
def test_the_server_seeds_the_query_constants(strategy):
    """The relevance procedures assume the query's constants are known (the
    paper's Section 2).  Unseeded, the guided rounds performed only
    ``m0('d02')`` and answered false."""
    case = _unseeded_constant_case()
    mediator = case.mediator()
    with QueryServer(mediator) as server:
        result = server.answer(case.queries, strategy=strategy)
    assert result.boolean_answers == (True,)
    assert result.outcomes[0].certain
    performed = {(access.method.name, access.binding) for access, _n in mediator.access_log}
    assert ("m0", ("d00",)) in performed and ("m0", ("d02",)) in performed
    if strategy == "guided":
        assert result.accesses_made == 2
    run = relevance_guided_strategy if strategy == "guided" else exhaustive_strategy
    assert run(case.mediator(), case.queries[0]).boolean_answer


def test_containment_cq_on_the_bank_is_sound_but_misses_every_true_answer():
    """What ``ltr_method="containment-cq"`` costs on the bank batch.

    The Proposition 3.5 reduction decides only shape-1 witnesses (the first
    access returns a subgoal), so it misses the ``EmpManAcc`` pattern: the
    manager lookup returns no subgoal, only the value later accesses need.
    Its answers stay sound, but none of the exhaustive strategy's true
    answers is found.  The run also pins the join kernel on the containment
    path (``decide_containment`` and the delta check's joins).
    """
    scenario = bank_multi_query_scenario()
    with QueryServer(scenario.mediator()) as exhaustive:
        reference = exhaustive.answer(scenario.queries, strategy="exhaustive")
    with QueryServer(scenario.mediator(), ltr_method="containment-cq") as server:
        result = server.answer(scenario.queries)
    for answer, expected in zip(result.boolean_answers, reference.boolean_answers):
        assert expected or not answer
    assert sum(reference.boolean_answers) == 4
    assert sum(result.boolean_answers) == 0
    assert not any(outcome.certain for outcome in result.outcomes)
    assert result.accesses_made == 8


# --------------------------------------------------------------------------- #
# Search workers: relevance searches run in-process
# --------------------------------------------------------------------------- #
class TestSearchWorkerDeterminism:
    def test_search_workers_other_than_one_are_rejected(self, scenario):
        mediator = scenario.mediator()
        for workers in (0, 2, 4):
            with pytest.raises(QueryError, match="in-process"):
                QueryServer(mediator, search_workers=workers)
        with pytest.raises(QueryError, match="in-process"):
            mediator.serve(search_workers=2)
        with pytest.raises(TypeError):
            relevance_guided_strategy(mediator, scenario.queries[0], search_workers=2)

    def test_search_workers_one_is_accepted(self, scenario):
        baseline_mediator = scenario.mediator()
        with QueryServer(baseline_mediator) as server:
            baseline = server.answer(scenario.queries)
        mediator = scenario.mediator()
        with mediator.serve(search_workers=1) as server:
            result = server.answer(scenario.queries)
        assert result.answers == baseline.answers
        assert _access_set(mediator) == _access_set(baseline_mediator)

    def test_prebuilt_oracle_rejects_pool_knobs(self, scenario):
        """A pre-built oracle keeps its own persistent cache, so the
        strategy rejects ``cache_path`` next to one."""
        from repro.runtime import RelevanceOracle

        query = scenario.queries[0]
        mediator = scenario.mediator()
        oracle = RelevanceOracle(query, mediator.schema)
        with pytest.raises(QueryError):
            relevance_guided_strategy(
                mediator, query, oracle=oracle, cache_path="unused.sqlite"
            )


# --------------------------------------------------------------------------- #
# Persistent witness cache: warm restarts
# --------------------------------------------------------------------------- #
class TestPersistentCache:
    def test_warm_restart_revalidates_instead_of_searching(self, tmp_path, scenario):
        path = os.fspath(tmp_path / "witness.sqlite")
        cold_metrics = RuntimeMetrics()
        with QueryServer(
            scenario.mediator(), cache_path=path, metrics=cold_metrics
        ) as cold_server:
            cold = cold_server.answer(scenario.queries)
        cold_counters = cold_metrics.snapshot()["counters"]
        assert cold_counters.get("persist.recorded", 0) > 0
        assert os.path.exists(path)

        # A fresh server (fresh stores, fresh oracles) simulates a restart:
        # nothing in memory survives except the store file.
        warm_metrics = RuntimeMetrics()
        with QueryServer(
            scenario.mediator(), cache_path=path, metrics=warm_metrics
        ) as warm_server:
            warm = warm_server.answer(scenario.queries)
        warm_counters = warm_metrics.snapshot()["counters"]
        assert warm.answers == cold.answers
        assert warm_counters.get("witness.revalidated", 0) > 0
        assert warm_counters.get("oracle.fresh_searches", 0) < cold_counters.get(
            "oracle.fresh_searches", 0
        )

    @pytest.mark.parametrize("suffix", ["jsonl", "sqlite"])
    def test_warm_restart_on_guided_strategy(self, tmp_path, suffix):
        """Any ``cache_path`` opens the SQLite store, whatever its suffix."""
        scenario = bank_multi_query_scenario(2, employees=5, offices=3, states=3)
        query = scenario.queries[0]
        path = os.fspath(tmp_path / f"bank.{suffix}")
        cold_metrics = RuntimeMetrics()
        cold = relevance_guided_strategy(
            scenario.mediator(), query, cache_path=path, metrics=cold_metrics
        )
        # The run closed the cache it opened: SQLite removes the WAL file
        # when the last connection closes.
        assert not os.path.exists(path + "-wal")
        warm_metrics = RuntimeMetrics()
        warm = relevance_guided_strategy(
            scenario.mediator(), query, cache_path=path, metrics=warm_metrics
        )
        assert warm.answers == cold.answers
        warm_counters = warm_metrics.snapshot()["counters"]
        assert warm_counters.get("witness.revalidated", 0) > 0
        assert warm_counters.get("oracle.fresh_searches", 0) < cold_metrics.snapshot()[
            "counters"
        ].get("oracle.fresh_searches", 0)

    def test_appends_are_deduplicated_across_runs(self, tmp_path, scenario):
        path = os.fspath(tmp_path / "witness.sqlite")
        for _ in range(2):
            with QueryServer(scenario.mediator(), cache_path=path) as server:
                server.answer(scenario.queries)
        first_size = os.path.getsize(path)
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), cache_path=path, metrics=metrics) as server:
            server.answer(scenario.queries)
        # A warm run re-derives the same witnesses; identical paths are not
        # written again (the store may still gain *new* paths, but a fully
        # warmed run adds nothing).
        assert metrics.count("persist.recorded") == 0
        assert metrics.count("persist.sqlite.dedup_skips") > 0
        assert os.path.getsize(path) == first_size

    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path, scenario):
        path = os.fspath(tmp_path / "witness.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            server.answer(scenario.queries)
        query = scenario.queries[0]
        qtoken, stoken = query_token(query), schema_token(scenario.schema)
        conn = sqlite3.connect(path)
        with conn:
            conn.executemany(
                "INSERT INTO witnesses VALUES (?, ?, ?, 'd', ?)",
                [
                    (qtoken, stoken, "truncated", "{truncated"),
                    (qtoken, stoken, "wrong-shape", '{"query": "x"}'),
                ],
            )
        conn.close()
        cache = PersistentWitnessCache(path)
        witnesses = cache.witnesses_for(query, scenario.schema)
        assert cache.stats["skipped_undecodable"] == 2
        # The well-formed records still load.
        with QueryServer(scenario.mediator(), persist=cache) as server:
            result = server.answer(scenario.queries)
        assert len(result.outcomes) == len(scenario.queries)
        assert isinstance(witnesses, dict)

    @pytest.mark.parametrize("suffix", ["jsonl", "sqlite"])
    def test_close_closes_the_store_it_opened(self, tmp_path, scenario, suffix):
        path = os.fspath(tmp_path / f"w.{suffix}")
        with QueryServer(scenario.mediator(), cache_path=path) as server:
            server.answer(scenario.queries)
        persist = server.persist
        assert persist.store._conn is None
        # Reading stats after close still works: the store reconnects
        # lazily.  Every path opens the SQLite store, whatever its suffix.
        assert persist.stats["backend"] == "sqlite"
        assert persist.store.stats()["records"] > 0
        # ...and closes the connection it read through.
        assert persist.store._conn is None
        server.close()  # idempotent

    def test_close_leaves_a_supplied_cache_open(self, tmp_path, scenario):
        cache = PersistentWitnessCache(os.fspath(tmp_path / "w.sqlite"))
        with QueryServer(scenario.mediator(), persist=cache) as server:
            cold = server.answer(scenario.queries)
        assert cache.store._conn is not None
        # The caller still owns a working cache: a restarted server warms
        # up from it.
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), persist=cache, metrics=metrics) as server:
            warm = server.answer(scenario.queries)
        assert warm.answers == cold.answers
        assert metrics.count("persist.seeded") > 0
        cache.close()

    def test_long_lived_server_seeds_another_writers_records(self, tmp_path):
        """An oracle the registry hands out again re-seeds from the store,
        so records another writer landed since arrive on the next call."""
        scenario = bank_multi_query_scenario()
        path = os.fspath(tmp_path / "shared.sqlite")
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), cache_path=path, metrics=metrics) as server:
            # Fill the registry; with no round nothing is searched or stored.
            server.answer(scenario.queries, max_rounds=0)
            writer_metrics = RuntimeMetrics()
            writer_cache = PersistentWitnessCache(path)
            with QueryServer(
                scenario.mediator(), persist=writer_cache, metrics=writer_metrics
            ) as writer:
                cold = writer.answer(scenario.queries)
            stored = writer_cache.store.stats()["records"]
            writer_cache.close()
            assert writer_metrics.count("oracle.fresh_searches") > 10
            before = metrics.snapshot()["counters"]
            warm = server.answer(scenario.queries)
            after = metrics.snapshot()["counters"]

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        assert warm.answers == cold.answers
        assert stored > 0 and delta("persist.seeded") == stored
        assert delta("oracle.fresh_searches") <= 10
        assert delta("witness.revalidated") > 0

    def test_a_discarded_witness_is_not_seeded_again(self, tmp_path):
        """A stored record the oracle saw fail revalidation is not re-seeded
        when the registry hands the oracle out again; a changed record for
        that access (another writer's) still is."""
        scenario = multi_query_scenario(16, 8, 8)
        path = os.fspath(tmp_path / "w.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as cold:
            cold.answer(scenario.queries)
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), cache_path=path, metrics=metrics) as server:
            server.answer(scenario.queries)
            assert metrics.count("witness.revalidation_failed") == 42
            seeded = metrics.count("persist.seeded")
            server.answer(scenario.queries)
            assert metrics.count("persist.seeded") == seeded
            # Another writer replaces one discarded record with a new path.
            def discarded(oracle, akey):
                record = oracle._records.peek(akey)
                return record.discarded if record is not None else None

            oracle, access, witness = next(
                (oracle, witness.access, witness)
                for oracle in server._stores.values()
                for akey, witness in server.persist.witnesses_for(
                    oracle.query, scenario.schema
                ).items()
                if discarded(oracle, akey) == witness
            )
            writer = PersistentWitnessCache(path)
            tokens = (query_token(oracle.query), schema_token(scenario.schema))
            writer.record(tokens, access, LtrWitness(witness.steps + witness.steps[-1:]))
            writer.close()
            server.answer(scenario.queries)
            assert metrics.count("persist.seeded") == seeded + 1

    def test_seeding_keeps_each_oracle_within_max_entries(self, tmp_path):
        """An oracle offered more stored records than ``max_entries`` answers
        the same, holds at most ``max_entries`` entries in every map or set
        it keeps, and re-seeding evicts none of the records it decided."""
        scenario = multi_query_scenario(16, 8, 8)
        path = os.fspath(tmp_path / "w.sqlite")
        with QueryServer(scenario.mediator(), cache_path=path) as cold:
            expected = cold.answer(scenario.queries).answers
        with QueryServer(scenario.mediator(), cache_path=path, max_entries=4) as server:
            for _ in range(2):
                assert server.answer(scenario.queries).answers == expected
            oracles = list(server._stores.values())
            stored = max(
                len(server.persist.witnesses_for(oracle.query, scenario.schema))
                for oracle in oracles
            )
            kept = 0
            for oracle in oracles:
                decided = {
                    akey: record
                    for akey, record in oracle._records._entries.items()
                    if record.snapshot is not None
                }
                oracle.seed_witnesses()
                for akey, record in decided.items():
                    assert oracle._records.peek(akey) is record
                kept += len(decided)
        assert stored > 4 and kept > 0
        for oracle in oracles:
            sizes = [
                len(value)
                for value in vars(oracle).values()
                if isinstance(value, (set, dict, LRUCache))
            ]
            assert max(sizes) <= 4

    def test_cache_path_and_persist_are_exclusive(self, tmp_path, scenario):
        cache = PersistentWitnessCache(os.fspath(tmp_path / "w.sqlite"))
        with pytest.raises(QueryError):
            QueryServer(
                scenario.mediator(),
                cache_path=os.fspath(tmp_path / "w.sqlite"),
                persist=cache,
            )


# --------------------------------------------------------------------------- #
# The oracle registry: a server is a server
# --------------------------------------------------------------------------- #
class TestStoreRegistry:
    def test_second_answer_call_reuses_stores(self, scenario):
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), metrics=metrics) as server:
            first = server.answer(scenario.queries)
            before = metrics.snapshot()["counters"]
            second = server.answer(scenario.queries)
            after = metrics.snapshot()["counters"]
        assert second.answers == first.answers
        # The second call performs no new access (the shared configuration
        # already holds everything) and reuses the oracles' verdicts.
        assert second.accesses_made == 0
        reused = (
            after.get("witness.revalidated", 0)
            + after.get("oracle.delta_hits", 0)
            + after.get("oracle.hits", 0)
        ) - (
            before.get("witness.revalidated", 0)
            + before.get("oracle.delta_hits", 0)
            + before.get("oracle.hits", 0)
        )
        assert reused > 0

    def test_second_answer_call_builds_nothing(self, scenario, monkeypatch):
        """A repeated batch reuses the registry's oracles and their screens:
        nothing is constructed, and every verdict the oracles then serve
        equals the unmemoized procedure's."""
        built = []

        def counting(cls):
            init = cls.__init__

            def wrapper(self, *args, **kwargs):
                built.append(cls.__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", wrapper)

        counting(RelevanceOracle)
        counting(CandidateScreen)
        mediator = scenario.mediator()
        with QueryServer(mediator) as server:
            first = server.answer(scenario.queries)
            assert "RelevanceOracle" in built and "CandidateScreen" in built
            built.clear()
            second = server.answer(scenario.queries)
            assert built == []
            assert second.answers == first.answers
            oracles = list(server._stores.values())
        final = mediator.configuration_view
        schema = mediator.schema
        # Every well-formed access, performed or not.
        probes = candidate_accesses(schema, final, lambda _key: False)
        assert probes and oracles
        for oracle in oracles:
            for access in probes:
                assert oracle.long_term_relevant(access, final) == is_long_term_relevant(
                    oracle.query, access, final, schema
                ), (oracle.query, access)

    def test_store_registry_is_bounded(self, scenario):
        """A server streaming distinct queries evicts least-recently-used
        oracles instead of pinning one per query ever seen."""
        server = QueryServer(scenario.mediator(), max_stores=2)
        oracles = [server.oracle_for(query) for query in scenario.queries[:4]]
        assert len(server._stores) == 2
        # The most recent two survive; re-requesting an evicted query
        # builds a fresh oracle (reuse lost, correctness unaffected).
        assert server.oracle_for(scenario.queries[3]) is oracles[3]
        assert server.oracle_for(scenario.queries[0]) is not oracles[0]

    def test_rounds_exhausted_is_flagged(self):
        # The fanout shape needs a hub round before any branch round, so a
        # one-round budget genuinely starves it (the star-join scenario, by
        # contrast, completes in one round — finishing exactly at the budget
        # is not exhaustion).
        deep = multi_query_scenario(6, 5, 2, atoms_per_query=3, seed=3)
        with QueryServer(deep.mediator()) as server:
            starved = server.answer(deep.queries, max_rounds=1)
        assert starved.rounds_exhausted
        assert any(outcome.rounds_exhausted for outcome in starved.outcomes)
        # Certain-in-one-round queries are not flagged.
        for outcome in starved.outcomes:
            if outcome.certain:
                assert not outcome.rounds_exhausted

        shallow = star_join_scenario(6, 5, 3, atoms_per_query=3, seed=1)
        with QueryServer(shallow.mediator()) as server:
            complete = server.answer(shallow.queries, max_rounds=1)
        assert not complete.rounds_exhausted


# --------------------------------------------------------------------------- #
# Sibling hints: witnesses shared across queries of one template
# --------------------------------------------------------------------------- #
def _sibling_scenario():
    """``R(k, v)`` read by ``k`` (dependent), ``S(v)`` and ``U(e)`` read
    freely, ``e`` enumerated; two queries that differ only in a constant."""
    builder = SchemaBuilder()
    builder.domain("D")
    builder.domain("E", values=["a", "x"])
    builder.relation("R", [("k", "D"), ("v", "D")])
    builder.relation("S", [("v", "D")])
    builder.relation("U", [("e", "E")])
    builder.access("mR", "R", inputs=["k"], dependent=True)
    builder.access("mS", "S", inputs=[])
    builder.access("mU", "U", inputs=[])
    schema = builder.build()
    queries = tuple(
        parse_cq(schema, f"R('{key}', y), S(y)", name=f"q{key}") for key in ("a", "b")
    )
    configuration = Configuration.empty(schema)
    for query in queries:
        for value, domain in query.constants_with_domains():
            configuration.add_constant(value, domain)
    return MultiQueryScenario(
        "siblings", schema, configuration, queries, Instance(schema)
    )


class TestSiblingHints:
    def _oracles(self, metrics):
        scenario = _sibling_scenario()
        server = QueryServer(scenario.mediator(), metrics=metrics)
        first, second = (server.oracle_for(query) for query in scenario.queries)
        return scenario, server, first, second

    def test_a_sibling_witness_replaces_the_fresh_search(self):
        metrics = RuntimeMetrics()
        scenario, server, first, second = self._oracles(metrics)
        configuration = scenario.configuration.copy()
        free = Access(scenario.schema.access_method("mS"), ())
        assert first.long_term_relevant(free, configuration)
        assert metrics.count("oracle.fresh_searches") == 1
        assert second.long_term_relevant(free, configuration)
        assert metrics.count("oracle.fresh_searches") == 1
        assert metrics.count("oracle.sibling_hits") == 1
        assert metrics.count("witness.revalidated") == 1
        hint = second.witness_for(free)
        assert hint.access == free and hint != first.witness_for(free)
        # The hint was revalidated here, so once the configuration grows
        # only its truncation is re-checked.
        configuration.add("R", ("a", "w"))
        assert second.long_term_relevant(free, configuration)
        assert metrics.count("witness.truncation_only") == 1

    def test_a_hint_that_moves_the_probed_binding_is_skipped(self):
        metrics = RuntimeMetrics()
        scenario, server, first, second = self._oracles(metrics)
        configuration = scenario.configuration
        probe = Access(scenario.schema.access_method("mR"), ("a",))
        assert first.long_term_relevant(probe, configuration)
        # Renaming a -> b would turn the path into one for mR('b').
        verdict = second.long_term_relevant(probe, configuration)
        assert verdict == is_long_term_relevant(
            second.query, probe, configuration, scenario.schema
        )
        assert metrics.count("oracle.sibling_misses") == 0
        assert metrics.count("oracle.sibling_hits") == 0
        assert metrics.count("oracle.fresh_searches") == 2

    def test_a_hint_outside_an_enumerated_domain_fails_without_raising(self):
        metrics = RuntimeMetrics()
        scenario, server, first, second = self._oracles(metrics)
        configuration = scenario.configuration
        probe = Access(scenario.schema.access_method("mU"), ())
        # A path with the constant 'a' at U's enumerated place: renamed to
        # 'b' it does not type.
        assert first._take_stored(
            ("mU", ()), LtrWitness((AccessResponse(probe, (("a",),)),))
        )
        verdict = second.long_term_relevant(probe, configuration)
        assert verdict == is_long_term_relevant(
            second.query, probe, configuration, scenario.schema
        )
        assert metrics.count("oracle.sibling_misses") == 1
        assert metrics.count("witness.revalidation_failed") == 1
        assert metrics.count("oracle.fresh_searches") == 1

    def test_reading_a_sibling_leaves_its_cache_alone(self):
        metrics = RuntimeMetrics()
        scenario, server, first, second = self._oracles(metrics)
        configuration = scenario.configuration
        free = Access(scenario.schema.access_method("mS"), ())
        keyed = Access(scenario.schema.access_method("mR"), ("a",))
        assert first.long_term_relevant(free, configuration)
        assert first.long_term_relevant(keyed, configuration)
        records = first._records

        def state():
            return records.hits, records.misses, list(records._entries)

        before = state()
        # The hint reads the older key: a recency refresh would reorder them.
        assert before[2] == [("mS", ()), ("mR", ("a",))]
        assert second.long_term_relevant(free, configuration)
        assert metrics.count("oracle.sibling_hits") == 1
        assert state() == before

    def test_a_standalone_oracle_takes_no_hints(self):
        metrics = RuntimeMetrics()
        scenario, server, first, _second = self._oracles(metrics)
        free = Access(scenario.schema.access_method("mS"), ())
        first.long_term_relevant(free, scenario.configuration)
        alone = RelevanceOracle(scenario.queries[1], scenario.schema, metrics=metrics)
        assert alone.sibling_group is None
        assert alone.long_term_relevant(free, scenario.configuration)
        assert metrics.count("oracle.sibling_hits") == 0
        assert metrics.count("oracle.fresh_searches") == 2

    def test_traced_hits_say_sibling(self):
        scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
        tracer = Tracer()
        metrics = RuntimeMetrics()
        with activate_tracer(tracer), QueryServer(
            scenario.mediator(), metrics=metrics
        ) as server:
            server.answer(scenario.queries)
        spans = tracer.spans()
        hits = metrics.count("oracle.sibling_hits")
        attempts = [
            span.tags
            for span in spans
            if span.name == "witness-revalidate" and span.tags["provenance"] == "sibling"
        ]
        outcomes = [span.tags["outcome"] for span in spans if span.name == "oracle"]
        assert hits == 48 and outcomes.count("sibling") == hits
        assert len(attempts) == hits + metrics.count("oracle.sibling_misses")
        assert sum(tags["ok"] for tags in attempts) == hits
        assert all(tags["check"] == "full" for tags in attempts)

    def test_eviction_leaves_the_group_and_an_empty_group_leaves_the_index(self):
        scenario = bank_multi_query_scenario()
        server = QueryServer(scenario.mediator(), max_stores=2)
        first, second, third = (server.oracle_for(q) for q in scenario.queries[:3])
        group = third.sibling_group
        assert group is second.sibling_group and first.sibling_group is None
        assert group.oracles == [second, third]
        assert list(server._siblings) == [group.key]
        others = [
            parse_cq(scenario.schema, text)
            for text in ("Approval('Illinois', '30yr')", "Office(o, a, 'Illinois', p)")
        ]
        for query in others:
            server.oracle_for(query)
        assert not group.oracles and second.sibling_group is None
        assert group.key not in server._siblings
        assert len(server._siblings) == 2

    def test_a_dropped_server_frees_its_oracles_without_the_cycle_collector(self):
        scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
        gc.disable()
        try:
            server = QueryServer(scenario.mediator())
            server.answer(scenario.queries)
            oracle = weakref.ref(server.oracle_for(scenario.queries[0]))
            group = weakref.ref(oracle().sibling_group)
            assert group() is not None
            del server
            assert oracle() is None and group() is None
        finally:
            gc.enable()


# --------------------------------------------------------------------------- #
# Metrics surfaces: timed-stage sample counts and the ladder counters
# --------------------------------------------------------------------------- #
class TestMetricsSurfaces:
    def test_timer_calls_are_counted(self):
        """A timed stage (``stage(metric=...)``) counts its samples."""
        metrics = RuntimeMetrics()
        for _ in range(3):
            with stage("t", metrics=metrics, metric="t"):
                pass
        assert metrics.histogram("t").count == 3
        snap = metrics.snapshot()
        assert snap["histograms"]["t"]["count"] == 3
        assert snap["histograms"]["t"]["sum"] >= 0.0
        metrics.reset()
        assert metrics.histogram("t") is None

    def test_server_metrics_count_the_ladder_rungs(self, scenario):
        """Counters and histograms account for every oracle decision: each
        miss is resolved by exactly one rung or one timed certainty check."""
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), metrics=metrics) as server:
            server.answer(scenario.queries)
        count = metrics.count
        samples = metrics.histogram
        assert count("oracle.misses") == (
            count("oracle.delta_hits")
            + count("witness.revalidated")
            + count("oracle.fresh_searches")
            + samples("oracle.certain").count
        )
        assert count("oracle.fresh_searches") == samples("oracle.long_term").count > 0
        assert samples("oracle.certain").count > 0
        assert count("oracle.hits") > 0

    def test_metrics_cardinality_ignores_the_registry(self, scenario):
        """A server answering more distinct queries than its registry holds
        evicts and rebuilds oracles, but the metrics it exports name no
        oracle: the snapshot holds counters, gauges and histograms only, and
        no exposition sample carries a label other than ``le``."""
        metrics = RuntimeMetrics()
        queries = scenario.queries
        assert len(queries) > 2
        with QueryServer(scenario.mediator(), metrics=metrics, max_stores=2) as server:
            for _ in range(2):
                for query in queries:
                    server.answer([query])
            assert len(server._stores) == 2
            snap = metrics.snapshot()
            text = prometheus_text(metrics)
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert "repro_cache" not in text
        labels = {
            label
            for line in text.splitlines()
            if not line.startswith("#")
            for label in re.findall(r'([A-Za-z_][A-Za-z0-9_]*)="', line)
        }
        assert labels == {"le"}
