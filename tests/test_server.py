"""Query-server runtime tests.

Covers the multi-query mediator end to end: agreement with the single-query
strategies, access sharing across a batch, the in-process-only
``search_workers`` surface, the persistent witness cache across simulated
restarts (and its closing with the server), the store registry across
``answer`` calls, and the metrics surfaces (timer call counts, cache
gauges).
"""

from __future__ import annotations

import os
import sqlite3

import pytest

from repro.exceptions import QueryError
from repro.planner import exhaustive_strategy, relevance_guided_strategy
from repro.runtime import (
    LRUCache,
    PersistentWitnessCache,
    QueryServer,
    RuntimeMetrics,
)
from repro.runtime.serialize import query_token, schema_token
from repro.workloads import (
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
        stores = {id(server.store_for(query)) for query in scenario.queries}
        # Distinct queries get distinct stores; equal queries share.
        assert len(stores) == len(set(scenario.queries))
        assert server.store_for(scenario.queries[0]) is server.store_for(
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

    def test_rejects_no_relevance_notion(self, scenario):
        with pytest.raises(QueryError):
            QueryServer(
                scenario.mediator(), use_immediate=False, use_long_term=False
            )


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

    def test_cache_path_and_persist_are_exclusive(self, tmp_path, scenario):
        cache = PersistentWitnessCache(os.fspath(tmp_path / "w.sqlite"))
        with pytest.raises(QueryError):
            QueryServer(
                scenario.mediator(),
                cache_path=os.fspath(tmp_path / "w.sqlite"),
                persist=cache,
            )


# --------------------------------------------------------------------------- #
# The store registry: a server is a server
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
        # already holds everything) and reuses the stores' LTR history.
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

    def test_store_registry_is_bounded(self, scenario):
        """A server streaming distinct queries evicts least-recently-used
        stores instead of pinning one per query ever seen."""
        server = QueryServer(scenario.mediator(), max_stores=2)
        stores = [server.store_for(query) for query in scenario.queries[:4]]
        assert len(server._stores) == 2
        # The most recent two survive; re-requesting an evicted query
        # builds a fresh store (reuse lost, correctness unaffected).
        assert server.store_for(scenario.queries[3]) is stores[3]
        assert server.store_for(scenario.queries[0]) is not stores[0]

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
# Metrics surfaces: timer call counts and cache gauges
# --------------------------------------------------------------------------- #
class TestMetricsSurfaces:
    def test_timer_calls_are_counted(self):
        metrics = RuntimeMetrics()
        for _ in range(3):
            with metrics.timer("t"):
                pass
        assert metrics.timer_calls("t") == 3
        snap = metrics.snapshot()
        assert snap["timer_calls"]["t"] == 3
        assert snap["timers"]["t"] >= 0.0
        metrics.reset()
        assert metrics.timer_calls("t") == 0

    def test_server_metrics_include_cache_gauges(self, scenario):
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), metrics=metrics) as server:
            server.answer(scenario.queries)
            snap = metrics.snapshot()
        # The store-backed caches outlive the per-call oracles and stay
        # visible with their hit/miss gauges.
        stores = [
            stats
            for name, stats in snap["caches"].items()
            if name.startswith("oracle.witnesses")
            or name.startswith("oracle.ltr_history")
        ]
        assert stores and all(
            {"hits", "misses", "entries", "hit_rate"} <= set(stats)
            for stats in stores
        )
        assert any(stats["entries"] for stats in stores)
        assert snap["timer_calls"].get("oracle.certain", 0) > 0

    def test_cache_registry_stays_bounded_across_answer_calls(self, scenario):
        """Oracles register their caches weakly: repeated answer calls must
        not accumulate dead per-call cache registrations in the shared sink
        (the long-lived-server memory-leak regression)."""
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), metrics=metrics) as server:
            server.answer(scenario.queries)
            first = len(metrics.snapshot()["caches"])
            for _ in range(3):
                server.answer(scenario.queries)
            after = len(metrics.snapshot()["caches"])
        assert after <= first

    def test_dead_cache_registrations_are_pruned(self):
        metrics = RuntimeMetrics()
        cache = LRUCache()
        name = metrics.register_cache("probe", cache)
        assert name in metrics.snapshot()["caches"]
        del cache
        import gc

        gc.collect()
        assert "probe" not in metrics.snapshot()["caches"]
        # The name is reusable once the old cache is gone.
        keep = LRUCache()
        assert metrics.register_cache("probe", keep) == "probe"
