"""Tests for the parallel answering runtime.

Covers the concurrency layer end to end: the source latency model, the
executor's windowed batch loop, thread-safe metrics and LRU caches, oracle
work staying on the dispatching thread, oracle reuse across runs, the
``rounds_exhausted`` / new-facts-progress bookkeeping, and — the
load-bearing property — that a parallel relevance-guided run is
observationally equivalent to the sequential one: same answers, and on
fanout workloads the same access set.
"""

from __future__ import annotations

import inspect
import threading
import time

import pytest

from repro import Access, Configuration, Instance, RelevanceOracle, RuntimeMetrics
from repro.core import is_long_term_relevant
from repro.exceptions import AccessError, QueryError, SchemaError
from repro.planner import exhaustive_strategy, relevance_guided_strategy
from repro.runtime import (
    AccessExecutor,
    CandidateScreen,
    Deadline,
    LRUCache,
    QueryServer,
)
from repro.runtime.executor import candidate_accesses
from repro.schema import SchemaBuilder
from repro.sources import DataSource, Mediator
from repro.workloads import (
    bank_multi_query_scenario,
    chain_query,
    chain_schema,
    fanout_scenario,
    multi_query_scenario,
    wide_fanout_scenario,
)


def _access_set(mediator):
    return sorted((access.method.name, access.binding) for access, _n in mediator.access_log)


# --------------------------------------------------------------------------- #
# DataSource: latency model and order-independent partial sampling
# --------------------------------------------------------------------------- #
class TestLatencyModel:
    def test_latency_delays_response(self, binary_schema, binary_instance):
        source = DataSource(
            binary_schema.access_method("mS"), binary_instance, latency_s=0.02
        )
        started = time.perf_counter()
        source.respond(Access(binary_schema.access_method("mS"), (2,)))
        assert time.perf_counter() - started >= 0.02
        assert source.latency_s == 0.02

    def test_jitter_is_bounded(self, binary_schema, binary_instance):
        source = DataSource(
            binary_schema.access_method("mS"),
            binary_instance,
            latency_s=0.005,
            latency_jitter_s=0.01,
            seed=3,
        )
        started = time.perf_counter()
        source.respond(Access(binary_schema.access_method("mS"), (2,)))
        elapsed = time.perf_counter() - started
        assert elapsed >= 0.005

    def test_negative_latency_rejected(self, binary_schema, binary_instance):
        with pytest.raises(AccessError):
            DataSource(
                binary_schema.access_method("mS"), binary_instance, latency_s=-1.0
            )
        with pytest.raises(AccessError):
            DataSource(
                binary_schema.access_method("mS"),
                binary_instance,
                latency_jitter_s=-0.1,
            )

    def test_partial_sampling_is_call_order_independent(self):
        """A partial source's subset for an access is a function of
        (seed, access, tuple) — not of how many calls happened before, so
        parallel completion order cannot change the retrieved data."""
        builder = SchemaBuilder()
        builder.domain("D")
        relation = builder.relation("R", [("a", "D"), ("b", "D")])
        builder.access("mR", relation, inputs=[0], dependent=False)
        schema = builder.build()
        hidden = Instance(
            schema, {"R": [("k", f"v{i}") for i in range(40)] + [("j", "w")]}
        )
        method = schema.access_method("mR")
        first = Access(method, ("k",))
        second = Access(method, ("j",))

        one = DataSource(method, hidden, completeness=0.5, seed=11)
        other = DataSource(method, hidden, completeness=0.5, seed=11)
        a1 = one.respond(first).facts
        a2 = one.respond(second).facts
        b2 = other.respond(second).facts
        b1 = other.respond(first).facts
        assert a1 == b1 and a2 == b2
        # Repeating the same access returns the identical subset.
        assert one.respond(first).facts == a1
        # A proper subset was actually sampled (not all-or-nothing).
        assert 0 < len(a1) < 41


# --------------------------------------------------------------------------- #
# The batch loop: AccessExecutor.execute_batch
# --------------------------------------------------------------------------- #
class TestPerformMany:
    """The executor's batch loop (it replaced ``Mediator.perform_many``)."""

    def _fanout_round(self, scenario, mediator, *, branches=8, mids=4):
        mediator.perform(Access(scenario.schema.access_method("accHub"), ("start",)))
        accesses = []
        for index in range(1, branches + 1):
            method = scenario.schema.access_method(f"accB{index}")
            for mid in range(mids):
                accesses.append(Access(method, (f"m{mid}",)))
        return accesses

    def test_parallel_matches_sequential_content(self):
        scenario = wide_fanout_scenario(8, 4)
        sequential = scenario.mediator()
        parallel = scenario.mediator()
        batch = self._fanout_round(scenario, sequential)
        AccessExecutor(sequential).execute_batch(batch, max_concurrency=1)
        self._fanout_round(scenario, parallel)
        result = AccessExecutor(parallel).execute_batch(batch, max_concurrency=8)
        assert result.performed == len(batch)
        assert parallel.configuration_view.fingerprint() == (
            sequential.configuration_view.fingerprint()
        )
        assert _access_set(parallel) == _access_set(sequential)
        # New-fact counts agree in aggregate (merge order may differ).
        assert result.new_facts == len(
            parallel.configuration_view
        ) - 4  # the 4 hub rows merged before the batch

    def test_stop_is_honored_between_completions(self):
        scenario = wide_fanout_scenario(8, 4)
        mediator = scenario.mediator()
        accesses = self._fanout_round(scenario, mediator)
        before = mediator.access_count

        def stop():
            return mediator.access_count - before >= 1

        AccessExecutor(mediator).execute_batch(accesses, max_concurrency=2, stop=stop)
        made = mediator.access_count - before
        # At least one completed; only the <= 2 dispatched before the stop
        # check could complete — nothing else was sent to a source.
        assert 1 <= made <= 2

    def test_should_perform_runs_on_dispatch_thread(self):
        scenario = wide_fanout_scenario(4, 2)
        mediator = scenario.mediator()
        accesses = self._fanout_round(scenario, mediator, branches=4, mids=2)
        dispatch_thread = threading.get_ident()
        seen = []

        def should(access):
            seen.append(threading.get_ident())
            return True

        AccessExecutor(mediator).execute_batch(
            accesses, max_concurrency=4, precheck=should
        )
        assert seen and set(seen) == {dispatch_thread}

    def test_parallel_merge_stays_all_or_nothing(self):
        from repro import AccessResponse

        builder = SchemaBuilder()
        builder.domain("D")
        relation = builder.relation("R", [("a", "D"), ("b", "D")])
        builder.access("mR", relation, inputs=[1], dependent=False)
        schema = builder.build()

        class RogueSource:
            def __init__(self, method):
                self.method = method

            def respond(self, access):
                return AccessResponse.trusted(access, (("ok", "b"), ("bad",)))

        mediator = Mediator(schema, [RogueSource(schema.access_method("mR"))])
        before = mediator.configuration_view.fingerprint()
        with pytest.raises(SchemaError):
            AccessExecutor(mediator).execute_batch(
                [Access(schema.access_method("mR"), ("b",))], max_concurrency=4
            )
        assert mediator.configuration_view.fingerprint() == before
        assert mediator.access_count == 0

    def test_ill_formed_access_raises_in_parallel_mode(self):
        schema = chain_schema(1)
        instance = Instance(schema, {"L1": [("a", "b")]})
        mediator = Mediator(schema, [DataSource(schema.access_method("accL1"), instance)])
        with pytest.raises(AccessError):
            AccessExecutor(mediator).execute_batch(
                [Access(schema.access_method("accL1"), ("a",))], max_concurrency=4
            )

    def test_parallelism_below_one_counts_as_one(self):
        """``max_concurrency=0`` with a deadline used to dispatch nothing and
        report neither a skip nor a failure, and the guided strategy passed
        ``parallelism`` through unclamped, so it answered wrongly without
        flagging the run degraded."""
        scenario = bank_multi_query_scenario()
        mediator = scenario.mediator()
        executor = AccessExecutor(mediator)
        candidates = candidate_accesses(
            scenario.schema, mediator.configuration_view, executor.has_performed_key
        )
        assert len(candidates) == 8
        batch = executor.execute_batch(
            candidates, max_concurrency=0, deadline=Deadline.after(30)
        )
        assert batch.performed == 8 and not batch.failed
        assert mediator.access_count == 8

        query = scenario.queries[0]
        reference_mediator = scenario.mediator()
        reference = relevance_guided_strategy(reference_mediator, query, parallelism=1)
        zero_mediator = scenario.mediator()
        zero = relevance_guided_strategy(
            zero_mediator, query, parallelism=0, deadline_s=30
        )
        assert reference.boolean_answer
        assert zero == reference
        assert zero_mediator.access_log == reference_mediator.access_log


# --------------------------------------------------------------------------- #
# Thread safety: metrics, LRU caches, the oracle's thread
# --------------------------------------------------------------------------- #
class TestThreadSafety:
    def test_concurrent_incr_loses_no_counts(self):
        metrics = RuntimeMetrics()
        threads = 8
        per_thread = 5000

        def work():
            for _ in range(per_thread):
                metrics.incr("hammer")
                with metrics.timer("t"):
                    pass

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert metrics.count("hammer") == threads * per_thread
        assert metrics.snapshot()["timers"]["t"] >= 0.0

    def test_lru_cache_concurrent_get_put(self):
        cache = LRUCache(max_entries=64)
        errors = []

        def work(offset):
            try:
                for i in range(4000):
                    key = (offset * 4000 + i) % 200
                    cache.put(key, i)
                    cache.get(key)
                    if i % 7 == 0:
                        cache.discard((key + 1) % 200)
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        workers = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        assert len(cache) <= 64

    def test_sharded_oracle_concurrent_verdicts_match_fresh_search(self):
        scenario = fanout_scenario(3)
        schema = scenario.schema
        oracle = RelevanceOracle(scenario.query, schema)
        base = scenario.configuration.copy()
        grown = base.copy()
        grown.add("Hub", ("start", "m0"))
        probes = [
            (Access(schema.access_method("accHub"), ("start",)), base),
            (Access(schema.access_method("accHub"), ("start",)), grown),
            (Access(schema.access_method("accB1"), ("m0",)), grown),
            (Access(schema.access_method("accB2"), ("m0",)), grown),
        ]
        results = {}
        errors = []

        def work(index):
            try:
                for repeat in range(10):
                    for p_index, (probe, configuration) in enumerate(probes):
                        verdict = oracle.long_term_relevant(probe, configuration)
                        results[(index, p_index)] = verdict
            except Exception as exc:  # pragma: no cover - the failure mode
                errors.append(exc)

        workers = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert not errors
        for p_index, (probe, configuration) in enumerate(probes):
            fresh = is_long_term_relevant(oracle.query, probe, configuration, schema)
            assert all(
                results[(t, p_index)] == fresh for t in range(6)
            ), f"probe {p_index} diverged from the fresh search"

    def test_oracle_work_stays_on_the_dispatching_thread(self, monkeypatch):
        """Pool threads only run source round trips: every oracle and
        screening call of a concurrent server batch and of a concurrent
        guided run happens on the calling thread."""
        threads = []

        def recording(method):
            def wrapper(*args, **kwargs):
                threads.append(threading.get_ident())
                return method(*args, **kwargs)

            return wrapper

        for cls in (RelevanceOracle, CandidateScreen):
            for name, member in list(vars(cls).items()):
                if not name.startswith("_") and inspect.isfunction(member):
                    monkeypatch.setattr(cls, name, recording(member))

        batch = multi_query_scenario(16, 8, 8)
        with QueryServer(batch.mediator(latency_s=0.002), parallelism=8) as server:
            server.answer(batch.queries)
        served = len(threads)
        fanout = fanout_scenario(4, mids=2)
        relevance_guided_strategy(fanout.mediator(), fanout.query, parallelism=4)
        assert 0 < served < len(threads)
        assert set(threads) == {threading.get_ident()}


# --------------------------------------------------------------------------- #
# Cross-run reuse: one oracle passed to several runs
# --------------------------------------------------------------------------- #
class TestSharedVerdictStore:
    """Runs reuse verdicts, LTR history and witnesses by sharing an oracle."""

    def test_second_run_reuses_first_runs_witnesses(self):
        scenario = fanout_scenario(3)
        metrics = RuntimeMetrics()
        oracle = RelevanceOracle(scenario.query, scenario.schema, metrics=metrics)
        first = relevance_guided_strategy(
            scenario.mediator(), scenario.query, oracle=oracle
        )
        searched = metrics.count("oracle.fresh_searches")
        assert searched > 0
        second = relevance_guided_strategy(
            scenario.mediator(), scenario.query, oracle=oracle
        )
        assert second.answers == first.answers
        assert second.accesses_made == first.accesses_made
        assert metrics.count("oracle.fresh_searches") == searched

    def test_store_rejects_mismatched_query_or_schema(self):
        scenario = fanout_scenario(2)
        other = fanout_scenario(3)
        for oracle in (
            RelevanceOracle(other.query, scenario.schema),
            RelevanceOracle(scenario.query, other.schema),
        ):
            with pytest.raises(QueryError):
                relevance_guided_strategy(
                    scenario.mediator(), scenario.query, oracle=oracle
                )
        # An oracle for the very pair the run is about is accepted.
        relevance_guided_strategy(
            scenario.mediator(),
            scenario.query,
            oracle=RelevanceOracle(scenario.query, scenario.schema),
        )


# --------------------------------------------------------------------------- #
# Strategy-level bookkeeping: progress and round exhaustion
# --------------------------------------------------------------------------- #
def _overlapping_sources_setup():
    """Two access methods over one relation: their responses overlap fully."""
    builder = SchemaBuilder()
    builder.domain("D")
    relation = builder.relation("R", [("a", "D"), ("b", "D")])
    builder.access("mR_by_b", relation, inputs=["b"], dependent=True)
    builder.access("mR_by_a", relation, inputs=["a"], dependent=True)
    schema = builder.build()
    hidden = Instance(schema, {"R": [("a", "b")]})
    configuration = Configuration.empty(schema)
    configuration.add_constant("b", schema.relation("R").domain_of(1))
    sources = [DataSource(method, hidden) for method in schema.access_methods]
    return schema, Mediator(schema, sources, configuration)


class TestProgressBookkeeping:
    def test_duplicate_only_batch_does_not_count_as_progress(self):
        schema, mediator = _overlapping_sources_setup()
        executor = AccessExecutor(mediator)
        first = executor.execute_batch([Access(schema.access_method("mR_by_b"), ("b",))])
        assert first.progressed and first.new_facts == 1
        # The same fact through the other method: tuples returned, no progress.
        second = executor.execute_batch([Access(schema.access_method("mR_by_a"), ("a",))])
        assert second.facts_returned == 1
        assert second.new_facts == 0
        assert not second.progressed

    def test_exhaustive_skips_provably_idle_round_on_overlap(self):
        from repro import parse_cq

        schema, mediator = _overlapping_sources_setup()
        metrics = RuntimeMetrics()
        query = parse_cq(schema, "R(x, y)")
        result = exhaustive_strategy(mediator, query, metrics=metrics)
        assert result.boolean_answer
        # Round 1 merges R(a,b); round 2 only re-retrieves it through the
        # overlapping method and stops.  Counting returned-but-known tuples
        # as progress used to buy a third, provably idle round.
        assert metrics.count("server.rounds") == 2
        assert not result.rounds_exhausted

    def _deep_chain(self, length=3):
        schema = chain_schema(length)
        query = chain_query(schema, length)
        facts = {"L1": [("start", "v1")]}
        for index in range(2, length + 1):
            facts[f"L{index}"] = [(f"v{index - 1}", f"v{index}")]
        instance = Instance(schema, facts)
        configuration = Configuration.empty(schema)
        configuration.add_constant("start", schema.relation("L1").domain_of(0))
        sources = [DataSource(method, instance) for method in schema.access_methods]
        return schema, query, lambda: Mediator(schema, sources, configuration)

    def test_rounds_exhausted_is_flagged_and_counted(self):
        _schema, query, make_mediator = self._deep_chain(3)
        for strategy in (exhaustive_strategy, relevance_guided_strategy):
            metrics = RuntimeMetrics()
            starved = strategy(make_mediator(), query, max_rounds=1, metrics=metrics)
            assert starved.rounds_exhausted, strategy.__name__
            assert not starved.boolean_answer
            assert metrics.count("server.rounds_exhausted") == 1

            completed = strategy(make_mediator(), query, metrics=RuntimeMetrics())
            assert not completed.rounds_exhausted
            assert completed.boolean_answer

    def test_finishing_in_exactly_max_rounds_is_not_exhaustion(self):
        """A run whose budget equals the rounds it needed is complete when no
        candidate is left (fanout leaves feed no method), so the flag stays
        off; on the chain schema (one shared domain) untried candidates
        remain and the conservative flag stays on."""
        scenario = fanout_scenario(2, audit=False)
        result = exhaustive_strategy(scenario.mediator(), scenario.query, max_rounds=2)
        assert result.boolean_answer
        assert not result.rounds_exhausted

        _schema, query, make_mediator = self._deep_chain(3)
        ambiguous = exhaustive_strategy(make_mediator(), query, max_rounds=3)
        assert ambiguous.boolean_answer
        assert ambiguous.rounds_exhausted  # candidates remain untried

    def test_mid_batch_failure_keeps_earlier_accesses_deduplicated(self):
        """Accesses merged before a failing one stay in the executor's
        performed set, so a retried round does not re-send them."""
        from repro import AccessResponse

        builder = SchemaBuilder()
        builder.domain("D")
        relation = builder.relation("R", [("a", "D"), ("b", "D")])
        builder.relation("S", [("a", "D"), ("b", "D")])
        builder.access("mR", relation, inputs=[1], dependent=False)
        builder.access("mS", "S", inputs=[1], dependent=False)
        schema = builder.build()

        good = DataSource(
            schema.access_method("mR"), Instance(schema, {"R": [("a", "b")]})
        )

        class RogueSource:
            def __init__(self, method):
                self.method = method

            def respond(self, access):
                return AccessResponse.trusted(access, (("ok", "b"), ("bad",)))

        mediator = Mediator(schema, [good, RogueSource(schema.access_method("mS"))])
        executor = AccessExecutor(mediator)
        fine = Access(schema.access_method("mR"), ("b",))
        broken = Access(schema.access_method("mS"), ("b",))
        with pytest.raises(SchemaError):
            executor.execute_batch([fine, broken])
        assert executor.already_performed(fine)
        assert not executor.already_performed(broken)
        retried = executor.execute_batch([fine])
        assert retried.performed == 0 and retried.skipped == 1
        assert mediator.access_count == 1


# --------------------------------------------------------------------------- #
# Determinism: parallel runs equal sequential runs
# --------------------------------------------------------------------------- #
class TestParallelDeterminism:
    def test_guided_parallel_matches_sequential_answers_and_access_sets(self):
        scenario = wide_fanout_scenario(6, 3)
        for seed in (0, 7):
            baseline_mediator = scenario.mediator(
                latency_s=0.001, latency_jitter_s=0.002, seed=seed
            )
            baseline = relevance_guided_strategy(baseline_mediator, scenario.query)
            for workers in (2, 4, 8):
                mediator = scenario.mediator(
                    latency_s=0.001, latency_jitter_s=0.002, seed=seed
                )
                result = relevance_guided_strategy(
                    mediator, scenario.query, parallelism=workers
                )
                assert result.answers == baseline.answers
                assert _access_set(mediator) == _access_set(baseline_mediator)
                assert result.accesses_made == baseline.accesses_made

    def test_exhaustive_parallel_matches_sequential(self):
        scenario = fanout_scenario(4, mids=2)
        baseline_mediator = scenario.mediator()
        baseline = exhaustive_strategy(baseline_mediator, scenario.query)
        mediator = scenario.mediator(latency_s=0.001)
        result = exhaustive_strategy(mediator, scenario.query, parallelism=4)
        assert result.answers == baseline.answers
        assert _access_set(mediator) == _access_set(baseline_mediator)

    def test_guided_parallel_on_satisfiable_query_matches_answers(self):
        # With an early certainty stop the parallel run may complete a few
        # extra in-flight accesses, but the answers are identical.
        scenario = fanout_scenario(4, mids=2, satisfiable=True)
        baseline = relevance_guided_strategy(scenario.mediator(), scenario.query)
        for workers in (2, 8):
            result = relevance_guided_strategy(
                scenario.mediator(latency_s=0.001),
                scenario.query,
                parallelism=workers,
            )
            assert result.answers == baseline.answers
            assert result.boolean_answer

    def test_parallel_run_verdicts_match_fresh_search(self):
        """The equivalence property of the incremental engine holds after a
        parallel run: every verdict the oracle can serve at the final
        configuration equals a fresh, cache-free search."""
        scenario = wide_fanout_scenario(4, 2)
        schema = scenario.schema
        oracle = RelevanceOracle(scenario.query, schema)
        mediator = scenario.mediator(latency_s=0.001)
        relevance_guided_strategy(
            mediator, scenario.query, oracle=oracle, parallelism=4
        )
        final = mediator.configuration_view
        probes = [Access(schema.access_method("accHub"), ("start",))]
        for index in (1, 2, 3, 4):
            probes.append(Access(schema.access_method(f"accB{index}"), ("m0",)))
            probes.append(Access(schema.access_method(f"accB{index}"), ("m1",)))
        for probe in probes:
            incremental = oracle.long_term_relevant(probe, final)
            fresh = is_long_term_relevant(oracle.query, probe, final, schema)
            assert incremental == fresh, (probe.method.name, probe.binding)
