"""Experiment SERVER-multiquery: the query-server runtime.

Measures the claims of the multi-query answering server:

* **batch sharing** — answering N queries through one :class:`QueryServer`
  performs far fewer accesses (and far less search work) than N independent
  guided runs, with identical answers;
* **persistent witness cache** — a warm restart against a populated cache
  file revalidates stored witness paths (nonzero ``witness.revalidated``)
  and runs strictly fewer fresh LTR searches than the cold run, with
  identical answers;
* **multi-process verdict sharing** — 4 concurrent server processes writing
  one SQLite-backed store, then a cold process warm-starting with the same
  fresh-search count as the single-process warm restart.

The guided-strategy benchmarks here are part of the CI regression gate
(``compare_bench.py --gate guided,server``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.planner import relevance_guided_strategy
from repro.runtime import QueryServer, RuntimeMetrics, Tracer, activate_tracer
from repro.workloads import bank_multi_query_scenario, multi_query_scenario


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _cpu_scenario():
    """The CPU-bound batch: bank-query variants (fresh searches dominate)."""
    if _smoke():
        return bank_multi_query_scenario(8, employees=5, offices=3, states=4)
    return bank_multi_query_scenario(8, employees=6, offices=3, states=4)


def _run_server(scenario):
    metrics = RuntimeMetrics()
    with QueryServer(scenario.mediator(), metrics=metrics) as server:
        return server.answer(scenario.queries), metrics


@pytest.mark.experiment("SERVER-batch-sharing")
def test_server_guided_batch_vs_individual_runs(benchmark):
    """One server answering the batch vs. N independent guided runs."""
    scenario = multi_query_scenario(8, 6, 2, atoms_per_query=3, seed=3)
    singles = [
        relevance_guided_strategy(scenario.mediator(), query)
        for query in scenario.queries
    ]
    individual_accesses = sum(result.accesses_made for result in singles)

    def run():
        with QueryServer(scenario.mediator()) as server:
            return server.answer(scenario.queries)

    result = benchmark(run)
    assert list(result.boolean_answers) == [
        single.boolean_answer for single in singles
    ]
    assert result.accesses_made < individual_accesses
    benchmark.extra_info.update(
        {
            "batch_accesses": result.accesses_made,
            "individual_accesses": individual_accesses,
        }
    )


@pytest.mark.experiment("SERVER-guided-cpu-bound")
def test_server_guided_cpu_bound_batch(benchmark):
    """The gated headline number: single-process server on the CPU-bound batch."""
    scenario = _cpu_scenario()
    # Three rounds, not one: this benchmark feeds the 25% regression gate
    # through its ``min``, and a single noisy sample on a shared CI runner
    # must not be able to fail the job.
    result, metrics = benchmark.pedantic(
        _run_server, args=(scenario,), rounds=3, iterations=1
    )
    snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    # The batch is genuinely search-bound: every query resolved, fresh
    # searches dominate the profile.
    assert counters.get("oracle.fresh_searches", 0) > 0
    assert result.outcomes[0].boolean_answer  # the motivating combination
    # Histogram-derived latency quantiles: the server records every answer
    # call and round into bounded histograms, so p50/p99 come straight from
    # the metrics surface rather than from post-processing raw samples.
    histograms = snapshot["histograms"]
    rounds = histograms.get("server.round_latency", {})
    benchmark.extra_info.update(
        {
            "fresh_searches": counters.get("oracle.fresh_searches", 0),
            "accesses": result.accesses_made,
            "round_p50_ms": round(rounds.get("p50", 0.0) * 1000, 3),
            "round_p99_ms": round(rounds.get("p99", 0.0) * 1000, 3),
            "query_p99_ms": round(
                histograms.get("server.query_latency", {}).get("p99", 0.0) * 1000, 3
            ),
        }
    )


@pytest.mark.experiment("SERVER-tracing-overhead")
def test_tracing_overhead_guided_batch():
    """Tracing-overhead smoke: a fully traced server run stays within 10%
    of the untraced run on the CPU-bound guided batch.

    Span recording must be cheap relative to real work — the guided batch
    spends its time in relevance searches, so per-span bookkeeping (a few
    dict ops and two clock reads) should disappear into the profile.  Both
    sides take the min of three runs, which is what keeps a noisy shared
    runner from failing the job: the *minima* are stable even when single
    samples are not.  The assertion is skipped in smoke mode (sub-second
    runs on shared runners make a 10% bound meaningless) but the ratio is
    always printed and the traced run must produce a span tree covering
    every layer of the hierarchy.
    """
    scenario = _cpu_scenario()

    def run(tracer):
        mediator = scenario.mediator()
        metrics = RuntimeMetrics()
        with activate_tracer(tracer), QueryServer(mediator, metrics=metrics) as server:
            started = time.perf_counter()
            result = server.answer(scenario.queries)
            wall = time.perf_counter() - started
        return result, wall

    untraced_wall = float("inf")
    traced_wall = float("inf")
    spans = []
    for _ in range(3):
        plain, wall = run(None)
        untraced_wall = min(untraced_wall, wall)
        tracer = Tracer()
        traced, wall = run(tracer)
        traced_wall = min(traced_wall, wall)
        spans = tracer.spans()
        assert traced.answers == plain.answers

    names = {span.name for span in spans}
    assert {"answer", "round", "query", "verdicts", "oracle"} <= names
    assert "access-batch" in names and "source-call" in names

    ratio = traced_wall / untraced_wall
    print(
        f"\ntracing overhead: {ratio:.3f}x "
        f"({untraced_wall * 1000:.0f}ms -> {traced_wall * 1000:.0f}ms, "
        f"{len(spans)} spans)"
    )
    if not _smoke():
        assert ratio <= 1.10, (
            f"traced run {ratio:.3f}x slower than untraced "
            f"({untraced_wall * 1000:.0f}ms -> {traced_wall * 1000:.0f}ms)"
        )


@pytest.mark.experiment("SERVER-warm-restart")
def test_persistent_cache_warm_restart(benchmark, tmp_path):
    """Warm restart: revalidations fire, fresh searches strictly drop, and
    no record is buffered."""
    scenario = _cpu_scenario()
    path = os.fspath(tmp_path / "witness.sqlite")

    cold_metrics = RuntimeMetrics()
    with QueryServer(
        scenario.mediator(), cache_path=path, metrics=cold_metrics
    ) as cold_server:
        cold = cold_server.answer(scenario.queries)
    cold_counters = cold_metrics.snapshot()["counters"]
    assert cold_counters.get("persist.recorded", 0) > 0

    def warm_run():
        metrics = RuntimeMetrics()
        with QueryServer(
            scenario.mediator(), cache_path=path, metrics=metrics
        ) as warm_server:
            result = warm_server.answer(scenario.queries)
        return result, metrics

    warm, warm_metrics = benchmark.pedantic(warm_run, rounds=3, iterations=1)
    warm_counters = warm_metrics.snapshot()["counters"]
    assert warm.answers == cold.answers
    assert warm_counters.get("witness.revalidated", 0) > 0
    # A witness this run already revalidated is re-checked on its
    # truncation alone once the configuration has grown past that check.
    assert warm_counters.get("witness.truncation_only", 0) > 0
    assert warm_counters.get("oracle.fresh_searches", 0) < cold_counters.get(
        "oracle.fresh_searches", 0
    )
    # A warm run re-derives only stored paths, and the oracle does not
    # buffer a path equal to the stored one its record holds: nothing is
    # written, and nothing reaches the store's dedup check either.
    assert warm_counters.get("persist.recorded", 0) == 0
    assert warm_counters.get("persist.sqlite.dedup_skips", 0) == 0
    benchmark.extra_info.update(
        {
            "cold_fresh_searches": cold_counters.get("oracle.fresh_searches", 0),
            "warm_fresh_searches": warm_counters.get("oracle.fresh_searches", 0),
            "warm_revalidated": warm_counters.get("witness.revalidated", 0),
            "warm_truncation_only": warm_counters.get("witness.truncation_only", 0),
        }
    )


def _mp_worker(path: str, out_path: str) -> None:
    """One server process of the fleet: answer the full CPU-bound batch
    against the shared SQLite-backed store, then report its counters.

    Module-level (not a closure) so the ``spawn`` start method can pickle
    it; each process rebuilds the deterministic scenario itself.
    """
    scenario = _cpu_scenario()
    metrics = RuntimeMetrics()
    with QueryServer(scenario.mediator(), cache_path=path, metrics=metrics) as server:
        result = server.answer(scenario.queries)
    counters = metrics.snapshot()["counters"]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "answers": list(result.boolean_answers),
                "fresh_searches": counters.get("oracle.fresh_searches", 0),
                "revalidated": counters.get("witness.revalidated", 0),
                "recorded": counters.get("persist.recorded", 0),
                "sqlite_appends": counters.get("persist.sqlite.appends", 0),
            },
            handle,
        )


def _run_worker_processes(ctx, path, out_paths):
    procs = [
        ctx.Process(target=_mp_worker, args=(path, out))
        for out in out_paths
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=600)
        assert proc.exitcode == 0
    reports = []
    for out in out_paths:
        with open(out, "r", encoding="utf-8") as handle:
            reports.append(json.load(handle))
    return reports


@pytest.mark.experiment("SERVER-sqlite-multiprocess")
def test_sqlite_multiprocess_shared_store_warm_restart(tmp_path):
    """Acceptance gate: 4 concurrent server processes write one SQLite
    store; a cold process then warm-starts with the *same* fresh-search
    count as the single-process warm restart — multi-process sharing loses
    nothing relative to one writer process.
    """
    ctx = multiprocessing.get_context("spawn")
    shared = os.fspath(tmp_path / "shared.sqlite")
    reference = os.fspath(tmp_path / "reference.sqlite")

    # Reference: one process populates its own store, a second (cold)
    # process warm-starts against it — the existing single-process bench,
    # run out-of-process so every probe sees identical process state.
    (ref_cold,) = _run_worker_processes(
        ctx, reference, [os.fspath(tmp_path / "ref-cold.json")]
    )
    (ref_warm,) = _run_worker_processes(
        ctx, reference, [os.fspath(tmp_path / "ref-warm.json")]
    )
    assert ref_cold["recorded"] > 0
    assert ref_warm["revalidated"] > 0
    assert ref_warm["fresh_searches"] < ref_cold["fresh_searches"]

    # The fleet: 4 concurrent processes, one shared store.
    fleet = _run_worker_processes(
        ctx,
        shared,
        [os.fspath(tmp_path / f"fleet-{index}.json") for index in range(4)],
    )
    assert all(report["answers"] == ref_cold["answers"] for report in fleet)
    # Every process recorded into the shared store without error; the store
    # deduplicates, so the fleet's effective appends cannot exceed one
    # process's record count.
    assert sum(report["sqlite_appends"] for report in fleet) >= ref_cold["recorded"]

    # A cold process warm-starts against the fleet's store with exactly the
    # reference warm fresh-search count: records landed by four concurrent
    # writers seed as well as records landed by one.
    (probe,) = _run_worker_processes(
        ctx, shared, [os.fspath(tmp_path / "probe.json")]
    )
    assert probe["answers"] == ref_cold["answers"]
    assert probe["revalidated"] > 0
    assert probe["fresh_searches"] == ref_warm["fresh_searches"]
    print(
        f"\nmulti-process warm restart: cold {ref_cold['fresh_searches']} -> "
        f"warm {probe['fresh_searches']} fresh searches "
        f"({probe['revalidated']} revalidations) via 4-writer SQLite store"
    )
