"""Tests for the tracing/telemetry layer (tracing, metrics histograms, export).

Covers, roughly in order:

* span mechanics — implicit nesting, explicit parents, annotation, the
  ambient-tracer plumbing, and the no-op recorder's negligible overhead;
* cross-boundary propagation — spans recorded from executor worker threads
  under an explicitly captured parent, and spans flattened to the
  plain-tuple format of the JSON snapshot;
* latency histograms — bounded quantile estimates and their surfacing
  through :meth:`RuntimeMetrics.snapshot`;
* :meth:`RuntimeMetrics.reset` clearing histograms;
* exporters — Prometheus text, JSON snapshot, Chrome-trace file, and the
  ``explain`` report;
* end-to-end span trees — a traced guided strategy run and a traced
  multi-query server batch spanning the thread pool, with well-nestedness
  and parentage assertions, plus structural equality between sequential and
  concurrent runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from repro.planner import relevance_guided_strategy
from repro.runtime import (
    NO_TRACER,
    LatencyHistogram,
    QueryServer,
    RuntimeMetrics,
    Tracer,
    activate_tracer,
    current_tracer,
    encode_spans,
    explain_trace,
    json_snapshot,
    prometheus_text,
    write_chrome_trace,
)
from repro.tracing import stage
from repro.workloads import (
    bank_multi_query_scenario,
    fanout_scenario,
    multi_query_scenario,
)

# ------------------------------------------------------------------ #
# Helpers
# ------------------------------------------------------------------ #

#: Tolerance for parent/child interval containment.  Spans mix a
#: ``time.time()`` epoch with ``perf_counter`` durations, so exact
#: containment is not guaranteed.
_EPSILON = 0.05


def assert_well_formed(spans):
    """Structural sanity of a span list: unique ids, resolvable parents,
    children starting no earlier than their parents.

    Full interval containment is deliberately *not* asserted: a span
    recorded with an explicit ``parent=`` (e.g. a source call timed on an
    executor thread) may legitimately outlive its parent.  Causal ordering
    still holds — a child can never start before the span that caused it.
    """
    by_id = {span.span_id: span for span in spans}
    assert len(by_id) == len(spans), "span ids must be unique"
    for span in spans:
        assert span.duration >= 0.0
        if span.parent_id is None:
            continue
        assert span.parent_id in by_id, f"dangling parent for {span.name}"
        parent = by_id[span.parent_id]
        assert span.trace_id == parent.trace_id
        assert span.start >= parent.start - _EPSILON


def span_children(spans):
    """Map each span id to its child spans."""
    children = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return children


#: The spans whose counts are pure functions of (query, configuration
#: content): the round/screen/verdict/retrieval skeleton.  Deliberately
#: excluded: certainty probes and oracle-internal children
#: (witness-revalidate / fresh-search) — a ``stop()`` certainty check runs
#: against the *live* mid-batch configuration, so how many compute (vs. hit
#: the fingerprint cache) depends on merge interleaving, and whether a
#: verdict revalidates or inherits depends on which snapshot it was cached
#: at.  Verdicts and answers stay identical either way; those internal
#: paths are exactly the part the outcome tags exist to make visible.
_SKELETON = frozenset(
    {
        "query",
        "round",
        "screen.prefilter",
        "screen.group",
        "oracle",
        "access-batch",
        "source-call",
    }
)


def structure(spans):
    """A timing-free structural fingerprint: (name, parent name) multiset
    over the deterministic skeleton spans."""
    by_id = {span.span_id: span for span in spans}
    return Counter(
        (
            span.name,
            by_id[span.parent_id].name if span.parent_id in by_id else None,
        )
        for span in spans
        if span.name in _SKELETON
    )


# ------------------------------------------------------------------ #
# Span mechanics
# ------------------------------------------------------------------ #


class TestSpanBasics:
    def test_implicit_nesting_follows_the_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = tracer.spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id == outer.span_id
        assert outer.parent_id is None

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.spans()
        assert first.trace_id != second.trace_id
        assert tracer.trace_ids() == [first.trace_id, second.trace_id]

    def test_explicit_parent_overrides_the_stack(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            ctx = a.context
        with tracer.span("b"):
            with tracer.span("late-child", parent=ctx) as child:
                pass
        assert child.parent_id == a.span_id
        assert child.trace_id == a.trace_id

    def test_tags_and_annotate(self):
        tracer = Tracer()
        with tracer.span("work", kind="test") as span:
            span.annotate(outcome="done", items=3)
        (recorded,) = tracer.spans()
        assert recorded.tags == {"kind": "test", "outcome": "done", "items": 3}

    def test_span_on_another_thread_under_an_explicit_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            ctx = parent.context
        recorded = []

        def worker():
            with tracer.span("measured", parent=ctx) as span:
                time.sleep(0.01)
            recorded.append(span)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        (span,) = recorded
        assert span.parent_id == parent.span_id
        assert span.duration >= 0.01
        assert span in tracer.spans()

    def test_reset_clears_collected_spans(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.reset()
        assert tracer.spans() == []

    def test_exception_still_records_the_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert [span.name for span in tracer.spans()] == ["failing"]
        # The stack unwound: the next span is a fresh root.
        with tracer.span("after") as after:
            pass
        assert after.parent_id is None


class TestAmbientTracer:
    def test_default_is_the_noop_tracer(self):
        assert current_tracer() is NO_TRACER
        assert not NO_TRACER.enabled

    def test_activate_and_restore(self):
        tracer = Tracer()
        with activate_tracer(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
            with activate_tracer(None) as inner:
                assert not inner.enabled
                assert current_tracer() is NO_TRACER
            assert current_tracer() is tracer
        assert current_tracer() is NO_TRACER

    def test_noop_span_is_inert(self):
        with NO_TRACER.span("ignored", tag=1) as span:
            span.annotate(more=2)
        assert NO_TRACER.spans() == []
        assert NO_TRACER.context() is None

    def test_noop_overhead_is_negligible(self):
        """The off-by-default paths — the ambient-tracer read, and an
        untraced stage with a tag — must cost well under a few microseconds
        per call."""
        iterations = 100_000
        started = time.perf_counter()
        for _ in range(iterations):
            tracer = current_tracer()
            if tracer.enabled:  # pragma: no cover - the guard under test
                tracer.span("never")
        elapsed = time.perf_counter() - started
        per_call = elapsed / iterations
        assert per_call < 5e-6, f"no-op guard costs {per_call * 1e6:.2f}µs/call"
        started = time.perf_counter()
        for _ in range(iterations):
            with stage("oracle", method="m") as span:
                if span:  # pragma: no cover - untraced
                    span.annotate(outcome="never")
        elapsed = time.perf_counter() - started
        per_call = elapsed / iterations
        assert per_call < 5e-6, f"untraced stage costs {per_call * 1e6:.2f}µs/call"


class TestStage:
    def test_untraced_without_metric_is_the_shared_noop_span(self):
        first = stage("a", tag=1)
        assert first is stage("b") and not first
        with first as span:
            span.annotate(ignored=True)
        assert first.context is None

    def test_traced_without_metric_is_the_span_itself(self):
        tracer = Tracer()
        with activate_tracer(tracer):
            with stage("outer", kind="x") as outer:
                with stage("inner") as inner:
                    pass
        assert outer and type(outer).__name__ == "Span"
        assert inner.parent_id == outer.span_id
        assert [span.tags for span in tracer.spans()] == [{}, {"kind": "x"}]

    def test_a_timed_stage_records_untraced_and_when_the_body_raises(self):
        metrics = RuntimeMetrics()
        with stage("t", metrics=metrics, metric="t") as timed:
            timed.annotate(ignored=True)
        assert not timed
        with pytest.raises(RuntimeError):
            with stage("t", metrics=metrics, metric="t"):
                raise RuntimeError("boom")
        histogram = metrics.histogram("t")
        assert histogram.count == 2 and histogram.total >= timed.duration >= 0.0

    def test_a_traced_timed_stage_shares_the_span_clock(self):
        metrics = RuntimeMetrics()
        tracer = Tracer()
        with activate_tracer(tracer):
            with stage("t", metrics=metrics, metric="t", kind="x") as timed:
                time.sleep(0.001)
        timed.annotate(after=True)
        (span,) = tracer.spans()
        assert timed
        assert span.tags == {"kind": "x", "after": True}
        assert timed.duration == span.duration == metrics.histogram("t").total

    def test_explicit_tracer_and_parent_cross_threads(self):
        """The executor pattern: a pool thread has no ambient tracer, so it
        passes the dispatching thread's tracer and span context."""
        tracer = Tracer()
        with activate_tracer(tracer):
            with stage("access-batch") as batch:
                parent = batch.context
        recorded = []

        def worker():
            with stage("source-call", tracer=tracer, parent=parent) as span:
                pass
            recorded.append(span)
            with stage("untraced", tracer=NO_TRACER) as quiet:
                recorded.append(quiet)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        call, quiet = recorded
        assert call.parent_id == batch.span_id and not quiet
        assert [span.name for span in tracer.spans()] == ["access-batch", "source-call"]

    @pytest.mark.parametrize(
        "module",
        [
            "repro.chase.crayfish",
            "repro.datalog.engine",
            "repro.sources.service",
            "repro.runtime",
        ],
    )
    def test_each_layer_imports_first_in_a_fresh_interpreter(self, module):
        """The primitive's module imports nothing from ``repro``, so even the
        lowest layers import it at module top without a cycle."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (src, env.get("PYTHONPATH")) if path
        )
        completed = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


# ------------------------------------------------------------------ #
# Cross-boundary propagation
# ------------------------------------------------------------------ #


class TestCrossThread:
    def test_worker_threads_record_under_an_explicit_parent(self):
        """The executor pattern: the dispatching thread captures its span
        context once, worker threads open their spans under it."""
        tracer = Tracer()
        with tracer.span("access-batch") as batch:
            parent = batch.context

            def worker(index):
                with tracer.span("source-call", parent=parent, method=f"m{index}"):
                    time.sleep(0.001)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        spans = tracer.spans()
        calls = [span for span in spans if span.name == "source-call"]
        assert len(calls) == 4
        assert {span.parent_id for span in calls} == {batch.span_id}
        assert {span.tags["method"] for span in calls} == {"m0", "m1", "m2", "m3"}
        assert_well_formed(spans)


class TestWireRoundTrip:
    def _spans(self):
        """A small recorded tree."""
        tracer = Tracer()
        with tracer.span("oracle", method="m1"):
            with tracer.span("fresh-search") as search:
                search.annotate(relevant=True)
        return encode_spans(tracer.spans())

    def test_encode_spans_is_plain_data(self):
        """The JSON snapshot's span format must stay plain tuples."""
        for spec in self._spans():
            span_id, parent_id, name, start, duration, tags, pid, thread = spec
            assert isinstance(name, str)
            assert isinstance(tags, tuple)
            assert isinstance(pid, int)


# ------------------------------------------------------------------ #
# Histograms and metrics
# ------------------------------------------------------------------ #


class TestLatencyHistogram:
    def test_quantiles_are_clamped_to_observed_range(self):
        histogram = LatencyHistogram()
        for value in (0.010, 0.020, 0.030, 0.040, 0.100):
            histogram.record(value)
        assert histogram.count == 5
        assert histogram.quantile(0.0) == pytest.approx(0.010)
        assert histogram.quantile(1.0) == pytest.approx(0.100)
        p50 = histogram.quantile(0.50)
        assert 0.010 <= p50 <= 0.040
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 5
        assert snapshot["sum"] == pytest.approx(0.200)
        assert snapshot["mean"] == pytest.approx(0.040)
        assert snapshot["min"] == pytest.approx(0.010)
        assert snapshot["max"] == pytest.approx(0.100)
        assert snapshot["p99"] == pytest.approx(0.100)

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) is None
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 0
        assert snapshot["p50"] is None

    def test_buckets_are_cumulative(self):
        histogram = LatencyHistogram()
        histogram.record(0.001)
        histogram.record(0.001)
        histogram.record(0.5)
        buckets = histogram.buckets()
        counts = [count for _upper, count in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_metrics_observe_and_quantile(self):
        metrics = RuntimeMetrics()
        for value in (0.001, 0.002, 0.003):
            metrics.observe("query.latency", value)
        assert metrics.quantile("query.latency", 0.99) == pytest.approx(0.003)
        assert metrics.quantile("missing", 0.5) is None
        snapshot = metrics.snapshot()
        assert snapshot["histograms"]["query.latency"]["count"] == 3


class TestMetricsSnapshot:
    def test_timer_means_are_elapsed_over_calls(self):
        """A timed stage's histogram reports mean = sum / count."""
        metrics = RuntimeMetrics()
        for _ in range(4):
            with stage("work", metrics=metrics, metric="work"):
                pass
        snapshot = metrics.snapshot()["histograms"]["work"]
        assert snapshot["count"] == 4
        assert snapshot["sum"] >= 0.0
        assert snapshot["mean"] == pytest.approx(snapshot["sum"] / 4)

    def test_reset_clears_histograms(self):
        metrics = RuntimeMetrics()
        metrics.observe("x", 0.001)
        metrics.reset()
        assert metrics.snapshot()["histograms"] == {}


# ------------------------------------------------------------------ #
# Exporters
# ------------------------------------------------------------------ #


class TestExporters:
    def _populated(self):
        metrics = RuntimeMetrics()
        metrics.incr("oracle.fresh_searches", 3)
        with stage("fresh-search", metrics=metrics, metric="oracle.long_term"):
            pass
        metrics.observe("access.latency", 0.002)
        metrics.observe("access.latency", 0.050)
        return metrics

    def test_prometheus_text(self):
        metrics = self._populated()
        text = prometheus_text(metrics)
        assert "repro_oracle_fresh_searches_total 3" in text
        assert "# TYPE repro_oracle_long_term_seconds histogram" in text
        assert "repro_oracle_long_term_seconds_count 1" in text
        assert "repro_oracle_long_term_seconds_sum" in text
        assert "_seconds_total" not in text and "_calls_total" not in text
        assert "# TYPE repro_access_latency_seconds histogram" in text
        assert 'repro_access_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_access_latency_seconds_count 2" in text
        assert "repro_cache" not in text

    def test_json_snapshot_round_trips(self):
        metrics = self._populated()
        tracer = Tracer()
        with tracer.span("answer"):
            pass
        document = json.loads(json_snapshot(metrics, tracer))
        assert document["metrics"]["counters"]["oracle.fresh_searches"] == 3
        assert document["metrics"]["histograms"]["access.latency"]["count"] == 2
        assert document["metrics"]["histograms"]["oracle.long_term"]["count"] == 1
        assert set(document["metrics"]) == {"counters", "gauges", "histograms"}
        assert len(document["spans"]) == 1
        assert document["spans"][0][2] == "answer"

    def test_chrome_trace_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("answer", strategy="guided"):
            with tracer.span("round", index=0):
                pass
        path = os.fspath(tmp_path / "trace.json")
        count = write_chrome_trace(path, tracer)
        assert count == 2
        with open(path) as handle:
            payload = json.load(handle)
        events = payload["traceEvents"]
        assert {event["name"] for event in events} == {"answer", "round"}
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
        answer = next(e for e in events if e["name"] == "answer")
        assert answer["args"]["strategy"] == "guided"

    def test_explain_trace_renders_the_tree(self):
        tracer = Tracer()
        with tracer.span("answer"):
            with tracer.span("round", index=0):
                with tracer.span("oracle", method="m1") as span:
                    span.annotate(outcome="fresh", relevant=True)
        report = explain_trace(tracer)
        lines = report.splitlines()
        assert lines[0].startswith("trace ")
        assert "  answer" in lines[1]
        assert lines[2].startswith("    round")
        assert lines[3].startswith("      oracle")
        assert "outcome=fresh" in lines[3]
        assert "relevant=True" in lines[3]

    def test_explain_trace_empty(self):
        assert explain_trace(Tracer()) == "(no spans recorded)\n"


# ------------------------------------------------------------------ #
# End-to-end span trees
# ------------------------------------------------------------------ #


class TestStrategyTracing:
    def test_guided_strategy_records_the_hierarchy(self):
        scenario = fanout_scenario(3, satisfiable=False)
        tracer = Tracer()
        with activate_tracer(tracer):
            result = relevance_guided_strategy(scenario.mediator(), scenario.query)
        assert result.boolean_answer is False
        spans = tracer.spans()
        assert_well_formed(spans)
        names = {span.name for span in spans}
        assert {"query", "round", "oracle", "access-batch", "source-call"} <= names
        roots = [span for span in spans if span.parent_id is None]
        # The strategy runs the server's kernel, so it records the server's
        # tree: one ``answer`` root over the rounds, the final evaluation,
        # and the final certainty probe.
        assert [root.name for root in roots] == ["answer"]
        # Every span of the run belongs to the query's single trace.
        assert {span.trace_id for span in spans} == {roots[0].trace_id}
        children = sorted(
            span_children(spans)[roots[0].span_id], key=lambda span: span.span_id
        )
        names = [span.name for span in children]
        assert names[-2:] == ["finalize", "certainty"]
        assert names[:-2] and set(names[:-2]) == {"round"}

    def test_untraced_run_records_nothing(self):
        scenario = fanout_scenario(3, satisfiable=False)
        assert current_tracer() is NO_TRACER
        result = relevance_guided_strategy(scenario.mediator(), scenario.query)
        assert result.boolean_answer is False
        assert NO_TRACER.spans() == []

    def test_sequential_and_concurrent_runs_have_identical_structure(self):
        """Satellite: the unsatisfiable fanout performs a deterministic
        access set at any parallelism, so the span *structure* — names and
        parent edges, ignoring timing and interleaving — must be identical
        between a sequential and a max_concurrency=8 run."""
        scenario = fanout_scenario(3, satisfiable=False)

        def run(parallelism):
            tracer = Tracer()
            with activate_tracer(tracer):
                result = relevance_guided_strategy(
                    scenario.mediator(), scenario.query, parallelism=parallelism
                )
            return result, tracer.spans()

        sequential_result, sequential_spans = run(1)
        concurrent_result, concurrent_spans = run(8)
        assert concurrent_result.boolean_answer == sequential_result.boolean_answer
        assert concurrent_result.accesses_made == sequential_result.accesses_made
        assert_well_formed(concurrent_spans)
        assert structure(concurrent_spans) == structure(sequential_spans)
        # And the concurrent run's source calls all hang off access batches.
        by_id = {span.span_id: span for span in concurrent_spans}
        for span in concurrent_spans:
            if span.name == "source-call":
                assert by_id[span.parent_id].name == "access-batch"


def _bank_scenario():
    return bank_multi_query_scenario(4, employees=4, offices=2, states=3)


class TestServerTracing:
    def test_traced_batch_spans_thread_pool(self):
        """Satellite: a traced server batch with max_concurrency=8 yields a
        well-nested tree whose per-query spans are parented to the right
        round and whose verdict spans nest in their query's span."""
        scenario = _bank_scenario()
        tracer = Tracer()
        with activate_tracer(tracer), QueryServer(
            scenario.mediator(), parallelism=8
        ) as server:
            result = server.answer(scenario.queries)
        assert result.rounds >= 1 and result.accesses_made > 0
        spans = tracer.spans()
        assert_well_formed(spans)
        by_id = {span.span_id: span for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [root.name for root in roots] == ["answer"]
        names = {span.name for span in spans}
        assert {
            "answer",
            "round",
            "certainty",
            "query",
            "verdicts",
            "access-batch",
            "source-call",
            "finalize",
        } <= names
        for span in spans:
            if span.name == "round":
                assert by_id[span.parent_id].name == "answer"
            if span.name == "query":
                assert by_id[span.parent_id].name == "round"
            if span.name == "verdicts":
                parent = by_id[span.parent_id]
                assert parent.name == "query"
                assert parent.tags["index"] == span.tags["index"]
        # The executor's source calls carry the server's why-annotations.
        calls = [span for span in spans if span.name == "source-call"]
        assert calls
        assert all(span.tags.get("why") == "relevant" for span in calls)
        assert all("queries" in span.tags for span in calls)

    def test_identical_answers_and_access_structure_across_parallelism(self):
        scenario = _bank_scenario()

        def run(parallelism):
            tracer = Tracer()
            with activate_tracer(tracer), QueryServer(
                scenario.mediator(), parallelism=parallelism
            ) as server:
                result = server.answer(scenario.queries)
            return result, tracer.spans()

        sequential, sequential_spans = run(1)
        concurrent, concurrent_spans = run(8)
        assert concurrent.answers == sequential.answers
        assert concurrent.accesses_made == sequential.accesses_made
        assert_well_formed(concurrent_spans)

        def source_calls(spans):
            return Counter(
                span.tags.get("method")
                for span in spans
                if span.name == "source-call"
            )

        assert source_calls(concurrent_spans) == source_calls(sequential_spans)
        assert structure(concurrent_spans) == structure(sequential_spans)

    def test_explain_report_names_the_accesses(self):
        scenario = _bank_scenario()
        tracer = Tracer()
        with activate_tracer(tracer), QueryServer(scenario.mediator()) as server:
            server.answer(scenario.queries)
        report = explain_trace(tracer)
        assert "answer" in report
        assert "why=relevant" in report
        assert "source-call" in report

    def test_server_histograms_record_latencies(self):
        scenario = _bank_scenario()
        metrics = RuntimeMetrics()
        with QueryServer(scenario.mediator(), metrics=metrics) as server:
            server.answer(scenario.queries)
        snapshot = metrics.snapshot()["histograms"]
        assert snapshot["server.query_latency"]["count"] == 1
        assert snapshot["server.round_latency"]["count"] >= 1
        assert snapshot["access.latency"]["count"] >= 1
        assert snapshot["server.query_latency"]["p99"] > 0.0


class TestOneInstrumentationPrimitive:
    """A stage feeds the trace and the histograms from one measurement, so
    on a traced run the span counts equal the counters and sample counts."""

    def _traced(self, scenario, **server_kwargs):
        metrics = RuntimeMetrics()
        tracer = Tracer()
        with activate_tracer(tracer), QueryServer(
            scenario.mediator(), metrics=metrics, **server_kwargs
        ) as server:
            server.answer(scenario.queries)
        return metrics, tracer.spans()

    def _check(self, metrics, spans):
        counters = metrics.snapshot()["counters"]
        outcomes = Counter(span.tags["outcome"] for span in spans if span.name == "oracle")
        for outcome, counter in (
            ("fresh", "oracle.fresh_searches"),
            ("sibling", "oracle.sibling_hits"),
            ("delta-inherited", "oracle.delta_hits"),
            ("adopted", "oracle.adopted"),
        ):
            assert outcomes[outcome] == counters.get(counter, 0), outcome
        assert outcomes["revalidated"] == (
            counters.get("witness.revalidated", 0) - counters.get("oracle.sibling_hits", 0)
        )
        names = Counter(span.name for span in spans)
        for name, metric in (
            ("witness-revalidate", "witness.revalidate"),
            ("fresh-search", "oracle.long_term"),
            ("round", "server.round_latency"),
            ("answer", "server.query_latency"),
        ):
            histogram = metrics.histogram(metric)
            assert names[name] == histogram.count, name
            assert sum(s.duration for s in spans if s.name == name) == pytest.approx(
                histogram.total
            )
        assert names["round"] == counters["server.rounds"]
        return outcomes, names

    def test_the_six_employee_bank(self, tmp_path):
        scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
        metrics, spans = self._traced(
            scenario, cache_path=os.fspath(tmp_path / "store.sqlite")
        )
        outcomes, names = self._check(metrics, spans)
        assert (outcomes["fresh"], outcomes["sibling"], outcomes["adopted"]) == (24, 48, 48)
        assert outcomes["revalidated"] == 72
        assert (names["witness-revalidate"], names["fresh-search"], names["round"]) == (
            140,
            24,
            4,
        )
        # The round's store write is part of the round.
        by_id = {span.span_id: span for span in spans}
        flushes = [span for span in spans if span.name == "persist.flush"]
        assert flushes and all(by_id[s.parent_id].name == "round" for s in flushes)

    def test_multi_query_scenario(self):
        metrics, spans = self._traced(multi_query_scenario(16, 8, 8))
        outcomes, _names = self._check(metrics, spans)
        assert outcomes["delta-inherited"] > 0 and outcomes["fresh"] > 0
