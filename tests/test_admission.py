"""Admission-control and fairness-budget tests.

Unit-level: the token bucket's refill arithmetic, the controller's decision
order (drain → queue → quota → rate) and accounting, and the new metrics
gauges.  Integration-level: the :meth:`QueryServer.answer` round/access
budgets — a budgeted query retires with ``rounds_exhausted`` while its
batchmates' rounds (and answers) are untouched.
"""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.runtime import (
    AdmissionController,
    QueryServer,
    RuntimeMetrics,
    TokenBucket,
    prometheus_text,
)
from repro.workloads import bank_multi_query_scenario, multi_query_scenario


class FakeClock:
    """A monotonic clock the tests step by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# Token bucket
# --------------------------------------------------------------------------- #
class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        for _ in range(3):
            ok, wait = bucket.try_acquire(now=0.0)
            assert ok and wait == 0.0
        ok, wait = bucket.try_acquire(now=0.0)
        assert not ok
        assert wait == pytest.approx(1.0)

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        assert bucket.try_acquire(2.0, now=0.0)[0]
        assert not bucket.try_acquire(now=0.0)[0]
        # Half a second at 2 tokens/s buys one token back.
        ok, _ = bucket.try_acquire(now=0.5)
        assert ok
        assert not bucket.try_acquire(now=0.5)[0]

    def test_never_exceeds_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        bucket.try_acquire(now=0.0)
        bucket.try_acquire(now=1000.0)  # long idle: refill clamps at burst
        assert bucket.tokens <= 2.0

    def test_oversized_request_reports_bounded_wait(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        ok, wait = bucket.try_acquire(10.0, now=0.0)
        assert not ok
        # The wait is to fill the whole burst, not the impossible request.
        assert wait == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# --------------------------------------------------------------------------- #
# Admission controller
# --------------------------------------------------------------------------- #
class TestAdmissionController:
    def test_accept_and_release_accounting(self):
        clock = FakeClock()
        controller = AdmissionController(clock=clock)
        decision = controller.admit("alice", 3)
        assert decision.admitted
        assert controller.queued == 3
        assert controller.inflight == 3
        assert controller.client_inflight("alice") == 3
        controller.started(3)
        assert controller.queued == 0
        assert controller.inflight == 3
        controller.resolved("alice", 3)
        assert controller.inflight == 0
        assert controller.client_inflight("alice") == 0

    def test_rate_limit_rejects_429_with_honest_retry_after(self):
        clock = FakeClock()
        controller = AdmissionController(rate=1.0, burst=2.0, clock=clock)
        assert controller.admit("alice", 2).admitted
        decision = controller.admit("alice", 1)
        assert not decision.admitted
        assert decision.status == 429
        assert decision.reason == "rate_limited"
        assert decision.retry_after == pytest.approx(1.0)
        # The bucket refills: a second later the same client is admitted.
        clock.advance(1.0)
        assert controller.admit("alice", 1).admitted

    def test_rate_limit_is_per_client(self):
        clock = FakeClock()
        controller = AdmissionController(rate=1.0, burst=1.0, clock=clock)
        assert controller.admit("alice", 1).admitted
        assert not controller.admit("alice", 1).admitted
        assert controller.admit("bob", 1).admitted

    def test_inflight_quota_rejects_429(self):
        controller = AdmissionController(
            max_inflight_per_client=2, clock=FakeClock()
        )
        assert controller.admit("alice", 2).admitted
        decision = controller.admit("alice", 1)
        assert (not decision.admitted) and decision.status == 429
        assert decision.reason == "inflight_quota"
        # Another client is unaffected; releasing frees the quota.
        assert controller.admit("bob", 2).admitted
        controller.resolved("alice", 2)
        assert controller.admit("alice", 1).admitted

    def test_full_queue_rejects_503(self):
        controller = AdmissionController(max_queued=4, clock=FakeClock())
        assert controller.admit("alice", 4).admitted
        decision = controller.admit("bob", 1)
        assert (not decision.admitted) and decision.status == 503
        assert decision.reason == "queue_full"
        assert decision.retry_after > 0.0
        # Batch pickup empties the queue; admission resumes.
        controller.started(4)
        assert controller.admit("bob", 1).admitted

    def test_drain_rejects_everything_503(self):
        metrics = RuntimeMetrics()
        controller = AdmissionController(metrics=metrics, clock=FakeClock())
        controller.begin_drain()
        decision = controller.admit("alice", 1)
        assert (not decision.admitted) and decision.status == 503
        assert decision.reason == "draining"
        assert metrics.count("admission.rejected.draining") == 1
        assert metrics.gauge("service.draining") == 1

    def test_reject_counters_and_gauges(self):
        metrics = RuntimeMetrics()
        controller = AdmissionController(
            rate=1.0, burst=1.0, max_queued=2, metrics=metrics, clock=FakeClock()
        )
        controller.admit("alice", 1)
        controller.admit("alice", 1)  # rate-limited
        assert metrics.count("admission.accepted") == 1
        assert metrics.count("admission.rejected.rate_limited") == 1
        assert metrics.gauge("service.queue_depth") == 1
        assert metrics.gauge("service.inflight_queries") == 1

    def test_budgets_for_shapes(self):
        unlimited = AdmissionController(clock=FakeClock())
        assert unlimited.budgets_for(3) == (None, None)
        budgeted = AdmissionController(
            round_budget=5, access_budget=40, clock=FakeClock()
        )
        rounds, accesses = budgeted.budgets_for(2)
        assert rounds == [5, 5]
        assert accesses == [40, 40]

    def test_client_table_is_bounded(self):
        controller = AdmissionController(
            rate=10.0, max_clients=4, clock=FakeClock()
        )
        for index in range(10):
            client = f"client{index}"
            assert controller.admit(client, 1).admitted
            controller.resolved(client, 1)
        assert len(controller._clients) <= 4


# --------------------------------------------------------------------------- #
# Metrics gauges (new surface this PR)
# --------------------------------------------------------------------------- #
class TestGauges:
    def test_set_read_snapshot_reset(self):
        metrics = RuntimeMetrics()
        assert metrics.gauge("service.queue_depth") is None
        metrics.set_gauge("service.queue_depth", 7)
        metrics.set_gauge("service.queue_depth", 3)  # last write wins
        assert metrics.gauge("service.queue_depth") == 3
        assert metrics.snapshot()["gauges"] == {"service.queue_depth": 3}
        metrics.reset()
        assert metrics.gauge("service.queue_depth") is None

    def test_gauges_export_as_prometheus_gauge_family(self):
        metrics = RuntimeMetrics()
        metrics.set_gauge("service.queue_depth", 5)
        text = prometheus_text(metrics)
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_queue_depth 5" in text


# --------------------------------------------------------------------------- #
# Server-side fairness budgets
# --------------------------------------------------------------------------- #
class TestServerBudgets:
    def test_round_budget_retires_query_without_starving_batchmates(self):
        scenario = bank_multi_query_scenario(4, employees=4, offices=2, states=3)
        reference = QueryServer(scenario.mediator()).answer(scenario.queries)
        assert reference.rounds > 1  # the budget below genuinely bites

        metrics = RuntimeMetrics()
        server = QueryServer(scenario.mediator(), metrics=metrics)
        budgeted = server.answer(
            scenario.queries,
            round_budgets=[1] + [None] * (len(scenario.queries) - 1),
        )
        # The budgeted query participated in exactly one round and is
        # flagged; everyone else ran the full rounds and answers match the
        # unbudgeted reference (including the budgeted query's answer set,
        # which stays sound at whatever configuration was reached).
        outcomes = budgeted.outcomes
        assert outcomes[0].rounds_exhausted
        assert outcomes[0].rounds_used == 1
        assert budgeted.rounds_exhausted
        assert metrics.count("server.budget_exhausted") == 1
        for outcome, expected in list(
            zip(budgeted.boolean_answers, reference.boolean_answers)
        )[1:]:
            assert outcome == expected
        for outcome in outcomes[1:]:
            assert not outcome.rounds_exhausted
            assert outcome.rounds_used == reference.rounds

    def test_access_budget_retires_query(self):
        scenario = multi_query_scenario(4, 4, 2, atoms_per_query=3, seed=3)
        server = QueryServer(scenario.mediator())
        result = server.answer(
            scenario.queries,
            access_budgets=[1] + [None] * (len(scenario.queries) - 1),
        )
        first = result.outcomes[0]
        # Charged its first round of accesses, then retired at the next.
        assert first.accesses_charged >= 1
        assert first.rounds_exhausted or first.certain

    def test_unbudgeted_answers_unchanged(self):
        scenario = multi_query_scenario(4, 4, 2, atoms_per_query=3, seed=5)
        plain = QueryServer(scenario.mediator()).answer(scenario.queries)
        explicit = QueryServer(scenario.mediator()).answer(
            scenario.queries,
            round_budgets=[None] * len(scenario.queries),
            access_budgets=[None] * len(scenario.queries),
        )
        assert plain.boolean_answers == explicit.boolean_answers
        assert plain.rounds == explicit.rounds
        assert not explicit.rounds_exhausted

    def test_budget_alignment_validated(self):
        scenario = multi_query_scenario(4, 4, 2, atoms_per_query=3, seed=3)
        server = QueryServer(scenario.mediator())
        with pytest.raises(QueryError):
            server.answer(scenario.queries, round_budgets=[1, 2])
        with pytest.raises(QueryError):
            server.answer(scenario.queries, access_budgets=[1])

    def test_outcome_accounting_present_without_budgets(self):
        scenario = multi_query_scenario(4, 4, 2, atoms_per_query=3, seed=3)
        result = QueryServer(scenario.mediator()).answer(scenario.queries)
        for outcome in result.outcomes:
            assert outcome.rounds_used >= 1
            assert outcome.accesses_charged >= 0
