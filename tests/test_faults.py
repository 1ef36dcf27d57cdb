"""Fault-tolerance tests: injection, retries, breakers, deadlines, degradation.

The load-bearing properties:

* Fault injection is a pure function of ``(seed, access, attempt)`` — two
  runs with the same seed fail identically, so chaos tests are reproducible.
* The breaker admits exactly **one** half-open probe under any number of
  concurrent callers.
* A deadline bounds every wait: hung sources are abandoned unmerged, never
  blocking the batch past expiry.
* Degraded outcomes are *sound*: by monotonicity the answers under faults
  are a subset of the fault-free answers, and a certain degraded run agrees
  with the fault-free run exactly.
* The fault-free path with retries and breakers enabled is bit-identical to
  the plain path.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Access,
    ContainmentOptions,
    Instance,
    QueryServer,
    RuntimeMetrics,
    SchemaBuilder,
    is_long_term_relevant,
)
from repro.exceptions import (
    AccessError,
    CircuitOpenError,
    DeadlineExceeded,
    MalformedResponseError,
    TransientAccessError,
)
from repro.runtime import AccessExecutor, BreakerBoard, CircuitBreaker, Deadline, RetryPolicy
from repro.sources import DataSource, FailurePolicy, Mediator
from repro.workloads import dependent_chain_scenario, flaky_scenario


def _schema():
    builder = SchemaBuilder()
    builder.domain("D")
    builder.relation("R", [("a", "D"), ("b", "D")])
    builder.relation("S", [("a", "D"), ("b", "D")])
    builder.access("mR", "R", inputs=["b"], dependent=False)
    builder.access("mS", "S", inputs=["a"], dependent=False)
    return builder.build()


SCHEMA = _schema()
INSTANCE = Instance(
    SCHEMA, {"R": [("x", "b"), ("y", "b")], "S": [("a", "z"), ("a", "w")]}
)


class _Clock:
    """A hand-cranked monotonic clock for deterministic breaker/deadline tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _source(method: str, policy: FailurePolicy = None, **kwargs) -> DataSource:
    return DataSource(
        SCHEMA.access_method(method), INSTANCE, failure_policy=policy, **kwargs
    )


# --------------------------------------------------------------------------- #
# Failure injection
# --------------------------------------------------------------------------- #


class TestFailurePolicy:
    def test_rates_and_budgets_are_validated(self):
        with pytest.raises(AccessError):
            FailurePolicy(transient_rate=1.5)
        with pytest.raises(AccessError):
            FailurePolicy(malformed_rate=-0.1)
        with pytest.raises(AccessError):
            FailurePolicy(hang_s=-1.0)
        with pytest.raises(AccessError):
            FailurePolicy(hard_fail_after=-1)

    def test_fault_schedule_is_a_function_of_seed_access_attempt(self):
        def schedule(seed: int):
            source = _source("mR", FailurePolicy(transient_rate=0.5, seed=seed))
            access = Access(SCHEMA.access_method("mR"), ("b",))
            kinds = []
            for _ in range(16):
                try:
                    source.respond(access)
                    kinds.append("ok")
                except TransientAccessError:
                    kinds.append("transient")
            return kinds

        first = schedule(3)
        assert first == schedule(3)  # same seed → identical schedule
        assert "transient" in first and "ok" in first  # the rate actually bites
        assert first != schedule(4)  # different seed → different schedule

    def test_hard_failure_is_permanent(self):
        source = _source("mR", FailurePolicy(hard_fail_after=1))
        access = Access(SCHEMA.access_method("mR"), ("b",))
        assert len(source.respond(access)) == 2  # first call still works
        for _ in range(3):
            with pytest.raises(AccessError) as excinfo:
                source.respond(access)
            assert not isinstance(excinfo.value, TransientAccessError)

    def test_truncated_responses_are_sound_subsets(self):
        full = frozenset(
            _source("mR").respond(Access(SCHEMA.access_method("mR"), ("b",))).facts
        )
        source = _source("mR", FailurePolicy(truncate_rate=1.0))
        truncated = source.respond(Access(SCHEMA.access_method("mR"), ("b",)))
        assert frozenset(truncated.facts) < full  # strictly fewer rows, no new ones


# --------------------------------------------------------------------------- #
# Retry policy and deadlines
# --------------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientAccessError("x"))
        assert policy.is_retryable(MalformedResponseError("x"))
        assert policy.is_retryable(ConnectionError("x"))
        assert policy.is_retryable(TimeoutError("x"))
        assert not policy.is_retryable(CircuitOpenError("x"))
        assert not policy.is_retryable(DeadlineExceeded("x"))
        assert not policy.is_retryable(AccessError("permanently down"))
        assert not policy.is_retryable(ValueError("x"))

    def test_backoff_is_bounded_exponential_with_deterministic_jitter(self):
        policy = RetryPolicy(max_attempts=6, base_backoff_s=0.1, max_backoff_s=0.5, seed=9)
        twin = RetryPolicy(max_attempts=6, base_backoff_s=0.1, max_backoff_s=0.5, seed=9)
        other = RetryPolicy(max_attempts=6, base_backoff_s=0.1, max_backoff_s=0.5, seed=10)
        backoffs = []
        for attempt in range(1, 7):
            backoff = policy.backoff_s("mR", ("b",), attempt)
            assert 0.0 <= backoff <= min(0.5, 0.1 * 2 ** (attempt - 1))
            assert backoff == twin.backoff_s("mR", ("b",), attempt)
            backoffs.append(backoff)
        assert backoffs != [other.backoff_s("mR", ("b",), n) for n in range(1, 7)]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=-0.1)


class TestDeadline:
    def test_unlimited_deadline_never_expires(self):
        deadline = Deadline.after(None)
        assert deadline.unlimited
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()

    def test_expiry_follows_the_clock(self):
        clock = _Clock()
        deadline = Deadline.after(1.0, clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(0.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.advance(0.6)
        assert deadline.expired()
        assert deadline.remaining() < 0.0


# --------------------------------------------------------------------------- #
# Circuit breakers
# --------------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_state_machine(self):
        clock = _Clock()
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=2,
            reset_timeout_s=10.0,
            clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        assert breaker.allow() and breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"  # below threshold
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow() and breaker.fail_fast()

        clock.advance(10.0)  # reset timeout elapsed: next allow() is the probe
        assert not breaker.fail_fast()
        assert breaker.allow() and breaker.state == "half-open"
        assert not breaker.allow()  # probe slot is taken
        assert breaker.fail_fast()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

        breaker.record_failure()
        breaker.record_failure()  # re-trip
        clock.advance(10.0)
        assert breaker.allow()  # probe again
        breaker.record_failure()  # probe failed: open, timer restarted
        assert breaker.state == "open" and not breaker.allow()
        clock.advance(9.0)
        assert not breaker.allow()  # restarted timer has not elapsed yet
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
        ]

    def test_success_resets_the_consecutive_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        for _ in range(5):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe_under_hammer(self):
        clock = _Clock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)

        n_threads = 16
        barrier = threading.Barrier(n_threads)
        admitted = []

        def hammer():
            barrier.wait()
            admitted.append(breaker.allow())

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(admitted) == 1

        # The failed probe releases the slot; the next wave admits one again.
        breaker.record_failure()
        clock.advance(5.0)
        assert [breaker.allow() for _ in range(4)].count(True) == 1

    def test_board_mirrors_transitions_into_metrics(self):
        metrics = RuntimeMetrics()
        clock = _Clock()
        board = BreakerBoard(
            failure_threshold=1, reset_timeout_s=5.0, clock=clock, metrics=metrics
        )
        breaker = board.breaker_for("mR")
        assert board.breaker_for("mR") is breaker  # one breaker per method
        assert metrics.snapshot()["gauges"]["breaker.state.mR"] == 0
        breaker.record_failure()
        snap = metrics.snapshot()
        assert snap["counters"]["breaker.opened"] == 1
        assert snap["gauges"]["breaker.state.mR"] == 2
        assert board.states() == {"mR": "open"}
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        snap = metrics.snapshot()
        assert snap["counters"]["breaker.half_open_probes"] == 1
        assert snap["counters"]["breaker.closed"] == 1
        assert board.states() == {"mR": "closed"}


# --------------------------------------------------------------------------- #
# The mediator's resilient access path
# --------------------------------------------------------------------------- #


def _transient_then_ok_seed(rate: float = 0.5) -> int:
    """A seed whose first attempt on mR("b") fails transiently and second works."""
    for seed in range(200):
        policy = FailurePolicy(transient_rate=rate, seed=seed)
        if (
            policy._draw("transient", "mR", ("b",), 1) < rate
            and policy._draw("transient", "mR", ("b",), 2) >= rate
        ):
            return seed
    raise AssertionError("no such seed in range")  # pragma: no cover


class TestResilientMediator:
    def test_retry_recovers_from_transient_faults(self):
        seed = _transient_then_ok_seed()
        metrics = RuntimeMetrics()
        mediator = Mediator(
            SCHEMA,
            [_source("mR", FailurePolicy(transient_rate=0.5, seed=seed)), _source("mS")],
            metrics=metrics,
            retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0, seed=seed),
        )
        response = mediator.perform(Access(SCHEMA.access_method("mR"), ("b",)))
        assert len(response) == 2  # the retry got the full answer
        counters = metrics.snapshot()["counters"]
        assert counters["retry.attempts"] == 1
        assert counters["retry.recovered"] == 1
        assert counters["source.failures"] == 1

    def test_hard_failures_are_not_retried(self):
        metrics = RuntimeMetrics()
        mediator = Mediator(
            SCHEMA,
            [_source("mR", FailurePolicy(hard_fail_after=0)), _source("mS")],
            metrics=metrics,
            retry_policy=RetryPolicy(max_attempts=5, base_backoff_s=0.0),
        )
        access = Access(SCHEMA.access_method("mR"), ("b",))
        with pytest.raises(AccessError) as excinfo:
            mediator.perform(access)
        assert excinfo.value.access == access
        assert excinfo.value.attempts == 1  # fatal error: no retry burned
        counters = metrics.snapshot()["counters"]
        assert counters["retry.gave_up"] == 1
        assert "retry.attempts" not in counters

    def test_perform_many_error_carries_access_and_partial_timings(self):
        mediator = Mediator(
            SCHEMA,
            [_source("mR", FailurePolicy(hard_fail_after=0)), _source("mS")],
        )
        good = Access(SCHEMA.access_method("mS"), ("a",))
        bad = Access(SCHEMA.access_method("mR"), ("b",))
        with pytest.raises(AccessError) as excinfo:
            AccessExecutor(mediator).execute_batch([good, bad])
        error = excinfo.value
        assert error.access == bad
        assert [access for access, _duration in error.timings] == [good]
        assert all(duration >= 0.0 for _access, duration in error.timings)
        assert error.attempts == 1

    def test_tolerated_failures_do_not_wedge_batchmates(self):
        metrics = RuntimeMetrics()
        mediator = Mediator(
            SCHEMA,
            [_source("mR", FailurePolicy(hard_fail_after=0)), _source("mS")],
            metrics=metrics,
        )
        executor = AccessExecutor(mediator, metrics=metrics)
        good = Access(SCHEMA.access_method("mS"), ("a",))
        bad = Access(SCHEMA.access_method("mR"), ("b",))
        batch = executor.execute_batch([bad, good], tolerate_failures=True)
        assert [access for access, _error, _attempts in batch.failed] == [bad]
        assert [response.access for response in batch.responses] == [good]
        # The failed access is not marked performed: a later round may retry it.
        assert not executor.already_performed(bad)
        assert executor.already_performed(good)
        assert metrics.snapshot()["counters"]["executor.failed"] == 1

    def test_open_breaker_fails_fast_then_admits_one_probe(self):
        clock = _Clock()
        metrics = RuntimeMetrics()
        board = BreakerBoard(
            failure_threshold=1, reset_timeout_s=10.0, clock=clock, metrics=metrics
        )
        broken = _source("mR", FailurePolicy(hard_fail_after=0))
        mediator = Mediator(
            SCHEMA, [broken, _source("mS")], metrics=metrics, breakers=board
        )
        executor = AccessExecutor(mediator, metrics=metrics)

        def batch_of(bindings, **kwargs):
            return executor.execute_batch(
                [Access(SCHEMA.access_method("mR"), (value,)) for value in bindings],
                tolerate_failures=True,
                **kwargs,
            )

        first = batch_of(["b1"])
        assert len(first.failed) == 1 and broken.calls == 1
        assert board.states() == {"mR": "open"}

        # Open breaker: the dispatch thread fails fast, no source call made.
        second = batch_of(["b2"])
        (_access, error, attempts), = second.failed
        assert isinstance(error, CircuitOpenError) and attempts == 0
        assert broken.calls == 1
        assert metrics.snapshot()["counters"]["breaker.fast_fail"] == 1

        # Reset timeout elapsed: a concurrent batch admits exactly one probe.
        clock.advance(10.0)
        third = batch_of(["b3", "b4", "b5", "b6", "b7", "b8"], max_concurrency=6)
        assert len(third.failed) == 6
        assert broken.calls == 2  # the single probe was the only source call
        probes = [attempts for _a, _e, attempts in third.failed if attempts > 0]
        assert probes == [1]
        assert board.states() == {"mR": "open"}  # the probe failed: open again

    def test_deadline_abandons_hung_sources_unmerged(self):
        metrics = RuntimeMetrics()
        mediator = Mediator(
            SCHEMA,
            [_source("mR", FailurePolicy(hang_rate=1.0, hang_s=1.5)), _source("mS")],
            metrics=metrics,
        )
        executor = AccessExecutor(mediator, metrics=metrics)
        before = mediator.configuration_view.fingerprint()
        start = time.monotonic()
        batch = executor.execute_batch(
            [Access(SCHEMA.access_method("mR"), ("b",))],
            deadline=Deadline.after(0.1),
            tolerate_failures=True,
            max_concurrency=2,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 1.2  # returned at the deadline, not after the hang
        assert batch.deadline_expired
        assert batch.responses == []
        (_access, error, _attempts), = batch.failed
        assert isinstance(error, DeadlineExceeded)
        # The hung response is discarded: nothing was merged.
        assert mediator.configuration_view.fingerprint() == before
        assert metrics.snapshot()["counters"]["deadline.abandoned"] == 1


# --------------------------------------------------------------------------- #
# End-to-end: sound degraded answers, bit-identical fault-free runs
# --------------------------------------------------------------------------- #


class TestDegradedAnswering:
    def test_fault_free_run_is_bit_identical_with_resilience_enabled(self):
        scenario = flaky_scenario("bank", seed=0, transient_rate=0.3, n_queries=4)
        plain = QueryServer(scenario.mediator(chaos=False)).answer(
            list(scenario.queries)
        )
        resilient_mediator = scenario.mediator(
            chaos=False,
            retry_policy=RetryPolicy(max_attempts=4),
            breakers=BreakerBoard(failure_threshold=3),
        )
        resilient = QueryServer(resilient_mediator).answer(list(scenario.queries))
        assert resilient.answers == plain.answers
        assert resilient.accesses_made == plain.accesses_made
        assert resilient.rounds == plain.rounds
        assert [o.certain for o in resilient.outcomes] == [
            o.certain for o in plain.outcomes
        ]
        assert not resilient.degraded
        assert all(o.failed_accesses == () for o in resilient.outcomes)

    def test_hard_outage_degrades_without_failing_the_call(self):
        scenario = flaky_scenario(
            "fanout",
            seed=7,
            transient_rate=0.0,
            hard_fail_after=0,
            n_queries=4,
        )
        metrics = RuntimeMetrics()
        mediator = scenario.mediator(
            retry_policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
            breakers=BreakerBoard(failure_threshold=2),
            metrics=metrics,
        )
        result = QueryServer(mediator, metrics=metrics).answer(list(scenario.queries))
        reference = QueryServer(scenario.mediator(chaos=False)).answer(
            list(scenario.queries)
        )
        assert result.degraded  # the hub method is permanently down
        for got, ref in zip(result.outcomes, reference.outcomes):
            assert got.answers <= ref.answers
            if got.degraded:
                assert got.failed_accesses
        assert metrics.snapshot()["counters"]["server.access_failures"] > 0

    def test_server_deadline_terminates_hung_queries(self):
        scenario = flaky_scenario(
            "fanout", seed=2, transient_rate=0.0, hang_rate=1.0, hang_s=1.5, n_queries=2
        )
        metrics = RuntimeMetrics()
        server = QueryServer(scenario.mediator(metrics=metrics), metrics=metrics)
        start = time.monotonic()
        result = server.answer(list(scenario.queries), deadline_s=0.15)
        elapsed = time.monotonic() - start
        assert elapsed < 1.2  # no wait rode out the 1.5 s hang
        assert all(outcome.degraded for outcome in result.outcomes)
        assert all(outcome.answers == frozenset() for outcome in result.outcomes)
        counters = metrics.snapshot()["counters"]
        assert counters["deadline.abandoned"] >= 1  # hung work was cut loose

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_degraded_outcomes_are_sound_and_reproducible(self, seed):
        scenario = flaky_scenario(
            "fanout", seed=seed, transient_rate=0.3, hard_fail_after=1, n_queries=3
        )
        reference = QueryServer(scenario.mediator(chaos=False)).answer(
            list(scenario.queries)
        )

        def chaos_run():
            mediator = scenario.mediator(
                retry_policy=RetryPolicy(max_attempts=3, base_backoff_s=0.0, seed=seed),
                breakers=BreakerBoard(failure_threshold=4),
            )
            return QueryServer(mediator).answer(list(scenario.queries))

        first = chaos_run()
        second = chaos_run()

        for got, ref in zip(first.outcomes, reference.outcomes):
            # Soundness: monotone answering never invents answers under faults.
            assert got.answers <= ref.answers
            if got.certain:
                assert ref.certain and got.answers == ref.answers
        # Determinism: the same seed yields the same degraded run, bit for bit.
        assert first.answers == second.answers
        assert [o.degraded for o in first.outcomes] == [
            o.degraded for o in second.outcomes
        ]
        assert [o.failed_accesses for o in first.outcomes] == [
            o.failed_accesses for o in second.outcomes
        ]
        assert [o.attempts for o in first.outcomes] == [
            o.attempts for o in second.outcomes
        ]
        assert first.accesses_made == second.accesses_made


# --------------------------------------------------------------------------- #
# Budgeted containment: the anytime fallback stays sound
# --------------------------------------------------------------------------- #


class TestContainmentBudget:
    def test_budget_trip_falls_back_to_the_direct_search(self):
        scenario = dependent_chain_scenario(2)
        direct = is_long_term_relevant(
            scenario.query,
            scenario.access,
            scenario.configuration,
            scenario.schema,
            method="direct",
        )
        trips = []
        verdict = is_long_term_relevant(
            scenario.query,
            scenario.access,
            scenario.configuration,
            scenario.schema,
            method="containment-cq",
            options=ContainmentOptions(time_budget_s=0.0),
            on_budget_trip=lambda: trips.append(1),
        )
        assert trips == [1]
        assert verdict == direct  # the fallback agrees with the direct search

    def test_generous_budget_never_trips(self):
        scenario = dependent_chain_scenario(2)
        trips = []
        verdict = is_long_term_relevant(
            scenario.query,
            scenario.access,
            scenario.configuration,
            scenario.schema,
            method="containment-cq",
            options=ContainmentOptions(time_budget_s=60.0),
            on_budget_trip=lambda: trips.append(1),
        )
        assert trips == []
        assert verdict == is_long_term_relevant(
            scenario.query,
            scenario.access,
            scenario.configuration,
            scenario.schema,
            method="direct",
        )
