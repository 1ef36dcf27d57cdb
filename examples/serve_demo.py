"""The query server end to end: batch answering and warm restarts.

A mediator is asked eight variants of the bank's motivating query at once —
*is there a loan officer in <state>, with <offering> approved there?*  The
demo answers the batch three ways:

1. eight independent relevance-guided runs (the per-query library usage);
2. one :class:`~repro.runtime.server.QueryServer` call — the batch shares
   one configuration, so common accesses are performed once;
3. the same server *restarted*: a second server process warms up from the
   :class:`~repro.runtime.persist.PersistentWitnessCache` file the first one
   wrote, revalidating stored witness paths instead of searching fresh.

The warm-restart batch runs under a live :class:`~repro.runtime.Tracer`, so
the demo closes with the observability surface: the latency histograms'
p50/p99, the per-query ``explain`` report, and a Chrome-trace (Perfetto)
file plus Prometheus snapshot written to ``REPRO_OBS_DIR`` (defaults to the
working directory).

Run with:  python examples/serve_demo.py

The witness cache is one SQLite file (WAL mode, safe for concurrent server
processes), and ``--multiproc N`` demonstrates exactly that: N
*processes*, each a full server, answer the batch concurrently against one
shared store, after which a cold process warm-starts from the corpus the
fleet built.

Two service modes ride along (see docs/operations.md):

* ``--serve [--port 8080]`` starts the network-facing
  :class:`~repro.runtime.service.AnsweringService` over the same bank
  workload and serves until interrupted (Ctrl-C drains);
* ``--service-smoke`` is the CI job body: starts the service on a free
  port, submits the bank batch over real HTTP, scrapes ``/metrics``, and
  asserts the served answers equal the exhaustive strategy's on the same
  scenario; that the bank's sibling queries shared witnesses
  (``oracle.sibling_hits`` > 0, exported as
  ``repro_oracle_sibling_hits_total``); that the same batch posted again
  answers the same with no new access and no fresh search; that
  ``/metrics`` exports timed stages as histograms, no ``repro_cache``
  family, and no sample label but ``le``; that a request declaring an
  oversized body and one with a bad Content-Length answer 413 and 400, not
  500; that a client which never finishes its headers gets 408 once the
  read deadline passes (shortened for the smoke); and that shutdown with an
  idle connection open closes it and leaves no handler task pending.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import logging
import multiprocessing
import os
import re
import select
import socket
import tempfile
import time
import urllib.request

from repro.planner import relevance_guided_strategy
from repro.runtime import (
    AdmissionController,
    BreakerBoard,
    QueryServer,
    RetryPolicy,
    RuntimeMetrics,
    Tracer,
    activate_tracer,
    explain_trace,
    prometheus_text,
    serve_in_background,
    write_chrome_trace,
)
from repro.runtime import service as service_module
from repro.workloads import bank_multi_query_scenario, flaky_scenario


def main() -> None:
    scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
    print(f"Scenario {scenario.name}: {len(scenario.queries)} queries")
    for query in scenario.queries:
        print("  ", query)
    print()

    # -- 1. Eight independent guided runs ------------------------------- #
    started = time.perf_counter()
    singles = [
        relevance_guided_strategy(scenario.mediator(), query)
        for query in scenario.queries
    ]
    single_wall = time.perf_counter() - started
    print("Independent guided runs (per-query library usage):")
    print("  answers:        ", [result.boolean_answer for result in singles])
    print("  accesses (sum): ", sum(result.accesses_made for result in singles))
    print(f"  wall clock:      {single_wall * 1000:.0f} ms")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "witness.sqlite")

        # -- 2. One server call over the shared configuration ----------- #
        metrics = RuntimeMetrics()
        with QueryServer(
            scenario.mediator(), cache_path=cache_path, metrics=metrics
        ) as server:
            started = time.perf_counter()
            result = server.answer(scenario.queries)
            server_wall = time.perf_counter() - started
        counters = metrics.snapshot()["counters"]
        print("QueryServer batch:")
        print("  answers:        ", list(result.boolean_answers))
        print("  accesses:       ", result.accesses_made, "(shared across the batch)")
        print("  rounds:         ", result.rounds)
        print("  fresh searches: ", counters.get("oracle.fresh_searches", 0))
        print("  witnesses saved:", counters.get("persist.recorded", 0))
        print(f"  wall clock:      {server_wall * 1000:.0f} ms")
        print()
        assert list(result.boolean_answers) == [
            single.boolean_answer for single in singles
        ]

        # -- 3. Warm restart from the persistent witness cache ---------- #
        # This batch is fully traced: the tracer records the span tree the
        # observability section below renders and exports.
        warm_metrics = RuntimeMetrics()
        tracer = Tracer()
        with activate_tracer(tracer), QueryServer(
            scenario.mediator(), cache_path=cache_path, metrics=warm_metrics
        ) as restarted:
            started = time.perf_counter()
            warm = restarted.answer(scenario.queries)
            warm_wall = time.perf_counter() - started
        warm_counters = warm_metrics.snapshot()["counters"]
        print("Warm restart (fresh server, same witness cache file):")
        print("  answers:        ", list(warm.boolean_answers))
        print("  seeded paths:   ", warm_counters.get("persist.seeded", 0))
        print("  revalidated:    ", warm_counters.get("witness.revalidated", 0))
        print("  fresh searches: ", warm_counters.get("oracle.fresh_searches", 0))
        print(f"  wall clock:      {warm_wall * 1000:.0f} ms")
        print()
        assert warm.answers == result.answers

        # -- 4. Observability: histograms, explain report, artifacts ---- #
        histograms = warm_metrics.snapshot()["histograms"]
        print("Latency histograms (warm-restart batch):")
        for name in ("server.query_latency", "server.round_latency", "access.latency"):
            summary = histograms.get(name)
            if not summary or not summary["count"]:
                continue
            print(
                f"  {name:22s}  n={summary['count']:<4d} "
                f"p50={summary['p50'] * 1000:8.3f} ms  "
                f"p99={summary['p99'] * 1000:8.3f} ms"
            )
        print()

        obs_dir = os.environ.get("REPRO_OBS_DIR", ".")
        os.makedirs(obs_dir, exist_ok=True)
        trace_path = os.path.join(obs_dir, "serve_demo_trace.json")
        events = write_chrome_trace(trace_path, tracer)
        prom_path = os.path.join(obs_dir, "serve_demo_metrics.prom")
        with open(prom_path, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(warm_metrics))
        print(f"Wrote {events} trace events to {trace_path} (open in Perfetto)")
        print(f"Wrote Prometheus snapshot to {prom_path}")
        print()

        spans = tracer.spans()
        print(f"Explain report (first query's trace, {len(spans)} spans total):")
        report = explain_trace(spans)
        # The full report covers the whole batch; print a readable prefix.
        lines = report.splitlines()
        for line in lines[:30]:
            print("  " + line)
        if len(lines) > 30:
            print(f"  ... ({len(lines) - 30} more lines)")


def _fleet_worker(cache_path: str, out_path: str) -> None:
    """One server process of the ``--multiproc`` fleet (module-level so the
    ``spawn`` start method can pickle it)."""
    scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
    metrics = RuntimeMetrics()
    with QueryServer(
        scenario.mediator(), cache_path=cache_path, metrics=metrics
    ) as server:
        started = time.perf_counter()
        result = server.answer(scenario.queries)
        wall = time.perf_counter() - started
    counters = metrics.snapshot()["counters"]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "answers": list(result.boolean_answers),
                "fresh": counters.get("oracle.fresh_searches", 0),
                "revalidated": counters.get("witness.revalidated", 0),
                "recorded": counters.get("persist.recorded", 0),
                "seeded": counters.get("persist.seeded", 0),
                "wall_ms": round(wall * 1000),
            },
            handle,
        )


def multiproc_demo(workers: int) -> None:
    """N concurrent server *processes* sharing one SQLite witness store."""
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "witness.sqlite")
        print(f"Fleet: {workers} server processes, one shared SQLite store")
        outs = [os.path.join(tmp, f"worker-{index}.json") for index in range(workers)]
        procs = [
            ctx.Process(target=_fleet_worker, args=(cache_path, out))
            for out in outs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        reports = []
        for index, out in enumerate(outs):
            with open(out, "r", encoding="utf-8") as handle:
                report = json.load(handle)
            reports.append(report)
            print(
                f"  worker {index}: answers={report['answers']} "
                f"fresh={report['fresh']} recorded={report['recorded']} "
                f"wall={report['wall_ms']} ms"
            )
        assert all(r["answers"] == reports[0]["answers"] for r in reports)
        print()

        probe_out = os.path.join(tmp, "probe.json")
        probe = ctx.Process(target=_fleet_worker, args=(cache_path, probe_out))
        probe.start()
        probe.join()
        with open(probe_out, "r", encoding="utf-8") as handle:
            warm = json.load(handle)
        print("Cold process warm-starting from the fleet's store:")
        print("  seeded paths:   ", warm["seeded"])
        print("  revalidated:    ", warm["revalidated"])
        # A fleet worker may itself warm-start from its fleet-mates'
        # records, so compare with the coldest worker.
        coldest = max(report["fresh"] for report in reports)
        print("  fresh searches: ", warm["fresh"], f"(coldest worker: {coldest})")
        print(f"  wall clock:      {warm['wall_ms']} ms")
        assert warm["answers"] == reports[0]["answers"]
        assert warm["fresh"] < coldest


def _post_json(url: str, document: dict) -> dict:
    _status, parsed = _post_json_status(url, document)
    return parsed


def _post_json_status(url: str, document: dict) -> tuple:
    """POST and return ``(status, parsed_body)`` (2xx only; 4xx/5xx raise)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _raw_status(port: int, head: bytes) -> int:
    """Send a raw request head; the status code of the reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def _slow_header_reply(port: int) -> bytes:
    """Send a request line, then a header line every 0.1 s and never the
    blank line; the reply, read until the service closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n")
        reply = b""
        started = time.monotonic()
        while time.monotonic() - started < 30:
            readable, _, _ = select.select([sock], [], [], 0.1)
            if not readable:
                sock.sendall(b"X-Slow: 1\r\n")
                continue
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return reply


def serve(port: int, rate: float, round_budget: int) -> None:
    """Run the answering service in the foreground until interrupted."""
    scenario = bank_multi_query_scenario(8, employees=6, offices=3, states=4)
    server = QueryServer(scenario.mediator(), metrics=RuntimeMetrics())
    admission = AdmissionController(
        rate=rate if rate > 0 else None,
        round_budget=round_budget if round_budget > 0 else None,
        metrics=server.metrics,
    )
    handle = serve_in_background(server, port=port, admission=admission)
    print(f"Answering service listening on {handle.base_url}")
    print("Example queries over this schema:")
    for query in scenario.queries[:2]:
        print("  ", query)
    print()
    print("Submit one and wait:")
    print(
        f"  curl -s -X POST '{handle.base_url}/queries?wait=1' "
        f"-d '{{\"query\": \"{scenario.queries[0]}\"}}'"
    )
    print(f"Metrics:  curl -s {handle.base_url}/metrics")
    print("Ctrl-C drains and exits.")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nDraining...")
    finally:
        handle.shutdown()
        server.close()
    print("Shut down cleanly.")


def service_smoke() -> None:
    """The CI service smoke: HTTP answers ≡ exhaustive answers, sibling
    queries share witnesses, a repeated batch is answered from the server's
    oracles, /metrics parses."""
    scenario = bank_multi_query_scenario(6, employees=5, offices=3, states=3)
    # The reference shares no relevance code with the guided server.
    direct = QueryServer(scenario.mediator()).answer(
        scenario.queries, strategy="exhaustive"
    )
    expected = [
        {
            "boolean": outcome.boolean_answer,
            "answers": json.loads(
                json.dumps(
                    [list(row) for row in sorted(outcome.answers, key=repr)],
                    default=str,
                )
            ),
        }
        for outcome in direct.outcomes
    ]

    server = QueryServer(scenario.mediator(), metrics=RuntimeMetrics())
    # The read deadline is a module constant; shortened here so the slow
    # client below sees its 408 quickly.  Every other request arrives whole
    # at once.
    read_deadline = service_module._READ_DEADLINE_S
    service_module._READ_DEADLINE_S = 0.5
    asyncio_log = io.StringIO()
    log_handler = logging.StreamHandler(asyncio_log)
    logging.getLogger("asyncio").addHandler(log_handler)
    handle = serve_in_background(server)
    batch = {"queries": [str(q) for q in scenario.queries], "client": "smoke"}
    try:
        served = _post_json(f"{handle.base_url}/queries?wait=1", batch)["queries"]
        assert len(served) == len(expected), "served count mismatch"
        for record, reference in zip(served, expected):
            assert record["state"] == "done", record
            assert record["outcome"]["boolean"] == reference["boolean"], record
            assert record["outcome"]["answers"] == reference["answers"], record
        print(f"HTTP answers match exhaustive answers for {len(served)} queries")
        # The bank's queries differ only in their constants: most positive
        # verdicts come from a sibling's translated witness.
        hits = server.metrics.count("oracle.sibling_hits")
        assert hits > 0, "no sibling hits"
        print(
            f"sibling hints: {hits} hits, "
            f"{server.metrics.count('oracle.fresh_searches')} fresh searches"
        )

        # The same batch again: the server's oracles and configuration
        # already hold everything it needs.
        accesses = server.mediator.access_count
        fresh = server.metrics.count("oracle.fresh_searches")
        again = _post_json(f"{handle.base_url}/queries?wait=1", batch)["queries"]
        assert [record["outcome"]["answers"] for record in again] == [
            record["outcome"]["answers"] for record in served
        ], again
        assert server.mediator.access_count == accesses, "repeat performed accesses"
        assert server.metrics.count("oracle.fresh_searches") == fresh, "repeat searched"
        print("repeated batch: same answers, 0 new accesses, 0 fresh searches")

        with urllib.request.urlopen(
            f"{handle.base_url}/metrics", timeout=30
        ) as response:
            assert response.status == 200
            text = response.read().decode("utf-8")
        families = {
            line.split(" ")[2]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        for family in (
            "repro_service_http_requests_total",
            "repro_admission_accepted_total",
            "repro_service_queue_depth",
            "repro_server_query_latency_seconds",
            "repro_oracle_sibling_hits_total",
        ):
            assert family in families, f"missing metric family {family}"
        # Timed stages export as histograms: no cumulative-timer families.
        assert "repro_oracle_long_term_seconds_count" in text, "no fresh-search histogram"
        assert "_calls_total" not in text, "a cumulative-timer family is exported"
        # The sink holds no caches, and only histogram buckets carry a
        # label: the exposition does not grow with the queries served.
        assert "repro_cache" not in text, "a cache-gauge family is exported"
        labels = {
            label
            for line in text.splitlines()
            if not line.startswith("#")
            for label in re.findall(r'([A-Za-z_][A-Za-z0-9_]*)="', line)
        }
        assert labels == {"le"}, f"sample labels other than le: {labels}"
        print(f"/metrics exposition OK ({len(families)} families, no labels but le)")

        # Malformed requests are the client's errors, never handler crashes.
        # The first declares a body one byte over the default bound.
        oversized = _raw_status(
            handle.port,
            b"POST /queries HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % ((1 << 20) + 1),
        )
        bad_length = _raw_status(
            handle.port, b"POST /queries HTTP/1.1\r\nContent-Length: ten\r\n\r\n"
        )
        assert (oversized, bad_length) == (413, 400), (oversized, bad_length)
        # A client that never finishes its headers times out with 408.
        started = time.monotonic()
        slow = _slow_header_reply(handle.port)
        waited = time.monotonic() - started
        assert slow.startswith(b"HTTP/1.1 408 "), slow[:40]
        assert waited < 10.0, f"408 after {waited:.1f} s"
        http_errors = server.metrics.count("service.http_errors")
        assert http_errors == 0, f"service.http_errors = {http_errors}"
        print(
            "oversized body 413, bad Content-Length 400, "
            f"slow headers 408 after {waited:.1f} s, 0 handler errors"
        )

        # Shutdown with an idle connection open (request line sent, no
        # headers) closes it, and no handler task is left pending.
        with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as idle:
            requests = server.metrics.count("service.http_requests")
            idle.sendall(b"GET /healthz HTTP/1.1\r\n")
            read_by = time.monotonic() + 10
            while server.metrics.count("service.http_requests") == requests:
                assert time.monotonic() < read_by, "request line never read"
                time.sleep(0.01)
            handle.shutdown()
            assert idle.recv(4096) == b"", "idle connection left open"
        handle = None
        gc.collect()
        assert "Task was destroyed" not in asyncio_log.getvalue(), asyncio_log.getvalue()
        print("shutdown closed an idle connection, no handler task pending")
    finally:
        if handle is not None:
            handle.shutdown()
        server.close()
        service_module._READ_DEADLINE_S = read_deadline
        logging.getLogger("asyncio").removeHandler(log_handler)
    print("service smoke PASSED")


def chaos_demo() -> None:
    """The CI chaos smoke: faulty sources behind the full service stack.

    A seeded flaky fanout scenario (transient faults everywhere, the hub
    permanently down after two calls) is served over real HTTP with retries,
    circuit breakers, and a per-query deadline armed.  Asserts the
    fault-tolerance contract end to end: no query ends in the ``failed``
    state, degraded outcomes surface as HTTP 206 with sound answer subsets,
    and ``/healthz`` reports the breaker states.
    """
    # Transient faults everywhere, plus one branch source permanently down
    # from its first call — the queries joining that branch cannot reach
    # certainty and must retire degraded instead of failing or hanging.
    scenario = flaky_scenario(
        "fanout",
        seed=11,
        transient_rate=0.25,
        hard_fail_after=0,
        hard_fail_methods=("accB2",),
        n_queries=6,
    )
    reference = QueryServer(scenario.mediator(chaos=False)).answer(
        list(scenario.queries)
    )
    print(f"Chaos scenario {scenario.name}: {len(scenario.queries)} queries")
    print("  fault-free answers:", list(reference.boolean_answers))

    metrics = RuntimeMetrics()
    mediator = scenario.mediator(
        chaos=True,
        retry_policy=RetryPolicy(max_attempts=4, base_backoff_s=0.005, seed=11),
        breakers=BreakerBoard(failure_threshold=3, reset_timeout_s=30.0),
        metrics=metrics,
    )
    server = QueryServer(mediator, metrics=metrics)
    admission = AdmissionController(deadline_s=30.0, metrics=metrics)
    handle = serve_in_background(server, admission=admission)
    try:
        status, document = _post_json_status(
            f"{handle.base_url}/queries?wait=1",
            {"queries": [str(q) for q in scenario.queries], "client": "chaos"},
        )
        served = document["queries"]
        assert len(served) == len(scenario.queries), "served count mismatch"
        degraded = [record for record in served if record["state"] == "degraded"]
        failed = [record for record in served if record["state"] == "failed"]
        assert not failed, f"chaos run must not fail queries outright: {failed}"
        expected_status = 206 if degraded else 200
        assert status == expected_status, (status, expected_status)
        for record, outcome in zip(served, reference.outcomes):
            answers = {
                tuple(str(v) for v in row)
                for row in record["outcome"]["answers"]
            }
            full = {tuple(str(v) for v in row) for row in outcome.answers}
            assert answers <= full, (
                f"degraded answers must be a sound subset: {record}"
            )
            if record["state"] == "degraded":
                assert record["outcome"]["degraded"], record
        print(
            f"  served {len(served)} queries over HTTP {status}: "
            f"{len(degraded)} degraded, 0 failed"
        )

        with urllib.request.urlopen(
            f"{handle.base_url}/healthz", timeout=30
        ) as response:
            health = json.loads(response.read().decode("utf-8"))
        assert "breakers" in health, health
        print("  /healthz breakers:", health["breakers"])

        counters = metrics.snapshot()["counters"]
        for name in ("retry.attempts", "source.failures"):
            assert counters.get(name, 0) > 0, f"expected {name} > 0"
        print(
            "  retries:", counters.get("retry.attempts", 0),
            " recovered:", counters.get("retry.recovered", 0),
            " gave up:", counters.get("retry.gave_up", 0),
            " breaker fast-fails:", counters.get("breaker.fast_fail", 0),
        )
    finally:
        handle.shutdown()
        server.close()
    print("chaos smoke PASSED")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--serve", action="store_true", help="run the HTTP answering service"
    )
    parser.add_argument(
        "--service-smoke",
        action="store_true",
        help="start the service, answer the bank batch over HTTP, assert "
        "equivalence with the in-process server (the CI smoke)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="serve a seeded flaky scenario with retries, breakers, and "
        "deadlines armed; assert degraded outcomes are sound (the CI "
        "chaos smoke)",
    )
    parser.add_argument(
        "--multiproc",
        type=int,
        default=0,
        metavar="N",
        help="run N concurrent server processes against one shared SQLite "
        "store, then warm-start a cold process from it",
    )
    parser.add_argument("--port", type=int, default=8080, help="--serve port")
    parser.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="--serve per-client rate limit in queries/second (0 = off)",
    )
    parser.add_argument(
        "--round-budget",
        type=int,
        default=0,
        help="--serve per-query round fairness budget (0 = off)",
    )
    arguments = parser.parse_args()
    if arguments.chaos:
        chaos_demo()
    elif arguments.service_smoke:
        service_smoke()
    elif arguments.serve:
        serve(arguments.port, arguments.rate, arguments.round_budget)
    elif arguments.multiproc > 0:
        multiproc_demo(arguments.multiproc)
    else:
        main()
