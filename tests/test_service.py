"""End-to-end tests for the HTTP answering service.

The load-bearing assertion: answers served over the wire are identical to
calling :meth:`QueryServer.answer` in-process on the same scenario.  Around
it: the three delivery modes (wait / poll / chunked stream), the admission
rejections as observed by a real HTTP client (429 + ``Retry-After``, 503
for queue/drain), graceful drain completing in-flight queries, the
``/metrics`` exposition parsing as Prometheus text, the trace endpoint, and
the error paths.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import re
import select
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.runtime import (
    AdmissionController,
    AnsweringService,
    QueryServer,
    serve_in_background,
)
from repro.runtime import service as service_module
from repro.workloads import bank_multi_query_scenario


def _request(url, method="GET", document=None):
    """One HTTP exchange: returns (status, headers, parsed-or-raw body)."""
    data = None
    headers = {}
    if document is not None:
        data = json.dumps(document).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            body = response.read()
            status, response_headers = response.status, dict(response.headers)
    except urllib.error.HTTPError as error:
        body = error.read()
        status, response_headers = error.code, dict(error.headers)
    content_type = response_headers.get("Content-Type", "")
    if content_type.startswith("application/json"):
        return status, response_headers, json.loads(body.decode("utf-8"))
    return status, response_headers, body.decode("utf-8")


def _raw_status(handle, data):
    """Send raw request bytes; the status code of the reply."""
    with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
        sock.sendall(data)
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def _expected_outcomes(scenario):
    """The in-process reference: outcome dicts as the service would render."""
    result = QueryServer(scenario.mediator()).answer(scenario.queries)
    expected = []
    for outcome in result.outcomes:
        rows = [list(row) for row in sorted(outcome.answers, key=repr)]
        expected.append(
            {
                "boolean": outcome.boolean_answer,
                # json round-trip so tuples/constants normalize identically
                "answers": json.loads(json.dumps(rows, default=str)),
                "certain": outcome.certain,
            }
        )
    return expected


@pytest.fixture(scope="module")
def bank_service():
    scenario = bank_multi_query_scenario(4, employees=4, offices=2, states=3)
    handle = serve_in_background(QueryServer(scenario.mediator()))
    try:
        yield scenario, handle
    finally:
        handle.shutdown()


class TestAnswerDelivery:
    def test_wait_mode_matches_direct_answer(self, bank_service):
        scenario, handle = bank_service
        expected = _expected_outcomes(scenario)
        status, _, document = _request(
            f"{handle.base_url}/queries?wait=1",
            method="POST",
            document={"queries": [str(q) for q in scenario.queries]},
        )
        assert status == 200
        served = document["queries"]
        assert len(served) == len(expected)
        for record, reference in zip(served, expected):
            assert record["state"] == "done"
            assert record["outcome"]["boolean"] == reference["boolean"]
            assert record["outcome"]["answers"] == reference["answers"]
            assert record["outcome"]["certain"] == reference["certain"]
            assert not record["outcome"]["rounds_exhausted"]

    def test_accepted_then_polled(self, bank_service):
        scenario, handle = bank_service
        status, _, document = _request(
            f"{handle.base_url}/queries",
            method="POST",
            document={"query": str(scenario.queries[0]), "client": "poller"},
        )
        assert status == 202
        assert document["status"] == "queued"
        (poll_path,) = document["poll"]
        deadline = time.time() + 30
        while time.time() < deadline:
            status, _, record = _request(f"{handle.base_url}{poll_path}")
            assert status == 200
            if record["state"] == "done":
                break
            time.sleep(0.05)
        assert record["state"] == "done"
        assert record["client"] == "poller"
        assert record["outcome"]["boolean"] == _expected_outcomes(scenario)[0]["boolean"]

    def test_chunked_stream_delivers_every_outcome(self, bank_service):
        scenario, handle = bank_service
        expected = _expected_outcomes(scenario)
        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
        try:
            connection.request(
                "POST",
                "/queries?stream=1",
                body=json.dumps({"queries": [str(q) for q in scenario.queries]}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            lines = response.read().decode("utf-8").splitlines()
        finally:
            connection.close()
        records = [json.loads(line) for line in lines if line]
        assert len(records) == len(scenario.queries)
        by_query = {record["query"]: record for record in records}
        for query, reference in zip(scenario.queries, expected):
            record = by_query[str(query)]
            assert record["state"] == "done"
            assert record["outcome"]["boolean"] == reference["boolean"]

    def test_trace_endpoint_serves_explain_report(self, bank_service):
        scenario, handle = bank_service
        status, _, document = _request(
            f"{handle.base_url}/queries?wait=1",
            method="POST",
            document={"query": str(scenario.queries[0])},
        )
        assert status == 200
        record_id = document["queries"][0]["id"]
        status, headers, report = _request(
            f"{handle.base_url}/queries/{record_id}/trace"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "answer" in report  # the root span of the batch

    def test_healthz(self, bank_service):
        _, handle = bank_service
        status, _, document = _request(f"{handle.base_url}/healthz")
        assert status == 200
        assert document["status"] == "ok"


class TestMetricsEndpoint:
    _NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
    _SAMPLE = re.compile(
        rf"^{_NAME}(\{{[^}}]*\}})?"
        r" (?:[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|\+Inf|NaN)$"
    )

    def test_metrics_parse_as_prometheus_exposition(self, bank_service):
        scenario, handle = bank_service
        # Ensure there is answering and HTTP traffic to export.
        _request(
            f"{handle.base_url}/queries?wait=1",
            method="POST",
            document={"query": str(scenario.queries[0])},
        )
        status, headers, text = _request(f"{handle.base_url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        lines = text.splitlines()
        assert lines, "metrics body is empty"
        seen_types = {}
        for line in lines:
            if not line:
                continue
            if line.startswith("# HELP "):
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                seen_types[name] = kind
                continue
            assert self._SAMPLE.match(line), f"unparseable sample line: {line!r}"
            # Only histogram buckets are labelled: the line count follows
            # the metric names, not the number of queries served.
            labels = re.findall(r'([A-Za-z_][A-Za-z0-9_]*)="', line)
            assert set(labels) <= {"le"}, f"sample line with a label: {line!r}"
        # The families this PR is about are present with the right types.
        assert seen_types.get("repro_service_http_requests_total") == "counter"
        assert seen_types.get("repro_admission_accepted_total") == "counter"
        assert seen_types.get("repro_service_queue_depth") == "gauge"
        assert seen_types.get("repro_service_inflight_queries") == "gauge"
        # Histograms (from the answering path) carry their full shape.
        histograms = [n for n, k in seen_types.items() if k == "histogram"]
        assert histograms, "no histogram families exported"
        for name in histograms:
            assert any(
                line.startswith(f'{name}_bucket{{le="+Inf"}}') for line in lines
            ), f"{name} lacks a +Inf bucket"
            assert any(line.startswith(f"{name}_sum ") for line in lines)
            assert any(line.startswith(f"{name}_count ") for line in lines)


class TestAdmissionOverHttp:
    def test_rate_limited_client_sees_429_with_retry_after(self):
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        handle = serve_in_background(
            QueryServer(scenario.mediator()),
            admission=AdmissionController(rate=0.001, burst=1.0),
        )
        try:
            url = f"{handle.base_url}/queries?wait=1"
            first = {"query": str(scenario.queries[0]), "client": "flooder"}
            status, _, _ = _request(url, method="POST", document=first)
            assert status == 200
            status, headers, document = _request(url, method="POST", document=first)
            assert status == 429
            assert document["error"] == "rate_limited"
            assert int(headers["Retry-After"]) >= 1
        finally:
            handle.shutdown()

    def test_oversized_submission_sees_503_queue_full(self):
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        handle = serve_in_background(
            QueryServer(scenario.mediator()),
            admission=AdmissionController(max_queued=1),
        )
        try:
            status, headers, document = _request(
                f"{handle.base_url}/queries",
                method="POST",
                document={"queries": [str(q) for q in scenario.queries]},
            )
            assert status == 503
            assert document["error"] == "queue_full"
            assert int(headers["Retry-After"]) >= 1
        finally:
            handle.shutdown(drain=False)

    def test_draining_service_rejects_new_submissions(self):
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        handle = serve_in_background(QueryServer(scenario.mediator()))
        try:
            handle.service.admission.begin_drain()
            status, _, document = _request(
                f"{handle.base_url}/queries",
                method="POST",
                document={"query": str(scenario.queries[0])},
            )
            assert status == 503
            assert document["error"] == "draining"
        finally:
            handle.shutdown(drain=False)

    def test_fairness_flooder_rejected_while_other_client_answers(self):
        scenario = bank_multi_query_scenario(4, employees=4, offices=2, states=3)
        expected = _expected_outcomes(scenario)
        handle = serve_in_background(
            QueryServer(scenario.mediator()),
            admission=AdmissionController(rate=0.5, burst=2.0),
        )
        try:
            url = f"{handle.base_url}/queries?wait=1"
            flood_statuses = []
            for _ in range(6):
                status, _, _ = _request(
                    url,
                    method="POST",
                    document={"query": str(scenario.queries[0]), "client": "flooder"},
                )
                flood_statuses.append(status)
            # The flooder burns its burst, then gets rejected.
            assert flood_statuses.count(429) >= 3
            # An independent client is admitted and answered correctly
            # while the flooder is being turned away.
            for query, reference in zip(scenario.queries[:2], expected[:2]):
                status, _, document = _request(
                    url,
                    method="POST",
                    document={"query": str(query), "client": "patient"},
                )
                assert status == 200
                outcome = document["queries"][0]["outcome"]
                assert outcome["boolean"] == reference["boolean"]
        finally:
            handle.shutdown()


class TestDrain:
    def test_drain_completes_inflight_queries(self):
        scenario = bank_multi_query_scenario(3, employees=3, offices=2, states=2)
        handle = serve_in_background(
            QueryServer(scenario.mediator(latency_s=0.05))
        )
        results = {}

        def submit():
            results["response"] = _request(
                f"{handle.base_url}/queries?wait=1",
                method="POST",
                document={"queries": [str(q) for q in scenario.queries]},
            )

        worker = threading.Thread(target=submit)
        worker.start()
        # Let the batch get admitted and start answering, then drain.
        deadline = time.time() + 10
        while handle.service.admission.inflight == 0 and time.time() < deadline:
            time.sleep(0.01)
        assert handle.service.admission.inflight > 0
        handle.shutdown(drain=True, timeout=60.0)
        worker.join(timeout=60)
        assert not worker.is_alive()
        status, _, document = results["response"]
        assert status == 200
        for record in document["queries"]:
            assert record["state"] == "done"
        assert handle.service.admission.inflight == 0


class TestErrorPaths:
    def test_unknown_route_404(self, bank_service):
        _, handle = bank_service
        status, _, _ = _request(f"{handle.base_url}/nope")
        assert status == 404

    def test_wrong_method_405(self, bank_service):
        _, handle = bank_service
        status, _, _ = _request(f"{handle.base_url}/queries", method="PUT")
        assert status == 405
        status, _, _ = _request(f"{handle.base_url}/metrics", method="POST")
        assert status == 405

    def test_bad_json_400(self, bank_service):
        _, handle = bank_service
        request = urllib.request.Request(
            f"{handle.base_url}/queries",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unparseable_query_text_400(self, bank_service):
        _, handle = bank_service
        status, _, document = _request(
            f"{handle.base_url}/queries",
            method="POST",
            document={"query": "NotARelation(x)"},
        )
        assert status == 400
        assert "does not parse" in document["error"]

    def test_missing_query_field_400(self, bank_service):
        _, handle = bank_service
        status, _, _ = _request(
            f"{handle.base_url}/queries", method="POST", document={"wrong": 1}
        )
        assert status == 400

    def test_request_parse_errors_answer_4xx_not_500(self):
        """A body over the bound, a bad or negative Content-Length, a
        malformed request line, a request or header line over the stream
        reader's 64 KiB limit and too many header lines are the client's
        errors, not handler crashes."""
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        server = QueryServer(scenario.mediator())
        handle = serve_in_background(server, max_body_bytes=64)
        try:
            def post(length, body=b""):
                return (
                    b"POST /queries HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n" + body
                )

            statuses = [
                _raw_status(handle, post(b"100", b"x" * 100)),
                _raw_status(handle, post(b"ten")),
                _raw_status(handle, b"NONSENSE\r\n\r\n"),
                _raw_status(handle, post(b"-5")),
                _raw_status(handle, b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n"),
                _raw_status(
                    handle,
                    b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
                ),
                _raw_status(
                    handle,
                    b"GET /healthz HTTP/1.1\r\n"
                    + b"".join(b"X-%d: 1\r\n" % i for i in range(101))
                    + b"\r\n",
                ),
            ]
        finally:
            handle.shutdown()
        assert statuses == [413, 400, 400, 400, 414, 431, 431]
        assert server.metrics.count("service.http_errors") == 0
        assert server.metrics.count("service.http_requests") == 7

    def test_replies_reach_clients_far_past_a_limit(self):
        """A client still sending megabytes past a limit reads its 413 or
        414: the handler half-closes and drains before it closes, so the
        kernel does not reset the connection under the reply."""
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        server = QueryServer(scenario.mediator())
        handle = serve_in_background(server)
        megabytes = 4 * 1024 * 1024
        try:
            statuses = [
                _raw_status(handle, b"GET /" + b"a" * megabytes + b" HTTP/1.1\r\n\r\n"),
                _raw_status(
                    handle,
                    b"POST /queries HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % megabytes
                    + b"x" * megabytes,
                ),
            ]
        finally:
            handle.shutdown()
        assert statuses == [414, 413]
        assert server.metrics.count("service.http_errors") == 0

    def test_unknown_record_404(self, bank_service):
        _, handle = bank_service
        status, _, _ = _request(f"{handle.base_url}/queries/q999999")
        assert status == 404
        status, _, _ = _request(f"{handle.base_url}/queries/q999999/trace")
        assert status == 404


class TestReadDeadline:
    """One deadline per connection covers the request line, headers and
    body; an expired one answers 408, and shutdown cuts idle connections."""

    def test_slow_header_client_gets_408_within_the_deadline(self, monkeypatch):
        monkeypatch.setattr(service_module, "_READ_DEADLINE_S", 0.3)
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        server = QueryServer(scenario.mediator())
        handle = serve_in_background(server)
        try:
            # The server's deadline starts when it accepts, which can be
            # before connect returns: start the clock first.
            started = time.monotonic()
            with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                reply = b""
                # A header line every 0.1 s, never the blank line: no single
                # read waits long, so only a whole-request deadline fires.
                while time.monotonic() - started < 10:
                    readable, _, _ = select.select([sock], [], [], 0.1)
                    if not readable:
                        sock.sendall(b"X-Slow: 1\r\n")
                        continue
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    reply += chunk
                elapsed = time.monotonic() - started
        finally:
            handle.shutdown()
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n"), reply
        assert 0.3 <= elapsed < 5.0
        assert server.metrics.count("service.http_requests") == 1
        assert server.metrics.count("service.http_408") == 1
        assert server.metrics.count("service.http_errors") == 0

    def test_a_body_short_of_its_length_gets_408(self, monkeypatch):
        monkeypatch.setattr(service_module, "_READ_DEADLINE_S", 0.3)
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        server = QueryServer(scenario.mediator())
        handle = serve_in_background(server)
        try:
            status = _raw_status(
                handle, b"POST /queries HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}"
            )
        finally:
            handle.shutdown()
        assert status == 408
        assert server.metrics.count("service.http_requests") == 1
        assert server.metrics.count("service.http_errors") == 0

    def test_a_request_completed_as_the_deadline_fires_gets_408(self):
        """When the last bytes and the deadline land in one event-loop
        iteration the reads still return; the request is answered 408, not
        routed with a reader whose first drain() would raise."""
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)

        async def read(service):
            reader = asyncio.StreamReader()
            reader.feed_data(b"POST /queries HTTP/1.1\r\nContent-Length: 2\r\n\r\n")
            reading = asyncio.ensure_future(service._read_request(reader))
            await asyncio.sleep(0)  # it now waits for the body
            reader.feed_data(b"{}")
            reader.set_exception(service_module._ReadTimeout())
            with pytest.raises(service_module._BadRequest) as caught:
                await reading
            return caught.value.status

        with QueryServer(scenario.mediator()) as server:
            assert asyncio.run(read(AnsweringService(server))) == 408
        assert server.metrics.count("service.http_requests") == 1

    def test_shutdown_cuts_an_idle_connection(self, caplog):
        scenario = bank_multi_query_scenario(2, employees=3, offices=2, states=2)
        server = QueryServer(scenario.mediator())
        handle = serve_in_background(server)
        caplog.set_level(logging.ERROR, logger="asyncio")
        with socket.create_connection(("127.0.0.1", handle.port), timeout=30) as idle:
            idle.sendall(b"GET /healthz HTTP/1.1\r\n")
            deadline = time.monotonic() + 10
            while server.metrics.count("service.http_requests") == 0:
                assert time.monotonic() < deadline, "request line never read"
                time.sleep(0.01)
            started = time.monotonic()
            handle.shutdown()
            assert time.monotonic() - started < 5.0
            # The handler closed the connection without a reply.
            assert idle.recv(4096) == b""
        del handle
        gc.collect()
        assert "Task was destroyed but it is pending" not in caplog.text
        assert server.metrics.count("service.http_errors") == 0
