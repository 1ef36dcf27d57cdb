"""The network-facing answering service: HTTP in, shared rounds underneath.

Everything below this module is an in-process library — PR 5's
:class:`~repro.runtime.server.QueryServer` answers batches, PR 6's exporters
render its telemetry — but nothing accepted traffic.  :class:`AnsweringService`
is that front end: a stdlib-only asyncio HTTP server that

* accepts query submissions (``POST /queries``, single or batch, as query
  text parsed against the mediator's schema);
* **coalesces** compatible concurrent submissions into one shared answering
  round — submissions that arrive while a batch is running queue up and run
  as the *next* batch, so an access wanted by several clients is performed
  once (the whole point of the multi-query runtime);
* resolves per-query outcomes as their batch completes, served three ways:
  synchronously (``?wait=1``), as a chunked NDJSON stream (``?stream=1``,
  one line per outcome as it resolves), or by polling
  (``GET /queries/<id>``);
* serves the observability surface: ``GET /metrics`` returns
  :func:`repro.runtime.export.prometheus_text` verbatim, and
  ``GET /queries/<id>/trace`` the
  :func:`repro.runtime.export.explain_trace` report of the batch that
  answered the query;
* enforces **admission control** (:mod:`repro.runtime.admission`): per-client
  token-bucket rate limits and in-flight quotas answer 429 with an honest
  ``Retry-After``; a full submission queue answers 503; and
  every admitted query carries the service's round/access fairness budget
  into :meth:`QueryServer.answer`, so one dominating query of a coalesced
  batch retires with ``rounds_exhausted`` instead of starving the rest;
* **drains gracefully**: :meth:`AnsweringService.aclose` (and
  :meth:`ServiceHandle.shutdown`) stops admitting (503), lets queued and
  running batches finish, then closes the listener.

Threading model: the event loop owns sockets, parsing, admission, and the
record table; the blocking :meth:`QueryServer.answer` calls run on one
dedicated worker thread (batches are serialized — the answering runtime
shares one mediator configuration and is not reentrant).  HTTP handling is
deliberately minimal — HTTP/1.1, ``Connection: close``, chunked transfer
only for the outcome stream — because the interesting concurrency lives in
the answering rounds, not the framing.

Synchronous callers (tests, the demo CLI, operators embedding the service)
use :func:`serve_in_background`, which runs the event loop on a daemon
thread and returns a :class:`ServiceHandle` with the bound port and a
blocking ``shutdown``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple
from urllib.parse import parse_qs

from repro.exceptions import QueryError, SchemaError
from repro.queries import parse_query
from repro.runtime.admission import AdmissionController
from repro.runtime.export import explain_trace, prometheus_text
from repro.runtime.server import QueryServer
from repro.tracing import Tracer, activate_tracer

__all__ = ["AnsweringService", "ServiceHandle", "serve_in_background"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    414: "URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Submission states, in order of a healthy lifecycle.  ``degraded`` is a
#: *resolved* state: the query terminated with sound answers, but faults
#: (failed accesses or an expired deadline) may have kept it from the
#: complete answer set — clients see HTTP 206 instead of 200.
_QUEUED, _ANSWERING, _DONE, _FAILED = "queued", "answering", "done", "failed"
_DEGRADED = "degraded"

#: Header lines a request may carry before it is refused with 431.
_MAX_HEADER_LINES = 100

#: Seconds a connection has to deliver its request line, headers and body;
#: past it the service answers 408 and closes.  Answering is not under it.
_READ_DEADLINE_S = 10.0


class _BadRequest(Exception):
    """Malformed HTTP or JSON; rendered as a 4xx response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class _ReadTimeout(Exception):
    """The request did not arrive within :data:`_READ_DEADLINE_S`."""


class _Record:
    """One submitted query's server-side state, polled via its id."""

    __slots__ = (
        "id",
        "client",
        "text",
        "state",
        "outcome",
        "trace",
        "error",
        "future",
        "submitted_at",
    )

    def __init__(self, record_id: str, client: str, text: str, future) -> None:
        self.id = record_id
        self.client = client
        self.text = text
        self.state = _QUEUED
        self.outcome: Optional[Dict[str, object]] = None
        self.trace: Optional[str] = None
        self.error: Optional[str] = None
        self.future = future
        self.submitted_at = time.time()


class _Submission:
    """One POST's worth of queries, bound for the next coalesced batch."""

    __slots__ = ("records", "queries", "client")

    def __init__(self, records: List[_Record], queries: List[object], client: str):
        self.records = records
        self.queries = queries
        self.client = client


class AnsweringService:
    """An asyncio HTTP front end over one :class:`QueryServer`.

    Parameters
    ----------
    server:
        The answering runtime; its mediator's schema parses submitted query
        text, and its :attr:`~QueryServer.metrics` sink backs ``/metrics``.
        The service does not close it — the owner does.
    admission:
        The :class:`AdmissionController`; defaults to one with no per-client
        limits and a 256-query submission queue.  Pass your own to set
        rate/burst/quota/budget policy (share the server's metrics sink so
        ``/metrics`` shows admission and answering side by side).
    host / port:
        Listen address; port 0 picks a free port (read it from
        :attr:`port` after :meth:`start`).
    trace_requests:
        Record every batch under a fresh :class:`Tracer` and keep each
        query's ``explain_trace`` report for ``GET /queries/<id>/trace``.
        On by default (the tracer's overhead is bounded by the PR 6 smoke);
        turn off to shed the per-batch span tree on hot deployments.
    max_rounds:
        Forwarded to every :meth:`QueryServer.answer` call.
    max_batch_queries:
        Coalescing bound: a dispatched batch stops absorbing queued
        submissions beyond this many queries.
    max_records:
        Bound on the finished-query table behind ``GET /queries/<id>``
        (oldest resolved records are evicted first).
    max_body_bytes:
        Request-body bound; larger submissions answer 413.
    """

    def __init__(
        self,
        server: QueryServer,
        *,
        admission: Optional[AdmissionController] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        trace_requests: bool = True,
        max_rounds: int = 50,
        max_batch_queries: int = 64,
        max_records: int = 1024,
        max_body_bytes: int = 1 << 20,
    ) -> None:
        self._server = server
        self._metrics = server.metrics
        self._admission = (
            admission
            if admission is not None
            else AdmissionController(metrics=self._metrics)
        )
        self._host = host
        self._port = port
        self._trace_requests = trace_requests
        self._max_rounds = max_rounds
        self._max_batch_queries = max(1, max_batch_queries)
        self._max_records = max(1, max_records)
        self._max_body = max_body_bytes
        self._records: "OrderedDict[str, _Record]" = OrderedDict()
        self._ids = itertools.count(1)
        # Created in start(): asyncio.Queue binds to the running loop on
        # Python 3.9, and the service may be constructed on another thread.
        self._queue: Optional["asyncio.Queue[Optional[_Submission]]"] = None
        self._http: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        # Open connection handlers, and those still reading their request.
        self._handlers: Set[asyncio.Task] = set()
        self._reading: Set[asyncio.Task] = set()
        # One worker thread: answer() calls share the mediator configuration
        # and the server-lifetime executor, so batches must be serialized.
        self._answering = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-answering"
        )
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def admission(self) -> AdmissionController:
        """The admission controller making this service's 429/503 calls."""
        return self._admission

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._http is None or not self._http.sockets:
            raise RuntimeError("service is not started")
        return self._http.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listener and start the batch dispatcher."""
        if self._http is not None:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_batches()
        )
        self._http = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port
        )

    async def aclose(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain and shut down (idempotent).

        With ``drain`` (the default) the admission controller first flips
        to rejecting new submissions with 503, then the service waits — up
        to ``timeout`` seconds — for every admitted query to resolve, so
        no accepted work is dropped.  Without it, queued submissions are
        failed immediately.  Connections still reading a request are then
        cut; those delivering a reply get what is left of ``timeout``.
        """
        if self._closed or self._queue is None:
            self._closed = True
            return
        self._closed = True
        self._admission.begin_drain()
        deadline = time.monotonic() + timeout
        if drain:
            while self._admission.inflight > 0 and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
        await self._queue.put(None)
        if self._dispatcher is not None:
            await self._dispatcher
        if self._http is not None:
            self._http.close()
        for handler in self._reading:
            handler.cancel()
        if self._handlers:
            _done, late = await asyncio.wait(
                set(self._handlers), timeout=max(0.0, deadline - time.monotonic())
            )
            for handler in late:
                handler.cancel()
            await asyncio.gather(*late, return_exceptions=True)
        if self._http is not None:
            await self._http.wait_closed()
        self._answering.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Batch dispatch (event loop side + worker thread side)
    # ------------------------------------------------------------------ #
    async def _dispatch_batches(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is None:
                self._fail_queued("service shut down before answering")
                return
            batch = [first]
            total = len(first.queries)
            # Coalesce whatever else is already waiting: submissions that
            # arrived during the previous batch share the next one's rounds.
            while total < self._max_batch_queries:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    await self._queue.put(None)
                    break
                batch.append(extra)
                total += len(extra.queries)
            await self._run_batch(loop, batch)

    async def _run_batch(self, loop, batch: List[_Submission]) -> None:
        queries: List[object] = []
        records: List[_Record] = []
        for submission in batch:
            queries.extend(submission.queries)
            records.extend(submission.records)
            for record in submission.records:
                record.state = _ANSWERING
        self._admission.started(len(queries))
        round_budgets, access_budgets = self._admission.budgets_for(len(queries))
        deadlines = self._admission.deadlines_for(len(queries))
        tracer = Tracer() if self._trace_requests else None
        self._metrics.incr("service.batches")
        self._metrics.incr("service.batched_queries", len(queries))
        try:
            result = await loop.run_in_executor(
                self._answering,
                self._answer_blocking,
                queries,
                round_budgets,
                access_budgets,
                deadlines,
                tracer,
            )
        except Exception as exc:  # answering failed: fail the whole batch
            self._metrics.incr("service.batch_failures")
            for submission in batch:
                for record in submission.records:
                    record.state = _FAILED
                    record.error = f"{type(exc).__name__}: {exc}"
                    if not record.future.done():
                        record.future.set_result(record)
                self._admission.resolved(submission.client, len(submission.records))
            return
        report = explain_trace(tracer.spans()) if tracer is not None else None
        for record, outcome in zip(records, result.outcomes):
            record.outcome = _outcome_dict(outcome)
            record.trace = report
            if outcome.degraded:
                record.state = _DEGRADED
                self._metrics.incr("service.degraded_queries")
            else:
                record.state = _DONE
            if not record.future.done():
                record.future.set_result(record)
        for submission in batch:
            self._admission.resolved(submission.client, len(submission.records))

    def _answer_blocking(
        self, queries, round_budgets, access_budgets, deadlines, tracer
    ):
        """The worker-thread body: one shared-rounds answer call.

        ``activate_tracer(None)`` activates the no-op tracer, which is what
        the answering thread has anyway.
        """
        with activate_tracer(tracer):
            return self._server.answer(
                queries,
                max_rounds=self._max_rounds,
                round_budgets=round_budgets,
                access_budgets=access_budgets,
                deadlines=deadlines,
            )

    def _fail_queued(self, message: str) -> None:
        """Fail every submission still sitting in the queue (no drain)."""
        while True:
            try:
                submission = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if submission is None:
                continue
            for record in submission.records:
                record.state = _FAILED
                record.error = message
                if not record.future.done():
                    record.future.set_result(record)
            self._admission.started(len(submission.records))
            self._admission.resolved(submission.client, len(submission.records))

    # ------------------------------------------------------------------ #
    # HTTP handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader, writer) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)
        try:
            try:
                request = await self._read_request(reader)
                if request is None:
                    return
                await self._route(writer, *request)
            except _BadRequest as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}
                )
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            # The writer's drain() re-raises the reader's exception: the 408
            # is written by then, and close() below flushes it.
            _ReadTimeout,
        ):
            pass
        except Exception as exc:  # last-ditch: never kill the loop
            self._metrics.incr("service.http_errors")
            try:
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader):
        """``(method, path, params, headers, body)``, or ``None`` when the
        client closed before a request line; 408 past :data:`_READ_DEADLINE_S`.

        Every request line read, or timed out waiting for, counts in
        ``service.http_requests``.
        """
        handler = asyncio.current_task()
        self._reading.add(handler)
        # Past the deadline every read, pending or to come, raises.
        timer = asyncio.get_running_loop().call_later(
            _READ_DEADLINE_S, reader.set_exception, _ReadTimeout()
        )
        request_line = None
        try:
            # ``readline`` raises ValueError on a line longer than the
            # stream reader's limit (64 KiB).
            try:
                request_line = await reader.readline()
            except ValueError:
                self._metrics.incr("service.http_requests")
                raise _BadRequest(414, "request line too long") from None
            if not request_line:
                return None
            self._metrics.incr("service.http_requests")
            parts = request_line.decode("latin-1").strip().split()
            if len(parts) != 3:
                raise _BadRequest(400, "malformed request line")
            method, target, _version = parts
            headers: Dict[str, str] = {}
            for _ in range(_MAX_HEADER_LINES + 1):
                try:
                    line = await reader.readline()
                except ValueError:
                    raise _BadRequest(431, "header line too long") from None
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            else:
                raise _BadRequest(431, f"more than {_MAX_HEADER_LINES} header lines")
            length_text = headers.get("content-length", "0")
            try:
                length = int(length_text)
            except ValueError:
                length = -1
            if length < 0:
                raise _BadRequest(400, f"bad Content-Length: {length_text!r}")
            if length > self._max_body:
                raise _BadRequest(413, f"body exceeds {self._max_body} bytes")
            body = await reader.readexactly(length) if length else b""
            # The deadline may fire in the loop iteration that delivered the
            # last bytes: the reads returned, but the reader now holds the
            # timeout, and the reply's drain() would raise it mid-answer.
            if reader.exception() is not None:
                raise reader.exception()
        except _ReadTimeout:
            if request_line is None:
                self._metrics.incr("service.http_requests")
            raise _BadRequest(
                408, f"request not received within {_READ_DEADLINE_S} s"
            ) from None
        finally:
            timer.cancel()
            self._reading.discard(handler)
        path, _, query_string = target.partition("?")
        params = {k: v[-1] for k, v in parse_qs(query_string).items()}
        return method.upper(), path, params, headers, body

    async def _route(self, writer, method, path, params, headers, body) -> None:
        if path == "/metrics" and method == "GET":
            await self._send(
                writer,
                200,
                prometheus_text(self._metrics).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/healthz" and method == "GET":
            health = {
                "status": "draining" if self._admission.draining else "ok",
                "queued": self._admission.queued,
                "inflight": self._admission.inflight,
            }
            persist = self._server.persist
            if persist is not None:
                store_stats = persist.store.stats()
                health["persistence"] = {
                    "backend": store_stats["backend"],
                    "records": store_stats.get("records", 0),
                    "bytes": store_stats.get("bytes", 0),
                }
            breakers = self._server.mediator.breakers
            if breakers is not None:
                health["breakers"] = dict(breakers.states())
            await self._send_json(writer, 200, health)
            return
        if path == "/queries" and method == "POST":
            await self._handle_submit(writer, params, headers, body)
            return
        if path.startswith("/queries/") and method == "GET":
            rest = path[len("/queries/") :]
            if rest.endswith("/trace"):
                await self._handle_trace(writer, rest[: -len("/trace")])
            else:
                await self._handle_poll(writer, rest)
            return
        if path in ("/metrics", "/healthz", "/queries") or path.startswith(
            "/queries/"
        ):
            await self._send_json(writer, 405, {"error": f"{method} not allowed"})
            return
        await self._send_json(writer, 404, {"error": f"no route for {path}"})

    async def _handle_submit(self, writer, params, headers, body) -> None:
        document = _parse_json_body(body)
        texts = document.get("queries")
        if texts is None:
            single = document.get("query")
            if single is None:
                raise _BadRequest(400, "body must carry 'query' or 'queries'")
            texts = [single]
        if not isinstance(texts, list) or not texts:
            raise _BadRequest(400, "'queries' must be a non-empty list")
        if not all(isinstance(text, str) for text in texts):
            raise _BadRequest(400, "queries must be strings of query text")
        client = str(
            document.get("client") or headers.get("x-client") or "anonymous"
        )
        schema = self._server.mediator.schema
        queries = []
        for position, text in enumerate(texts):
            try:
                queries.append(parse_query(schema, text))
            except (QueryError, SchemaError) as exc:
                raise _BadRequest(400, f"query {position} does not parse: {exc}")

        decision = self._admission.admit(client, len(queries))
        if not decision.admitted:
            retry_after = max(1, int(-(-decision.retry_after // 1)))
            await self._send_json(
                writer,
                decision.status,
                {"error": decision.reason, "retry_after_s": decision.retry_after},
                extra_headers=(("Retry-After", str(retry_after)),),
            )
            return

        loop = asyncio.get_running_loop()
        records = []
        for text in texts:
            record = _Record(
                f"q{next(self._ids):06d}", client, text, loop.create_future()
            )
            records.append(record)
            self._remember(record)
        await self._queue.put(_Submission(records, queries, client))

        stream = params.get("stream") in ("1", "true")
        wait = params.get("wait") in ("1", "true") or bool(document.get("wait"))
        if stream:
            await self._stream_outcomes(writer, records)
        elif wait:
            await asyncio.gather(*(record.future for record in records))
            # 206 tells a synchronous client at the HTTP layer that some
            # answer set is a sound subset (degraded), not the full answer.
            status = (
                206
                if any(record.state == _DEGRADED for record in records)
                else 200
            )
            await self._send_json(
                writer, status, {"queries": [_record_dict(r) for r in records]}
            )
        else:
            await self._send_json(
                writer,
                202,
                {
                    "ids": [record.id for record in records],
                    "status": _QUEUED,
                    "poll": [f"/queries/{record.id}" for record in records],
                },
            )

    async def _stream_outcomes(self, writer, records: List[_Record]) -> None:
        """Chunked NDJSON: one line per outcome, flushed as each resolves."""
        self._metrics.incr("service.http_200")
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        pending = {record.future: record for record in records}
        while pending:
            done, _ = await asyncio.wait(
                pending.keys(), return_when=asyncio.FIRST_COMPLETED
            )
            for future in done:
                record = pending.pop(future)
                line = json.dumps(_record_dict(record), default=str) + "\n"
                data = line.encode("utf-8")
                writer.write(f"{len(data):x}\r\n".encode("latin-1"))
                writer.write(data)
                writer.write(b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _handle_poll(self, writer, record_id: str) -> None:
        record = self._records.get(record_id)
        if record is None:
            await self._send_json(
                writer, 404, {"error": f"unknown query id {record_id!r}"}
            )
            return
        await self._send_json(writer, 200, _record_dict(record))

    async def _handle_trace(self, writer, record_id: str) -> None:
        record = self._records.get(record_id)
        if record is None:
            await self._send_json(
                writer, 404, {"error": f"unknown query id {record_id!r}"}
            )
            return
        if record.trace is None:
            await self._send_json(
                writer,
                404,
                {
                    "error": "no trace recorded",
                    "state": record.state,
                    "tracing": self._trace_requests,
                },
            )
            return
        await self._send(
            writer, 200, record.trace.encode("utf-8"), "text/plain; charset=utf-8"
        )

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _remember(self, record: _Record) -> None:
        self._records[record.id] = record
        while len(self._records) > self._max_records:
            # Evict the oldest *resolved* record; if everything is still
            # open (pathological max_records), evict the oldest outright.
            for record_id, existing in self._records.items():
                if existing.state in (_DONE, _DEGRADED, _FAILED):
                    del self._records[record_id]
                    break
            else:
                self._records.popitem(last=False)

    async def _send_json(
        self,
        writer,
        status: int,
        document: Dict[str, object],
        *,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        body = json.dumps(document, default=str).encode("utf-8")
        await self._send(
            writer, status, body, "application/json", extra_headers=extra_headers
        )

    async def _send(
        self,
        writer,
        status: int,
        body: bytes,
        content_type: str,
        *,
        extra_headers: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self._metrics.incr(f"service.http_{status}")
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers)
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()


def _parse_json_body(body: bytes) -> Dict[str, object]:
    if not body:
        raise _BadRequest(400, "empty body; send a JSON object")
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _BadRequest(400, f"body is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise _BadRequest(400, "body must be a JSON object")
    return document


def _outcome_dict(outcome) -> Dict[str, object]:
    """A QueryOutcome as a JSON-ready dict (constants are str/int/float)."""
    return {
        "boolean": outcome.boolean_answer,
        "answers": [list(row) for row in sorted(outcome.answers, key=repr)],
        "certain": outcome.certain,
        "rounds_exhausted": outcome.rounds_exhausted,
        "relevance_checks": outcome.relevance_checks,
        "rounds_used": outcome.rounds_used,
        "accesses_charged": outcome.accesses_charged,
        "degraded": outcome.degraded,
        "failed_accesses": [
            [method, list(binding)] for method, binding in outcome.failed_accesses
        ],
        "attempts": outcome.attempts,
    }


def _record_dict(record: _Record) -> Dict[str, object]:
    document: Dict[str, object] = {
        "id": record.id,
        "client": record.client,
        "query": record.text,
        "state": record.state,
    }
    if record.outcome is not None:
        document["outcome"] = record.outcome
    if record.error is not None:
        document["error"] = record.error
    return document


# --------------------------------------------------------------------------- #
# Background-thread harness for synchronous callers
# --------------------------------------------------------------------------- #
class ServiceHandle:
    """A started service on a background event-loop thread.

    ``base_url`` is ready for ``urllib`` / ``curl``; ``shutdown`` drains and
    joins.  Use as a context manager for tests and scripts.
    """

    def __init__(self, service: AnsweringService, loop, thread) -> None:
        self._service = service
        self._loop = loop
        self._thread = thread
        self._down = False

    @property
    def service(self) -> AnsweringService:
        """The underlying service (its admission controller, records, …)."""
        return self._service

    @property
    def port(self) -> int:
        """The bound TCP port."""
        return self._service.port

    @property
    def base_url(self) -> str:
        """``http://host:port`` for this service."""
        return f"http://127.0.0.1:{self.port}"

    def drain(self, timeout: float = 30.0) -> None:
        """Stop admitting and wait for in-flight queries (blocking)."""
        asyncio.run_coroutine_threadsafe(
            self._service.aclose(drain=True, timeout=timeout), self._loop
        ).result(timeout + 5.0)

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain (optionally), stop the loop, and join its thread."""
        if self._down:
            return
        self._down = True
        asyncio.run_coroutine_threadsafe(
            self._service.aclose(drain=drain, timeout=timeout), self._loop
        ).result(timeout + 5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()


def serve_in_background(server: QueryServer, **service_kwargs) -> ServiceHandle:
    """Start an :class:`AnsweringService` on a daemon thread; block until bound.

    Keyword arguments go to the :class:`AnsweringService` constructor.  The
    returned handle's :meth:`~ServiceHandle.shutdown` drains and joins the
    loop; as a context manager it does so on exit.
    """
    started = threading.Event()
    holder: Dict[str, object] = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = AnsweringService(server, **service_kwargs)

        async def boot() -> None:
            await service.start()

        loop.run_until_complete(boot())
        holder["service"] = service
        holder["loop"] = loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("service failed to start within 10s")
    return ServiceHandle(holder["service"], holder["loop"], thread)
