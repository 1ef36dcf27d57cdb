"""The http-serve workload: an open-loop generator against the HTTP service.

The service — an ``AnsweringService`` with its defaults over a
``QueryServer`` on ``multi_query_scenario(120, 10, 4)`` — runs in a child
process (this file run as a script), so the service's peak memory and CPU
are its own.  The child is the only process the benchmark starts: it takes
commands over a socket pair, and it exits when the parent stops it or the
socket closes because the parent is gone.  Set-up
saturates its configuration (an exhaustive answer retrieves every
accessible fact), so steady-state requests make no accesses and no fresh
searches; with 120 distinct queries and ``max_stores=64`` verdict stores,
about half the requests rebuild a store and its certainty fixpoint.

The generator runs in the parent on one asyncio thread with at most
``nproc`` connections open.  Each request is one ``POST /queries?wait=1``
whose query text is drawn uniformly from the 120 texts; it is due at a
fixed spacing and timed from its due time, so a stall delays every later
request's clock too.  Phases of an untraced run:

1. the nominal rate (:data:`NOMINAL_RATE`, about a quarter of the knee),
   for at least 1000 requests at the default run length;
2. one caller that sends the next request as soon as the last returns —
   the rate one client gets, as on the closed-loop workloads;
3. saturation: ``nproc`` such callers — the completion rate the service
   sustains (printed, not gated);
4. a fixed ladder of rates, stopping at the first that misses the latency
   limit or shows a growing backlog.

A traced run sends the nominal rate twice, untraced and then with the
span recorder installed in the child, for the trace overhead and the
per-layer metrics.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import socket
import statistics
import subprocess
import sys
import time
from multiprocessing.connection import Connection
from typing import Dict, List, Optional, Sequence

from report import HostSpeed, Report, peak_rss_mb, percentile, tail_line
from spans import SpanRecorder, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

NOMINAL_RATE = 125.0
LADDER = (200.0, 300.0, 400.0, 500.0, 600.0, 700.0)
#: A ladder step passes when its p90 latency stays within this limit
#: (about 10x the unloaded median) and its backlog does not grow.  Steps
#: hold 100-350 requests, so p90 is the highest percentile with ten beyond.
LATENCY_LIMIT_MS = 30.0
LADDER_PERCENTILE = 0.90
#: Shares of ``--seconds`` for the nominal, one-caller, saturation and
#: ladder phases.
NOMINAL_SHARE, ONE_CALLER_SHARE, SATURATION_SHARE, LADDER_SHARE = 0.50, 0.30, 0.05, 0.15
CHILD_TIMEOUT_S = 60.0
#: Set-ups per run, each with its own service child; the median is
#: reported.  A single set-up's time spread by a third between runs.
SETUP_REPEATS = 3


def _scenario(seed: int, tiny: bool):
    from repro.workloads import multi_query_scenario

    if tiny:
        return multi_query_scenario(12, 6, 2, seed=seed)
    return multi_query_scenario(120, 10, 4, seed=seed)


def query_text(query) -> str:
    """The wire text of a scenario query (what a client would send)."""
    return ", ".join(repr(atom) for atom in query.atoms)


# ---------------------------------------------------------------------- #
# The service child
# ---------------------------------------------------------------------- #
def service_main(conn: Connection, seed: int, tiny: bool) -> None:
    """Child process body: serve until told to stop, tracing on request.

    A closed socket (the parent is gone) stops the child like ``stop``.
    """
    from repro.runtime import QueryServer, serve_in_background

    scenario = _scenario(seed, tiny)
    server = QueryServer(scenario.mediator())
    server.answer(list(scenario.queries), strategy="exhaustive")
    handle = serve_in_background(server)
    recorder: Optional[SpanRecorder] = None
    before: Dict[str, int] = {}
    try:
        conn.send(("ready", handle.port))
        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                break
            if command == "trace-on":
                before = dict(server.metrics.snapshot()["counters"])
                recorder = SpanRecorder()
                recorder.install()
                conn.send(("tracing",))
            elif command == "trace-off" and recorder is not None:
                recorder.restore()
                after = server.metrics.snapshot()["counters"]
                counters = {key: value - before.get(key, 0) for key, value in after.items()}
                conn.send(("spans", recorder.totals(), recorder.kept, counters, recorder.sample))
                recorder = None
            else:
                break
    finally:
        if recorder is not None:
            recorder.restore()
        handle.shutdown()
        server.close()
        try:
            conn.send(("stopped", peak_rss_mb(), server.metrics.snapshot()["counters"]))
        except OSError:
            pass
        conn.close()


class _Child:
    """The service process and its end of the command socket.

    Started with :mod:`subprocess`, not :mod:`multiprocessing`: a
    ``multiprocessing`` child also starts a resource-tracker process that
    outlives the benchmark.
    """

    def __init__(self, seed: int, tiny: bool) -> None:
        ours, theirs = socket.socketpair()
        with ours, theirs:
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
            self.process = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), str(theirs.fileno()), str(seed)]
                + (["--tiny"] if tiny else []),
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                env=env,
            )
            self.conn = Connection(ours.detach())
        self.peak_rss_mb: Optional[float] = None
        self.counters: Dict[str, int] = {}

    def receive(self, timeout: float = CHILD_TIMEOUT_S):
        if not self.conn.poll(timeout):
            raise RuntimeError("the service child did not answer in time")
        return self.conn.recv()

    def ask(self, command: str):
        self.conn.send(command)
        return self.receive()

    def stop(self) -> None:
        """Stop the child and wait until it has ended, on every path."""
        try:
            self.conn.send("stop")
            message = self.receive(30.0)
            if message[0] == "stopped":
                self.peak_rss_mb, self.counters = message[1], message[2]
        except (OSError, EOFError, RuntimeError):
            pass
        finally:
            self.conn.close()
            try:
                self.process.wait(30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# ---------------------------------------------------------------------- #
# The generator
# ---------------------------------------------------------------------- #
class Phase:
    """One load phase: latencies (ms, in send order) and outcomes."""

    def __init__(self, label: str, rate: Optional[float]) -> None:
        self.label = label
        self.rate = rate
        self.latency_ms: List[float] = []
        self.late_ms: List[float] = []
        self.ok: List[bool] = []
        self.elapsed = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for ok in self.ok if not ok)

    def sorted_ms(self) -> List[float]:
        return sorted(self.latency_ms)

    def backlog(self) -> bool:
        """Whether the last third of the phase ran slower than the first."""
        third = len(self.latency_ms) // 3
        if third < 5:
            return False
        first = statistics.median(self.latency_ms[:third])
        last = statistics.median(self.latency_ms[-third:])
        return last > 2.0 * first

    def passes(self) -> bool:
        return (
            bool(self.latency_ms)
            and self.failed == 0
            and percentile(self.sorted_ms(), LADDER_PERCENTILE) <= LATENCY_LIMIT_MS
            and not self.backlog()
        )

    def line(self) -> str:
        ms = self.sorted_ms()
        sent = len(self.ok)
        rate = f"{self.rate:g}/s" if self.rate else "closed"
        return (
            f"{self.label} {rate}: sent {sent}, succeeded {sent - self.failed}, "
            f"failed {self.failed}, p50 {statistics.median(ms):.3f} ms, "
            f"p{100 * LADDER_PERCENTILE:g} {percentile(ms, LADDER_PERCENTILE):.3f} ms, "
            f"completed {sent / self.elapsed:.1f}/s, "
            f"late p50 {statistics.median(self.late_ms or [0.0]):.3f} ms, "
            f"backlog {self.backlog()}"
        )


class Generator:
    """Sends seeded query draws to the service and checks every reply."""

    def __init__(self, port: int, texts: Sequence[str], reference, seed: int) -> None:
        self.port = port
        self.bodies = [json.dumps({"query": text}).encode("utf-8") for text in texts]
        self.reference = reference
        self.random = random.Random(seed)
        self.slots = os.cpu_count() or 1

    def draw(self) -> int:
        return self.random.randrange(len(self.bodies))

    async def request(self, index: int) -> bool:
        body = self.bodies[index]
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            writer.write(
                b"POST /queries?wait=1 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
                + body
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
        head, _, payload = raw.partition(b"\r\n\r\n")
        if int(head.split(b" ", 2)[1]) != 200:
            return False
        record = json.loads(payload)["queries"][0]
        outcome = record.get("outcome") or {}
        return record.get("state") == "done" and (
            outcome.get("boolean"),
            outcome.get("certain"),
        ) == self.reference[index]

    async def _timed(self, index: int, due: float, slots):
        """``(latency from due time in ms, reply matched its reference)``."""
        async with slots:
            try:
                ok = await self.request(index)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                print(f"request failed: {type(exc).__name__}: {exc}")
                ok = False
        return 1e3 * (time.perf_counter() - due), ok

    @staticmethod
    def _record(phase: Phase, outcomes) -> None:
        for latency, ok in outcomes:
            phase.latency_ms.append(latency)
            phase.ok.append(ok)

    async def open_loop(self, label: str, rate: float, count: int) -> Phase:
        """``count`` requests due every ``1/rate`` seconds, timed from due time."""
        phase = Phase(label, rate)
        slots = asyncio.Semaphore(self.slots)
        tasks = []
        start = time.perf_counter()
        for position in range(count):
            due = start + position / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_ms.append(1e3 * max(0.0, time.perf_counter() - due))
            tasks.append(asyncio.ensure_future(self._timed(self.draw(), due, slots)))
        self._record(phase, await asyncio.gather(*tasks))
        phase.elapsed = time.perf_counter() - start
        return phase

    async def closed_loop(self, label: str, seconds: float, callers: int) -> Phase:
        """``callers`` callers, each sending as soon as its last reply came."""
        phase = Phase(label, None)
        start = time.perf_counter()
        ends = start + seconds
        slots = asyncio.Semaphore(callers)

        async def caller() -> None:
            while time.perf_counter() < ends:
                self._record(phase, [await self._timed(self.draw(), time.perf_counter(), slots)])

        await asyncio.gather(*(caller() for _ in range(callers)))
        phase.elapsed = time.perf_counter() - start
        return phase

    async def warm_up(self) -> Phase:
        """One sequential pass over every text (fills the service's caches)."""
        phase = Phase("warm-up", None)
        start = time.perf_counter()
        slots = asyncio.Semaphore(1)
        for index in range(len(self.bodies)):
            self._record(phase, [await self._timed(index, time.perf_counter(), slots)])
        phase.elapsed = time.perf_counter() - start
        return phase


def _reference(scenario, texts: Sequence[str]):
    """The in-process outcome of each query text: ``(boolean, certain)``."""
    from repro.queries import parse_query
    from repro.runtime import QueryServer

    queries = [parse_query(scenario.schema, text) for text in texts]
    with QueryServer(scenario.mediator()) as server:
        result = server.answer(queries, strategy="exhaustive")
    return [(outcome.boolean_answer, outcome.certain) for outcome in result.outcomes]


def _set_up(seed: int, tiny: bool):
    """Start a service child, compute the references, warm the service up.

    Returns ``(child, generator, warm-up phase)``; the caller stops the child.
    """
    child = _Child(seed, tiny)
    try:
        scenario = _scenario(seed, tiny)
        texts = [query_text(query) for query in scenario.queries]
        reference = _reference(scenario, texts)
        message = child.receive()
        generator = Generator(message[1], texts, reference, seed)
        warm = asyncio.run(generator.warm_up())
    except BaseException:
        child.stop()
        raise
    return child, generator, warm


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> Report:
    """Set up the service child, drive the phases, and report.

    Set-up runs :data:`SETUP_REPEATS` times; each child but the last is
    stopped before the next starts.  Only set-up is normalized to the
    reference host.  Latencies and rates are reported as measured: the
    request path — two processes, sockets, the event loops — does not slow
    down with the host the way the calibration kernel does; normalizing it
    by an earlier kernel of string keys and sorting widened the run-to-run
    spread of the median latency from 7% to 37%.
    """
    host = HostSpeed()
    for _ in range(HostSpeed.RECENT):
        host.sample()
    setup_s: List[float] = []
    warms: List[Phase] = []
    phases: List[Phase] = []
    child: Optional[_Child] = None
    try:
        for _ in range(SETUP_REPEATS):
            if child is not None:
                child.stop()
                child = None
            started = time.perf_counter()
            cpu_started = time.process_time()
            child, generator, warm = _set_up(seed, tiny)
            wall = time.perf_counter() - started
            busy = time.process_time() - cpu_started
            # Normalized by the latest samples, which end with the ones taken
            # just before and just after this set-up.
            host.sample()
            setup_s.append(host.normalize(wall, busy))
            warms.append(warm)
        if trace:
            report = _traced(child, generator, seconds, warms, seed)
        else:
            phases = asyncio.run(_untraced_phases(generator, seconds))
    finally:
        if child is not None:
            child.stop()
    if trace:
        return report
    nominal, one_caller, ladder = phases[0], phases[1], phases[3:]
    everything = warms + phases
    report = Report(
        "http-serve",
        seed,
        sum(len(phase.ok) for phase in everything),
        sum(phase.failed for phase in everything),
    )
    passing = [phase.rate for phase in ladder if phase.passes()]
    max_rate = max(passing) if passing and ladder[0].passes() else 0.0
    report.lines.append(f"queries = {len(generator.bodies)}, connections <= {generator.slots}")
    report.lines.append(f"setup repeats = {len(setup_s)}")
    report.lines.append(f"unloaded p50 = {statistics.median(warms[-1].latency_ms):.3f} ms")
    report.lines.extend(phase.line() for phase in everything)
    report.lines.append(
        f"max_rate_qps = {max_rate:g} req/s "
        f"(p{100 * LADDER_PERCENTILE:g} <= {LATENCY_LIMIT_MS:g} ms, no backlog)"
    )
    counters = child.counters
    report.lines.append(
        "service counters: "
        + ", ".join(
            f"{key} {counters.get(key, 0)}"
            for key in ("service.batches", "service.batched_queries", "oracle.fresh_searches")
        )
    )
    nominal_ms = nominal.sorted_ms()
    report.lines.append(tail_line(nominal_ms))
    report.end_to_end = {
        "setup_s": statistics.median(setup_s),
        "op_ms": statistics.median(nominal_ms),
        "rate_per_s": len(one_caller.ok) / one_caller.elapsed,
        "peak_rss_mb": child.peak_rss_mb or 0.0,
    }
    return report


async def _untraced_phases(generator: Generator, seconds: float) -> List[Phase]:
    nominal_count = max(10, math.ceil(NOMINAL_RATE * NOMINAL_SHARE * seconds))
    phases = [await generator.open_loop("nominal", NOMINAL_RATE, nominal_count)]
    # Gated: one caller.  Printed only: saturation, whose rate depends on
    # both cores being free and spread by up to 23% over ten runs.
    phases.append(await generator.closed_loop("one caller", ONE_CALLER_SHARE * seconds, 1))
    phases.append(
        await generator.closed_loop("saturation", SATURATION_SHARE * seconds, generator.slots)
    )
    step_s = LADDER_SHARE * seconds / len(LADDER)
    for rate in LADDER:
        phase = await generator.open_loop("ladder", rate, max(10, math.ceil(rate * step_s)))
        phases.append(phase)
        if not phase.passes():
            break
    return phases


def _traced(
    child: _Child, generator: Generator, seconds: float, warms: List[Phase], seed: int
) -> Report:
    count = max(10, math.ceil(NOMINAL_RATE * 0.45 * seconds))
    plain = asyncio.run(generator.open_loop("untraced", NOMINAL_RATE, count))
    child.ask("trace-on")
    traced = asyncio.run(generator.open_loop("traced", NOMINAL_RATE, count))
    _tag, totals, kept, counters, sample = child.ask("trace-off")
    phases = (*warms, plain, traced)
    report = Report(
        "http-serve",
        seed,
        sum(len(phase.ok) for phase in phases),
        sum(phase.failed for phase in phases),
    )
    report.lines.extend(phase.line() for phase in phases)
    report.per_layer = layer_metrics(
        totals, kept, counters, len(traced.ok), client_latency_ms=traced.latency_ms
    )
    report.per_layer["bench.unattributed_s"] = 0.0
    report.per_layer["bench.trace_overhead"] = statistics.median(
        traced.latency_ms
    ) / statistics.median(plain.latency_ms)
    report.per_layer["bench.generator_late_ms"] = percentile(sorted(traced.late_ms), 0.99)
    report.spans = (totals, sample)
    return report


if __name__ == "__main__":
    # The service child: ``http_serve.py <socket fd> <seed> [--tiny]``.
    service_main(Connection(int(sys.argv[1])), int(sys.argv[2]), "--tiny" in sys.argv[3:])
