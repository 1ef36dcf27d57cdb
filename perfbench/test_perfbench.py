"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import closed_loop  # noqa: E402
import http_serve  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from spans import SpanRecorder, entry_points, layer_metrics  # noqa: E402

WORKLOADS = run.WORKLOADS


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _command(workload: str, trace: int):
    return [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        "1",
        "--seconds",
        "0.5",
        "--trace",
        str(trace),
        "--tiny",
    ]


def _run_command(workload: str, trace: int):
    return subprocess.run(
        _command(workload, trace), cwd=ROOT, capture_output=True, text=True, timeout=180
    )


def _session_members(session: int):
    """Processes of a session still in the process table (zombies too)."""
    members = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[3]) == session:
            members.append(int(pid))
    return members


def test_catalog_matches_benchmark_json():
    benchmark = _benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == report.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_and_emits_every_metric(workload, trace):
    completed = _run_command(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark()[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the process table in /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_http_serve_leaves_no_process_behind(trace):
    # Its own session, so every process the command starts can be found.
    process = subprocess.Popen(
        _command("http-serve", trace),
        cwd=ROOT,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    assert process.wait(timeout=180) == 0
    assert _session_members(process.pid) == []


def test_corrupted_closed_loop_reference_fails_the_command(monkeypatch, capsys):
    setup = closed_loop.Containment.setup

    def corrupted(self):
        setup(self)
        self.reference = False

    monkeypatch.setattr(closed_loop.Containment, "setup", corrupted)
    code = run.main(["--workload", "containment", "--seconds", "0.2", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_corrupted_answer_reference_fails_the_command(monkeypatch, capsys):
    setup = closed_loop.BankCold.setup

    def corrupted(self):
        setup(self)
        self.reference = tuple(frozenset() for _ in self.reference)

    monkeypatch.setattr(closed_loop.BankCold, "setup", corrupted)
    code = run.main(["--workload", "bank-cold", "--seconds", "0.2", "--tiny"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_corrupted_http_reference_fails_the_command(monkeypatch, capsys):
    reference = http_serve._reference

    def corrupted(scenario, texts):
        return [(not boolean, certain) for boolean, certain in reference(scenario, texts)]

    monkeypatch.setattr(http_serve, "_reference", corrupted)
    code = run.main(["--workload", "http-serve", "--seconds", "0.3", "--tiny"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), encoding="utf-8") as source:
                (tmp_path / "perfbench" / name).write_text(source.read())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bank-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode not in (0, 1)
    assert completed.stdout == ""


@pytest.mark.parametrize("workload", ["bank-cold", "fanout-io", "containment"])
def test_traced_run_restores_every_wrapped_name(workload, tmp_path):
    originals = [
        (owner, attribute, owner.__dict__[attribute])
        for owner, attribute, _name, _generator in entry_points()
    ]
    result = closed_loop.run(workload, 0, 0.1, True, str(tmp_path), True)
    assert result.per_layer and result.failed == 0
    for owner, attribute, original in originals:
        assert owner.__dict__[attribute] is original, f"{owner}.{attribute} left wrapped"


def test_recorder_restores_names_when_the_op_raises():
    from repro.core import containment

    original = containment.__dict__["decide_containment"]
    recorder = SpanRecorder()
    with pytest.raises(ZeroDivisionError):
        with recorder:
            assert containment.decide_containment is not original
            recorder.root(lambda: 1 / 0)
    assert containment.__dict__["decide_containment"] is original


def test_self_time_subtracts_children_and_worker_spans_join_their_batch():
    recorder = SpanRecorder()

    def respond():
        time.sleep(0.02)

    def batch():
        worker = threading.Thread(target=lambda: recorder.call("sources.respond", respond, (), {}))
        worker.start()
        worker.join()
        recorder.call("data.copy", time.sleep, (0.02,), {})

    recorder.root(lambda: recorder.call("executor.execute_batch", batch, (), {}))
    totals = recorder.totals()
    calls, wall, self_wall, self_busy, _items = totals["executor.execute_batch"]
    assert calls == 1
    # The worker's respond is not a same-thread child: only data.copy is.
    assert self_wall == pytest.approx(wall - totals["data.copy"][1], abs=1e-6)
    assert self_wall >= 0.015 and self_busy < self_wall
    batch_id = next(span[0] for span in recorder.sample if span[2] == "executor.execute_batch")
    respond_span = next(span for span in recorder.sample if span[2] == "sources.respond")
    assert respond_span[1] == batch_id
    metrics = layer_metrics(totals, recorder.kept, {}, 1)
    assert metrics["executor.overlap"] == pytest.approx(
        totals["sources.respond"][1] / wall
    )
    assert metrics["bench.unattributed_s"] < 0.005
