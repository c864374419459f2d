"""Self-tests of the planner benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from benchmarks.suite import checks, loadgen, metrics, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


# -- the tail-percentile rule -------------------------------------------------


def test_tail_needs_twenty_values():
    assert metrics.tail([1.0] * 19) is None


def test_tail_keeps_ten_values_beyond_it():
    values = [float(i) for i in range(1, 145)]
    percentile, value, n = metrics.tail(values)
    assert (percentile, n) == (93, 144)
    assert sum(1 for v in values if v > value) >= 10
    assert sum(1 for v in values if v > values[values.index(value) + 1]) < 10
    assert metrics.tail([float(i) for i in range(20)])[:2] == (50, 9.0)


# -- span self time ------------------------------------------------------------


def inner():
    time.sleep(0.02)


def outer():
    time.sleep(0.01)
    inner()
    inner()


def test_self_time_of_hand_built_spans():
    #        target start end thread parent rid info async
    exported = [
        (0, 0, 100, 1, -1, None, None, False),   # A
        (0, 10, 40, 1, 0, None, None, False),    # B in A
        (0, 15, 25, 1, 1, None, None, False),    # C in B
        (0, 50, 60, 1, 0, None, None, False),    # D in A
        (0, 20, 90, 2, -1, None, None, False),   # E, another thread
        (0, 5, 95, 1, -1, None, None, True),     # async: nobody's parent
    ]
    assert spans.self_times(exported) == [60, 20, 10, 10, 70, 90]


def test_recorded_spans_nest_per_thread():
    targets = (
        spans.Target(f"{__name__}:outer", "outer"),
        spans.Target(f"{__name__}:inner", "inner"),
    )
    recorder = spans.Recorder()
    installation = spans.install(recorder, targets)
    try:
        worker = threading.Thread(target=globals()["inner"])
        worker.start()
        globals()["outer"]()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        installation.uninstall()
    exported = recorder.export()
    assert sorted(span[spans.TARGET] for span in exported) == [0, 1, 1, 1]
    selfs = spans.self_times(exported)
    by_thread = {}
    for span, self_ns in zip(exported, selfs):
        by_thread.setdefault(span[spans.THREAD], []).append((span, self_ns))
    main = by_thread[threading.get_ident()]
    (outer_span, outer_self), = [(s, n) for s, n in main if s[spans.TARGET] == 0]
    children = [s for s, _ in main if s[spans.PARENT] >= 0]
    assert len(children) == 2
    child_ns = sum(s[spans.END] - s[spans.START] for s in children)
    assert outer_self == outer_span[spans.END] - outer_span[spans.START] - child_ns
    assert 5e6 <= outer_self < 2e7  # the 10 ms sleep, not the children
    (other, other_self), = [pair for t, pairs in by_thread.items()
                            if t != threading.get_ident() for pair in pairs]
    assert other[spans.PARENT] == -1  # no nesting across threads
    assert other_self == other[spans.END] - other[spans.START]
    summary = spans.summarize(
        exported,
        [(outer_span[spans.START] - 1000, outer_span[spans.END] + 1000,
          ("thread", threading.get_ident()), 0)],
    )
    assert summary["covered_ns"] == outer_span[spans.END] - outer_span[spans.START]
    assert summary["op_ns"] - summary["covered_ns"] == 2000


def test_trace_overhead_compares_traced_with_untraced_ops():
    rounds = ([{"traced": False, "latency_s": 1.0}] * 4
              + [{"traced": True, "latency_s": 1.25}] * 4)
    assert metrics.trace_overhead(rounds) == pytest.approx(0.2)
    # serve-mix: the send-to-answer time counts, not the generator's lag.
    passes = [{"traced": traced, "latency_s": 9.0, "service_s": 0.1}
              for traced in (False, True)]
    assert metrics.trace_overhead(passes) == pytest.approx(0.0)


# -- open-loop timing ----------------------------------------------------------


async def _stalling_server(stall_s: float):
    """A fake planning server: answers requests one at a time, and takes
    ``stall_s`` over the first one."""
    lock = asyncio.Lock()
    first = []

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            message = json.loads(line)
            async with lock:
                if not first:
                    first.append(True)
                    await asyncio.sleep(stall_s)
                if message.get("op") == "drain":
                    reply = {"op": "drain"}
                else:
                    reply = {"request_id": message["request_id"], "status": "ok"}
                writer.write((json.dumps(reply) + "\n").encode())
                await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_latency_is_timed_from_when_a_request_was_due():
    async def scenario():
        server = await _stalling_server(0.3)
        port = server.sockets[0].getsockname()[1]
        schedule = [(0.0, {"request_id": "a"}), (0.1, {"request_id": "b"}),
                    (0.2, {"request_id": "c"}), (0.5, {"request_id": "d"})]
        loop = asyncio.get_running_loop()
        # The generator itself stalls 0.2 s just before "d" is due.
        loop.call_later(0.45, time.sleep, 0.2)
        try:
            return await loadgen.run_load("127.0.0.1", port, schedule, timeout_s=5)
        finally:
            server.close()
            await server.wait_closed()

    records = {r["payload"]["request_id"]: r for r in asyncio.run(scenario())["requests"]}
    # a..c queue behind the stall: each waits until ~0.3 s after start.
    assert records["a"]["latency_s"] >= 0.28
    assert records["b"]["latency_s"] >= 0.18
    assert records["c"]["latency_s"] >= 0.08
    assert records["c"]["lag_s"] < 0.05
    # d was sent ~0.15 s late: its service time is short, but its
    # latency counts the generator's delay too.
    assert records["d"]["lag_s"] >= 0.1
    assert records["d"]["latency_s"] >= records["d"]["service_s"] + 0.1


# -- seeded streams ------------------------------------------------------------


def test_serve_schedule_is_seeded():
    same = json.dumps(workloads.serve_schedule(3, 24))
    assert same == json.dumps(workloads.serve_schedule(3, 24))
    assert same != json.dumps(workloads.serve_schedule(4, 24))
    schedule = workloads.serve_schedule(3, 24)
    fresh = [p for _, p in schedule if p not in [
        {"op": "plan", "request_id": p["request_id"], **spec}
        for spec in workloads.HOT_SET
    ]]
    assert len(fresh) == 8
    assert len({workloads.spec_key(p) for p in fresh}) == 8  # without replacement
    assert sorted(p["model"] for p in fresh) == sorted(workloads.FRESH_MODELS * 2)


def test_churn_stream_is_seeded():
    same = json.dumps(workloads.churn_events(3, 0))
    assert same == json.dumps(workloads.churn_events(3, 0))
    assert same != json.dumps(workloads.churn_events(4, 0))
    assert same != json.dumps(workloads.churn_events(3, 1))
    present = {"a", "b"}
    for event in workloads.churn_events(3, 0):
        if event["kind"] == "arrive":
            present.add(event["tenant"]["name"])
        else:
            present.remove(event["name"])
        assert 3 <= len(present) <= 5


# -- correctness gates -----------------------------------------------------------


def test_gates_fail_wrong_plans():
    expected = checks.load_expected()
    entry = expected["zoo"]["lstm"]
    good = {"kind": "lstm", **entry}
    assert checks.op_failure("zoo", good, expected) is None
    assert "digest" in checks.op_failure("zoo", {**good, "digest": "0" * 16}, expected)
    slower = {**good, "iteration_time": entry["iteration_time"] * (1 + 1e-15)}
    assert "iteration time" in checks.op_failure("zoo", slower, expected)
    ladder = {"kind": "vgg16/ladder", **expected["portfolio"]["vgg16/ladder"]}
    assert checks.op_failure("portfolio", {**ladder, "reference_time": 0.0}, expected)
    mix = {"kind": "mix:lstm-pair", **expected["fleet"]["lstm-pair"],
           "aggregate": 1.0, "selfish": 2.0}
    assert "selfish" in checks.op_failure("fleet-churn", mix, expected)
    assert checks.run_failures(
        "serve-mix", {"lag_p99_ms": checks.MAX_LOADGEN_LAG_P99_MS + 1}
    )


# -- smoke runs ------------------------------------------------------------------


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", spans.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(
        metrics.END_TO_END
    )
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["serve-mix", "fleet-churn"])
def test_smoke_trace_emits_every_per_layer_metric(workload):
    result = run_bench(workload, 1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(
        metrics.PER_LAYER
    )


def test_benchmark_json_declares_the_printed_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        metrics.PER_LAYER
    )
    assert [w["name"] for w in declared["workloads"]] == list(spans.WORKLOADS)
