"""The serve-mix workload: ``repro serve`` as the child, driven open loop.

The server is the planning process: its start-up to the "listening on"
banner is the workload's set-up.  After the banner the load generator
warms the hot set (one fresh plan per hot job, not timed), replays the
seeded schedule and drains the server.  The traced run replays the
schedule twice: against a plain server, then against one started
through ``serve_traced.py``, whose spans are read back after it exits.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import sys
from typing import List, Optional, Sequence

from benchmarks.suite import loadgen, spans, workloads

SERVE_ARGS = ["serve", "--port", "0", "--workers", "2", "--jobs", "1",
              "--queue-limit", "64"]
BANNER = "listening on"

SUBMIT = "repro.service.server:PlanningServer.submit"
BUILD = "repro.service.api:PlanRequest.build_job"
PLAN = "repro.service.core:PlanningCore.plan_request"


def server_argv(spans_out: Optional[str]) -> List[str]:
    if spans_out is None:
        return [sys.executable, "-m", "repro", *SERVE_ARGS]
    return [sys.executable, "-m", "benchmarks.suite.serve_traced",
            "--spans-out", spans_out, *SERVE_ARGS]


def banner_port(line: str) -> int:
    return int(line.split(BANNER, 1)[1].split()[0].rsplit(":", 1)[1])


def as_op(payload: dict, response: Optional[dict]) -> dict:
    """A request and its response in the benchmark's common op form."""
    op = {
        "kind": "dropped",
        "key": workloads.spec_key(payload),
        "rid": payload["request_id"],
    }
    if response is None:
        op["error"] = "dropped: no response"
        return op
    op["kind"] = response.get("source") or response.get("status", "error")
    if response.get("status") != "ok":
        op["error"] = f"{response.get('status')}: {response.get('reason')}"
        return op
    op.update(
        digest=response["strategy_digest"],
        iteration_time=response["iteration_time"],
        degraded=bool(response.get("degraded")),
    )
    return op


def drive(port: int, seed: int, seconds: float, traced: bool) -> dict:
    """Warm, load and drain the server listening on ``port``; ``traced``
    tells whether that server runs under the span wrappers."""
    schedule = workloads.serve_schedule(seed, seconds)
    data = asyncio.run(
        loadgen.run_load("127.0.0.1", port, schedule, workloads.HOT_SET)
    )
    lags = [record["lag_s"] for record in data["requests"]]
    return {
        "ops": [
            {**as_op(record["payload"], record["response"]), "traced": traced,
             "latency_s": record["latency_s"], "service_s": record["service_s"]}
            for record in data["requests"]
        ],
        "warm_ops": [as_op(record["payload"], record["response"])
                     for record in data["warm"]],
        "window_s": data["window_s"],
        "lag_p99_ms": statistics.quantiles(lags, n=100)[98] * 1e3
        if len(lags) >= 2 else max(lags, default=0.0) * 1e3,
    }


def load_spans(path: str) -> tuple:
    with open(path, encoding="utf-8") as handle:
        dump = json.load(handle)
    os.remove(path)
    return [tuple(span) for span in dump["spans"]], dump["unresolved"]


def server_summary(exported: Sequence[tuple], unresolved, ops: Sequence[dict]) -> dict:
    """Span summary of the measured window inside the server.

    A request's server-side op is its ``PlanningServer.submit`` span;
    the time from submit to the request's first ``build_job`` (when a
    worker dequeued it) is its queue wait.
    """
    index = {target.name: i for i, target in enumerate(spans.TARGETS)}
    window = {op["rid"] for op in ops}
    dequeued = {}
    for span in exported:
        if span[spans.TARGET] == index[BUILD] and span[spans.PARENT] < 0:
            rid = span[spans.RID]
            dequeued[rid] = min(dequeued.get(rid, span[spans.START]), span[spans.START])
    submits = [
        span for span in exported
        if span[spans.TARGET] == index[SUBMIT] and span[spans.RID] in window
    ]
    server_ops = [
        (s[spans.START], s[spans.END], ("rid", s[spans.RID]),
         dequeued.get(s[spans.RID], s[spans.START]) - s[spans.START])
        for s in submits
    ]
    since = min((s[spans.START] for s in submits), default=0)
    summary = spans.summarize(exported, server_ops, since_ns=since)
    summary["unresolved"] = unresolved
    summary["submits"] = {
        s[spans.RID]: (s[spans.END] - s[spans.START]) for s in submits
    }
    summary["queue_waits"] = {key[1]: wait for _, _, key, wait in server_ops}
    return summary


def service_lines(summary: dict, ops: Sequence[dict], window_s: float) -> List[str]:
    """The service layer's printed metrics for the traced run."""
    targets = summary["targets"]
    count = len(ops) or 1

    def self_ms(*names: str) -> float:
        return sum(targets.get(name, {}).get("self_ns", 0) for name in names) / 1e6

    waits = sorted(summary["queue_waits"].values())
    transport = [
        op["service_s"] * 1e3 - summary["submits"][op["rid"]] / 1e6
        for op in ops if op["rid"] in summary["submits"]
    ]
    plan_row = targets.get(PLAN, {"calls": 0, "total_ns": 0})
    hits = sum(1 for op in ops if op["kind"] == "cache")
    return [
        f"service: queue_wait_ms p50 {statistics.median(waits) / 1e6 if waits else 0:.2f}"
        f" max {waits[-1] / 1e6 if waits else 0:.1f}, "
        f"decode_ms/op {self_ms('repro.service.api:decode_message', 'repro.service.api:PlanRequest.from_dict') / count:.3f}, "
        f"encode_ms/op {self_ms('repro.service.api:PlanResponse.to_dict', 'repro.service.api:encode_message') / count:.3f}",
        f"service: cache_hit_ratio {hits}/{len(ops)}, plan_ms "
        f"{plan_row['total_ns'] / 1e6 / plan_row['calls'] if plan_row['calls'] else 0:.1f} "
        f"({plan_row['calls']} fresh plans), planner_busy_ratio "
        f"{plan_row['total_ns'] / 1e9 / window_s if window_s else 0:.3f}, transport_ms p50 "
        f"{statistics.median(transport) if transport else 0:.2f}",
    ]
