#!/usr/bin/env python
"""Deterministic load + chaos harness for ``repro serve``.

Spawns the planning server as a subprocess, replays a seeded request
mix against it (same seed = same models, deadlines, chaos injections,
byte for byte), and demands the service's core guarantee: **zero
dropped requests** — every admitted or refused request gets exactly one
response, each either a fresh plan, an exact cache hit, an explicitly
``degraded`` stale/heuristic plan, or a one-line refusal.

The mix exercises all three failure injections at once:

* worker kills   (``--kill-rate``: evaluator dies, server retries)
* slow evaluators (``--slow-rate``: evaluation stalls, deadlines bite)
* deadline pressure (``--tight-rate``: a slice of requests carries a
  deadline far below planning cost, forcing the degradation ladder)

It then spot-checks **bit-identity**: for a sample of non-degraded
responses, always including those whose request sets a ratio ladder or
error budget, it re-runs the planner in-process on the same inputs and
compares strategy digest, per-tensor options, and iteration time —
the served plan must be exactly the plan ``repro plan`` would print.

Results (rps, p50/p99 latency, cache hit rate, degraded-response rate,
breaker/chaos accounting) go to ``BENCH_service.json``.

Examples::

    python scripts/service_bench.py                       # full run (200)
    python scripts/service_bench.py --requests 60 --sigterm
    python scripts/service_bench.py --kill-rate 0 --slow-rate 0  # clean
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.options import DEFAULT_RATIO_LADDER  # noqa: E402
from repro.service.api import PlanRequest  # noqa: E402
from repro.service.core import PlanningCore  # noqa: E402

#: Request keys that are planner knobs beyond the job itself.
KNOBS = ("ratios", "error_budget")

#: The job pool the seeded mix draws from: small enough to plan in
#: fractions of a second, varied enough to exercise the cache's exact
#: and family indices.  The laddered lstm 2x2 entry is the twin of the
#: fixed one before it and plans differently, so an exact-cache key
#: that ignored the knobs would serve it the wrong plan.
JOB_POOL = [
    {"model": "lstm", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 4},
    {"model": "lstm", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 2},
    {"model": "lstm", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 2,
     "ratios": list(DEFAULT_RATIO_LADDER)},
    {"model": "lstm", "gc": "dgc", "ratio": 0.05, "machines": 2, "gpus": 4},
    {"model": "lstm", "gc": "randomk", "ratio": 0.01, "machines": 2, "gpus": 4},
    {"model": "lstm", "gc": "efsignsgd", "machines": 2, "gpus": 4},
    {"model": "vgg16", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 4},
    {"model": "vgg16", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 2},
    {"model": "vgg16", "gc": "efsignsgd", "machines": 2, "gpus": 4},
    {"model": "resnet101", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 4},
    {"model": "resnet101", "gc": "randomk", "ratio": 0.05, "machines": 2,
     "gpus": 2},
]


def build_mix(args: argparse.Namespace) -> list:
    """The seeded request mix: (payload dict) per request, deterministic."""
    rng = random.Random(args.seed)
    requests = []
    for index in range(args.requests):
        payload = dict(rng.choice(JOB_POOL))
        payload["op"] = "plan"
        payload["request_id"] = f"req-{args.seed}-{index:04d}"
        if rng.random() < args.tight_rate:
            payload["deadline_s"] = args.tight_deadline
        else:
            payload["deadline_s"] = args.deadline
        requests.append(payload)
    return requests


def percentile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


class Connection:
    """One JSON-lines connection with request_id-matched responses."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None
        self.pending = {}
        self.ops = None
        self._reader_task = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        self.ops = asyncio.Queue()
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            message = json.loads(line)
            if "op" in message:
                self.ops.put_nowait(message)
                continue
            future = self.pending.pop(message.get("request_id", ""), None)
            if future is not None and not future.done():
                future.set_result(message)

    async def request(self, payload: dict) -> dict:
        future = asyncio.get_running_loop().create_future()
        self.pending[payload["request_id"]] = future
        self.writer.write((json.dumps(payload) + "\n").encode())
        await self.writer.drain()
        return await future

    async def op(self, name: str) -> dict:
        self.writer.write((json.dumps({"op": name}) + "\n").encode())
        await self.writer.drain()
        return await self.ops.get()

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()


def spawn_server(args: argparse.Namespace):
    """Start ``repro serve`` and parse the bound port from its banner."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--workers", str(args.workers),
        "--queue-limit", str(args.queue_limit),
        "--deadline", str(args.deadline),
        "--breaker-threshold", str(args.breaker_threshold),
        "--breaker-cooldown", str(args.breaker_cooldown),
        "--retries", "2",
        "--retry-backoff", "0.05",
        "--chaos-seed", str(args.seed),
        "--chaos-kill-rate", str(args.kill_rate),
        "--chaos-slow-rate", str(args.slow_rate),
        "--chaos-slow-seconds", str(args.slow_seconds),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    process = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=str(REPO),
    )
    deadline = time.monotonic() + 30
    banner = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                "server exited before listening:\n" + "".join(banner)
            )
        banner.append(line)
        if "listening on" in line:
            port = int(line.split("listening on", 1)[1].split()[0]
                       .rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise RuntimeError("server did not come up in 30s:\n" + "".join(banner))


async def run_load(args: argparse.Namespace, port: int, mix: list):
    connections = [Connection("127.0.0.1", port) for _ in range(args.conns)]
    for connection in connections:
        await connection.connect()
    semaphore = asyncio.Semaphore(args.inflight)
    results = [None] * len(mix)
    latencies = [None] * len(mix)

    async def one(index: int, payload: dict) -> None:
        async with semaphore:
            started = time.perf_counter()
            try:
                response = await asyncio.wait_for(
                    connections[index % len(connections)].request(payload),
                    timeout=args.client_timeout,
                )
            except asyncio.TimeoutError:
                response = None  # a DROP — the bench's failure condition
            latencies[index] = time.perf_counter() - started
            results[index] = response

    started = time.perf_counter()
    await asyncio.gather(*(one(i, p) for i, p in enumerate(mix)))
    wall = time.perf_counter() - started
    stats = await connections[0].op("stats")
    health = await connections[0].op("health")
    return connections, results, latencies, wall, stats, health


def verify_bit_identity(results: list, mix: list, sample: int) -> dict:
    """Re-plan non-degraded responses in-process and compare.

    Checks the first ``sample`` distinct request specs plus every
    distinct spec that sets a planner knob (:data:`KNOBS`), each
    re-planned through the same ``PlanningCore.plan_request`` call the
    server makes.
    """
    by_spec = {}
    for payload, response in zip(mix, results):
        if not response or response.get("status") != "ok":
            continue
        if response.get("degraded") or response.get("source") not in (
            "fresh", "cache"
        ):
            continue
        spec = {
            k: v for k, v in payload.items()
            if k not in ("op", "request_id", "deadline_s")
        }
        by_spec.setdefault(json.dumps(spec, sort_keys=True), (spec, response))
    ordered = [entry for _, entry in sorted(by_spec.items())]
    chosen = ordered[:sample] + [
        (spec, response) for spec, response in ordered[sample:]
        if any(knob in spec for knob in KNOBS)
    ]
    matched = 0
    mismatches = []
    core = PlanningCore()
    for spec, response in chosen:
        entry = core.plan_request(PlanRequest.from_dict(spec))
        same = (
            entry.digest == response["strategy_digest"]
            and list(entry.options_text) == response["options"]
            and entry.iteration_time == response["iteration_time"]
        )
        if same:
            matched += 1
        else:
            mismatches.append(response["fingerprint"])
    return {"checked": len(chosen), "matched": matched,
            "mismatches": mismatches}


async def amain(args: argparse.Namespace) -> int:
    mix = build_mix(args)
    process, port = spawn_server(args)
    drained_line = ""
    try:
        connections, results, latencies, wall, stats, health = await run_load(
            args, port, mix
        )
        if args.sigterm:
            process.send_signal(signal.SIGTERM)
        else:
            try:
                await connections[0].op("drain")
            except Exception:
                process.send_signal(signal.SIGTERM)
        for connection in connections:
            await connection.close()
    finally:
        try:
            output, _ = process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            output, _ = process.communicate()
        for line in (output or "").splitlines():
            if "drained" in line:
                drained_line = line.strip()

    dropped = [i for i, r in enumerate(results) if r is None]
    answered = [r for r in results if r]
    ok = [r for r in answered if r.get("status") == "ok"]
    degraded = [r for r in ok if r.get("degraded")]
    refused = [r for r in answered if r.get("status") == "rejected"]
    errors = [r for r in answered if r.get("status") == "error"]
    lat = [l for l, r in zip(latencies, results) if r is not None]

    identity = verify_bit_identity(results, mix, args.verify_plans)

    report = {
        "seed": args.seed,
        "requests": len(mix),
        "config": {
            "workers": args.workers,
            "queue_limit": args.queue_limit,
            "inflight": args.inflight,
            "connections": args.conns,
            "deadline_s": args.deadline,
            "tight_deadline_s": args.tight_deadline,
            "tight_rate": args.tight_rate,
            "kill_rate": args.kill_rate,
            "slow_rate": args.slow_rate,
            "slow_seconds": args.slow_seconds,
            "breaker_threshold": args.breaker_threshold,
            "breaker_cooldown_s": args.breaker_cooldown,
            "shutdown": "SIGTERM" if args.sigterm else "drain op",
        },
        "wall_seconds": wall,
        "rps": len(answered) / wall if wall > 0 else 0.0,
        "latency_ms": {
            "p50": percentile(lat, 0.50) * 1e3,
            "p99": percentile(lat, 0.99) * 1e3,
            "mean": (sum(lat) / len(lat) * 1e3) if lat else 0.0,
            "max": max(lat) * 1e3 if lat else 0.0,
        },
        "answered": len(answered),
        "dropped": len(dropped),
        "ok": len(ok),
        "fresh": sum(1 for r in ok if r.get("source") == "fresh"),
        "cache_hits": sum(1 for r in ok if r.get("source") == "cache"),
        "stale_serves": sum(
            1 for r in ok if r.get("source") == "stale-cache"
        ),
        "heuristic_serves": sum(
            1 for r in ok if r.get("source") == "heuristic"
        ),
        "degraded": len(degraded),
        "degraded_rate": len(degraded) / len(answered) if answered else 0.0,
        "refused": len(refused),
        "errors": len(errors),
        "cache_hit_rate": stats.get("cache", {}).get("hit_rate", 0.0),
        "server": {
            "retries": stats.get("retries"),
            "worker_failures": stats.get("worker_failures"),
            "deadline_misses": stats.get("deadline_misses"),
            "queue_expired": stats.get("queue_expired"),
            "rejected_saturated": stats.get("rejected_saturated"),
            "breaker": stats.get("breaker"),
            "ready_before_drain": health.get("ready"),
            "drained_line": drained_line,
        },
        "bit_identity": identity,
    }
    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(
        f"service bench: {len(answered)}/{len(mix)} answered "
        f"({len(dropped)} dropped), {report['rps']:.1f} rps, "
        f"p50 {report['latency_ms']['p50']:.0f} ms / "
        f"p99 {report['latency_ms']['p99']:.0f} ms"
    )
    print(
        f"  {report['fresh']} fresh, {report['cache_hits']} cached "
        f"(hit rate {report['cache_hit_rate']:.1%}), "
        f"{len(degraded)} degraded ({report['degraded_rate']:.1%}), "
        f"{len(refused)} refused, {len(errors)} errors"
    )
    print(
        f"  chaos: {report['server']['worker_failures']} kills, "
        f"{report['server']['retries']} retries, "
        f"{report['server']['deadline_misses']} deadline misses, "
        f"breaker opened {report['server']['breaker']['opens']}x"
    )
    print(
        f"  bit-identity: {identity['matched']}/{identity['checked']} "
        f"re-planned strategies identical"
    )
    print(f"  report: {out}")

    failures = []
    if dropped:
        failures.append(f"{len(dropped)} requests dropped (no response)")
    if errors:
        failures.append(f"{len(errors)} unexpected request errors")
    if identity["matched"] != identity["checked"]:
        failures.append(
            f"bit-identity violated for {identity['mismatches']}"
        )
    if not drained_line:
        failures.append("server never printed its drain summary")
    if failures:
        print("BENCH FAILURE: " + "; ".join(failures))
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument("--conns", type=int, default=6,
                        help="client connections")
    parser.add_argument("--inflight", type=int, default=16,
                        help="max concurrent outstanding requests")
    parser.add_argument("--deadline", type=float, default=10.0,
                        help="normal per-request deadline")
    parser.add_argument("--tight-rate", type=float, default=0.1,
                        help="fraction of requests with a hopeless deadline")
    parser.add_argument("--tight-deadline", type=float, default=0.02,
                        help="the hopeless deadline (seconds)")
    parser.add_argument("--kill-rate", type=float, default=0.15,
                        help="chaos: per-attempt evaluator kill probability")
    parser.add_argument("--slow-rate", type=float, default=0.10,
                        help="chaos: per-attempt slow-evaluation probability")
    parser.add_argument("--slow-seconds", type=float, default=0.2)
    parser.add_argument("--breaker-threshold", type=int, default=3)
    parser.add_argument("--breaker-cooldown", type=float, default=0.5)
    parser.add_argument("--verify-plans", type=int, default=3,
                        help="distinct non-degraded plans to re-plan "
                             "in-process for the bit-identity check "
                             "(plans whose request sets ratios or "
                             "error_budget are always re-planned too)")
    parser.add_argument("--client-timeout", type=float, default=120.0,
                        help="per-request client wait before declaring a "
                             "drop")
    parser.add_argument("--sigterm", action="store_true",
                        help="shut the server down via SIGTERM instead of "
                             "the drain op (exercises the signal path)")
    parser.add_argument("--output", default=str(REPO / "BENCH_service.json"))
    args = parser.parse_args()
    return asyncio.run(amain(args))


if __name__ == "__main__":
    sys.exit(main())
