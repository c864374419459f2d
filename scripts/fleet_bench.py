#!/usr/bin/env python
"""Fleet-planning benchmark: joint-plan latency + seeded churn drill.

Two drills, one report (``BENCH_fleet.json``):

* **Job mixes** — every shipped mix (:func:`repro.core.fleet.example_mixes`)
  goes through the joint planner with the invariant battery armed.
  Records plan latency, per-tenant contended makespans, the
  joint-vs-selfish aggregate throughputs, and gates on the portfolio
  guarantee (joint >= selfish, always).
* **Seeded churn** — a deterministic ``random.Random(seed)`` stream of
  tenant arrivals/departures drives a :class:`FleetChurnController`;
  every replan is charged to one cumulative ledger.  Records replan
  latency percentiles, the degraded-plan fraction, and the ledger
  accounting, and gates on the no-silently-stale-plans contract: every
  replan finishes within budget or degrades explicitly — and nothing
  crashes.

Usage::

    PYTHONPATH=src python scripts/fleet_bench.py [--seed 0] [--events 8]
    PYTHONPATH=src python scripts/fleet_bench.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import time
import traceback
from pathlib import Path

from repro.cluster.tenancy import FleetSpec, TenantSpec
from repro.core.fleet import (
    FleetChurnController,
    FleetEvent,
    example_mixes,
    plan_fleet,
)

#: Compressor choices the churn stream samples arrivals from.  All on
#: lstm so admission (4 planner runs per tenant) stays cheap enough for
#: a CI phase.
ARRIVAL_POOL = [
    ("dgc", 0.01),
    ("topk", 0.01),
    ("efsignsgd", None),
    ("fp16", None),
]


def percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def bench_mixes(quick: bool):
    mixes = example_mixes()
    if quick:
        mixes = {"lstm-pair": mixes["lstm-pair"]}
    rows, failures = [], []
    for name, fleet in mixes.items():
        result = plan_fleet(fleet, check=True)
        rows.append(
            {
                "mix": name,
                "tenants": len(fleet.tenants),
                "mode": result.mode,
                "converged": result.converged,
                "oscillated": result.oscillated,
                "rounds": result.rounds,
                "plan_seconds": result.plan_seconds,
                "aggregate_throughput": result.aggregate_throughput,
                "selfish_aggregate_throughput": (
                    result.selfish_aggregate_throughput
                ),
                "worst_slowdown": result.worst_slowdown,
                "timelines_checked": result.timelines_checked,
                "makespans_ms": {
                    plan.name: plan.contended_time * 1e3
                    for plan in result.tenants
                },
            }
        )
        if result.aggregate_throughput < result.selfish_aggregate_throughput:
            failures.append(
                f"portfolio guarantee violated on {name}: joint "
                f"{result.aggregate_throughput:.0f} < selfish "
                f"{result.selfish_aggregate_throughput:.0f}"
            )
        print(f"  {name}: {result.summary()}")
    return rows, failures


def churn_events(rng: random.Random, count: int):
    """A deterministic arrive/depart stream over a growing name pool."""
    events, present, next_id = [], ["a", "b"], 0
    for _ in range(count):
        if len(present) > 2 and rng.random() < 0.4:
            name = rng.choice(sorted(present))
            present.remove(name)
            events.append(FleetEvent(kind="depart", name=name))
        else:
            gc, ratio = rng.choice(ARRIVAL_POOL)
            name = f"t{next_id}"
            next_id += 1
            present.append(name)
            events.append(
                FleetEvent(
                    kind="arrive",
                    tenant=TenantSpec(
                        name=name, model="lstm", gc=gc, ratio=ratio
                    ),
                )
            )
    return events


def bench_churn(seed: int, count: int):
    rng = random.Random(seed)
    fleet = example_mixes()["lstm-pair"]
    start = time.perf_counter()
    controller = FleetChurnController(fleet)
    admission_seconds = time.perf_counter() - start
    report = controller.run(churn_events(rng, count))
    replans = report.replans
    latencies = [r.seconds for r in replans]
    ledger = controller.ledger
    row = {
        "seed": seed,
        "events": len(report.records),
        "replans": len(replans),
        "admission_seconds": admission_seconds,
        "replan_ms": {
            "p50": percentile(latencies, 0.50) * 1e3,
            "p95": percentile(latencies, 0.95) * 1e3,
            "max": (max(latencies) if latencies else 0.0) * 1e3,
            "mean": (statistics.mean(latencies) if latencies else 0.0) * 1e3,
        },
        "degraded_fraction": report.degraded_fraction,
        "all_accounted": report.all_accounted,
        "final_tenants": list(controller.fleet.names),
        "ledger": {
            "total_seconds": ledger.total_seconds,
            "spent_seconds": ledger.spent_seconds,
            "exhausted": ledger.exhausted,
        },
    }
    failures = []
    if not report.all_accounted:
        failures.append(
            "churn drill left a replan neither within budget nor degraded"
        )
    print(f"  churn: {report.summary()}")
    return row, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--events", type=int, default=8,
                        help="churn events in the drill")
    parser.add_argument("--quick", action="store_true",
                        help="one mix, 3 churn events")
    parser.add_argument("--output", default="BENCH_fleet.json")
    args = parser.parse_args()
    events = 3 if args.quick else args.events

    failures = []
    crash = None
    mixes, churn = [], {}
    start = time.perf_counter()
    try:
        print("fleet bench: joint planning over the shipped job mixes")
        mixes, mix_failures = bench_mixes(args.quick)
        failures += mix_failures
        print(f"fleet bench: seeded churn drill ({events} events)")
        churn, churn_failures = bench_churn(args.seed, events)
        failures += churn_failures
    except Exception:  # the zero-crash gate
        crash = traceback.format_exc()
        failures.append("fleet bench crashed (see 'crash' in the report)")

    report = {
        "elapsed_seconds": time.perf_counter() - start,
        "host": {
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
        },
        "mixes": mixes,
        "churn": churn,
        "crash": crash,
        "failures": failures,
        "ok": not failures,
    }
    out = Path(args.output)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"  report: {out}")
    if failures:
        print("BENCH FAILURE: " + "; ".join(failures))
        if crash:
            print(crash)
        return 1
    print("fleet bench: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
