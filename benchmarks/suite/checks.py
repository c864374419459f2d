"""Correctness gates of the planner benchmark.

Every op's plan is compared with the committed ``expected_plans.json``
(regenerate it with ``record_expected.py``): the strategy digest must be
identical and the iteration time equal to the last bit.  A mismatch is
a failed op.  Each workload also has run-level gates -- the portfolio
guarantees, the churn drill's accounting, and the validity of the
serve-mix load itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_plans.json"

#: A serve-mix run whose generator ran later than this (p99) is invalid:
#: the loop would no longer be open.  It is 30% of the mean gap between
#: arrivals at 6 rps, well above the 17 ms p99 that host stalls alone
#: cause on otherwise valid runs on a shared 2-core VM.
MAX_LOADGEN_LAG_P99_MS = 50.0


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected_entry(expected: dict, workload: str, op: dict) -> Optional[dict]:
    """The committed plan an op must reproduce, or None if it has none."""
    kind = op["kind"]
    if workload == "zoo":
        return expected["zoo"].get(kind)
    if workload == "portfolio":
        return expected["portfolio"].get(kind)
    if workload == "fleet-churn":
        if kind.startswith("mix:"):
            return expected["fleet"].get(kind[len("mix:"):])
        return None
    if op.get("degraded"):
        return None  # degraded plans are counted, not compared
    return expected["serve"].get(op["key"])


def op_failure(workload: str, op: dict, expected: dict) -> Optional[str]:
    """Why ``op`` failed, or None when its output is correct."""
    if "error" in op:
        return op["error"]
    entry = expected_entry(expected, workload, op)
    must_match = workload != "fleet-churn" or op["kind"].startswith("mix:")
    if must_match and not op.get("degraded"):
        if entry is None:
            return f"no expected plan for {op.get('key', op['kind'])}"
        if op["digest"] != entry["digest"]:
            return f"strategy digest {op['digest']} != expected {entry['digest']}"
        if op["iteration_time"] != entry["iteration_time"]:
            return (
                f"iteration time {op['iteration_time']!r} != expected "
                f"{entry['iteration_time']!r}"
            )
    reference = op.get("reference_time")
    if reference is not None and op["iteration_time"] > reference:
        # Ladder vs fixed ratio, fusion vs no fusion: never slower.
        return f"portfolio plan {op['iteration_time']!r} slower than {reference!r}"
    if "aggregate" in op and op["aggregate"] < op["selfish"]:
        return f"joint throughput {op['aggregate']} < selfish {op['selfish']}"
    return None


def run_failures(workload: str, data: dict) -> List[str]:
    """Run-level gates beyond the per-op checks."""
    failures = []
    if workload == "fleet-churn":
        for index, drill in enumerate(data.get("drills", [])):
            if not drill["all_accounted"]:
                failures.append(
                    f"churn round {index}: a replan was neither within budget "
                    f"nor degraded"
                )
    if workload == "serve-mix":
        lag = data["lag_p99_ms"]
        if not math.isfinite(lag) or lag > MAX_LOADGEN_LAG_P99_MS:
            failures.append(
                f"load generator lag p99 {lag:.1f} ms exceeds "
                f"{MAX_LOADGEN_LAG_P99_MS:.0f} ms: the run is invalid"
            )
        for record in data.get("warm_failures", []):
            failures.append(f"warm-up plan wrong: {record}")
    return failures
