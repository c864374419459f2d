"""Regenerate ``expected_plans.json``, the benchmark's correctness oracle.

Plans every job the workloads can send -- each zoo and portfolio kind,
every serve-mix hot-set and pool job, every fleet mix -- through the
same calls the workloads make, and records each plan's strategy digest
and iteration time.  Run it only when a change is meant to alter plans;
the benchmark fails any op whose plan differs from this file.

Usage, from the repository root::

    python3 benchmarks/suite/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.suite import child, checks, workloads  # noqa: E402


def entry(described: dict) -> dict:
    return {"digest": described["digest"], "iteration_time": described["iteration_time"]}


def main() -> int:
    from repro.service.api import PlanRequest
    from repro.service.core import PlanningCore

    zoo = child.Zoo()
    portfolio = child.Portfolio()
    fleet = child.FleetChurn()
    core = PlanningCore()
    expected = {
        "zoo": {kind: entry(zoo.describe(zoo.plan(kind))) for kind in zoo.requests},
        "portfolio": {
            kind: entry(
                (portfolio.describe_ladder if planner == "ladder"
                 else portfolio.describe_fusion)(portfolio.plan(kind))
            )
            for kind, (planner, _) in portfolio.requests.items()
        },
        "serve": {},
        "fleet": {
            name: entry(fleet.describe_mix(fleet.plan(name))) for name in fleet.mixes
        },
    }
    specs = workloads.HOT_SET + [
        spec for pool in workloads.FRESH_POOL.values() for spec in pool
    ]
    for spec in specs:
        planned = core.plan_request(PlanRequest.from_dict(spec))
        expected["serve"][workloads.spec_key(spec)] = {
            "digest": planned.digest,
            "iteration_time": planned.iteration_time,
        }
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {checks.EXPECTED_PATH} ({sum(map(len, expected.values()))} plans)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
