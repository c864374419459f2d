"""Child process of one closed-loop workload: zoo, portfolio or fleet-churn.

The parent (``run.py``) times this process from spawn to the ``READY``
line -- imports, building the committed jobs and, for fleet-churn,
admitting the starting fleet -- as the workload's set-up.  With
``--setup-only`` the child exits there.  Otherwise it runs whole rounds
of its ops (a closed loop with one client) until another round would
overrun ``--seconds``, and prints one JSON line: a record per op and,
with ``--trace 1``, the span summary of the traced rounds.

Usage (from the repository root)::

    PYTHONPATH=src:. python -m benchmarks.suite.child --workload zoo --seed 0 --seconds 24
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import threading
import time
import traceback

from benchmarks.suite import spans, workloads

READY = "READY"


class Zoo:
    """Serial ``Espresso(job).select_strategy()`` over the zoo kinds."""

    def __init__(self) -> None:
        from repro.core import Espresso
        from repro.service.api import PlanRequest, strategy_digest

        self.espresso = Espresso
        self.digest = strategy_digest
        self.requests = {
            kind: PlanRequest.from_dict(spec)
            for kind, spec in workloads.ZOO_KINDS.items()
        }
        for request in self.requests.values():
            request.build_job()

    def plan(self, kind: str):
        return self.espresso(self.requests[kind].build_job()).select_strategy()

    def describe(self, result) -> dict:
        return {
            "digest": self.digest(result.strategy),
            "iteration_time": result.iteration_time,
        }

    def round(self, seed: int, round_index: int):
        for kind in workloads.shuffled_round(self.requests, seed, round_index):
            yield kind, functools.partial(self.plan, kind), self.describe


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Portfolio:
    """The ratio-ladder Espresso and the FusionPlanner, width-2 pool."""

    def __init__(self) -> None:
        from repro.core import Espresso
        from repro.core.fusion import FusionPlanner
        from repro.core.options import DEFAULT_RATIO_LADDER
        from repro.service.api import PlanRequest, strategy_digest

        self.espresso = Espresso
        self.fusion = FusionPlanner
        self.ladder = DEFAULT_RATIO_LADDER
        self.digest = strategy_digest
        self.requests = {
            kind: (planner, PlanRequest.from_dict(spec))
            for kind, (planner, spec) in workloads.PORTFOLIO_KINDS.items()
        }
        for _, request in self.requests.values():
            request.build_job()

    def plan(self, kind: str):
        planner, request = self.requests[kind]
        job = request.build_job()
        if planner == "ladder":
            return self.espresso(
                job, ratios=self.ladder, jobs=workloads.PORTFOLIO_JOBS
            ).select_strategy()
        return self.fusion(job, jobs=workloads.PORTFOLIO_JOBS).select_strategy()

    def describe_ladder(self, result) -> dict:
        stats = result.stats
        return {
            "digest": self.digest(result.strategy),
            "iteration_time": result.iteration_time,
            "reference_time": result.fixed_ratio_iteration_time,
            "parallel_jobs": stats.parallel_jobs,
            "parallel_tasks": stats.parallel_tasks,
            "fanout_s": stats.fanout_seconds,
            "merge_s": stats.merge_seconds,
        }

    def describe_fusion(self, result) -> dict:
        return {
            "digest": text_digest(result.fused.describe()),
            "iteration_time": result.iteration_time,
            "reference_time": result.no_fusion_time,
        }

    def round(self, seed: int, round_index: int):
        for kind in workloads.shuffled_round(self.requests, seed, round_index):
            describe = (
                self.describe_ladder
                if self.requests[kind][0] == "ladder"
                else self.describe_fusion
            )
            yield kind, functools.partial(self.plan, kind), describe


class FleetChurn:
    """``plan_fleet`` on every shipped mix, then a churn drill."""

    def __init__(self) -> None:
        from repro.cluster.tenancy import TenantSpec
        from repro.core import fleet
        from repro.service.api import strategy_digest

        self.fleet = fleet
        self.controller_cls = fleet.FleetChurnController
        self.event_cls = fleet.FleetEvent
        self.tenant_cls = TenantSpec
        self.digest = strategy_digest
        self.mixes = fleet.example_mixes()
        # Admission of the starting fleet is part of set-up.
        self.controller_cls(self.mixes[workloads.CHURN_MIX])
        #: One entry per finished round: the churn drill's accounting.
        self.drills = []

    def plan(self, name: str):
        # Looked up per call, so a traced run reaches the wrapped function.
        return self.fleet.plan_fleet(self.mixes[name])

    def describe_mix(self, result) -> dict:
        tenants = ";".join(
            f"{plan.name}={self.digest(plan.strategy)}" for plan in result.tenants
        )
        return {
            "digest": text_digest(f"{result.mode}|{tenants}"),
            "iteration_time": math.exp(
                math.fsum(math.log(plan.contended_time) for plan in result.tenants)
                / len(result.tenants)
            ),
            "aggregate": result.aggregate_throughput,
            "selfish": result.selfish_aggregate_throughput,
            "rounds": result.rounds,
        }

    def event(self, data: dict):
        if data["kind"] == "arrive":
            return self.event_cls(
                kind="arrive", tenant=self.tenant_cls.from_dict(data["tenant"])
            )
        return self.event_cls(kind="depart", name=data["name"])

    def round(self, seed: int, round_index: int):
        for name in workloads.shuffled_round(self.mixes, seed, round_index):
            yield f"mix:{name}", functools.partial(self.plan, name), self.describe_mix
        box = {}

        def admit():
            box["controller"] = self.controller_cls(self.mixes[workloads.CHURN_MIX])

        yield "admit", admit, lambda _: {}
        for data in workloads.churn_events(seed, round_index):
            event = self.event(data)
            call = functools.partial(lambda e: box["controller"].apply(e), event)
            yield "apply", call, lambda _: {}
        controller = box.get("controller")
        if controller is not None:
            report = controller.report
            self.drills.append(
                {
                    "all_accounted": report.all_accounted,
                    "replans": len(report.replans),
                    "degraded": sum(1 for r in report.replans if r.degraded),
                    "ledger_spent_s": controller.ledger.spent_seconds,
                    "ledger_total_s": controller.ledger.total_seconds,
                }
            )


WORKLOAD_CLASSES = {"zoo": Zoo, "portfolio": Portfolio, "fleet-churn": FleetChurn}


def closed_loop(workload, seed: int, seconds: float, recorder=None):
    """Run whole rounds until another round would overrun ``seconds``.

    Every round holds each kind equally often, so medians and geomeans
    do not depend on how many rounds fit.  At least one round runs.
    With a span ``recorder`` the rounds alternate, untraced first, with
    traced ones that run under the span wrappers, and at least two run:
    the traced rounds feed the per-layer metrics and the two halves
    together the trace overhead.  Installing and removing the wrappers
    is not timed.  Returns ``(op records, timed seconds, rounds,
    targets that did not resolve)``.
    """
    ops = []
    timed = longest = 0.0
    rounds = 0
    unresolved = []
    thread = threading.get_ident()
    while True:
        traced = recorder is not None and rounds % 2 == 1
        installation = spans.install(recorder) if traced else None
        begun = time.perf_counter()
        for kind, call, describe in workload.round(seed, rounds):
            t0 = time.perf_counter_ns()
            try:
                result = call()
                error = None
            except Exception as exc:  # a failed op is counted, the loop goes on
                traceback.print_exc()
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            record = {"kind": kind, "latency_s": (t1 - t0) / 1e9, "traced": traced,
                      "t0_ns": t0, "t1_ns": t1, "thread": thread}
            if error is None:
                record.update(describe(result))
            else:
                record["error"] = error
            ops.append(record)
        took = time.perf_counter() - begun
        if installation is not None:
            installation.uninstall()
            unresolved = installation.missing
        rounds += 1
        timed += took
        longest = max(longest, took)
        if rounds >= (1 if recorder is None else 2) and timed + longest > seconds:
            return ops, timed, rounds, unresolved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for the chrome://tracing file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOAD_CLASSES[args.workload]()
    print(READY, flush=True)
    if args.setup_only:
        return 0

    recorder = spans.Recorder() if args.trace else None
    ops, wall_s, rounds, unresolved = closed_loop(
        workload, args.seed, args.seconds, recorder
    )
    result = {"ops": ops, "wall_s": wall_s, "rounds": rounds,
              "drills": getattr(workload, "drills", [])}
    if recorder is not None:
        exported = recorder.export()
        summary = spans.summarize(
            exported,
            [(op["t0_ns"], op["t1_ns"], ("thread", op["thread"]), 0)
             for op in ops if op["traced"]],
        )
        summary["unresolved"] = unresolved
        result["trace"] = summary
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            spans.write_chrome_trace(
                exported,
                os.path.join(args.out, f"trace-{args.workload}-{args.seed}.json"),
            )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
