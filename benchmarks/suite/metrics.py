"""Metric definitions and arithmetic of the planner benchmark.

``END_TO_END`` and ``PER_LAYER`` are the metrics printed on the
benchmark's last line (untraced and traced run respectively); every
workload reports all of them, and ``BENCHMARK.json`` declares the same
names and units.  :func:`extra_end_to_end` and :func:`layer_report`
compute the workload-specific numbers that are printed but not part of
that line.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.suite import spans

#: (name, unit) of the untraced run's metrics.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_geomean_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit) of the traced run's metrics.  Times and counts are per
#: traced op of the workload; ratios give their base in the printed report.
#: ``alg1_ms``, ``alg2_ms`` and ``refine_ms`` are whole phase times
#: (the phases Tables 5 and 6 report); the other times are self times.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("planner_runs", "count"),
    ("espresso_ms", "ms"),
    ("alg1_ms", "ms"),
    ("alg2_ms", "ms"),
    ("refine_ms", "ms"),
    ("price_ms", "ms"),
    ("fs_ms", "ms"),
    ("sim_ms", "ms"),
    ("compile_ms", "ms"),
    ("jobs_ms", "ms"),
    ("fs_calls", "count"),
    ("combinations", "count"),
    ("memo_hit_ratio", "ratio"),
    ("answered_ratio", "ratio"),
    ("prune_ratio", "ratio"),
    ("unattributed_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
    ("missing_spans", "count"),
)

SELECT = "repro.core.espresso:Espresso.select_strategy"
ALG1 = "repro.core.algorithm:gpu_compression_decision"
OFFLOAD = "repro.core.offload:cpu_offload_decision"
REFINE = "repro.core.algorithm:refinement_sweep"

#: Latency above which a serve-mix request misses its service level.
SLO_S = 1.0
#: A cache hit slower than this waited behind fresh plans.
BLOCKED_S = 0.25
#: The tail percentile keeps at least this many values beyond it ...
TAIL_BEYOND = 10
#: ... and is not reported for fewer values than this.
TAIL_MINIMUM = 20


def tail(values: Sequence[float]):
    """The highest whole percentile with at least ``TAIL_BEYOND`` values
    above it.

    Returns ``(percentile, value, n)`` (nearest-rank value), or None for
    fewer than ``TAIL_MINIMUM`` values, where no tail is worth reporting.
    """
    n = len(values)
    if n < TAIL_MINIMUM:
        return None
    ordered = sorted(values)
    percentile = 100 * (n - TAIL_BEYOND) // n
    rank = -(-percentile * n // 100)
    while n - rank < TAIL_BEYOND:
        percentile -= 1
        rank = -(-percentile * n // 100)
    return percentile, ordered[max(rank, 1) - 1], n


def geomean(values: Sequence[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def end_to_end(
    latencies_s: Sequence[float], window_s: float,
    setups_s: Sequence[float], peak_rss_mb: float,
) -> Dict[str, float]:
    """``END_TO_END`` values from the answered ops' latencies."""
    return {
        "setup_s": statistics.median(setups_s),
        "op_p50_ms": statistics.median(latencies_s) * 1e3,
        "op_geomean_ms": geomean(latencies_s) * 1e3,
        "ops_per_s": len(latencies_s) / window_s,
        "peak_rss_mb": peak_rss_mb,
    }


def kind_medians_ms(ops: Sequence[dict]) -> Dict[str, float]:
    by_kind: Dict[str, List[float]] = {}
    for op in ops:
        if "error" not in op:
            by_kind.setdefault(op["kind"], []).append(op["latency_s"] * 1e3)
    return {kind: statistics.median(values) for kind, values in sorted(by_kind.items())}


def extra_end_to_end(workload: str, ops: Sequence[dict], data: dict) -> List[str]:
    """Printed-only end-to-end numbers: tails, per-kind medians, failure
    and degradation ratios, and the plans' simulated iteration time."""
    lines = []
    answered = [op["latency_s"] for op in ops if "error" not in op]
    found = tail(answered)
    if found is None:
        lines.append(f"op_tail_ms            n/a (n={len(answered)} < {TAIL_MINIMUM})")
    else:
        percentile, value, n = found
        lines.append(f"op_tail_ms            {value * 1e3:.1f} ms (p{percentile}, n={n})")
    failed = sum(1 for op in ops if op.get("failure"))
    lines.append(f"fail_ratio            {failed}/{len(ops)}")
    if workload != "serve-mix":
        medians = kind_medians_ms(ops)
        if workload in ("zoo", "portfolio"):
            lines.append(f"plan_geomean_ms       {geomean(list(medians.values())):.1f} ms "
                         f"(geomean of {len(medians)} kind medians)")
        for kind, value in medians.items():
            lines.append(f"  {kind:<24} p50 {value:10.1f} ms")
    planned = [
        op["iteration_time"] for op in ops
        if "iteration_time" in op and not op.get("degraded")
        and (workload != "serve-mix" or op["kind"] == "fresh")
    ]
    if planned:
        lines.append(f"iter_ms_geomean       {geomean(planned) * 1e3:.4f} ms "
                     f"({len(planned)} plans)")
    if workload == "serve-mix":
        cached = [op["latency_s"] for op in ops if op["kind"] == "cache"]
        fresh = [op["latency_s"] for op in ops if op["kind"] == "fresh"]
        for name, values in (("cached_p50_ms", cached), ("fresh_p50_ms", fresh)):
            shown = f"{statistics.median(values) * 1e3:.1f} ms" if values else "n/a"
            lines.append(f"{name:<22}{shown} (n={len(values)})")
        blocked = sum(1 for latency in cached if latency > BLOCKED_S)
        lines.append(f"cached_over_{BLOCKED_S * 1e3:.0f}ms     {blocked}/{len(cached)} "
                     f"(hits queued behind fresh plans)")
        slo = sum(1 for op in ops if op.get("failure") or op["latency_s"] > SLO_S)
        lines.append(f"slo_miss_ratio        {slo}/{len(ops)} (latency > {SLO_S:.0f} s or failed)")
        degraded = sum(1 for op in ops if op.get("degraded"))
        lines.append(f"degraded_ratio        {degraded}/{len(ops)}")
        lines.append(f"loadgen_lag_p99_ms    {data['lag_p99_ms']:.2f} ms")
    if workload == "fleet-churn":
        drills = data.get("drills", [])
        replans = sum(d["replans"] for d in drills)
        degraded = sum(d["degraded"] for d in drills)
        lines.append(f"degraded_ratio        {degraded}/{replans} churn replans")
    return lines


def _totals(infos: Sequence[dict]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for info in infos:
        for key, value in info.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace_overhead(ops: Sequence[dict]) -> float:
    """One minus traced over untraced ops per second of service time.

    A traced run measures both halves: a closed loop alternates
    untraced and traced rounds of the same kinds, whose service time is
    their latency; serve-mix replays the same schedule against an
    untraced and then a traced server, and its offered rate is fixed, so
    a request's service time is the server's send-to-answer time.
    """

    def rate(traced: bool) -> float:
        group = [op for op in ops if op["traced"] == traced and "error" not in op]
        busy = math.fsum(op.get("service_s", op["latency_s"]) for op in group)
        return _ratio(len(group), busy)

    return 1.0 - _ratio(rate(True), rate(False))


def per_layer(summary: dict, all_ops: Sequence[dict], workload: str) -> Dict[str, float]:
    """The traced run's ``PER_LAYER`` values from a span summary; times
    and counts are per traced op."""
    ops = sum(1 for op in all_ops if op["traced"]) or 1
    targets = summary["targets"]
    layers = spans.layer_self_ns(summary)
    stats = _totals(targets.get(SELECT, {}).get("infos", []))
    offload = _totals(targets.get(OFFLOAD, {}).get("infos", []))
    fs_calls = stats.get("fs_calls", 0)

    def per_op_ms(*names: str) -> float:
        return sum(layers.get(name, 0) for name in names) / 1e6 / ops

    def phase_ms(target: str) -> float:
        # Whole time inside the phase, its evaluator calls included.
        return targets.get(target, {}).get("total_ns", 0) / 1e6 / ops

    return {
        "planner_runs": targets.get(SELECT, {}).get("calls", 0),
        "espresso_ms": per_op_ms("espresso"),
        "alg1_ms": phase_ms(ALG1),
        "alg2_ms": phase_ms(OFFLOAD),
        "refine_ms": phase_ms(REFINE),
        "price_ms": per_op_ms("price"),
        "fs_ms": per_op_ms("fs"),
        "sim_ms": per_op_ms("sim"),
        "compile_ms": per_op_ms("compile"),
        "jobs_ms": per_op_ms("jobs"),
        "fs_calls": fs_calls / ops,
        "combinations": offload.get("combinations", 0) / ops,
        "memo_hit_ratio": _ratio(stats.get("cache_hits", 0), fs_calls),
        "answered_ratio": _ratio(
            stats.get("cache_hits", 0) + stats.get("batch_dedup_hits", 0)
            + stats.get("batch_pruned", 0),
            fs_calls,
        ),
        "prune_ratio": _ratio(stats.get("batch_pruned", 0), stats.get("batch_candidates", 0)),
        "unattributed_ratio": 1.0 - _ratio(summary["covered_ns"], summary["op_ns"]),
        "trace_overhead_ratio": trace_overhead(all_ops),
        "missing_spans": len(missing(summary, workload)),
    }


def missing(summary: dict, workload: str) -> List[str]:
    return sorted(set(summary.get("unresolved", [])) | set(
        spans.missing_spans(summary, workload)
    ))


def _mean_ms(row: Optional[dict]) -> str:
    """Mean duration of a target's calls."""
    if not row or not row["calls"]:
        return "n/a"
    return f"{row['total_ns'] / row['calls'] / 1e6:.2f} ms"


def layer_report(workload: str, summary: dict, ops: Sequence[dict], data: dict) -> List[str]:
    """Printed-only per-layer numbers: the self-time table of every layer,
    then the workload-specific layer metrics."""
    count = len(ops)
    targets = summary["targets"]
    layers = spans.layer_self_ns(summary)
    op_ns = summary["op_ns"] or 1
    lines = [f"{'layer':<12}{'self ms/op':>12}{'share':>8}"]
    for layer, self_ns in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:<12}{self_ns / 1e6 / count:12.2f}{self_ns / op_ns:8.1%}")
    uncovered = op_ns - summary["covered_ns"]
    lines.append(f"{'unattributed':<12}{uncovered / 1e6 / count:12.2f}{uncovered / op_ns:8.1%}")
    lines.append(f"{'target':<64}{'calls':>9}{'self ms':>11}")
    for name, row in sorted(targets.items()):
        lines.append(f"{name:<64}{row['calls']:9d}{row['self_ns'] / 1e6:11.1f}")

    stats = _totals(targets.get(SELECT, {}).get("infos", []))
    fs_calls = stats.get("fs_calls", 0)
    offload_infos = targets.get(OFFLOAD, {}).get("infos", [])
    lines.append(
        f"evaluator: fs_calls {fs_calls}, memo hits {stats.get('cache_hits', 0)}, "
        f"dedup {stats.get('batch_dedup_hits', 0)}, pruned {stats.get('batch_pruned', 0)} "
        f"of {stats.get('batch_candidates', 0)} batch candidates, "
        f"fallbacks {stats.get('batch_fallbacks', 0)}"
    )
    replayed = stats.get("events_replayed", 0)
    reused = stats.get("events_reused", 0)
    lines.append(
        f"sim: rebases {stats.get('rebases', 0)}, full_sims {stats.get('full_sims', 0)}, "
        f"prefix_reuse_ratio {_ratio(reused, replayed + reused):.3f} "
        f"(base {replayed + reused} events), fallback_ratio "
        f"{_ratio(stats.get('batch_fallbacks', 0), stats.get('batch_candidates', 0)):.4f}"
    )
    exhaustive = sum(1 for info in offload_infos if info["exhaustive"])
    lines.append(
        f"alg2: {len(offload_infos)} calls, exhaustive_ratio "
        f"{_ratio(exhaustive, len(offload_infos)):.3f}, multi_calls "
        f"{targets.get('repro.core.strategy:StrategyEvaluator.iteration_time_multi', {}).get('calls', 0)}"
    )
    compile_row = targets.get("repro.core.plan:PlanCompiler.stages")
    if compile_row:
        lines.append(f"plan: compile_calls {compile_row['calls']}, "
                     f"compile_ms {compile_row['self_ns'] / 1e6:.1f}")

    if workload == "portfolio":
        passes = targets.get("repro.core.espresso:Espresso._run_pipeline", {})
        ladder = [info for info in passes.get("infos", []) if info["ladder"]]
        lines.append(
            f"passes: {len(ladder)} ladder / {len(passes.get('infos', [])) - len(ladder)} "
            f"fixed; fusion.candidate_ms "
            f"{_mean_ms(targets.get('repro.core.fusion:FusionPlanner._plan_candidate'))}; "
            f"pool_start_ms {_mean_ms(targets.get('repro.core.parallel:EvaluatorPool.__init__'))}"
        )
        ladder_ops = [op for op in ops if op["kind"].endswith("/ladder") and "error" not in op]
        lines.append(
            f"parallel: jobs_effective {max((op['parallel_jobs'] for op in ladder_ops), default=0)}, "
            f"tasks/op {_ratio(sum(op['parallel_tasks'] for op in ladder_ops), len(ladder_ops)):.0f}, "
            f"fanout_ms/op {_ratio(sum(op['fanout_s'] for op in ladder_ops), len(ladder_ops)) * 1e3:.1f}, "
            f"merge_ms/op {_ratio(sum(op['merge_s'] for op in ladder_ops), len(ladder_ops)) * 1e3:.1f}"
        )
        gains = {}
        for op in ops:
            if "error" not in op and op.get("reference_time"):
                reference = op["reference_time"]
                gains.setdefault(op["kind"], (reference - op["iteration_time"]) / reference)
        for kind, gain in sorted(gains.items()):
            model, planner = kind.split("/")
            name = "ladder_gain_pct" if planner == "ladder" else "fusion.gain_pct"
            lines.append(f"{name}.{model} {gain * 100:.3f}%")
    if workload == "serve-mix":
        lines.extend(data.get("service_lines", []))
    if workload == "fleet-churn":
        replan = targets.get("repro.core.robust:DegradationTable.replan", {})
        full = sum(1 for info in replan.get("infos", []) if info["full"])
        project = sum(
            targets.get(name, {}).get("total_ns", 0)
            for name in ("repro.cluster.tenancy:link_load",
                         "repro.cluster.tenancy:contention_models")
        )
        applies = [op for op in ops if op["kind"] == "apply"]
        drills = data.get("drills", [])
        spent = sum(d["ledger_spent_s"] for d in drills)
        total = sum(d["ledger_total_s"] for d in drills)
        lines.append(
            f"fleet: admit_ms {_mean_ms(targets.get('repro.core.robust:DegradationTable.build'))}, "
            f"replans {replan.get('calls', 0)} ({full} full), replan_ms {_mean_ms(replan)}, "
            f"project_ms/apply {_ratio(project / 1e6, len(applies)):.2f}, "
            f"ledger_overspend_ratio {_ratio(spent, total) - 1.0 if total else 0.0:.3f}"
        )
        rounds = [op["rounds"] for op in ops if op["kind"].startswith("mix:") and "rounds" in op]
        lines.append(f"plan_fleet rounds {sum(rounds)} over {len(rounds)} mix plans")
    lines.append(f"missing_spans: {', '.join(missing(summary, workload)) or 'none'}")
    return lines
