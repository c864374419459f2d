"""Planner selection-time trajectory: the fast evaluation layer's win.

Times ``Espresso.select_strategy()`` across the six zoo models on the
paper's 8-machine NVLink testbed and writes ``BENCH_planner.json`` at
the repo root (the perf-trajectory seed): model → {selection_ms,
evaluations, incremental_sims, events_replayed, cache_hit_rate}.  The
three work counts are taken in a fresh interpreter, so they depend on
neither the host nor what the test process planned before, and a test
fails when they differ from the committed file: a change that moves
search work re-records it on purpose (the failing run has already
merged the new counts into the file).  Every timed selection starts
from cleared pricing tables (no shared chains or rankings), so each
times a from-scratch selection.

For BERT-base it additionally measures the before/after of the fast
evaluation layer — ``fast_eval=False`` prices every F(S) with a
from-scratch run (one base run of the incremental simulator, no memo,
no swap replay) — and asserts the layer's speedup while checking the
selected strategy is bit-identical either way.  The from-scratch run is
not the planner's pre-layer engine: it pays the incremental simulator's
set-up, so ``before_ms`` is the cost of the reference path, not a
historical baseline.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.harness import emit, merge_bench_json, paper_scale
from repro.cluster import nvlink_100g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso
from repro.core.plan import clear_pricing_tables
from repro.models import available_models
from repro.utils import render_table

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BENCH_PATH = REPO_ROOT / "BENCH_planner.json"

# The committed trajectory baseline, captured at import — before
# test_perf_planner merges this run's numbers into the same file — so
# the regression gate always compares against what was checked in.
_COMMITTED: dict = (
    json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
)


def _job(model_name: str) -> JobConfig:
    from repro.models import get_model

    return JobConfig(
        model=get_model(model_name),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=nvlink_100g_cluster()),
    )


def _timed_selection(job: JobConfig, fast_eval: bool):
    clear_pricing_tables()
    start = time.perf_counter()
    result = Espresso(job, fast_eval=fast_eval).select_strategy()
    return (time.perf_counter() - start) * 1e3, result


#: Per-model search work that must match the committed file exactly,
#: and the ``EvaluatorStats`` field each count is read from.
WORK_COUNTS = {
    "evaluations": "fs_calls",
    "incremental_sims": "incremental_sims",
    "events_replayed": "events_replayed",
}


def work_counts() -> dict:
    """Each zoo model's work counts, planned once in zoo order."""
    counts = {}
    for name in available_models():
        stats = Espresso(_job(name)).select_strategy().stats
        counts[name] = {
            count: getattr(stats, field) for count, field in WORK_COUNTS.items()
        }
    return counts


@functools.lru_cache(maxsize=1)
def fresh_work_counts() -> dict:
    """:func:`work_counts` in a fresh interpreter.  Exact F(S) ties
    break by canonical key, which numbers options in the order a process
    first interns them, so a process that planned other jobs first can
    do different (equally fast) search work; a fresh interpreter always
    starts from the same order."""
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from benchmarks.test_perf_planner import "
            "work_counts; print(json.dumps(work_counts()))",
        ],
        cwd=REPO_ROOT,
        env=dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(str(p) for p in (REPO_ROOT, SRC)),
        ),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@functools.lru_cache(maxsize=1)
def compute_records():
    records = {}
    for name in available_models():
        # Two samples, best one recorded — the same least-noise
        # estimator the before/after comparison below uses.  Selection
        # is deterministic, so the samples differ only by scheduler and
        # CPU-steal noise, which a single sample would bake into the
        # trajectory file on a shared host.
        ms, result = min(
            (_timed_selection(_job(name), fast_eval=True) for _ in range(2)),
            key=lambda timed: timed[0],
        )
        stats = result.stats
        records[name] = {
            "selection_ms": round(ms, 1),
            **fresh_work_counts()[name],
            # Answered-without-simulation rate (memo + dedup + lower-bound
            # prunes); memo_hit_rate is the narrow memo-only metric.
            "cache_hit_rate": round(stats.cache_hit_rate, 4),
            "memo_hit_rate": round(stats.memo_hit_rate, 4),
            "prefix_reuse_fraction": round(stats.prefix_reuse_fraction, 4),
            "iteration_time": result.iteration_time,
        }

    # Before/after of the fast evaluation layer on BERT-base, measured
    # in this very process.  Samples are interleaved (slow, fast, slow,
    # fast, ...) so thermal drift and noisy neighbours hit both sides
    # equally, gc is paused around each timed run for the same reason,
    # and each side reports its best sample.
    job = _job("bert-base")
    pairs = 2 if not paper_scale() else 3
    samples = {True: [], False: []}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(pairs):
            for fast_eval in (False, True):
                samples[fast_eval].append(_timed_selection(job, fast_eval))
                gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    after_ms, after = min(samples[True], key=lambda timed: timed[0])
    before_ms, before = min(samples[False], key=lambda timed: timed[0])
    assert after.iteration_time == before.iteration_time
    assert after.strategy.options == before.strategy.options
    # ``after`` measures the same quantity as bert's selection_ms (a
    # fast-path selection), so its interleaved samples sharpen the
    # best-sample estimate for free.
    if after_ms < records["bert-base"]["selection_ms"]:
        records["bert-base"]["selection_ms"] = round(after_ms, 1)
    records["bert-base"].update(
        {
            "before_ms": round(before_ms, 1),
            "after_ms": round(after_ms, 1),
            "speedup": round(before_ms / after_ms, 2),
        }
    )
    return records


def test_perf_planner(benchmark):
    records = compute_records()
    benchmark(compute_records)

    # Merge, don't clobber: the fusion and ratio benches below write
    # their own sections of the same trajectory file.
    host = {"cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}
    merge_bench_json(BENCH_PATH, {**records, "host": host})

    table = render_table(
        ["Model", "selection", "F(S) calls", "cache hits", "prefix reuse"],
        [
            (
                name,
                f"{rec['selection_ms']:,.0f} ms",
                f"{rec['evaluations']:,}",
                f"{rec['cache_hit_rate']:.1%}",
                f"{rec['prefix_reuse_fraction']:.1%}",
            )
            for name, rec in records.items()
        ],
        title="Planner selection time (fast evaluation layer on)",
    )
    bert = records["bert-base"]
    table += (
        f"\nBERT-base fast evaluation layer: "
        f"{bert['before_ms']:,.0f} ms -> {bert['after_ms']:,.0f} ms "
        f"({bert['speedup']:.2f}x)"
    )
    emit("perf_planner", table)

    for name, rec in records.items():
        # Selection stays interactive for every model (paper: <0.2 s;
        # pure Python is slower but the same order of usability).
        assert rec["selection_ms"] < 60_000, name
        assert rec["evaluations"] > 0, name
        assert 0.0 <= rec["cache_hit_rate"] <= 1.0, name
    # The deep homogeneous models are where the answered-without-
    # simulation rate once collapsed to ~0 (the memo-only metric decays
    # with depth: any accepted decision changes every full-chain key);
    # dedup + sound pruning keep the honest rate well above this floor.
    for name in ("resnet101", "bert-base", "gpt2"):
        assert records[name]["cache_hit_rate"] > 0.05, (name, records[name])
    # The incremental engine must deliver a real speedup on the model
    # with the largest refinement churn.  Measured ~3x on an idle
    # machine; the bound leaves headroom for noisy CI neighbours.
    assert bert["speedup"] >= 2.0, bert


def test_work_counts_match_committed():
    """Each model's selection does the committed search work: F(S)
    evaluations, incremental simulations and replayed events.  Unlike
    the wall-clock gates this one is exact, because counts taken in a
    fresh interpreter depend neither on the host nor on test order."""
    for name, counts in fresh_work_counts().items():
        committed = _COMMITTED.get(name, {})
        assert {count: committed.get(count) for count in WORK_COUNTS} == (
            counts
        ), f"{name}: search work changed; re-record BENCH_planner.json"


#: Fusion benchmark coverage: the full zoo at paper scale, the three
#: models with the largest launch-overhead exposure in CI.
FUSION_MODELS = (
    tuple(available_models())
    if paper_scale()
    else ("vgg16", "gpt2", "bert-base")
)


@functools.lru_cache(maxsize=1)
def fusion_records():
    from repro.core import FusionPlanner

    records = {}
    for name in FUSION_MODELS:
        job = _job(name)
        clear_pricing_tables()
        start = time.perf_counter()
        result = FusionPlanner(job).select_strategy()
        ms = (time.perf_counter() - start) * 1e3
        records[name] = {
            "selection_ms": round(ms, 1),
            "candidates": len(result.candidates),
            "groups": result.plan.num_groups,
            "num_tensors": result.plan.num_tensors,
            "iteration_time": result.iteration_time,
            "no_fusion_iteration_time": result.no_fusion_time,
            "delta_pct": round(result.improvement_over_no_fusion * 100, 3),
        }
    return records


def test_perf_fusion():
    """Joint boundary+option search: selection cost and iteration win.

    Emits the ``"fusion"`` section of BENCH_planner.json: per model, the
    fusion planner's selection time and the simulated-iteration-time
    delta against the best no-fusion plan (the EXPERIMENTS.md table).
    """
    records = fusion_records()
    merge_bench_json(BENCH_PATH, {"fusion": records})

    table = render_table(
        ["Model", "selection", "groups", "iteration", "vs no fusion"],
        [
            (
                name,
                f"{rec['selection_ms']:,.0f} ms",
                f"{rec['groups']}/{rec['num_tensors']}",
                f"{rec['iteration_time'] * 1e3:.2f} ms",
                f"{rec['delta_pct']:+.2f}%",
            )
            for name, rec in records.items()
        ],
        title="Fusion-aware planning (joint boundaries + options)",
    )
    emit("perf_fusion", table)

    for name, rec in records.items():
        # The no-fusion plan is always in the candidate portfolio, so
        # fusion-aware planning can never lose to per-tensor planning.
        assert rec["iteration_time"] <= rec["no_fusion_iteration_time"], name
        assert 1 <= rec["groups"] <= rec["num_tensors"], name
        assert rec["selection_ms"] < 120_000, name
    # Fusion must deliver a real win on most of the covered models (the
    # acceptance bar: >= 3 zoo models at paper scale).
    improved = sum(1 for rec in records.values() if rec["delta_pct"] > 0)
    assert improved >= (3 if paper_scale() else 2), records


#: Ratio-ladder benchmark coverage: bert-base is the gate model (the
#: deepest zoo model, the one where the doubled portfolio pipeline is
#: most expensive); at paper scale the sweep covers the full zoo.
RATIO_MODELS = (
    tuple(available_models()) if paper_scale() else ("bert-base",)
)


@functools.lru_cache(maxsize=1)
def ratio_records():
    from repro.core.options import DEFAULT_RATIO_LADDER

    records = {}
    for name in RATIO_MODELS:
        job = _job(name)
        clear_pricing_tables()
        start = time.perf_counter()
        result = Espresso(
            job, ratios=DEFAULT_RATIO_LADDER
        ).select_strategy()
        ms = (time.perf_counter() - start) * 1e3
        stats = result.stats
        pins = [r for r in result.ratio_schedule if r is not None]
        records[name] = {
            "selection_ms": round(ms, 1),
            "ladder": list(DEFAULT_RATIO_LADDER),
            "pinned_tensors": len(pins),
            "iteration_time": result.iteration_time,
            "fixed_iteration_time": result.fixed_ratio_iteration_time,
            "improvement_pct": round(
                (1.0 - result.iteration_time
                 / result.fixed_ratio_iteration_time) * 100, 3,
            ),
            "cache_hit_rate": round(stats.cache_hit_rate, 4),
            "memo_hit_rate": round(stats.memo_hit_rate, 4),
        }
    return records


def test_perf_ratio():
    """Ratio ladder as a planner dimension: selection cost + portfolio.

    Emits the ``"ratio"`` section of BENCH_planner.json: per model, the
    laddered selection time and the simulated-iteration delta against
    the fixed-ratio plan the ladder generalizes.
    """
    records = ratio_records()
    merge_bench_json(BENCH_PATH, {"ratio": records})

    table = render_table(
        ["Model", "selection", "pinned", "iteration", "vs fixed ratio"],
        [
            (
                name,
                f"{rec['selection_ms']:,.0f} ms",
                f"{rec['pinned_tensors']}",
                f"{rec['iteration_time'] * 1e3:.2f} ms",
                f"{rec['improvement_pct']:+.2f}%",
            )
            for name, rec in records.items()
        ],
        title="Ratio-laddered planning (portfolio vs fixed ratio)",
    )
    emit("perf_ratio", table)

    for name, rec in records.items():
        # Portfolio guarantee: the ladder never loses to fixed ratio.
        assert rec["iteration_time"] <= rec["fixed_iteration_time"], name
        assert rec["selection_ms"] < 120_000, name
        # Satellite regression floor: the honest answered-without-
        # simulation rate must not re-collapse to ~0 on the laddered
        # double pipeline (the shared evaluator keeps the fixed-ratio
        # pass warm, so the laddered rate sits above the plain one).
        assert rec["cache_hit_rate"] > 0.05, (name, rec)
        assert 0.0 <= rec["memo_hit_rate"] <= rec["cache_hit_rate"], name


@pytest.mark.bench_regression
def test_ratio_selection_time_no_regression():
    """CI gate: bert-base *laddered* selection must not regress >25% vs
    the committed ``ratio`` section of BENCH_planner.json."""
    committed = (
        _COMMITTED.get("ratio", {}).get("bert-base", {}).get("selection_ms")
    )
    if committed is None:
        pytest.skip("no committed laddered bert-base baseline")
    measured = ratio_records()["bert-base"]["selection_ms"]
    assert measured <= committed * 1.25, (
        f"laddered bert-base selection regressed: {measured:.1f} ms vs "
        f"committed {committed:.1f} ms "
        f"(+{measured / committed - 1.0:.0%}, gate +25%)"
    )


@pytest.mark.bench_regression
def test_selection_time_no_regression():
    """CI gate: bert-base selection must not regress >25% vs the
    committed BENCH_planner.json baseline.

    The committed number is the trajectory this repo's perf work is
    measured against; a slow PR should fail here, loudly.  The 25%
    allowance absorbs host-to-host variation; on hosts too noisy even
    for that, deselect with ``-m 'not bench_regression'``.
    """
    committed = _COMMITTED.get("bert-base", {}).get("selection_ms")
    if committed is None:
        pytest.skip("no committed bert-base baseline to compare against")
    measured = compute_records()["bert-base"]["selection_ms"]
    assert measured <= committed * 1.25, (
        f"bert-base selection regressed: {measured:.1f} ms vs committed "
        f"{committed:.1f} ms (+{measured / committed - 1.0:.0%}, gate +25%)"
    )
