"""Fusion groups as a planner dimension (DESIGN.md §5.8).

The equivalence claims that make fusion safe to ship:

* the singleton (no-fusion) plan's fused model *is* the original model,
  so fused and unfused single-tensor-group plans are bit-identical;
* every fused timeline passes the unmodified invariant battery and
  differential oracle (a fused group is simply a tensor to the sim);
* the joint search is deterministic, and with a ratio ladder it never
  loses to the fixed-ratio search;
* loaded plans whose boundaries no longer match the model trace are
  refused (StalePlanError, exit 2 in the CLI).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import nvlink_100g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso
from repro.core.algorithm import fusion_boundary_sweep
from repro.core.conformance import validate_strategy
from repro.core.fusion import (
    FusionPlanner,
    PlanArtifact,
    StalePlanError,
    candidate_plans,
    estimate_alpha_beta,
    fused_job,
    fused_model,
    load_plan,
    mgwfbp_plan,
    save_plan,
    uniform_buffer_plan,
)
from repro.core.options import Device, canonical_key, no_compression_option
from repro.core.presets import inter_allgather_option
from repro.core.strategy import (
    CompressionStrategy,
    FusedStrategy,
    FusionPlan,
    StrategyEvaluator,
)
from repro.models import synthetic_model
from repro.utils.units import MB, MS


def _job(num_machines: int = 2) -> JobConfig:
    model = synthetic_model(
        "fusion-test",
        [
            (int(1 * MB / 4), 3 * MS),
            (int(8 * MB / 4), 6 * MS),
            (int(2 * MB / 4), 4 * MS),
            (int(32 * MB / 4), 8 * MS),
            (int(8 * MB / 4), 6 * MS),
            (int(64 * MB / 4), 10 * MS),
            (int(2 * MB / 4), 4 * MS),
            (int(128 * MB / 4), 12 * MS),
        ],
        forward_time=15 * MS,
    )
    return JobConfig(
        model=model,
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(
            cluster=nvlink_100g_cluster(
                num_machines=num_machines, gpus_per_machine=4
            )
        ),
    )


JOB = _job()
N = JOB.model.num_tensors


def boundaries_st(n: int):
    """Random valid fusion boundaries over ``n`` tensors."""
    return st.lists(
        st.integers(min_value=1, max_value=n - 1),
        unique=True,
        max_size=n - 1,
    ).map(lambda interior: (0, *sorted(interior)))


# -- FusionPlan structure ----------------------------------------------------


@given(boundaries_st(N))
def test_plan_partition_is_exact(boundaries):
    plan = FusionPlan(num_tensors=N, boundaries=boundaries)
    groups = plan.groups()
    # Contiguous, exhaustive, non-overlapping.
    assert groups[0][0] == 0 and groups[-1][1] == N
    for (_, stop), (start, _) in zip(groups, groups[1:]):
        assert stop == start
    assert sum(plan.group_sizes()) == N
    for g, (start, stop) in enumerate(groups):
        for index in range(start, stop):
            assert plan.group_of(index) == g
    assert FusionPlan.from_sizes(plan.group_sizes()) == plan


def test_plan_rejects_malformed_boundaries():
    with pytest.raises(ValueError):
        FusionPlan(num_tensors=4, boundaries=(1, 2))  # must start at 0
    with pytest.raises(ValueError):
        FusionPlan(num_tensors=4, boundaries=(0, 2, 2))  # not increasing
    with pytest.raises(ValueError):
        FusionPlan(num_tensors=4, boundaries=(0, 4))  # out of range


# -- fusion as a model transformation ---------------------------------------


def test_singleton_fused_model_is_the_original_model():
    plan = FusionPlan.singleton(N)
    assert fused_model(JOB.model, plan) == JOB.model
    assert fused_job(JOB, plan) == JOB


@given(boundaries_st(N))
def test_fused_model_conserves_payload(boundaries):
    plan = FusionPlan(num_tensors=N, boundaries=boundaries)
    fused = fused_model(JOB.model, plan)
    assert fused.num_tensors == plan.num_groups
    assert fused.total_bytes == JOB.model.total_bytes
    for (start, stop), tensor in zip(plan.groups(), fused.tensors):
        assert tensor.num_elements == sum(
            t.num_elements for t in JOB.model.tensors[start:stop]
        )


# -- fused timelines pass the unmodified conformance stack ------------------


@settings(max_examples=10, deadline=None)
@given(boundaries_st(N), st.integers(min_value=0, max_value=2))
def test_fused_timelines_pass_invariants_and_oracle(boundaries, which):
    """Invariant battery + differential oracle + incremental exactness
    accept fused timelines unchanged."""
    plan = FusionPlan(num_tensors=N, boundaries=boundaries)
    job = fused_job(JOB, plan)
    option = [
        no_compression_option(),
        inter_allgather_option(Device.GPU),
        Espresso(job).select_strategy().strategy[0],
    ][which]
    strategy = CompressionStrategy(options=(option,) * plan.num_groups)
    report = validate_strategy(StrategyEvaluator(job), strategy, name="fused")
    assert report.ok, report.violations
    assert report.oracle_exact and report.incremental_exact


def test_selected_fused_strategy_passes_conformance():
    result = FusionPlanner(JOB).select_strategy()
    job = fused_job(JOB, result.plan)
    report = validate_strategy(
        StrategyEvaluator(job), result.strategy, name="selected"
    )
    assert report.ok, report.violations
    assert report.oracle_exact and report.incremental_exact


# -- equivalence: fused singleton == plain Espresso -------------------------


def test_pinned_singleton_plan_is_bit_identical_to_espresso():
    plain = Espresso(JOB).select_strategy()
    pinned = FusionPlanner(
        JOB, plan=FusionPlan.singleton(N)
    ).select_strategy()
    assert pinned.iteration_time == plain.iteration_time
    assert pinned.result.strategy.options == plain.strategy.options
    assert pinned.fused.per_tensor_options() == plain.strategy.options


def test_portfolio_never_loses_to_no_fusion():
    plain = Espresso(JOB).select_strategy()
    result = FusionPlanner(JOB).select_strategy()
    assert result.no_fusion_time == plain.iteration_time
    assert result.iteration_time <= plain.iteration_time


def test_selection_is_deterministic():
    first = FusionPlanner(JOB).select_strategy()
    second = FusionPlanner(JOB).select_strategy()
    assert first.fused.fingerprint() == second.fused.fingerprint()
    assert first.iteration_time == second.iteration_time


def test_fusion_ratio_ladder_never_loses_to_fixed_ratio():
    """--fusion --ratios: the laddered joint search never loses to the
    fixed-ratio search."""
    laddered = FusionPlanner(JOB, ratios=(0.001, 0.01, 0.1)).select_strategy()
    fixed = FusionPlanner(JOB).select_strategy()
    assert laddered.iteration_time <= fixed.iteration_time


def test_fusion_error_budget_respected():
    """Under --fusion --error-budget the committed fused strategy's
    element-weighted error stays within budget."""
    from repro.core.algorithm import ErrorBudget

    budget = 0.5
    result = FusionPlanner(JOB, error_budget=budget).select_strategy()
    evaluator = StrategyEvaluator(fused_job(JOB, result.plan))
    tracker = ErrorBudget(evaluator, budget)
    assert tracker.admits_strategy(result.strategy)


# -- candidate generators ----------------------------------------------------


def test_candidate_plans_lead_with_no_fusion_and_dedup():
    plans = candidate_plans(JOB)
    assert plans[0][0] == "none" and plans[0][1].is_singleton
    seen = [plan.boundaries for _, plan in plans]
    assert len(seen) == len(set(seen))


def test_alpha_beta_and_generators():
    alpha, beta = estimate_alpha_beta(JOB)
    assert alpha > 0.0 and beta > 0.0
    # A huge launch latency merges everything; a tiny one merges nothing.
    assert mgwfbp_plan(JOB.model, alpha=1e9).num_groups == 1
    assert mgwfbp_plan(JOB.model, alpha=1e-12).num_groups == N
    total = sum(t.num_elements for t in JOB.model.tensors)
    assert uniform_buffer_plan(JOB.model, total).num_groups == 1
    assert uniform_buffer_plan(JOB.model, 1).num_groups == N


def test_single_gpu_cluster_has_no_fusion_candidates():
    job = JobConfig(
        model=JOB.model,
        gc=JOB.gc,
        system=SystemInfo(
            cluster=nvlink_100g_cluster(num_machines=1, gpus_per_machine=1)
        ),
    )
    assert estimate_alpha_beta(job) == (0.0, 0.0)
    assert [name for name, _ in candidate_plans(job)] == ["none"]


# -- boundary refinement sweep ----------------------------------------------


def test_boundary_sweep_never_worsens():
    plan = FusionPlan.singleton(N)
    options = (no_compression_option(),) * N
    base_time = StrategyEvaluator(JOB).iteration_time(
        CompressionStrategy(options=options)
    )
    new_plan, new_options, swept_time, trials, accepts = fusion_boundary_sweep(
        JOB, plan, options, sweeps=3
    )
    assert swept_time <= base_time
    assert trials >= accepts
    assert len(new_options) == new_plan.num_groups
    # The swept time is honest: re-pricing the returned decision from
    # scratch reproduces it exactly.
    check = StrategyEvaluator(fused_job(JOB, new_plan)).iteration_time(
        CompressionStrategy(options=new_options)
    )
    assert check == swept_time


# -- brute force ground truth ------------------------------------------------


def test_brute_force_fusion_matches_partitioned_search():
    from repro.baselines.bruteforce import (
        brute_force_fusion_search,
        brute_force_search,
    )

    model = synthetic_model(
        "fusion-tiny",
        [
            (int(4 * MB / 4), 4 * MS),
            (int(1 * MB / 4), 3 * MS),
            (int(16 * MB / 4), 6 * MS),
        ],
        forward_time=8 * MS,
    )
    job = JobConfig(model=model, gc=JOB.gc, system=JOB.system)
    options = [no_compression_option(), inter_allgather_option(Device.GPU)]
    result = brute_force_fusion_search(job, options)
    assert result.partitions == 2 ** (model.num_tensors - 1)
    # The joint optimum is never worse than the best unfused strategy
    # (the singleton partition is one of the enumerated partitions) ...
    unfused = brute_force_search(StrategyEvaluator(job), options)
    assert result.iteration_time <= unfused.iteration_time
    # ... and never better than physically re-simulating its decision.
    check = StrategyEvaluator(
        fused_job(job, result.fused.plan)
    ).iteration_time(result.fused.as_strategy())
    assert check == result.iteration_time
    # The heuristic planner is bounded below by the exact joint optimum.
    planned = FusionPlanner(job).select_strategy()
    assert result.iteration_time <= planned.iteration_time


# -- stale-plan guards -------------------------------------------------------


def test_artifact_round_trip_and_stale_refusal(tmp_path):
    result = FusionPlanner(JOB).select_strategy()
    artifact = PlanArtifact.from_result(JOB, result)
    path = tmp_path / "plan.json"
    save_plan(path, artifact)
    loaded = load_plan(path)
    assert loaded == artifact
    loaded.check_against(JOB.model)  # fresh: no raise
    assert loaded.plan() == result.plan

    other = synthetic_model(
        "fusion-other", [(int(1 * MB / 4), 3 * MS)] * 4, forward_time=8 * MS
    )
    with pytest.raises(StalePlanError):
        loaded.check_against(other)
    # Same tensor count, different trace: still stale.
    resized = synthetic_model(
        "fusion-resized",
        [(t.num_elements + 1, t.compute_time) for t in JOB.model.tensors],
        forward_time=15 * MS,
    )
    with pytest.raises(StalePlanError):
        loaded.check_against(resized)


def test_artifact_v2_round_trips_ratio_fields(tmp_path):
    """The v2 schema carries ratio_schedule and error_budget through a
    save/load cycle; a v1 artifact (no ratio fields) still loads."""
    import json as json_module

    result = FusionPlanner(
        JOB, ratios=(0.001, 0.01, 0.1), error_budget=0.9
    ).select_strategy()
    artifact = PlanArtifact.from_result(JOB, result)
    assert artifact.schema == "espresso-plan/v2"
    assert len(artifact.ratio_schedule) == result.plan.num_groups
    assert artifact.error_budget == 0.9
    path = tmp_path / "plan.json"
    save_plan(path, artifact)
    loaded = load_plan(path)
    assert loaded == artifact
    assert loaded.ratio_schedule == artifact.ratio_schedule

    # Strip the v2 fields and downgrade the schema tag: still loads.
    data = json_module.loads(path.read_text(encoding="utf-8"))
    data["schema"] = "espresso-plan/v1"
    del data["ratio_schedule"]
    del data["error_budget"]
    path.write_text(json_module.dumps(data), encoding="utf-8")
    v1 = load_plan(path)
    assert v1.ratio_schedule == ()
    assert v1.error_budget is None
    v1.check_against(JOB.model)  # fresh: no raise


def test_load_plan_refuses_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(StalePlanError):
        load_plan(path)
    path.write_text('{"schema": "espresso-plan/v1"}')
    with pytest.raises(StalePlanError):
        load_plan(path)


def test_planner_refuses_mismatched_pinned_plan():
    with pytest.raises(StalePlanError):
        FusionPlanner(JOB, plan=FusionPlan.singleton(N + 1))


# -- CLI surface -------------------------------------------------------------


def test_cli_stale_plan_exits_2(tmp_path, capsys):
    from repro.cli import main

    artifact = PlanArtifact(
        model_name="fusion-test",
        num_tensors=5,
        tensor_elements=(1, 2, 3, 4, 5),
        boundaries=(0, 2),
    )
    path = tmp_path / "stale.json"
    save_plan(path, artifact)
    code = main(["plan", "--model", "vgg16", "--load", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stale plan:")
    assert err.count("\n") == 1  # one-line diagnostic


def test_cli_save_requires_fusion(capsys):
    from repro.cli import main

    code = main(["plan", "--model", "vgg16", "--save", "/tmp/x.json"])
    assert code == 2
