"""Robust strategy selection, sensitivity sweeps, and the degradation
table's bounded-time replan path."""

import pytest

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.robust import (
    CVAR,
    WORST_CASE,
    DegradationTable,
    ReplanLedger,
    cvar,
    robust_select,
    sensitivity_sweep,
    worst_case,
)
from repro.core.strategy import StrategyEvaluator, baseline_strategy
from repro.models import get_model
from repro.sim.faults import FaultModel, StragglerGPU, default_ensemble


def make_job(model="vgg16", testbed="nvlink", machines=2, gpus=4):
    cluster = (
        nvlink_100g_cluster(machines, gpus)
        if testbed == "nvlink"
        else pcie_25g_cluster(machines, gpus)
    )
    return JobConfig(
        model=get_model(model),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=cluster),
    )


def test_worst_case_and_cvar_math():
    times = [3.0, 1.0, 4.0, 2.0]
    assert worst_case(times) == 4.0
    assert cvar(times, alpha=1.0) == pytest.approx(2.5)  # plain mean
    assert cvar(times, alpha=0.25) == 4.0  # 1-element tail = worst case
    assert cvar(times, alpha=0.5) == pytest.approx(3.5)  # mean of {4, 3}
    with pytest.raises(ValueError):
        worst_case([])
    with pytest.raises(ValueError):
        cvar(times, alpha=0.0)
    with pytest.raises(ValueError):
        cvar(times, alpha=1.5)


def test_sensitivity_sweep_shape_and_nominal_column():
    job = make_job("lstm", "pcie")
    fp32 = baseline_strategy(job.model.num_tensors)
    report = sensitivity_sweep(job, [("fp32", fp32)])
    ensemble = default_ensemble()
    assert report.fault_names == tuple(fm.name for fm in ensemble)
    entry = report.strategy("fp32")
    assert len(entry.times) == len(ensemble)
    # The "nominal" ensemble member is the unperturbed job.
    expected = StrategyEvaluator(job).iteration_time(fp32)
    assert entry.time_under("nominal") == expected
    assert entry.nominal_time == expected
    assert entry.overhead_under("nominal") == pytest.approx(0.0)
    # Worst fault is a real ensemble member with positive overhead.
    assert entry.worst_fault in report.fault_names
    assert entry.worst_time >= expected
    with pytest.raises(KeyError):
        report.strategy("missing")
    with pytest.raises(KeyError):
        entry.time_under("missing")


def test_sensitivity_sweep_rejects_empty_inputs():
    job = make_job("lstm", "pcie")
    fp32 = baseline_strategy(job.model.num_tensors)
    with pytest.raises(ValueError):
        sensitivity_sweep(job, [])
    with pytest.raises(ValueError):
        sensitivity_sweep(job, [("fp32", fp32)], ensemble=[])


def test_sensitivity_sweep_check_validates_faulted_timelines():
    job = make_job("lstm", "pcie")
    fp32 = baseline_strategy(job.model.num_tensors)
    report = sensitivity_sweep(job, [("fp32", fp32)], check=True)
    # One validated timeline per ensemble member.
    assert report.timelines_checked == len(default_ensemble())


def test_robust_select_never_worse_than_default():
    """The robust winner's objective is <= the default plan's objective:
    the default strategy is always in the candidate pool."""
    for testbed in ("nvlink", "pcie"):
        result = robust_select(make_job("vgg16", testbed))
        assert result.objective == WORST_CASE
        assert result.objective_value <= result.default_objective_value
        assert result.candidates_evaluated >= len(default_ensemble())
        assert len(result.per_fault_times) == len(default_ensemble())
        assert result.selection_seconds > 0.0


def test_robust_select_differs_from_default_on_vgg16():
    """Acceptance criterion: on the documented preset, robust selection
    picks a *different* strategy whose worst case strictly improves on
    the nominal plan's worst case (PCIe testbed).  On NVLink the
    tie-break/epsilon-unified planner already produces a nominal plan
    matching the robust winner's worst case, so the decision moves on
    the nominal-time tie-break instead."""
    result = robust_select(make_job("vgg16", "pcie"))
    assert result.differs_from_default
    assert result.objective_value < result.default_objective_value
    assert result.candidate_name != "espresso-nominal"
    assert "replaces the nominal plan" in result.summary()

    nvlink = robust_select(make_job("vgg16", "nvlink"))
    assert nvlink.differs_from_default
    assert nvlink.objective_value <= nvlink.default_objective_value


def test_robust_select_can_confirm_nominal_plan():
    """On presets where the nominal plan is already robust, the sweep
    confirms it instead of churning the decision."""
    result = robust_select(make_job("lstm", "nvlink"))
    assert not result.differs_from_default
    assert result.objective_value == result.default_objective_value
    assert "confirms the nominal plan" in result.summary()


def test_robust_select_cvar_objective():
    result = robust_select(
        make_job("vgg16", "nvlink"), objective=CVAR, cvar_alpha=0.5
    )
    assert result.objective == CVAR
    assert result.objective_value <= result.default_objective_value
    with pytest.raises(ValueError):
        robust_select(make_job("lstm", "pcie"), objective="median")
    with pytest.raises(ValueError):
        robust_select(make_job("lstm", "pcie"), ensemble=[])


def test_degradation_table_build_and_lookup():
    job = make_job("lstm", "pcie")
    table = DegradationTable.build(job)
    assert set(table.entries) == {fm.name for fm in default_ensemble()}
    assert table.max_plan_seconds > 0.0
    entry = table.lookup("straggler-1.5x")
    assert entry.fault_name == "straggler-1.5x"
    # The precomputed plan is priced on the state it was planned for.
    perturbed = StragglerGPU(1.5).apply(job)
    assert entry.iteration_time == pytest.approx(
        StrategyEvaluator(perturbed).iteration_time(entry.strategy)
    )
    with pytest.raises(KeyError):
        table.lookup("unknown-fault")


def test_replan_zero_budget_skips_full_planner():
    job = make_job("lstm", "pcie")
    table = DegradationTable.build(job)
    fault = FaultModel("straggler-2x", (StragglerGPU(2.0),))
    result = table.replan(fault, budget_seconds=0.0)
    assert not result.used_full_planner
    assert result.source.startswith(("table:", "portfolio:"))
    # Never worse than the best precomputed fallback on the new state.
    evaluator = StrategyEvaluator(fault.apply_to_job(job))
    best_table = min(
        evaluator.iteration_time(entry.strategy)
        for entry in table.entries.values()
    )
    assert result.iteration_time <= best_table


def test_replan_generous_budget_runs_full_planner():
    job = make_job("lstm", "pcie")
    table = DegradationTable.build(job)
    fault = FaultModel("straggler-2x", (StragglerGPU(2.0),))
    fast = table.replan(fault, budget_seconds=0.0)
    full = table.replan(fault, budget_seconds=60.0)
    assert full.used_full_planner
    # A fresh plan can only improve on the precomputed pool.
    assert full.iteration_time <= fast.iteration_time


def test_replan_for_known_state_matches_table_entry():
    """Replanning for a state the table already covers is at least as
    good as that state's own precomputed entry."""
    job = make_job("lstm", "pcie")
    table = DegradationTable.build(job)
    for fault_model in default_ensemble():
        result = table.replan(fault_model, budget_seconds=0.0)
        entry = table.lookup(fault_model.name)
        assert result.iteration_time <= entry.iteration_time + 1e-12


# -- cumulative replan budget (ReplanLedger) -------------------------------


def test_replan_ledger_validation():
    with pytest.raises(ValueError, match="total_seconds"):
        ReplanLedger(total_seconds=0.0)
    ledger = ReplanLedger(total_seconds=1.0)
    with pytest.raises(ValueError):
        ledger.charge(-0.1)
    ledger.charge(0.4)
    assert ledger.remaining() == pytest.approx(0.6)
    assert not ledger.exhausted
    ledger.charge(2.0)
    assert ledger.remaining() == 0.0
    assert ledger.exhausted
    assert ledger.events == 2


def test_replan_ledger_caps_back_to_back_membership_storm(planner_clock):
    """Regression for the replan budget accounting: ``budget_seconds``
    alone is per-event, so a storm of back-to-back membership faults
    historically spent ``events x budget`` in full planner runs.  A
    shared ledger makes the budget cumulative: once the remainder drops
    below the table's worst plan time, later replans stop running the
    full planner but still answer from the precomputed pool.  Every
    planner run costs one fixed clock step, so the budget decisions do
    not depend on how fast this host plans."""
    from repro.training.elastic import membership_model

    job = make_job("lstm", "pcie")
    table = DegradationTable.build(job, planner_factory=planner_clock.planner_factory)
    assert table.max_plan_seconds == planner_clock.step
    storm = [membership_model(3 if i % 2 == 0 else 4) for i in range(6)]

    # Without a ledger every event pays full price — the old behaviour.
    unledgered = [table.replan(fm, budget_seconds=60.0) for fm in storm]
    assert all(r.used_full_planner for r in unledgered)

    ledger = ReplanLedger(total_seconds=2.5 * table.max_plan_seconds)
    results = []
    for fault_model in storm:
        results.append(
            table.replan(fault_model, budget_seconds=60.0, ledger=ledger)
        )

    # A ledger of 2.5 plan times affords exactly two full replans.
    assert [r.used_full_planner for r in results] == [True, True] + [False] * 4
    # Early events still afford the full planner...
    assert results[0].used_full_planner
    # ...but the cumulative cap kicks in before the storm ends.
    assert not results[-1].used_full_planner
    assert any(not r.used_full_planner for r in results)
    # Every replan still answers, never silently stale.
    for result in results:
        assert result.strategy is not None
        assert result.iteration_time > 0.0
        assert result.source.startswith(
            ("table:", "portfolio:", "full-plan")
        )
        # The effective budget never exceeds the per-event one.
        assert result.budget_seconds <= 60.0
    # The accounting is exact: every call charged its wall-clock.
    assert ledger.events == len(storm)
    assert ledger.spent_seconds == pytest.approx(
        sum(r.seconds for r in results)
    )
    # Total spend is bounded by the ledger plus one in-flight replan,
    # not by events x budget.
    assert ledger.spent_seconds < ledger.total_seconds + max(
        r.seconds for r in results
    )


def test_replan_exhausted_ledger_flags_over_budget():
    from repro.training.elastic import membership_model

    job = make_job("lstm", "pcie")
    table = DegradationTable.build(job)
    ledger = ReplanLedger(total_seconds=1e-9)
    result = table.replan(
        membership_model(3), budget_seconds=60.0, ledger=ledger
    )
    # Still answers from the precomputed pool...
    assert result.strategy is not None
    assert not result.used_full_planner
    # ...but reports the blown budget so callers degrade explicitly.
    assert not result.within_budget
