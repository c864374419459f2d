"""Joint fleet planning: fixed point, oscillation -> CVaR, portfolio
guarantee, and churn with budgeted replans.

The acceptance criteria of the fleet subsystem live here: joint
planning never worse than selfish on aggregate throughput for every
shipped job mix, every contended timeline passing the unmodified
invariant battery, and a churn drill where every replan either fits
its budget or degrades explicitly.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import nvlink_100g_cluster
from repro.cluster.tenancy import FleetSpec, TenantSpec
from repro.core.fleet import (
    FleetChurnController,
    FleetEvent,
    evaluate_assignment,
    example_mixes,
    fleet_churn_ensemble,
    plan_fleet,
)
from repro.core.presets import inter_allgather_option
from repro.core.robust import ReplanLedger
from repro.core.options import Device
from repro.core.strategy import (
    CompressionStrategy,
    StrategyEvaluator,
    baseline_strategy,
)
from repro.service.api import strategy_digest


def lstm_pair() -> FleetSpec:
    return example_mixes()["lstm-pair"]


def light_strategy(num_tensors: int) -> CompressionStrategy:
    option = inter_allgather_option(Device.GPU)
    return CompressionStrategy(options=tuple(option for _ in range(num_tensors)))


class QuickPlanner:
    """Cheap deterministic planner: always the all-compressed strategy."""

    def __init__(self, job):
        self.job = job
        self.evaluator = StrategyEvaluator(job)

    def select_strategy(self):
        strategy = light_strategy(self.job.model.num_tensors)
        return SimpleNamespace(
            strategy=strategy,
            iteration_time=self.evaluator.iteration_time(strategy),
        )


class FlipFlopPlanner:
    """Heavy on a pristine link, light on a degraded one.

    Engineered to cycle: the heavy (FP32) assignment crushes the shared
    link, which makes every planner switch to light; the light
    assignment frees the link, which makes every planner switch back.
    """

    def __init__(self, job):
        self.job = job
        self.evaluator = StrategyEvaluator(job)
        nominal_bw = nvlink_100g_cluster(2, 2).inter_bw
        # Between the ~0.76 scale a heavy assignment induces and the
        # ~0.99 a light one does, so the preference flips every round.
        self.contended = job.system.cluster.inter_bw < 0.9 * nominal_bw

    def select_strategy(self):
        n = self.job.model.num_tensors
        strategy = light_strategy(n) if self.contended else baseline_strategy(n)
        return SimpleNamespace(
            strategy=strategy,
            iteration_time=self.evaluator.iteration_time(strategy),
        )


# -- the joint planner -----------------------------------------------------


def test_shipped_mixes_joint_never_worse_than_selfish():
    """Acceptance criterion: for every shipped job mix, the joint plan's
    aggregate throughput is >= the selfish plan's, and every per-tenant
    contended timeline passes the unmodified invariant battery."""
    for name, fleet in example_mixes().items():
        result = plan_fleet(fleet, check=True)
        assert (
            result.aggregate_throughput
            >= result.selfish_aggregate_throughput
        ), name
        # check=True validated both the joint and the selfish
        # evaluation: one contended timeline per tenant each.
        assert result.timelines_checked == 2 * len(fleet.tenants), name
        for plan in result.tenants:
            # A contended link can only slow a tenant down.
            assert plan.slowdown >= 1.0 - 1e-12, (name, plan.name)
            assert plan.throughput > 0.0


def test_plan_fleet_converges_on_lstm_pair():
    result = plan_fleet(lstm_pair())
    assert result.converged
    assert not result.oscillated
    assert result.mode == "joint"
    assert result.rounds >= 1
    assert all(plan.source == "joint" for plan in result.tenants)
    assert result.plan_seconds > 0.0
    assert result.tenant("a").name == "a"
    with pytest.raises(KeyError):
        result.tenant("nobody")
    assert "converged" in result.summary()


def test_single_tenant_fleet_sees_no_contention():
    fleet = FleetSpec(
        cluster=nvlink_100g_cluster(2, 2),
        tenants=(TenantSpec(name="solo", model="lstm", gc="dgc", ratio=0.01),),
    )
    result = plan_fleet(fleet)
    plan = result.tenant("solo")
    assert plan.contention.is_nominal
    assert plan.slowdown == pytest.approx(1.0)


def test_oscillation_detector_falls_back_to_cvar():
    result = plan_fleet(lstm_pair(), planner_factory=FlipFlopPlanner)
    assert result.oscillated
    assert not result.converged
    # Portfolio guarantee holds regardless of which assignment ships.
    assert (
        result.aggregate_throughput >= result.selfish_aggregate_throughput
    )
    if result.mode == "joint":
        assert all(plan.source == "cvar" for plan in result.tenants)
    else:
        assert all(plan.source == "selfish" for plan in result.tenants)


def test_cvar_fallback_prices_the_round_plans_without_replanning():
    # pcie-trio oscillates, so the CVaR fallback runs for every tenant.
    # Its candidates are the selfish plan and the plans the rounds made
    # for each observed contention state, so the planner runs once per
    # tenant in round 0 and in each round, and never in the fallback:
    # in a fresh process that is 9 runs over 2 rounds (re-planning in
    # the fallback made it 18).  The round count is asserted through
    # ``result.rounds`` because exact-time ties between options break
    # by canonical key, which depends on what the process interned
    # before this test.
    from repro.core.espresso import Espresso

    runs = []

    def counting(job):
        runs.append(job)
        return Espresso(job)

    fleet = example_mixes()["pcie-trio"]
    result = plan_fleet(fleet, planner_factory=counting)
    assert result.oscillated
    assert all(plan.source == "cvar" for plan in result.tenants)
    assert len(runs) == len(fleet.tenants) * (result.rounds + 1)


def test_round_limit_without_cycle_also_falls_back():
    result = plan_fleet(
        lstm_pair(), planner_factory=FlipFlopPlanner, max_rounds=1
    )
    assert not result.converged
    assert result.rounds == 1
    assert (
        result.aggregate_throughput >= result.selfish_aggregate_throughput
    )


def test_plan_fleet_validation():
    with pytest.raises(ValueError, match="max_rounds"):
        plan_fleet(lstm_pair(), max_rounds=0)
    fleet = lstm_pair()
    with pytest.raises(ValueError, match="no strategy"):
        evaluate_assignment(fleet, {})


def test_evaluate_assignment_check_runs_invariant_battery():
    fleet = lstm_pair()
    strategies = {
        name: baseline_strategy(job.model.num_tensors)
        for name, job in fleet.jobs().items()
    }
    evaluation = evaluate_assignment(fleet, strategies, check=True)
    assert evaluation.timelines_checked == len(fleet.tenants)
    assert evaluation.aggregate_throughput > 0.0


def test_cancel_check_aborts_planning():
    class Cancelled(Exception):
        pass

    def cancel():
        raise Cancelled()

    with pytest.raises(Cancelled):
        plan_fleet(lstm_pair(), cancel_check=cancel)


# -- churn -----------------------------------------------------------------


def test_fleet_event_validation():
    with pytest.raises(ValueError, match="kind"):
        FleetEvent(kind="resize")
    with pytest.raises(ValueError, match="tenant spec"):
        FleetEvent(kind="arrive")
    with pytest.raises(ValueError, match="tenant name"):
        FleetEvent(kind="depart")
    arrive = FleetEvent(
        kind="arrive", tenant=TenantSpec(name="x", model="lstm")
    )
    assert arrive.tenant_name == "x"
    assert arrive.describe() == "arrive:x"
    assert FleetEvent(kind="depart", name="x").describe() == "depart:x"


def test_churn_drill_all_replans_within_budget_or_degraded():
    """Acceptance criterion: a churn drill (arrivals + departures)
    completes every replan within budget or degrades explicitly — no
    crashes, no silently stale plans."""
    controller = FleetChurnController(
        lstm_pair(), planner_factory=QuickPlanner
    )
    report = controller.run(
        [
            FleetEvent(
                kind="arrive",
                tenant=TenantSpec(name="c", model="lstm", gc="topk", ratio=0.01),
            ),
            FleetEvent(kind="depart", name="a"),
            FleetEvent(
                kind="arrive",
                tenant=TenantSpec(name="d", model="lstm", gc="fp16"),
            ),
            FleetEvent(kind="depart", name="c"),
        ]
    )
    assert len(report.records) == 4
    assert report.all_accounted
    assert report.ledger.events == len(report.replans)
    # Membership bookkeeping: final fleet is {b, d}.
    assert controller.fleet.names == ("b", "d")
    assert set(controller.strategies()) == {"b", "d"}
    for replan in report.replans:
        assert replan.iteration_time > 0.0
        if not replan.degraded:
            assert replan.within_budget
            assert replan.source.startswith(
                ("table:", "portfolio:", "full-plan")
            )
    assert "replan(s)" in report.summary()


def test_churn_exhausted_ledger_degrades_to_selfish_explicitly():
    controller = FleetChurnController(
        lstm_pair(),
        planner_factory=QuickPlanner,
        budget_seconds=60.0,
        ledger=ReplanLedger(total_seconds=1e-9),
    )
    record = controller.apply(
        FleetEvent(
            kind="arrive",
            tenant=TenantSpec(name="c", model="lstm", gc="topk", ratio=0.01),
        )
    )
    assert all(r.degraded for r in record.replans)
    assert all(r.source == "degraded:selfish" for r in record.replans)
    assert all(not r.within_budget for r in record.replans)
    assert controller.report.degraded_fraction == 1.0
    assert controller.report.all_accounted
    # The live assignment IS the admission-time selfish plan.
    for name, strategy in controller.strategies().items():
        assert strategy_digest(strategy) == strategy_digest(
            controller._selfish[name]
        )


def test_churn_membership_errors_are_loud():
    controller = FleetChurnController(
        lstm_pair(), planner_factory=QuickPlanner
    )
    with pytest.raises(ValueError, match="unknown tenant"):
        controller.apply(FleetEvent(kind="depart", name="ghost"))
    with pytest.raises(ValueError, match="already admitted"):
        controller.apply(
            FleetEvent(kind="arrive", tenant=TenantSpec(name="a", model="lstm"))
        )
    controller.apply(FleetEvent(kind="depart", name="a"))
    with pytest.raises(ValueError, match="at least one tenant"):
        controller.apply(FleetEvent(kind="depart", name="b"))
    with pytest.raises(ValueError, match="budget_seconds"):
        FleetChurnController(
            lstm_pair(), planner_factory=QuickPlanner, budget_seconds=0.0
        )


def test_churn_ensemble_is_a_pressure_ladder():
    ensemble = fleet_churn_ensemble()
    assert ensemble[0].is_nominal
    assert len(ensemble) >= 3
    names = [model.name for model in ensemble]
    assert len(set(names)) == len(names)
