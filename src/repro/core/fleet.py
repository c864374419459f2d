"""Joint fleet planning: contention-robust co-scheduling with churn.

Single-job Espresso answers "what is the best strategy for this job on
this cluster"; a fleet asks the coupled question — every tenant's
best strategy depends on the bandwidth the *other* tenants' strategies
leave behind.  This module closes the loop on top of the projection in
:mod:`repro.cluster.tenancy`:

* :func:`plan_fleet` — the joint planner.  Round 0 plans every tenant
  selfishly (in isolation); each subsequent round replans every tenant
  against the contention the previous round's assignment induces
  (Jacobi iteration — all tenants move simultaneously against the same
  snapshot, which keeps the rounds deterministic and order-free).  A
  repeated assignment signature without convergence is a cycle: the
  deterministic oscillation detector stops the iteration and falls back
  to :func:`~repro.core.robust.robust_pick` with the CVaR objective
  over the *observed contention envelope* — the degraded link states
  the iteration actually visited — pricing the plans the rounds
  already made for those states.  Finally the portfolio guarantee: the
  joint assignment and the selfish assignment are priced by the same
  one-shot contention evaluation, and whichever aggregates more
  throughput ships — joint planning is never worse than selfish, by
  construction.
* :class:`FleetChurnController` — tenant arrival/departure events drive
  budgeted replans through each tenant's precomputed
  :class:`~repro.core.robust.DegradationTable`, all charged to one
  cumulative :class:`~repro.core.robust.ReplanLedger`.  When the budget
  is blown the controller degrades *explicitly* to the tenant's
  admission-time selfish plan (the PR 8 ladder convention): every plan
  in flight is either a within-budget replan or a flagged fallback —
  never a silently stale strategy.

Every contended timeline is produced by the unmodified simulator from
an ordinary perturbed job, so ``check=True`` runs the unmodified
invariant battery on all of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.tenancy import (
    FleetSpec,
    LinkLoad,
    MIN_BANDWIDTH_SHARE,
    TenantSpec,
    contention_models,
    link_load,
)
from repro.config import JobConfig
from repro.core.robust import (
    CVAR,
    DegradationTable,
    ReplanLedger,
    robust_pick,
)
from repro.core.strategy import CompressionStrategy, StrategyEvaluator
from repro.sim.faults import CPUContention, DegradedLink, FaultModel, INTER_SCOPE
from repro.sim.metrics import iteration_time as timeline_iteration_time
from repro.sim.metrics import throughput

#: ``job -> planner`` factory; the planner must expose
#: ``select_strategy() -> result`` with a ``.strategy`` attribute.
PlannerFactory = Callable[[JobConfig], object]

#: Tenant-plan provenance inside a fleet result.
SOURCE_JOINT = "joint"
SOURCE_SELFISH = "selfish"
SOURCE_CVAR = "cvar"


def fleet_churn_ensemble() -> List[FaultModel]:
    """Degraded states a tenant's churn table is pre-planned against.

    A ladder of shared-link pressure (the only fault class fleet
    contention produces) from nominal to storm; the actual contention
    model observed at replan time is scored against all of them, so the
    closest precomputed entry answers even when the full planner does
    not fit the budget.
    """
    return [
        FaultModel.nominal(),
        FaultModel("fleet-light", (DegradedLink(INTER_SCOPE, 0.75),)),
        FaultModel("fleet-heavy", (DegradedLink(INTER_SCOPE, 0.5),)),
        FaultModel(
            "fleet-storm",
            (
                DegradedLink(INTER_SCOPE, 0.25),
                CPUContention(slowdown=1.0, stolen_workers=1),
            ),
        ),
    ]


# -- planning the member jobs ----------------------------------------------


def _install_cancel(planner, cancel_check) -> None:
    if cancel_check is not None and hasattr(planner, "evaluator"):
        planner.evaluator.cancel_check = cancel_check


def _plan_jobs(
    member_jobs: Sequence[JobConfig],
    planner_factory: Optional[PlannerFactory],
    cancel_check,
) -> List[CompressionStrategy]:
    """One full planner run per member job, in member order."""
    if planner_factory is None:
        from repro.core.espresso import Espresso  # circular-import guard

        planner_factory = Espresso
    strategies = []
    for job in member_jobs:
        if cancel_check is not None:
            cancel_check()
        planner = planner_factory(job)
        _install_cancel(planner, cancel_check)
        strategies.append(planner.select_strategy().strategy)
    return strategies


# -- the one-shot contention evaluation ------------------------------------


@dataclass
class FleetEvaluation:
    """One assignment priced under the contention it induces.

    The operator is the same for every assignment (simulate each tenant
    alone, project the loads, price each tenant on its perturbed job),
    which is what makes the joint-vs-selfish portfolio comparison fair.
    """

    loads: Dict[str, LinkLoad]
    models: Dict[str, FaultModel]
    nominal_times: Dict[str, float]
    contended_times: Dict[str, float]
    throughputs: Dict[str, float]
    timelines_checked: int

    @property
    def aggregate_throughput(self) -> float:
        return math.fsum(
            self.throughputs[name] for name in sorted(self.throughputs)
        )


def evaluate_assignment(
    fleet: FleetSpec,
    strategies: Dict[str, CompressionStrategy],
    min_share: float = MIN_BANDWIDTH_SHARE,
    check: bool = False,
    cancel_check=None,
) -> FleetEvaluation:
    """Price one per-tenant strategy assignment under its own contention.

    Each tenant's strategy is simulated on the unperturbed cluster to
    read off its offered load; the loads project to per-tenant
    contention models; each strategy is then priced on its contended
    job.  With ``check=True`` every contended timeline runs the
    unmodified invariant battery.
    """
    jobs_by_name = fleet.jobs()
    missing = sorted(set(jobs_by_name) - set(strategies))
    if missing:
        raise ValueError(f"no strategy for tenant(s): {', '.join(missing)}")
    names = sorted(jobs_by_name)
    loads: Dict[str, LinkLoad] = {}
    nominal_times: Dict[str, float] = {}
    for name in names:
        if cancel_check is not None:
            cancel_check()
        evaluator = StrategyEvaluator(jobs_by_name[name])
        evaluator.cancel_check = cancel_check
        timeline = evaluator.timeline(strategies[name])
        loads[name] = link_load(name, jobs_by_name[name], timeline)
        nominal_times[name] = timeline_iteration_time(
            timeline, jobs_by_name[name].model
        )
    models = contention_models(
        list(loads.values()), fleet.cluster, min_share=min_share
    )
    contended_times: Dict[str, float] = {}
    throughputs: Dict[str, float] = {}
    checked = 0
    for name in names:
        if cancel_check is not None:
            cancel_check()
        perturbed = models[name].apply_to_job(jobs_by_name[name])
        evaluator = StrategyEvaluator(perturbed, check=check)
        evaluator.cancel_check = cancel_check
        timeline = evaluator.timeline(strategies[name])
        contended = timeline_iteration_time(timeline, perturbed.model)
        contended_times[name] = contended
        throughputs[name] = throughput(
            perturbed.model, fleet.cluster, contended
        )
        checked += evaluator.timelines_checked
    return FleetEvaluation(
        loads=loads,
        models=models,
        nominal_times=nominal_times,
        contended_times=contended_times,
        throughputs=throughputs,
        timelines_checked=checked,
    )


# -- the joint fixed-point planner -----------------------------------------


@dataclass(frozen=True)
class TenantPlan:
    """One tenant's share of a fleet plan."""

    name: str
    model: str
    strategy: CompressionStrategy
    #: Iteration time alone on the uncontended cluster.
    nominal_time: float
    #: Iteration time under the shipped assignment's contention.
    contended_time: float
    #: Samples/second under contention.
    throughput: float
    contention: FaultModel
    source: str  # "joint", "selfish", or "cvar"

    @property
    def slowdown(self) -> float:
        """Contended iteration time relative to running alone."""
        return self.contended_time / self.nominal_time


@dataclass
class FleetPlanResult:
    """Outcome of :func:`plan_fleet` for one job mix."""

    fleet: FleetSpec
    tenants: Tuple[TenantPlan, ...]
    #: ``"joint"`` when the joint assignment shipped, ``"selfish"`` when
    #: the portfolio guarantee fell back to the selfish plans.
    mode: str
    converged: bool
    oscillated: bool
    rounds: int
    aggregate_throughput: float
    selfish_aggregate_throughput: float
    timelines_checked: int
    plan_seconds: float

    def tenant(self, name: str) -> TenantPlan:
        for plan in self.tenants:
            if plan.name == name:
                return plan
        raise KeyError(name)

    @property
    def worst_slowdown(self) -> float:
        """The worst tenant's contended/nominal ratio."""
        return max(plan.slowdown for plan in self.tenants)

    def summary(self) -> str:
        if self.mode == "joint":
            how = "converged" if self.converged else (
                "CVaR fallback after oscillation"
                if self.oscillated
                else "CVaR fallback after round limit"
            )
        else:
            how = "selfish portfolio fallback"
        return (
            f"fleet of {len(self.tenants)}: {how} in {self.rounds} "
            f"round(s), aggregate {self.aggregate_throughput:,.0f} "
            f"samples/s (selfish {self.selfish_aggregate_throughput:,.0f}), "
            f"worst tenant slowdown {self.worst_slowdown:.2f}x, "
            f"planned in {self.plan_seconds * 1e3:.1f} ms"
        )


def _signature(
    names: Sequence[str], strategies: Dict[str, CompressionStrategy]
) -> Tuple:
    """Deterministic assignment identity for the oscillation detector."""
    return tuple(strategies[name].fingerprint() for name in names)


def _model_key(model: FaultModel) -> str:
    return "; ".join(fault.describe() for fault in model.faults)


def plan_fleet(
    fleet: FleetSpec,
    planner_factory: Optional[PlannerFactory] = None,
    max_rounds: int = 6,
    min_share: float = MIN_BANDWIDTH_SHARE,
    cvar_alpha: float = 0.25,
    check: bool = False,
    cancel_check=None,
) -> FleetPlanResult:
    """Jointly plan every tenant of ``fleet`` against shared-link contention.

    Fixed-point iteration with a deterministic oscillation detector and
    a CVaR fallback (module docstring has the full story).  The result
    is never worse than selfish planning on aggregate throughput: both
    assignments are priced by the same one-shot contention evaluation
    and the better one ships.

    Args:
        planner_factory: ``job -> planner`` override (tests inject a
            cheaper configuration); defaults to the stock Espresso.
        max_rounds: fixed-point iterations before the CVaR fallback.
        min_share: bandwidth-share floor of the contention projection.
        check: run the unmodified invariant battery on every contended
            timeline of both the joint and the selfish evaluation.
        cancel_check: cooperative-cancellation seam (a service
            request's ``Deadline.check``), called between planner runs
            and installed on every evaluator.
    """
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    start = time.perf_counter()
    names = sorted(fleet.names)
    jobs_by_name = fleet.jobs()
    member_jobs = [jobs_by_name[name] for name in names]

    selfish = dict(
        zip(names, _plan_jobs(member_jobs, planner_factory, cancel_check))
    )

    current = dict(selfish)
    sources = {name: SOURCE_JOINT for name in names}
    # Per tenant, in order of first sight: each degraded contention
    # model the rounds visited (keyed by its faults, since every model
    # of tenant X is named "fleet:X") and the plan made for it then.
    observed: Dict[str, Dict[str, Tuple[FaultModel, CompressionStrategy]]] = {
        name: {} for name in names
    }
    history = {_signature(names, current)}
    converged = False
    oscillated = False
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        evaluation = evaluate_assignment(
            fleet, current, min_share=min_share, cancel_check=cancel_check
        )
        perturbed_jobs = [
            evaluation.models[name].apply_to_job(jobs_by_name[name])
            for name in names
        ]
        next_assignment = dict(
            zip(names, _plan_jobs(perturbed_jobs, planner_factory, cancel_check))
        )
        for name in names:
            model = evaluation.models[name]
            if not model.is_nominal:
                observed[name].setdefault(
                    _model_key(model), (model, next_assignment[name])
                )
        next_sig = _signature(names, next_assignment)
        if next_sig == _signature(names, current):
            converged = True
            current = next_assignment
            break
        if next_sig in history:
            oscillated = True
            break
        history.add(next_sig)
        current = next_assignment

    if not converged:
        # The iteration cycled (or ran out of rounds): stop chasing the
        # moving target and pick, per tenant, the strategy with the best
        # CVaR over the contention envelope the iteration actually
        # visited.  Deterministic: the envelope is an ordered dedup of
        # observed models.  The candidates are the plans the rounds
        # already made (the selfish plan is the nominal one), named as
        # robust_select names its own planner runs.
        for name in names:
            seen = list(observed[name].values())
            planned = [("espresso-nominal", selfish[name])] + [
                (f"espresso-{model.name}", plan) for model, plan in seen
            ]
            current[name] = robust_pick(
                jobs_by_name[name],
                planned,
                [FaultModel.nominal()] + [model for model, _ in seen],
                CVAR,
                cvar_alpha,
                check=False,
                start=time.perf_counter(),
            ).strategy
            sources[name] = SOURCE_CVAR

    joint_eval = evaluate_assignment(
        fleet, current, min_share=min_share, check=check,
        cancel_check=cancel_check,
    )
    selfish_eval = evaluate_assignment(
        fleet, selfish, min_share=min_share, check=check,
        cancel_check=cancel_check,
    )
    checked = joint_eval.timelines_checked + selfish_eval.timelines_checked

    # Portfolio guarantee: ship whichever assignment aggregates more
    # throughput under the identical evaluation operator.
    if joint_eval.aggregate_throughput >= selfish_eval.aggregate_throughput:
        mode, final, final_eval = "joint", current, joint_eval
    else:
        mode, final, final_eval = "selfish", selfish, selfish_eval
        sources = {name: SOURCE_SELFISH for name in names}

    tenants = tuple(
        TenantPlan(
            name=name,
            model=jobs_by_name[name].model.name,
            strategy=final[name],
            nominal_time=final_eval.nominal_times[name],
            contended_time=final_eval.contended_times[name],
            throughput=final_eval.throughputs[name],
            contention=final_eval.models[name],
            source=sources[name],
        )
        for name in names
    )
    return FleetPlanResult(
        fleet=fleet,
        tenants=tenants,
        mode=mode,
        converged=converged,
        oscillated=oscillated,
        rounds=rounds,
        aggregate_throughput=final_eval.aggregate_throughput,
        selfish_aggregate_throughput=selfish_eval.aggregate_throughput,
        timelines_checked=checked,
        plan_seconds=time.perf_counter() - start,
    )


# -- churn: tenant arrivals and departures ---------------------------------


@dataclass(frozen=True)
class FleetEvent:
    """One tenant arrival or departure."""

    kind: str  # "arrive" | "depart"
    tenant: Optional[TenantSpec] = None
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("arrive", "depart"):
            raise ValueError(
                f"kind must be 'arrive' or 'depart', got {self.kind!r}"
            )
        if self.kind == "arrive" and self.tenant is None:
            raise ValueError("an 'arrive' event needs a tenant spec")
        if self.kind == "depart" and not self.name:
            raise ValueError("a 'depart' event needs a tenant name")

    @property
    def tenant_name(self) -> str:
        return self.tenant.name if self.kind == "arrive" else self.name

    def describe(self) -> str:
        return f"{self.kind}:{self.tenant_name}"


@dataclass(frozen=True)
class TenantReplan:
    """One tenant's replan outcome after a churn event."""

    tenant: str
    source: str
    seconds: float
    budget_seconds: float
    within_budget: bool
    #: True when the budget was blown and the controller explicitly
    #: fell back to the admission-time selfish plan.
    degraded: bool
    iteration_time: float


@dataclass(frozen=True)
class ChurnRecord:
    """One applied churn event and the replans it triggered."""

    index: int
    event: str
    tenants: Tuple[str, ...]
    replans: Tuple[TenantReplan, ...]


@dataclass
class ChurnReport:
    """Outcome of a churn drill: every replan accounted for."""

    records: List[ChurnRecord] = field(default_factory=list)
    ledger: Optional[ReplanLedger] = None

    @property
    def replans(self) -> List[TenantReplan]:
        return [r for record in self.records for r in record.replans]

    @property
    def degraded_fraction(self) -> float:
        replans = self.replans
        if not replans:
            return 0.0
        return sum(1 for r in replans if r.degraded) / len(replans)

    @property
    def all_accounted(self) -> bool:
        """Every replan either finished within budget or degraded
        explicitly — the no-silently-stale-plans contract."""
        return all(r.within_budget or r.degraded for r in self.replans)

    def summary(self) -> str:
        replans = self.replans
        degraded = sum(1 for r in replans if r.degraded)
        line = (
            f"{len(self.records)} churn event(s), {len(replans)} replan(s), "
            f"{degraded} degraded to selfish"
        )
        if self.ledger is not None:
            line += (
                f"; ledger {self.ledger.spent_seconds * 1e3:.1f} ms of "
                f"{self.ledger.total_seconds * 1e3:.1f} ms spent"
            )
        return line


class FleetChurnController:
    """Drive a fleet through tenant churn with budgeted replans.

    Admission (construction and every arrival) pays full price: a
    selfish plan and a :class:`~repro.core.robust.DegradationTable` per
    tenant.  Churn is then bounded: each event recomputes the
    contention projection and replans every remaining tenant through
    its table, with all wall-clock charged to one cumulative
    :class:`~repro.core.robust.ReplanLedger`.  A blown budget degrades
    that tenant explicitly to its admission-time selfish plan — flagged
    in the record, never silent.

    Args:
        fleet: the initial job mix.
        planner_factory: planner override, as in :func:`plan_fleet`.
        budget_seconds: per-event replan budget; defaults to twice the
            worst single-plan time observed while building the tables.
        ledger: cumulative budget across all events; defaults to
            ``4 x`` the per-event default (a storm beyond that serves
            precomputed candidates and degrades explicitly).
        min_share: bandwidth-share floor of the contention projection.
    """

    def __init__(
        self,
        fleet: FleetSpec,
        planner_factory: Optional[PlannerFactory] = None,
        budget_seconds: Optional[float] = None,
        ledger: Optional[ReplanLedger] = None,
        min_share: float = MIN_BANDWIDTH_SHARE,
    ) -> None:
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError(
                f"budget_seconds must be > 0, got {budget_seconds}"
            )
        self.cluster = fleet.cluster
        self.planner_factory = planner_factory
        self.budget_seconds = budget_seconds
        self.min_share = min_share
        self._tenants: Dict[str, TenantSpec] = {}
        self._tables: Dict[str, DegradationTable] = {}
        self._selfish: Dict[str, CompressionStrategy] = {}
        self._current: Dict[str, CompressionStrategy] = {}
        self.report = ChurnReport()
        for tenant in fleet.tenants:
            self._admit(tenant)
        if ledger is None:
            ledger = ReplanLedger(total_seconds=4.0 * self._event_budget())
        self.ledger = ledger
        self.report.ledger = ledger

    @property
    def fleet(self) -> FleetSpec:
        """The current membership as a :class:`FleetSpec`."""
        return FleetSpec(
            cluster=self.cluster,
            tenants=tuple(
                self._tenants[name] for name in sorted(self._tenants)
            ),
        )

    def strategies(self) -> Dict[str, CompressionStrategy]:
        """The live per-tenant strategy assignment."""
        return dict(self._current)

    def _admit(self, tenant: TenantSpec) -> None:
        if tenant.name in self._tenants:
            raise ValueError(f"tenant {tenant.name!r} already admitted")
        job = tenant.job(self.cluster)
        table = DegradationTable.build(
            job,
            ensemble=fleet_churn_ensemble(),
            planner_factory=self.planner_factory,
        )
        self._tenants[tenant.name] = tenant
        self._tables[tenant.name] = table
        # The nominal table entry IS the selfish plan — one planner run,
        # already paid for by the table build.
        self._selfish[tenant.name] = table.lookup("nominal").strategy
        self._current[tenant.name] = self._selfish[tenant.name]

    def _evict(self, name: str) -> None:
        if name not in self._tenants:
            raise ValueError(
                f"cannot depart unknown tenant {name!r}; present: "
                f"{', '.join(sorted(self._tenants)) or '(none)'}"
            )
        if len(self._tenants) == 1:
            raise ValueError(
                f"cannot depart {name!r}: a fleet needs at least one tenant"
            )
        del self._tenants[name]
        del self._tables[name]
        del self._selfish[name]
        del self._current[name]

    def _event_budget(self) -> float:
        if self.budget_seconds is not None:
            return self.budget_seconds
        worst = max(
            (table.max_plan_seconds for table in self._tables.values()),
            default=0.0,
        )
        return max(2.0 * worst, 1e-3)

    def _contention(self) -> Dict[str, FaultModel]:
        loads = []
        for name in sorted(self._tenants):
            job = self._tenants[name].job(self.cluster)
            evaluator = StrategyEvaluator(job)
            timeline = evaluator.timeline(self._current[name])
            loads.append(link_load(name, job, timeline))
        return contention_models(
            loads, self.cluster, min_share=self.min_share
        )

    def apply(self, event: FleetEvent) -> ChurnRecord:
        """Apply one churn event: update membership, replan everyone."""
        if event.kind == "arrive":
            self._admit(event.tenant)
        else:
            self._evict(event.name)
        models = self._contention()
        budget = self._event_budget()
        replans = []
        for name in sorted(self._tenants):
            result = self._tables[name].replan(
                models[name], budget_seconds=budget, ledger=self.ledger
            )
            if result.within_budget:
                self._current[name] = result.strategy
                replans.append(
                    TenantReplan(
                        tenant=name,
                        source=result.source,
                        seconds=result.seconds,
                        budget_seconds=result.budget_seconds,
                        within_budget=True,
                        degraded=False,
                        iteration_time=result.iteration_time,
                    )
                )
            else:
                # Budget blown: degrade explicitly to the admission-time
                # selfish plan and say so — never keep whatever happened
                # to be live before the event.
                selfish = self._selfish[name]
                self._current[name] = selfish
                job = models[name].apply_to_job(
                    self._tenants[name].job(self.cluster)
                )
                replans.append(
                    TenantReplan(
                        tenant=name,
                        source="degraded:selfish",
                        seconds=result.seconds,
                        budget_seconds=result.budget_seconds,
                        within_budget=False,
                        degraded=True,
                        iteration_time=StrategyEvaluator(
                            job
                        ).iteration_time(selfish),
                    )
                )
        record = ChurnRecord(
            index=len(self.report.records),
            event=event.describe(),
            tenants=tuple(sorted(self._tenants)),
            replans=tuple(replans),
        )
        self.report.records.append(record)
        return record

    def run(self, events: Sequence[FleetEvent]) -> ChurnReport:
        """Apply ``events`` in order and return the cumulative report."""
        for event in events:
            self.apply(event)
        return self.report


# -- shipped job mixes -----------------------------------------------------


def example_mixes() -> Dict[str, FleetSpec]:
    """The shipped job mixes (EXPERIMENTS.md table, fleet bench, tests).

    Small clusters keep the full planner affordable in tier-1 tests;
    the mixes still cover the interesting regimes: homogeneous tenants,
    a heavy/light pair, and a three-way mix on the slower PCIe testbed.
    """
    from repro.cluster.topology import nvlink_100g_cluster, pcie_25g_cluster

    return {
        "lstm-pair": FleetSpec(
            cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=2),
            tenants=(
                TenantSpec(name="a", model="lstm", gc="dgc", ratio=0.01),
                TenantSpec(name="b", model="lstm", gc="efsignsgd"),
            ),
        ),
        "heavy-light": FleetSpec(
            cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=2),
            tenants=(
                TenantSpec(name="heavy", model="vgg16", gc="dgc", ratio=0.01),
                TenantSpec(name="light", model="lstm", gc="topk", ratio=0.01),
            ),
        ),
        "pcie-trio": FleetSpec(
            cluster=pcie_25g_cluster(num_machines=2, gpus_per_machine=2),
            tenants=(
                TenantSpec(name="a", model="lstm", gc="dgc", ratio=0.01),
                TenantSpec(name="b", model="lstm", gc="topk", ratio=0.01),
                TenantSpec(name="c", model="lstm", gc="efsignsgd"),
            ),
        ),
    }


__all__ = [
    "ChurnRecord",
    "ChurnReport",
    "FleetChurnController",
    "FleetEvaluation",
    "FleetEvent",
    "FleetPlanResult",
    "TenantPlan",
    "TenantReplan",
    "evaluate_assignment",
    "example_mixes",
    "fleet_churn_ensemble",
    "plan_fleet",
]
