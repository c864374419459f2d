"""Perturbation-robust strategy selection and graceful degradation.

The planner's F(S) minimization is only near-optimal for the cluster it
was profiled on.  This module measures and closes that gap:

* :func:`sensitivity_sweep` evaluates strategies across a perturbation
  ensemble (:func:`repro.sim.faults.default_ensemble`) and reports the
  per-fault-class overhead each strategy suffers — the ``repro faults``
  report.
* :func:`robust_select` picks the strategy minimizing a *robust
  objective* (worst-case or CVaR of the iteration time over the
  ensemble) instead of the nominal time — ``plan --robust``.
* :class:`DegradationTable` precomputes a fallback strategy per degraded
  cluster state and offers :meth:`DegradationTable.replan`, a
  bounded-time replan path: cheap precomputed candidates first, the full
  planner only when the time budget allows.

All evaluation is routed through one incremental
:class:`~repro.core.strategy.StrategyEvaluator` per ensemble member, so
scoring many candidate strategies against one degraded state reuses the
memo cache and the delta-simulation prefix exactly like the planner's
own inner loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import JobConfig
from repro.core.options import Device
from repro.core.presets import (
    double_compression_option,
    inter_allgather_option,
    inter_alltoall_option,
)
from repro.core.strategy import (
    CompressionStrategy,
    StrategyEvaluator,
    baseline_strategy,
)
from repro.sim.faults import FaultModel, default_ensemble
from repro.utils.validation import check_non_negative

#: Robust objective names accepted by :func:`robust_select`.
WORST_CASE = "worst"
CVAR = "cvar"
OBJECTIVES = (WORST_CASE, CVAR)


def worst_case(times: Sequence[float]) -> float:
    """The worst (largest) iteration time over the ensemble."""
    if not times:
        raise ValueError("no evaluations to aggregate")
    return max(times)


def cvar(times: Sequence[float], alpha: float = 0.25) -> float:
    """Conditional value-at-risk: mean of the worst ``alpha`` fraction.

    ``alpha=1`` is the plain mean, ``alpha -> 0`` approaches the
    worst case; at least one member is always included.
    """
    if not times:
        raise ValueError("no evaluations to aggregate")
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    tail = max(1, math.ceil(alpha * len(times)))
    worst = sorted(times, reverse=True)[:tail]
    return sum(worst) / len(worst)


def _objective_fn(
    objective: str, cvar_alpha: float
) -> Callable[[Sequence[float]], float]:
    if objective == WORST_CASE:
        return worst_case
    if objective == CVAR:
        return lambda times: cvar(times, alpha=cvar_alpha)
    raise ValueError(
        f"objective must be one of {OBJECTIVES}, got {objective!r}"
    )


# -- sensitivity sweeps ----------------------------------------------------


@dataclass(frozen=True)
class StrategySensitivity:
    """One strategy's iteration times across the perturbation ensemble."""

    name: str
    #: (fault name, iteration time) per ensemble member, ensemble order.
    times: Tuple[Tuple[str, float], ...]
    nominal_time: float

    def time_under(self, fault_name: str) -> float:
        for name, value in self.times:
            if name == fault_name:
                return value
        raise KeyError(fault_name)

    def overhead_under(self, fault_name: str) -> float:
        """Relative slowdown of this strategy under one fault class."""
        return self.time_under(fault_name) / self.nominal_time - 1.0

    @property
    def worst_time(self) -> float:
        return max(value for _, value in self.times)

    @property
    def worst_fault(self) -> str:
        return max(self.times, key=lambda item: item[1])[0]


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity of several strategies to one perturbation ensemble."""

    fault_names: Tuple[str, ...]
    strategies: Tuple[StrategySensitivity, ...]
    timelines_checked: int = 0

    def strategy(self, name: str) -> StrategySensitivity:
        for entry in self.strategies:
            if entry.name == name:
                return entry
        raise KeyError(name)


def sensitivity_sweep(
    job: JobConfig,
    strategies: Sequence[Tuple[str, CompressionStrategy]],
    ensemble: Optional[Sequence[FaultModel]] = None,
    check: bool = False,
) -> SensitivityReport:
    """Evaluate ``strategies`` on every ensemble member of ``job``.

    One incremental evaluator per member prices all strategies; with
    ``check=True`` every faulted timeline additionally runs the full
    invariant battery (raising
    :class:`~repro.sim.validate.ConformanceError` on any violation).
    """
    if ensemble is None:
        ensemble = default_ensemble()
    if not ensemble:
        raise ValueError("ensemble must have at least one member")
    if not strategies:
        raise ValueError("no strategies to sweep")
    times: Dict[str, List[Tuple[str, float]]] = {
        name: [] for name, _ in strategies
    }
    nominal: Dict[str, float] = {}
    nominal_evaluator = StrategyEvaluator(job, check=check)
    checked = 0
    for fault_model in ensemble:
        if fault_model.is_nominal:
            evaluator = nominal_evaluator
        else:
            evaluator = StrategyEvaluator(
                fault_model.apply_to_job(job), check=check
            )
        for name, strategy in strategies:
            value = evaluator.iteration_time(strategy)
            if check:
                evaluator.timeline(strategy)
            times[name].append((fault_model.name, value))
        checked += evaluator.timelines_checked
    for name, strategy in strategies:
        nominal[name] = nominal_evaluator.iteration_time(strategy)
    return SensitivityReport(
        fault_names=tuple(fm.name for fm in ensemble),
        strategies=tuple(
            StrategySensitivity(
                name=name,
                times=tuple(times[name]),
                nominal_time=nominal[name],
            )
            for name, _ in strategies
        ),
        timelines_checked=checked,
    )


# -- robust selection ------------------------------------------------------


def _portfolio_candidates(
    num_tensors: int,
) -> List[Tuple[str, CompressionStrategy]]:
    """The uniform preset strategies plus FP32 — the cheap, always-
    available candidate pool shared by robust selection and the
    degradation table."""
    candidates: List[Tuple[str, CompressionStrategy]] = [
        ("fp32", baseline_strategy(num_tensors)),
    ]
    builders = (
        ("allgather", inter_allgather_option),
        ("alltoall", inter_alltoall_option),
        ("double", double_compression_option),
    )
    for label, builder in builders:
        for device in (Device.GPU, Device.CPU):
            candidates.append(
                (
                    f"uniform-{label}-{device.value}",
                    CompressionStrategy(
                        options=(builder(device),) * num_tensors
                    ),
                )
            )
    return candidates


@dataclass
class RobustPlanResult:
    """Outcome of robust strategy selection over a perturbation ensemble.

    Attributes:
        strategy: the robust winner.
        objective: objective name (``"worst"`` or ``"cvar"``).
        objective_value: the winner's objective over the ensemble.
        nominal_time: the winner's iteration time on the unperturbed job.
        default_strategy: the nominal planner's choice (what ``plan``
            without ``--robust`` would select).
        default_objective_value: the default strategy's objective —
            ``objective_value <= default_objective_value`` always (the
            default is in the candidate pool).
        candidate_name: which candidate won.
        per_fault_times: (fault name, iteration time) for the winner.
        candidates_evaluated: size of the deduplicated candidate pool.
        selection_seconds: wall-clock of the whole robust selection.
    """

    strategy: CompressionStrategy
    objective: str
    objective_value: float
    nominal_time: float
    default_strategy: CompressionStrategy
    default_objective_value: float
    candidate_name: str
    per_fault_times: Tuple[Tuple[str, float], ...]
    candidates_evaluated: int
    selection_seconds: float

    @property
    def differs_from_default(self) -> bool:
        """True when robust selection changed the decision."""
        return self.strategy.fingerprint() != self.default_strategy.fingerprint()

    def summary(self) -> str:
        verdict = (
            "replaces the nominal plan"
            if self.differs_from_default
            else "confirms the nominal plan"
        )
        return (
            f"Robust selection ({self.objective}) picked "
            f"{self.candidate_name!r} out of {self.candidates_evaluated} "
            f"candidates in {self.selection_seconds * 1e3:.1f} ms; "
            f"{self.objective} iteration time "
            f"{self.default_objective_value * 1e3:.1f} ms -> "
            f"{self.objective_value * 1e3:.1f} ms ({verdict})."
        )


def robust_select(
    job: JobConfig,
    ensemble: Optional[Sequence[FaultModel]] = None,
    objective: str = WORST_CASE,
    cvar_alpha: float = 0.25,
    planner_factory: Optional[Callable[[JobConfig], object]] = None,
    check: bool = False,
) -> RobustPlanResult:
    """Select the strategy minimizing a robust objective over ``ensemble``.

    Candidate pool: the nominal planner's strategy, one planner run per
    perturbed ensemble member (each near-optimal *somewhere*), and the
    uniform portfolio + FP32.  Every candidate is priced on every member
    through that member's incremental evaluator; the winner minimizes
    the objective, with the nominal iteration time as tie-break so the
    robust mode never picks a gratuitously slower-on-average strategy.

    Args:
        planner_factory: ``job -> planner`` override (tests inject a
            cheaper configuration); defaults to
            :class:`~repro.core.espresso.Espresso` with stock settings.
    """
    from repro.core.espresso import Espresso  # circular-import guard

    if ensemble is None:
        ensemble = default_ensemble()
    if not ensemble:
        raise ValueError("ensemble must have at least one member")
    score = _objective_fn(objective, cvar_alpha)
    if planner_factory is None:
        planner_factory = Espresso

    start = time.perf_counter()
    default_strategy = planner_factory(job).select_strategy().strategy

    candidates: List[Tuple[str, CompressionStrategy]] = [
        ("espresso-nominal", default_strategy)
    ]
    for fault_model in ensemble:
        if fault_model.is_nominal:
            continue
        perturbed = fault_model.apply_to_job(job)
        candidates.append(
            (
                f"espresso-{fault_model.name}",
                planner_factory(perturbed).select_strategy().strategy,
            )
        )
    candidates.extend(_portfolio_candidates(job.model.num_tensors))

    # Deduplicate by fingerprint, keeping first names (planner-derived
    # candidates take precedence over portfolio duplicates).
    unique: List[Tuple[str, CompressionStrategy]] = []
    seen = set()
    for name, strategy in candidates:
        fp = strategy.fingerprint()
        if fp in seen:
            continue
        seen.add(fp)
        unique.append((name, strategy))

    report = sensitivity_sweep(job, unique, ensemble=ensemble, check=check)

    def entry_key(entry: StrategySensitivity) -> Tuple[float, float, str]:
        return (
            score([value for _, value in entry.times]),
            entry.nominal_time,
            entry.name,
        )

    best = min(report.strategies, key=entry_key)
    default_entry = report.strategy("espresso-nominal")
    by_name = dict(unique)
    return RobustPlanResult(
        strategy=by_name[best.name],
        objective=objective,
        objective_value=score([value for _, value in best.times]),
        nominal_time=best.nominal_time,
        default_strategy=default_strategy,
        default_objective_value=score(
            [value for _, value in default_entry.times]
        ),
        candidate_name=best.name,
        per_fault_times=best.times,
        candidates_evaluated=len(unique),
        selection_seconds=time.perf_counter() - start,
    )


# -- graceful degradation --------------------------------------------------


@dataclass(frozen=True)
class DegradationEntry:
    """A precomputed fallback plan for one degraded cluster state."""

    fault_name: str
    strategy: CompressionStrategy
    iteration_time: float  # on the degraded state it was planned for
    plan_seconds: float


@dataclass
class ReplanLedger:
    """Cumulative replan-time budget shared across a churn storm.

    :meth:`DegradationTable.replan` historically honoured only a
    *per-event* budget, so a storm of back-to-back faults (elastic
    membership thrash, fleet tenant churn) could spend
    ``events x budget`` unbounded total time in full planner runs.  A
    ledger fixes the accounting: every replan charges its wall-clock
    here, and the effective budget of the next replan is capped by what
    remains.  An exhausted ledger still answers (the cheap precomputed
    scoring always runs — bounded milliseconds), but reports
    ``within_budget=False`` so the caller degrades explicitly instead
    of silently keeping a stale plan.
    """

    total_seconds: float
    spent_seconds: float = 0.0
    events: int = 0

    def __post_init__(self) -> None:
        if self.total_seconds <= 0.0:
            raise ValueError(
                f"total_seconds must be > 0, got {self.total_seconds}"
            )

    def remaining(self) -> float:
        return max(0.0, self.total_seconds - self.spent_seconds)

    @property
    def exhausted(self) -> bool:
        return self.remaining() <= 0.0

    def charge(self, seconds: float) -> None:
        """Record one replan's wall-clock against the cumulative budget."""
        check_non_negative("seconds", seconds)
        self.spent_seconds += seconds
        self.events += 1


@dataclass
class ReplanResult:
    """Outcome of a bounded-time replan for a degraded cluster state."""

    strategy: CompressionStrategy
    iteration_time: float
    source: str  # candidate that won ("table:<fault>", "portfolio:...", "full-plan")
    used_full_planner: bool
    seconds: float
    #: The effective budget this replan honoured: the per-event budget,
    #: further capped by the ledger's remaining cumulative budget when
    #: one was given.
    budget_seconds: float = math.inf

    @property
    def within_budget(self) -> bool:
        """Whether the replan finished inside its time budget."""
        return self.seconds <= self.budget_seconds


@dataclass
class DegradationTable:
    """Precomputed fallback strategies per degraded cluster state.

    Built once (e.g. at job admission) with one planner run per ensemble
    member; at fault-detection time :meth:`replan` answers inside a time
    budget — precomputed entries and the uniform portfolio are scored
    with a few incremental F(S) calls, and the full planner only runs
    when the budget leaves room for it.
    """

    job: JobConfig
    entries: Dict[str, DegradationEntry] = field(default_factory=dict)
    #: Worst observed single-plan time; the budget gate for full replans.
    max_plan_seconds: float = 0.0
    _planner_factory: Optional[Callable[[JobConfig], object]] = None
    #: Fusion-group boundaries every entry was planned under; ``None``
    #: for per-tensor tables.  :meth:`replan` refuses to score entries
    #: against a model trace the boundaries no longer partition.
    fusion_plan: Optional["FusionPlan"] = None

    def _fused(self, job: JobConfig) -> JobConfig:
        """``job`` under this table's fusion plan, stale-checked.

        Every cached strategy is indexed by the fused model's tensors;
        scoring it against a job the plan no longer partitions would
        silently misprice every bucket, so a mismatch is a refusal
        (:class:`~repro.core.fusion.StalePlanError`, exit 2 in the CLI)
        rather than a fallback.
        """
        if self.fusion_plan is None:
            return job
        from repro.core.fusion import StalePlanError, fused_job

        if self.fusion_plan.num_tensors != job.model.num_tensors:
            raise StalePlanError(
                f"stale plan: degradation table boundaries partition "
                f"{self.fusion_plan.num_tensors} tensors but model "
                f"{job.model.name!r} traces {job.model.num_tensors}; "
                f"rebuild the table"
            )
        return fused_job(job, self.fusion_plan)

    @classmethod
    def build(
        cls,
        job: JobConfig,
        ensemble: Optional[Sequence[FaultModel]] = None,
        planner_factory: Optional[Callable[[JobConfig], object]] = None,
        fusion_plan: Optional["FusionPlan"] = None,
    ) -> "DegradationTable":
        from repro.core.espresso import Espresso  # circular-import guard

        if ensemble is None:
            ensemble = default_ensemble()
        if planner_factory is None:
            planner_factory = Espresso
        table = cls(
            job=job, _planner_factory=planner_factory, fusion_plan=fusion_plan
        )
        for fault_model in ensemble:
            perturbed = table._fused(fault_model.apply_to_job(job))
            start = time.perf_counter()
            result = planner_factory(perturbed).select_strategy()
            seconds = time.perf_counter() - start
            table.entries[fault_model.name] = DegradationEntry(
                fault_name=fault_model.name,
                strategy=result.strategy,
                iteration_time=result.iteration_time,
                plan_seconds=seconds,
            )
            table.max_plan_seconds = max(table.max_plan_seconds, seconds)
        return table

    def lookup(self, fault_name: str) -> DegradationEntry:
        """The precomputed fallback for a known degraded state."""
        try:
            return self.entries[fault_name]
        except KeyError:
            raise KeyError(
                f"no degradation entry for {fault_name!r}; "
                f"known states: {sorted(self.entries)}"
            ) from None

    def replan(
        self,
        fault_model: FaultModel,
        budget_seconds: float,
        ledger: Optional[ReplanLedger] = None,
    ) -> ReplanResult:
        """Best strategy for ``fault_model`` obtainable within the budget.

        Always scores the precomputed entries plus the uniform
        portfolio/FP32 pool (a handful of incremental F(S) calls);
        additionally runs the full planner on the degraded job when the
        remaining budget exceeds the worst plan time observed while
        building the table.  The result is therefore never worse than
        the best precomputed fallback, and equals a fresh plan whenever
        time permits.

        ``budget_seconds`` alone is a *per-event* budget: each call may
        spend up to that much, so repeated churn spends up to
        ``events x budget`` in total — callers that face fault storms
        should pass a shared :class:`ReplanLedger`, which caps the
        effective budget at the cumulative remainder and is charged
        this call's wall-clock afterwards.  With an exhausted ledger the
        replan still answers from the precomputed candidates, but
        ``within_budget`` is False so the caller can degrade explicitly.
        """
        check_start = time.perf_counter()
        effective_budget = budget_seconds
        if ledger is not None:
            effective_budget = min(budget_seconds, ledger.remaining())
        perturbed = self._fused(fault_model.apply_to_job(self.job))
        num_tensors = perturbed.model.num_tensors
        for entry in self.entries.values():
            if len(entry.strategy) != num_tensors:
                from repro.core.fusion import StalePlanError

                raise StalePlanError(
                    f"stale plan: cached entry {entry.fault_name!r} decides "
                    f"{len(entry.strategy)} tensors but the degraded job "
                    f"traces {num_tensors}; rebuild the table"
                )
        evaluator = StrategyEvaluator(perturbed)

        candidates: List[Tuple[str, CompressionStrategy]] = [
            (f"table:{entry.fault_name}", entry.strategy)
            for entry in self.entries.values()
        ]
        candidates.extend(
            (f"portfolio:{name}", strategy)
            for name, strategy in _portfolio_candidates(num_tensors)
        )
        seen = set()
        best_name, best_strategy, best_time = "", None, math.inf
        for name, strategy in candidates:
            fp = strategy.fingerprint()
            if fp in seen:
                continue
            seen.add(fp)
            value = evaluator.iteration_time(strategy)
            if value < best_time:
                best_name, best_strategy, best_time = name, strategy, value

        used_full = False
        elapsed = time.perf_counter() - check_start
        if effective_budget - elapsed >= self.max_plan_seconds:
            planner_factory = self._planner_factory
            if planner_factory is None:
                from repro.core.espresso import Espresso

                planner_factory = Espresso
            result = planner_factory(perturbed).select_strategy()
            used_full = True
            if result.iteration_time < best_time:
                best_name = "full-plan"
                best_strategy = result.strategy
                best_time = result.iteration_time
        seconds = time.perf_counter() - check_start
        if ledger is not None:
            ledger.charge(seconds)
        return ReplanResult(
            strategy=best_strategy,
            iteration_time=best_time,
            source=best_name,
            used_full_planner=used_full,
            seconds=seconds,
            budget_seconds=effective_budget,
        )
