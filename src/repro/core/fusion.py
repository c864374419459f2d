"""Tensor fusion: bucket boundaries as a planner dimension (DESIGN.md §5.8).

Espresso's per-tensor search never *merges* tensors, yet the alpha-beta
cost model it prices against rewards fusing small gradients: every
collective pays a per-message launch latency (the alpha term), so a
model with hundreds of small tensors spends more time launching
messages than moving bytes.  This module adds MG-WFBP-style fusion
groups to the strategy space as a *model transformation*: a
:class:`~repro.core.strategy.FusionPlan` partitions the tensor trace
into contiguous buckets, :func:`fused_model` collapses each bucket into
one aggregate tensor (payloads summed, backprop compute summed), and
the entire existing stack — Algorithm 1/2, the fast evaluation layer,
the event-driven simulator, the invariant battery, and the differential
oracle — runs on the fused job *unchanged*.  Payload-size conservation
now holds per fused group because, to every layer below this one, the
group simply *is* a tensor.

Candidate boundaries come from two families the systems literature
converged on:

* **MG-WFBP** (Shi et al.): walk the backprop trace merging each tensor
  into the open bucket while the cumulative added start delay (the
  compute time of every member after the first) stays below the
  per-message launch latency alpha — merging is free exactly while the
  wait it introduces costs less than the launch it saves.
* **Optimal uniform buffers**: with per-message cost ``alpha + beta*s``,
  total comm time over ``E`` elements in buckets of ``s`` elements is
  ``E/s * alpha + E * beta``; balancing launch overhead against
  pipelining granularity gives ``s* = sqrt(E * alpha / beta)``, and a
  geometric sweep around ``s*`` covers the model-shape dependence.

Both generators are priced honestly: every candidate plan gets a full
Espresso run on its fused job, the winner gets a joint
boundary-refinement pass
(:func:`~repro.core.algorithm.fusion_boundary_sweep`), and the
no-fusion plan is always in the portfolio — fusion-aware planning never
loses to per-tensor planning.  The singleton plan's fused model equals
the original model *exactly* (integer payload sums are exact and a
one-member ``math.fsum`` returns its argument), so no-fusion results
are bit-identical to plain :class:`~repro.core.espresso.Espresso`.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.config import JobConfig
from repro.core.algorithm import IMPROVEMENT_EPSILON, fusion_boundary_sweep
from repro.core.espresso import Espresso, EspressoResult
from repro.core.options import no_compression_option
from repro.core.plan import PlanCompiler
from repro.core.strategy import (
    CompressionStrategy,
    FusedStrategy,
    FusionPlan,
)
from repro.models.base import ModelProfile, TensorProfile

#: Schema tag newly-saved plan artifacts carry.  v2 added the optional
#: per-group ``ratio_schedule`` and ``error_budget`` fields; v1
#: artifacts (which simply lack them) still load.
PLAN_SCHEMA = "espresso-plan/v2"

#: Schemas :meth:`PlanArtifact.check_against` accepts on load.
_SUPPORTED_SCHEMAS = ("espresso-plan/v1", PLAN_SCHEMA)

#: Sizes used to fit the per-message cost ``alpha + beta * elements``
#: from the compiled no-compression stage chain.  The large pair sits
#: deep in the bandwidth-bound regime so the slope is clean.
_BETA_FIT_SMALL = 1 << 16
_BETA_FIT_LARGE = 1 << 22

#: Geometric sweep around the optimal uniform buffer size s*.
_BUFFER_SWEEP = ((0.25, "buffer/4"), (0.5, "buffer/2"), (1.0, "buffer"),
                 (2.0, "buffer*2"), (4.0, "buffer*4"))


class StalePlanError(Exception):
    """A cached/loaded plan no longer matches the model trace.

    Raised by :meth:`PlanArtifact.check_against` and
    :meth:`~repro.core.robust.DegradationTable.replan` when fusion-group
    boundaries were decided against a different tensor trace than the
    one being planned — re-using them would silently misprice every
    bucket.  The CLI reports the one-line message and exits 2, matching
    the checkpoint refusal style.
    """


# -- fusion as a model transformation ---------------------------------------


def fused_model(model: ModelProfile, plan: FusionPlan) -> ModelProfile:
    """``model`` with each fusion group collapsed into one tensor.

    A group's payload is the exact integer sum of its members' elements;
    its backprop compute time is the ``math.fsum`` of the members' (the
    bucket is ready when its last gradient is).  Singleton groups reuse
    the member's exact values and name, so the singleton plan's fused
    model compares equal to ``model`` — the bit-identity anchor for the
    fused-vs-unfused equivalence suite.
    """
    if plan.num_tensors != model.num_tensors:
        raise ValueError(
            f"plan partitions {plan.num_tensors} tensors but model "
            f"{model.name!r} traces {model.num_tensors}"
        )
    tensors: List[TensorProfile] = []
    for start, stop in plan.groups():
        members = model.tensors[start:stop]
        if len(members) == 1:
            tensors.append(members[0])
            continue
        tensors.append(
            TensorProfile(
                name=f"{members[0].name}..{members[-1].name}",
                num_elements=sum(t.num_elements for t in members),
                compute_time=math.fsum(t.compute_time for t in members),
            )
        )
    return dataclasses.replace(model, tensors=tuple(tensors))


def fused_job(job: JobConfig, plan: FusionPlan) -> JobConfig:
    """``job`` with its model fused under ``plan`` (GC/system unchanged)."""
    return dataclasses.replace(job, model=fused_model(job.model, plan))


# -- candidate boundary generators ------------------------------------------


def estimate_alpha_beta(job: JobConfig) -> Tuple[float, float]:
    """Fit the per-message cost ``alpha + beta * elements`` for ``job``.

    Prices the *compiled* no-compression stage chain (the same
    :class:`~repro.core.plan.PlanCompiler` the evaluator uses) at a
    1-element and two large payloads: beta is the slope between the
    large pair, alpha the 1-element cost net of its beta share.  Both
    are 0.0 on a single-GPU cluster, where no collective ever runs and
    fusion has nothing to save.
    """
    compiler = PlanCompiler(
        cluster=job.system.cluster,
        compressor=job.build_compressor(),
        gpu=job.system.gpu,
        cpu=job.system.cpu,
    )
    plain = no_compression_option()

    def comm_seconds(num_elements: int) -> float:
        return math.fsum(
            stage.duration for stage in compiler.stages(plain, num_elements)
        )

    small, large = _BETA_FIT_SMALL, _BETA_FIT_LARGE
    beta = max(0.0, (comm_seconds(large) - comm_seconds(small)) / (large - small))
    alpha = max(0.0, comm_seconds(1) - beta)
    return alpha, beta


def mgwfbp_plan(model: ModelProfile, alpha: float) -> FusionPlan:
    """MG-WFBP merged-gradient grouping for a launch latency ``alpha``.

    Walks the backprop trace (tensors are in completion order) merging
    each tensor into the open bucket while the cumulative start delay
    the merge adds — the compute time of every member after the first —
    stays below ``alpha``.  Past that point the wait costs more than
    the launch it saves, so a new bucket opens.
    """
    boundaries = [0]
    delay = 0.0
    for index in range(1, model.num_tensors):
        delay += model.tensors[index].compute_time
        if delay >= alpha:
            boundaries.append(index)
            delay = 0.0
    return FusionPlan(num_tensors=model.num_tensors, boundaries=tuple(boundaries))


def uniform_buffer_plan(model: ModelProfile, target_elements: int) -> FusionPlan:
    """Greedy bucket fill toward a uniform payload of ``target_elements``.

    A tensor that would overflow a non-empty bucket starts the next one;
    oversize tensors get their own bucket.
    """
    if target_elements < 1:
        raise ValueError(f"target_elements must be >= 1, got {target_elements}")
    boundaries = [0]
    filled = 0
    for index, tensor in enumerate(model.tensors):
        if filled and filled + tensor.num_elements > target_elements:
            boundaries.append(index)
            filled = 0
        filled += tensor.num_elements
    return FusionPlan(num_tensors=model.num_tensors, boundaries=tuple(boundaries))


def optimal_buffer_elements(model: ModelProfile, alpha: float, beta: float) -> int:
    """The launch-vs-granularity optimum ``s* = sqrt(E * alpha / beta)``."""
    total = sum(tensor.num_elements for tensor in model.tensors)
    return max(1, int(math.sqrt(total * alpha / beta)))


def candidate_plans(job: JobConfig) -> List[Tuple[str, FusionPlan]]:
    """The named candidate boundary portfolio for ``job``.

    Always leads with the no-fusion singleton plan (fusion-aware
    planning must never lose to per-tensor planning), then the MG-WFBP
    grouping and the geometric sweep around the optimal uniform buffer,
    deduplicated by boundaries (first name wins).  On a single-GPU
    cluster alpha is 0 and only the singleton survives.
    """
    model = job.model
    plans: List[Tuple[str, FusionPlan]] = [
        ("none", FusionPlan.singleton(model.num_tensors))
    ]
    seen = {plans[0][1].boundaries}
    alpha, beta = estimate_alpha_beta(job)
    named: List[Tuple[str, FusionPlan]] = []
    if alpha > 0.0:
        named.append(("mgwfbp", mgwfbp_plan(model, alpha)))
        if beta > 0.0:
            optimum = optimal_buffer_elements(model, alpha, beta)
            for scale, name in _BUFFER_SWEEP:
                target = max(1, int(optimum * scale))
                named.append((name, uniform_buffer_plan(model, target)))
    for name, plan in named:
        if plan.boundaries not in seen:
            seen.add(plan.boundaries)
            plans.append((name, plan))
    return plans


# -- the fusion-aware planner ------------------------------------------------


@dataclass
class FusionCandidate:
    """One fully-planned boundary candidate."""

    name: str
    plan: FusionPlan
    result: EspressoResult

    @property
    def iteration_time(self) -> float:
        return self.result.iteration_time

    #: Deterministic winner order: best time, then fewest groups, then
    #: lexicographically smallest boundaries — total, so the selection
    #: is independent of candidate enumeration order.
    @property
    def order_key(self) -> Tuple[float, int, Tuple[int, ...]]:
        return (self.result.iteration_time, self.plan.num_groups, self.plan.boundaries)


@dataclass
class FusionResult:
    """The joint boundary + per-bucket-option decision."""

    fused: FusedStrategy
    result: EspressoResult  # the winning candidate's Espresso run
    candidates: List[FusionCandidate]
    iteration_time: float
    #: Iteration time of the no-fusion candidate; None when the plan was
    #: pinned (loaded artifact) and "none" was never planned.
    no_fusion_time: Optional[float]
    selection_seconds: float
    sweep_trials: int = 0
    sweep_accepts: int = 0

    @property
    def plan(self) -> FusionPlan:
        return self.fused.plan

    @property
    def strategy(self) -> CompressionStrategy:
        """The per-group strategy, indexed like the fused model."""
        return self.fused.as_strategy()

    @property
    def improvement_over_no_fusion(self) -> Optional[float]:
        if self.no_fusion_time is None or self.no_fusion_time <= 0.0:
            return None
        return (self.no_fusion_time - self.iteration_time) / self.no_fusion_time

    def summary(self) -> str:
        plan = self.plan
        delta = self.improvement_over_no_fusion
        vs = (
            f"{delta * 100:+.2f}% vs no fusion"
            if delta is not None
            else "pinned plan"
        )
        return (
            f"Fusion planner selected {plan.num_groups} group(s) over "
            f"{plan.num_tensors} tensors ({len(self.candidates)} candidate "
            f"plan(s) priced in {self.selection_seconds * 1e3:.1f} ms); "
            f"iteration {self.iteration_time * 1e3:.2f} ms ({vs})."
        )


class FusionPlanner:
    """Chooses fusion-group boundaries jointly with compression options.

    Runs the full :class:`~repro.core.espresso.Espresso` pipeline on the
    fused job of every candidate plan from :func:`candidate_plans`,
    refines the winner's boundaries with
    :func:`~repro.core.algorithm.fusion_boundary_sweep` (the refined
    plan re-enters the portfolio as one more fully-planned candidate),
    and picks the winner under ``(iteration_time, num_groups,
    boundaries)``.

    Pass ``plan`` to pin the boundaries (e.g. from a loaded
    :class:`PlanArtifact`): only that plan is priced, with no boundary
    refinement — the artifact *is* the boundary decision.
    """

    def __init__(
        self,
        job: JobConfig,
        jobs: int = 1,
        check: bool = False,
        plan: Optional[FusionPlan] = None,
        refinement_sweeps: int = 2,
        ratios: Optional[Sequence[float]] = None,
        error_budget: Optional[float] = None,
    ):
        # ``jobs`` is accepted for compatibility and ignored: planning
        # runs in one process.
        self.job = job
        self.check = check
        self.ratios = tuple(ratios) if ratios else None
        self.error_budget = error_budget
        if plan is not None and plan.num_tensors != job.model.num_tensors:
            raise StalePlanError(
                f"stale plan: boundaries partition {plan.num_tensors} "
                f"tensors but model {job.model.name!r} traces "
                f"{job.model.num_tensors}"
            )
        self.plan = plan
        self.refinement_sweeps = refinement_sweeps

    def _plan_candidate(self, name: str, plan: FusionPlan) -> FusionCandidate:
        result = Espresso(
            fused_job(self.job, plan),
            check=self.check,
            ratios=self.ratios,
            error_budget=self.error_budget,
        ).select_strategy()
        return FusionCandidate(name=name, plan=plan, result=result)

    def select_strategy(self) -> FusionResult:
        start = time.perf_counter()
        pinned = self.plan is not None
        if pinned:
            named = [("pinned", self.plan)]
        else:
            named = candidate_plans(self.job)
        candidates = [self._plan_candidate(name, plan) for name, plan in named]
        best = min(candidates, key=lambda c: c.order_key)

        trials = accepts = 0
        if not pinned and self.refinement_sweeps > 0 and best.plan.num_tensors > 1:
            plan, options, swept_time, trials, accepts = fusion_boundary_sweep(
                self.job,
                best.plan,
                best.result.strategy.options,
                sweeps=self.refinement_sweeps,
            )
            if accepts and all(c.plan.boundaries != plan.boundaries for c in candidates):
                refined = self._plan_candidate("refined", plan)
                # The sweep's own option assignment can beat the greedy
                # re-plan of the refined boundaries; keep the better.
                # Under an error budget the sweep's assignment is not
                # budget-checked, so only the (budgeted) re-plan counts.
                if self.error_budget is None and (
                    swept_time < refined.result.iteration_time - IMPROVEMENT_EPSILON
                ):
                    refined.result = dataclasses.replace(
                        refined.result,
                        strategy=CompressionStrategy(options=tuple(options)),
                        iteration_time=swept_time,
                    )
                candidates.append(refined)
                best = min(candidates, key=lambda c: c.order_key)

        no_fusion_time = None
        for candidate in candidates:
            if candidate.name == "none":
                no_fusion_time = candidate.iteration_time
                break
        return FusionResult(
            fused=FusedStrategy(
                plan=best.plan, options=tuple(best.result.strategy.options)
            ),
            result=best.result,
            candidates=candidates,
            iteration_time=best.iteration_time,
            no_fusion_time=no_fusion_time,
            selection_seconds=time.perf_counter() - start,
            sweep_trials=trials,
            sweep_accepts=accepts,
        )


# -- plan artifacts ----------------------------------------------------------


@dataclass(frozen=True)
class PlanArtifact:
    """A serialized fusion plan, guarded against stale reuse.

    Stores enough of the model trace (tensor count and per-tensor
    element counts) to detect that the model a plan is loaded against is
    not the model it was decided for.  ``group_options`` are display
    strings only — loading an artifact pins the *boundaries* and
    re-decides the options for the current job.
    """

    model_name: str
    num_tensors: int
    tensor_elements: Tuple[int, ...]
    boundaries: Tuple[int, ...]
    group_options: Tuple[str, ...] = ()
    iteration_time: float = 0.0
    schema: str = PLAN_SCHEMA
    #: v2: per-group pinned compression ratios (None = the job
    #: compressor's own ratio).  Display/inspection metadata, like
    #: ``group_options`` — loading pins boundaries only.
    ratio_schedule: Tuple[Optional[float], ...] = ()
    #: v2: the global error budget the plan was decided under, if any.
    error_budget: Optional[float] = None

    @classmethod
    def from_result(cls, job: JobConfig, result: FusionResult) -> "PlanArtifact":
        return cls(
            model_name=job.model.name,
            num_tensors=job.model.num_tensors,
            tensor_elements=tuple(
                tensor.num_elements for tensor in job.model.tensors
            ),
            boundaries=result.plan.boundaries,
            group_options=tuple(
                option.describe() for option in result.fused.options
            ),
            iteration_time=result.iteration_time,
            ratio_schedule=tuple(
                option.ratio for option in result.fused.options
            ),
            error_budget=result.result.error_budget,
        )

    def plan(self) -> FusionPlan:
        return FusionPlan(num_tensors=self.num_tensors, boundaries=self.boundaries)

    def check_against(self, model: ModelProfile) -> None:
        """Raise :class:`StalePlanError` unless ``model`` matches the
        trace this plan was decided for (one-line diagnostic)."""
        if self.schema not in _SUPPORTED_SCHEMAS:
            raise StalePlanError(
                f"stale plan: schema {self.schema!r} is not one of the "
                f"supported {list(_SUPPORTED_SCHEMAS)}; re-plan with "
                f"--fusion --save"
            )
        if self.num_tensors != model.num_tensors:
            raise StalePlanError(
                f"stale plan: boundaries were decided for {self.num_tensors} "
                f"tensors but model {model.name!r} traces "
                f"{model.num_tensors}; re-plan with --fusion --save"
            )
        elements = tuple(tensor.num_elements for tensor in model.tensors)
        if self.tensor_elements != elements:
            index = next(
                i
                for i, (a, b) in enumerate(zip(self.tensor_elements, elements))
                if a != b
            )
            raise StalePlanError(
                f"stale plan: tensor T{index} has {elements[index]} elements "
                f"but the plan was decided for {self.tensor_elements[index]}; "
                f"re-plan with --fusion --save"
            )

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "model_name": self.model_name,
            "num_tensors": self.num_tensors,
            "tensor_elements": list(self.tensor_elements),
            "boundaries": list(self.boundaries),
            "group_options": list(self.group_options),
            "iteration_time": self.iteration_time,
            "ratio_schedule": list(self.ratio_schedule),
            "error_budget": self.error_budget,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlanArtifact":
        try:
            budget = data.get("error_budget")
            return cls(
                schema=str(data["schema"]),
                model_name=str(data["model_name"]),
                num_tensors=int(data["num_tensors"]),
                tensor_elements=tuple(int(n) for n in data["tensor_elements"]),
                boundaries=tuple(int(b) for b in data["boundaries"]),
                group_options=tuple(str(s) for s in data.get("group_options", ())),
                iteration_time=float(data.get("iteration_time", 0.0)),
                ratio_schedule=tuple(
                    None if ratio is None else float(ratio)
                    for ratio in data.get("ratio_schedule", ())
                ),
                error_budget=None if budget is None else float(budget),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StalePlanError(f"stale plan: unreadable artifact ({exc})")


def save_plan(path: Union[str, Path], artifact: PlanArtifact) -> None:
    Path(path).write_text(json.dumps(artifact.to_dict(), indent=2) + "\n")


def load_plan(path: Union[str, Path]) -> PlanArtifact:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StalePlanError(f"stale plan: cannot read {path} ({exc})")
    if not isinstance(data, dict):
        raise StalePlanError(f"stale plan: {path} is not a plan artifact")
    return PlanArtifact.from_dict(data)
