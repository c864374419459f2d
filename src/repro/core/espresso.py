"""The top-level Espresso planner (Fig. 6).

``Espresso(job).select_strategy()`` runs the full pipeline: Algorithm 1
(GPU compression decisions) followed by Algorithm 2 (optimal CPU
offloading), and reports the selected strategy together with the
selection-time breakdown the paper's Tables 5 and 6 measure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.config import JobConfig
from repro.core.algorithm import (
    IMPROVEMENT_EPSILON,
    ErrorBudget,
    GPUDecisionResult,
    device_candidate_options,
    gpu_compression_decision,
    refinement_sweep,
)
from repro.core.offload import OffloadResult, cpu_offload_decision
from repro.core.options import CompressionOption, Device, canonical_key, ladder_options
from repro.core.presets import uniform_strategies
from repro.core.strategy import (
    CompressionStrategy,
    EvaluatorStats,
    StrategyEvaluator,
)


@dataclass
class EspressoResult:
    """The selected strategy plus the selection-cost accounting."""

    strategy: CompressionStrategy
    iteration_time: float
    baseline_iteration_time: float
    gpu_decision: GPUDecisionResult
    offload: OffloadResult
    selection_seconds: float
    gpu_selection_seconds: float
    offload_selection_seconds: float
    refinement_seconds: float = 0.0
    refinement_sweeps_run: int = 0
    #: True when a uniform portfolio strategy beat the Algorithm 1+2
    #: result and seeded the refinement sweeps.
    portfolio_seeded: bool = False
    #: Fast-evaluation-layer instrumentation: F(S) calls, memo hits,
    #: full vs incremental simulations, event prefix reuse.  Snapshot
    #: taken when selection finished (``plan --stats`` renders it).
    stats: Optional[EvaluatorStats] = None
    #: True when the per-tensor ratio ladder was searched.
    ratio_laddered: bool = False
    #: Iteration time of the fixed-ratio pipeline when the ladder ran —
    #: the portfolio guarantee: ``iteration_time`` never exceeds it.
    fixed_ratio_iteration_time: Optional[float] = None
    #: The global error budget the plan was constrained to, if any.
    error_budget: Optional[float] = None
    #: Element-weighted average error fraction of the selected strategy
    #: (computed whenever the ladder or a budget was active).
    strategy_error: Optional[float] = None

    @property
    def ratio_schedule(self) -> List[Optional[float]]:
        """Per-tensor pinned ratios (None = the job compressor's own)."""
        return [option.ratio for option in self.strategy.options]

    @property
    def error_budget_utilization(self) -> Optional[float]:
        """Fraction of the error budget consumed, when one was set."""
        if self.error_budget is None or self.strategy_error is None:
            return None
        if self.error_budget == 0.0:
            return 0.0 if self.strategy_error == 0.0 else float("inf")
        return self.strategy_error / self.error_budget

    @property
    def speedup_over_fp32(self) -> float:
        """Throughput ratio of the selected strategy over no compression."""
        return self.baseline_iteration_time / self.iteration_time

    @property
    def compressed_indices(self) -> List[int]:
        return self.strategy.compressed_indices

    @property
    def cpu_indices(self) -> List[int]:
        return self.strategy.device_indices(Device.CPU)

    @property
    def gpu_indices(self) -> List[int]:
        return self.strategy.device_indices(Device.GPU)

    def summary(self) -> str:
        """One-paragraph readable report."""
        n = len(self.strategy)
        return (
            f"Espresso selected compression for "
            f"{len(self.compressed_indices)}/{n} tensors "
            f"({len(self.gpu_indices)} on GPU, {len(self.cpu_indices)} on CPU) "
            f"in {self.selection_seconds * 1e3:.1f} ms; "
            f"iteration {self.baseline_iteration_time * 1e3:.1f} ms -> "
            f"{self.iteration_time * 1e3:.1f} ms "
            f"({(self.speedup_over_fp32 - 1) * 100:+.0f}%)."
        )


@dataclass
class _PipelineOutcome:
    """One full planning pipeline's result (laddered or fixed-ratio)."""

    strategy: CompressionStrategy
    iteration_time: float
    gpu_result: GPUDecisionResult
    offload_result: OffloadResult
    gpu_seconds: float
    offload_seconds: float
    refinement_seconds: float
    sweeps_run: int
    portfolio_seeded: bool


class Espresso:
    """Selects a near-optimal compression strategy for one training job."""

    def __init__(
        self,
        job: JobConfig,
        candidates: Optional[Sequence[CompressionOption]] = None,
        max_offload_evaluations: int = 100_000,
        prefilter_per_device: int = 3,
        refinement_sweeps: int = 6,
        min_sweep_improvement: float = 0.003,
        fast_eval: bool = True,
        check: bool = False,
        jobs: int = 1,
        ratios: Optional[Sequence[float]] = None,
        error_budget: Optional[float] = None,
    ):
        """Args:
        job: the three-config training job (model, GC, system).
        candidates: the option set explored per tensor; defaults to
            :func:`~repro.core.algorithm.device_candidate_options`
            (C_gpu plus the CPU-uniform options — see that function's
            docstring for why the paper's pure C_gpu is widened).
        max_offload_evaluations: the largest Theorem 1 product,
            prod(|G_i| + 1) count vectors, that an Algorithm 2 pass
            searches exactly; a pass over a larger product takes
            coordinate descent.  It limits the product, not the trials
            priced: the exact search prices at most that many.
        prefilter_per_device: per-tensor candidate prefilter strength
            (see :func:`~repro.core.algorithm.prefilter_candidates`);
            0 disables it for the exact, paper-sized search.
        refinement_sweeps: maximum post-offload GetBestOption sweeps
            (see :func:`~repro.core.algorithm.refinement_sweep`); each
            improving sweep is followed by another offload pass.
        min_sweep_improvement: stop sweeping early once a sweep improves
            the iteration time by less than this relative fraction.
        fast_eval: enable the evaluator's fast evaluation layer (memo
            cache + incremental delta-simulation, DESIGN.md §5.2).  The
            selected strategy and iteration time are identical either
            way; disabling it exists for benchmarking the layer itself.
        check: run the simulator conformance invariant checker on every
            timeline the planner materializes (``plan --check``); any
            violation raises instead of producing a silently wrong plan.
        jobs: accepted for compatibility and ignored; planning runs
            in one process (DESIGN.md §5.5).
        ratios: per-tensor compression-ratio ladder (``plan --ratios``).
            When the job's compressor exposes a ``ratio`` knob, every
            compressing candidate is expanded into ratio-pinned
            variants and the planner chooses each tensor's ratio
            jointly with its pipeline.  A second, fixed-ratio pipeline
            runs alongside (sharing the evaluator's caches) and the
            better result is kept — fixed wins ties — so the laddered
            plan is never worse than the fixed-ratio baseline.
        error_budget: global compression-error budget in ``[0, 1]``:
            the element-weighted average of per-tensor discarded-energy
            fractions the plan may spend (L-GreCo's constraint, solved
            greedily — see :class:`~repro.core.algorithm.ErrorBudget`).
        """
        self.job = job
        self.evaluator = StrategyEvaluator(job, fast=fast_eval, check=check)
        # The uniform-strategy portfolio uses the preset pipelines, which
        # only makes sense for the full default search space; a caller
        # restricting the candidates gets exactly that restriction.
        self._use_portfolio = candidates is None
        self.candidates = (
            list(candidates)
            if candidates is not None
            else device_candidate_options()
        )
        self.max_offload_evaluations = max_offload_evaluations
        self.prefilter_per_device = prefilter_per_device
        # Ratio ladder: expand the candidates into ratio-pinned variants
        # when the job's compressor actually has a ratio knob; for other
        # algorithms (fp16, efsignsgd, ...) the pins would be
        # cost-irrelevant decoration, so the ladder is skipped entirely.
        self.ratios = tuple(ratios) if ratios else None
        self._fixed_candidates = self.candidates
        self.ratio_laddered = False
        if self.ratios and hasattr(self.evaluator.compiler.compressor, "ratio"):
            self.candidates = ladder_options(self._fixed_candidates, self.ratios)
            self.ratio_laddered = len(self.candidates) > len(
                self._fixed_candidates
            )
        self.error_budget = error_budget
        self._error_budget = (
            ErrorBudget(self.evaluator, error_budget)
            if error_budget is not None
            else None
        )
        # Key the candidates in search order before anything is priced:
        # exact F(S) ties break toward the smaller canonical key
        # (best_priced), and keys count up in first-seen order.
        for option in self.candidates:
            canonical_key(option)
        self.refinement_sweeps = refinement_sweeps
        self.min_sweep_improvement = min_sweep_improvement

    def _run_pipeline(
        self,
        evaluator: StrategyEvaluator,
        candidates: Sequence[CompressionOption],
    ) -> "_PipelineOutcome":
        """Algorithm 1 + Algorithm 2 + portfolio seed + sweeps over one
        candidate set.  The laddered and fixed-ratio pipelines both run
        through here on the planner's one ``evaluator``, sharing its
        caches — the fast layer is exact, so each pipeline's outcome is
        bit-identical to a standalone planner searching the same
        candidates.  ``candidates`` stays the third positional argument:
        the benchmark suite's span tracer reads it there."""
        start = time.perf_counter()
        gpu_result = gpu_compression_decision(
            evaluator,
            candidates=candidates,
            prefilter_per_device=self.prefilter_per_device,
            error_budget=self._error_budget,
        )
        gpu_seconds = time.perf_counter() - start

        start = time.perf_counter()
        offload_result = cpu_offload_decision(
            evaluator,
            gpu_result.strategy,
            max_evaluations=self.max_offload_evaluations,
        )
        offload_seconds = time.perf_counter() - start

        strategy = offload_result.strategy
        best_time = offload_result.iteration_time

        # Refinement time covers the portfolio seeding it starts from.
        start = time.perf_counter()
        # Portfolio check: the per-tensor greedy can stall when two
        # resources bind at once, while a *uniform* strategy (compress
        # everything one fixed way — what BytePS-Compress/HiTopKComm do)
        # sits in a different basin.  Evaluating the six uniform
        # presets costs six F(S) calls and guarantees Espresso never
        # loses to a uniform policy; the refinement sweeps then improve
        # whichever seed won.  Under an error budget a uniform seed is
        # only admissible if the whole strategy fits the budget.
        portfolio_seeded = False
        seeds = (
            uniform_strategies(self.job.model.num_tensors)
            if self._use_portfolio
            else ()
        )
        for _, uniform in seeds:
            if (
                self._error_budget is not None
                and not self._error_budget.admits_strategy(uniform)
            ):
                continue
            uniform_time = evaluator.iteration_time(uniform)
            if uniform_time < best_time:
                strategy, best_time = uniform, uniform_time
                portfolio_seeded = True

        reoffload_seconds = 0.0
        sweeps_run = 0
        for _ in range(self.refinement_sweeps):
            before = best_time
            strategy, best_time, improved = refinement_sweep(
                evaluator,
                strategy,
                candidates,
                prefilter_per_device=self.prefilter_per_device,
                error_budget=self._error_budget,
            )
            sweeps_run += 1
            if not improved:
                break
            if (before - best_time) / before < self.min_sweep_improvement:
                improved = False  # diminishing returns: stop after offload
            # The sweep may have shifted load back onto the GPU stream;
            # re-optimize placement with another Lemma-1 offload pass
            # (Algorithm 2 time, not refinement time).
            offload_start = time.perf_counter()
            offload_result = cpu_offload_decision(
                evaluator,
                strategy,
                max_evaluations=self.max_offload_evaluations,
            )
            reoffload_seconds += time.perf_counter() - offload_start
            strategy = offload_result.strategy
            best_time = offload_result.iteration_time
            if not improved:
                break
        refinement_seconds = time.perf_counter() - start - reoffload_seconds
        offload_seconds += reoffload_seconds

        return _PipelineOutcome(
            strategy=strategy,
            iteration_time=best_time,
            gpu_result=gpu_result,
            offload_result=offload_result,
            gpu_seconds=gpu_seconds,
            offload_seconds=offload_seconds,
            refinement_seconds=refinement_seconds,
            sweeps_run=sweeps_run,
            portfolio_seeded=portfolio_seeded,
        )

    def select_strategy(self) -> EspressoResult:
        """Run Algorithm 1 + Algorithm 2 and return the decision."""
        # Algorithm 1 starts from the FP32 baseline, so pricing it is
        # Algorithm 1 time.
        start = time.perf_counter()
        baseline_time = self.evaluator.iteration_time(self.evaluator.baseline())
        baseline_seconds = time.perf_counter() - start

        chosen = self._run_pipeline(self.evaluator, self.candidates)
        fixed: Optional[_PipelineOutcome] = None
        if self.ratio_laddered:
            # Portfolio guarantee: also run the fixed-ratio pipeline
            # (warm through the shared evaluator caches) and keep the
            # better result — fixed wins ties, so enabling the ladder
            # can never select a worse plan than leaving it off.
            fixed = self._run_pipeline(self.evaluator, self._fixed_candidates)
            winner = (
                chosen
                if chosen.iteration_time
                < fixed.iteration_time - IMPROVEMENT_EPSILON
                else fixed
            )
            chosen = replace(
                winner,
                gpu_seconds=chosen.gpu_seconds + fixed.gpu_seconds,
                offload_seconds=chosen.offload_seconds + fixed.offload_seconds,
                refinement_seconds=chosen.refinement_seconds
                + fixed.refinement_seconds,
            )

        # Achieved weighted error: reported whenever the ladder or a
        # budget made error a planning concern.
        strategy_error: Optional[float] = None
        if self._error_budget is not None:
            strategy_error = self._error_budget.strategy_error(chosen.strategy)
        elif self.ratio_laddered:
            strategy_error = ErrorBudget(self.evaluator, 1.0).strategy_error(
                chosen.strategy
            )

        gpu_seconds = baseline_seconds + chosen.gpu_seconds
        return EspressoResult(
            strategy=chosen.strategy,
            iteration_time=chosen.iteration_time,
            baseline_iteration_time=baseline_time,
            gpu_decision=chosen.gpu_result,
            offload=chosen.offload_result,
            selection_seconds=gpu_seconds
            + chosen.offload_seconds
            + chosen.refinement_seconds,
            gpu_selection_seconds=gpu_seconds,
            offload_selection_seconds=chosen.offload_seconds,
            refinement_seconds=chosen.refinement_seconds,
            refinement_sweeps_run=chosen.sweeps_run,
            portfolio_seeded=chosen.portfolio_seeded,
            stats=self.evaluator.stats.snapshot(),
            ratio_laddered=self.ratio_laddered,
            fixed_ratio_iteration_time=(
                fixed.iteration_time if fixed is not None else None
            ),
            error_budget=self.error_budget,
            strategy_error=strategy_error,
        )
