"""Brute-force strategy search: the |C|^N enumeration of §4.4.1.

Feasible only for jobs with a handful of tensors and a reduced option
set; for anything larger, :func:`estimate_search_seconds` extrapolates
the running time from the measured per-evaluation cost — how the paper's
Table 5 arrives at its "> 24h" entries.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.options import CompressionOption, no_compression_option
from repro.core.strategy import CompressionStrategy, StrategyEvaluator


@dataclass(frozen=True)
class BruteForceResult:
    """The optimum over the enumerated strategy space."""

    strategy: CompressionStrategy
    iteration_time: float
    evaluations: int
    seconds: float


def brute_force_search(
    evaluator: StrategyEvaluator,
    candidates: Sequence[CompressionOption],
    max_evaluations: int = 2_000_000,
) -> BruteForceResult:
    """Exhaustively evaluate every per-tensor option combination.

    ``candidates`` should include the no-compression option if it is to
    be considered (it is appended automatically when absent).  The
    winner is the first strictly smallest time in enumeration order.
    """
    options = list(candidates)
    if not any(not option.compresses for option in options):
        options.append(no_compression_option())
    n = evaluator.model.num_tensors
    total = len(options) ** n
    if total > max_evaluations:
        raise ValueError(
            f"brute force needs {total} evaluations "
            f"(> max_evaluations={max_evaluations}); "
            "use estimate_search_seconds() instead"
        )
    start = time.perf_counter()
    # Walk the enumeration in blocks sharing everything but the last
    # tensor (product order: last varies fastest) and price each block
    # through the evaluator's batch layer.  ``bound`` is the running
    # best: the scan only replaces on *strictly* smaller, so candidates
    # a sound lower bound proves >= best are pruned without changing
    # the winner or its tie-breaking.
    best: Optional[Tuple[float, CompressionStrategy]] = None
    evaluations = 0
    for prefix in itertools.product(options, repeat=n - 1):
        base = CompressionStrategy(options=(*prefix, options[0]))
        times = evaluator.price_options(
            base,
            n - 1,
            options,
            bound=best[0] if best is not None else None,
        )
        evaluations += len(options)
        for option, iteration in zip(options, times):
            if iteration is None:
                continue
            if best is None or iteration < best[0]:
                best = (
                    iteration,
                    CompressionStrategy(options=(*prefix, option)),
                )
    seconds = time.perf_counter() - start
    return BruteForceResult(
        strategy=best[1],
        iteration_time=best[0],
        evaluations=evaluations,
        seconds=seconds,
    )


def measure_evaluation_seconds(
    evaluator: StrategyEvaluator, samples: int = 20
) -> float:
    """Average seconds of one from-scratch F(S) evaluation on this job.

    Uses the uncached path on purpose: the brute-force extrapolation
    prices an enumeration of all-distinct strategies, which the memo
    cache of the fast evaluation layer could never serve.
    """
    strategy = evaluator.baseline()
    start = time.perf_counter()
    for _ in range(samples):
        evaluator.iteration_time_uncached(strategy)
    return (time.perf_counter() - start) / samples


def estimate_search_seconds(
    num_tensors: int, num_options: int, seconds_per_evaluation: float
) -> float:
    """Extrapolated wall-clock of the full |C|^N brute force.

    Computed in log space; returns ``inf`` when the estimate exceeds
    float range (it does for every real model — that is the point).
    """
    import math

    if num_tensors < 1 or num_options < 1 or seconds_per_evaluation <= 0:
        raise ValueError("need positive tensors, options, and per-eval time")
    log10_total = num_tensors * math.log10(num_options) + math.log10(
        seconds_per_evaluation
    )
    if log10_total > 300:
        return math.inf
    return 10.0 ** log10_total


@dataclass(frozen=True)
class BruteForceFusionResult:
    """The optimum over partitions x per-group option combinations."""

    fused: "FusedStrategy"
    iteration_time: float
    evaluations: int
    partitions: int
    seconds: float


def brute_force_fusion_search(
    job: "JobConfig",
    candidates: Sequence[CompressionOption],
    max_evaluations: int = 2_000_000,
) -> BruteForceFusionResult:
    """The exact joint optimum over bucket boundaries *and* options.

    Enumerates all ``2^(n-1)`` contiguous partitions of the tensor
    trace (each interior boundary is one bit) and runs
    :func:`brute_force_search` on each partition's fused job, so the
    search space is ``sum over partitions of |C|^groups``.  Feasible
    only for toy models; the fusion equivalence tests use it to verify
    :class:`~repro.core.fusion.FusionPlanner` heuristics against ground
    truth.  The winner is the minimum under the same deterministic
    total order the planner uses: ``(iteration_time, num_groups,
    boundaries)``.
    """
    from repro.core.fusion import fused_job
    from repro.core.strategy import FusedStrategy, FusionPlan

    options = list(candidates)
    if not any(not option.compresses for option in options):
        options.append(no_compression_option())
    n = job.model.num_tensors
    total = sum(
        len(options) ** (1 + bin(mask).count("1"))
        for mask in range(2 ** (n - 1))
    )
    if total > max_evaluations:
        raise ValueError(
            f"fusion brute force needs {total} evaluations "
            f"(> max_evaluations={max_evaluations})"
        )
    start = time.perf_counter()
    best: Optional[Tuple[float, int, Tuple[int, ...], FusedStrategy]] = None
    evaluations = partitions = 0
    for mask in range(2 ** (n - 1)):
        boundaries = (0,) + tuple(
            index for index in range(1, n) if mask >> (index - 1) & 1
        )
        plan = FusionPlan(num_tensors=n, boundaries=boundaries)
        evaluator = StrategyEvaluator(fused_job(job, plan))
        result = brute_force_search(evaluator, options, max_evaluations)
        partitions += 1
        evaluations += result.evaluations
        key = (result.iteration_time, plan.num_groups, plan.boundaries)
        if best is None or key < (best[0], best[1], best[2]):
            best = (
                result.iteration_time,
                plan.num_groups,
                plan.boundaries,
                FusedStrategy(plan=plan, options=result.strategy.options),
            )
    seconds = time.perf_counter() - start
    return BruteForceFusionResult(
        fused=best[3],
        iteration_time=best[0],
        evaluations=evaluations,
        partitions=partitions,
        seconds=seconds,
    )


def brute_force_offload_search(
    evaluator: StrategyEvaluator,
    strategy: CompressionStrategy,
    indices: Sequence[int],
    max_evaluations: int = 2_000_000,
) -> BruteForceResult:
    """The 2^|T_gpu| CPU-offloading brute force of §4.4.3.

    Tries every subset of ``indices`` (the GPU-compressed tensors) moved
    to the CPU; used by the tests that verify Theorem 1 and by Table 6.
    """
    from repro.core.options import Device

    total = 2 ** len(indices)
    if total > max_evaluations:
        raise ValueError(
            f"offload brute force needs {total} evaluations "
            f"(> max_evaluations={max_evaluations})"
        )
    start = time.perf_counter()
    best: Optional[Tuple[float, CompressionStrategy]] = None
    evaluations = 0
    for mask in range(total):
        trial = strategy
        for bit, index in enumerate(indices):
            if mask >> bit & 1:
                trial = trial.replace(index, trial[index].with_device(Device.CPU))
        iteration = evaluator.iteration_time(trial)
        evaluations += 1
        if best is None or iteration < best[0]:
            best = (iteration, trial)
    seconds = time.perf_counter() - start
    return BruteForceResult(
        strategy=best[1],
        iteration_time=best[0],
        evaluations=evaluations,
        seconds=seconds,
    )
