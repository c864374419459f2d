"""The Fig. 15 ablation: crippling each of the four decision dimensions.

Every restricted mechanism is a strategy selector over a *narrowed*
search space or with a decision rule that ignores tensor interactions;
all are evaluated on the same simulator, so the comparison isolates the
value of each dimension exactly as §5.3 does.

Dimension 1 (compress or not):
    * ``all_compression``    — compresses every tensor.
    * ``myopic_compression`` — decides per tensor from standalone
      wall-clock times, ignoring interactions (Reason #1 of §3.1).
Dimension 2 (GPU or CPU):
    * ``gpu_only`` / ``cpu_only`` — single-device candidate sets,
      no offloading.
Dimension 3 (communication schemes):
    * ``inter_allgather`` / ``inter_alltoall`` — one fixed scheme.
Dimension 4 (compression choice / placement):
    * ``alltoall_alltoall`` — compress for both intra- and inter-machine
      communication with the fixed double-compression pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.base import (
    double_compression_option,
    inter_allgather_option,
    inter_alltoall_option,
)
from repro.config import JobConfig
from repro.core.algorithm import gpu_compression_decision
from repro.core.espresso import Espresso
from repro.core.options import CompressionOption, Device
from repro.core.strategy import CompressionStrategy, StrategyEvaluator
from repro.core.tree import enumerate_options


def _compressed_options(mode: str) -> List[CompressionOption]:
    return [
        option
        for option in enumerate_options(mode=mode, include_rooted=False)
        if option.compresses
    ]


def restricted_espresso(
    job: JobConfig,
    candidates: Sequence[CompressionOption],
    offload: bool = False,
) -> float:
    """Espresso's Algorithm 1 (optionally + 2) over a restricted space.

    Returns the achieved scaling factor.
    """
    evaluator = StrategyEvaluator(job)
    result = gpu_compression_decision(evaluator, candidates=list(candidates))
    strategy, iteration = result.strategy, result.iteration_time
    if offload:
        from repro.core.offload import cpu_offload_decision

        offload_result = cpu_offload_decision(evaluator, strategy)
        strategy, iteration = offload_result.strategy, offload_result.iteration_time
    return job.model.iteration_compute_time / iteration


def all_compression(job: JobConfig) -> float:
    """Cripple Dimension 1: every tensor must be compressed.

    Each tensor still gets its best option (greedy, interaction-aware),
    but "no compression" is not available.
    """
    evaluator = StrategyEvaluator(job)
    candidates = _compressed_options("uniform")
    strategy = evaluator.baseline()
    # Initialize all tensors to a sane compressed option, then refine.
    initial = inter_allgather_option(Device.GPU)
    for index in range(len(strategy)):
        strategy = strategy.replace(index, initial)
    best_time = evaluator.iteration_time(strategy)
    for index in range(len(strategy)):
        best_option = strategy[index]
        for option in candidates:
            trial = strategy.replace(index, option)
            trial_time = evaluator.iteration_time(trial)
            if trial_time < best_time:
                best_time, best_option = trial_time, option
        strategy = strategy.replace(index, best_option)
    return job.model.iteration_compute_time / best_time


def myopic_compression(job: JobConfig) -> float:
    """Cripple Dimension 1: wall-clock, interaction-blind decisions.

    A tensor is compressed with the standalone-cheapest option whenever
    that option's wall-clock (comm + compression) beats its uncompressed
    comm time — the tau-based reasoning §3.1 warns about.
    """
    evaluator = StrategyEvaluator(job)
    compiler = evaluator.compiler
    candidates = _compressed_options("uniform")
    strategy = evaluator.baseline()
    for index, tensor in enumerate(evaluator.model.tensors):
        _, plain = compiler.standalone_times(strategy[index], tensor.num_elements)
        best_cost, best_option = plain, None
        for option in candidates:
            _, cost = compiler.standalone_times(option, tensor.num_elements)
            if cost < best_cost:
                best_cost, best_option = cost, option
        if best_option is not None:
            strategy = strategy.replace(index, best_option)
    iteration = evaluator.iteration_time(strategy)
    return job.model.iteration_compute_time / iteration


def gpu_only(job: JobConfig) -> float:
    """Cripple Dimension 2: GPUs only, no offloading."""
    return restricted_espresso(job, _compressed_options("gpu"), offload=False)


def cpu_only(job: JobConfig) -> float:
    """Cripple Dimension 2: CPUs only."""
    return restricted_espresso(job, _compressed_options("cpu"), offload=False)


def inter_allgather(job: JobConfig) -> float:
    """Cripple Dimension 3: only the indivisible Allgather scheme."""
    candidates = [inter_allgather_option(d) for d in (Device.GPU, Device.CPU)]
    return restricted_espresso(job, candidates, offload=True)


def inter_alltoall(job: JobConfig) -> float:
    """Cripple Dimension 3: only the divisible Alltoall/Allgather scheme."""
    candidates = [inter_alltoall_option(d) for d in (Device.GPU, Device.CPU)]
    return restricted_espresso(job, candidates, offload=True)


def alltoall_alltoall(job: JobConfig) -> float:
    """Cripple Dimension 4: fixed intra+inter double compression."""
    candidates = [double_compression_option(d) for d in (Device.GPU, Device.CPU)]
    return restricted_espresso(job, candidates, offload=True)


def full_espresso(job: JobConfig) -> float:
    """The un-crippled reference point."""
    result = Espresso(job).select_strategy()
    return job.model.iteration_compute_time / result.iteration_time


#: The Fig. 15 panels: dimension -> {mechanism name: callable}.
DIMENSION_MECHANISMS = {
    1: {"All compression": all_compression, "Myopic compression": myopic_compression},
    2: {"GPU compression": gpu_only, "CPU compression": cpu_only},
    3: {"Inter Allgather": inter_allgather, "Inter Alltoall": inter_alltoall},
    4: {"Inter Alltoall": inter_alltoall, "Alltoall+Alltoall": alltoall_alltoall},
}


def dimension_ablation(job: JobConfig, dimension: int) -> Dict[str, float]:
    """Scaling factors of the crippled mechanisms plus full Espresso."""
    if dimension not in DIMENSION_MECHANISMS:
        raise ValueError(f"dimension must be 1-4, got {dimension}")
    results = {
        name: mechanism(job)
        for name, mechanism in DIMENSION_MECHANISMS[dimension].items()
    }
    results["Espresso"] = full_espresso(job)
    return results
