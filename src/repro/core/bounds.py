"""The Upper Bound throughput model (§5.1, "Performance metrics").

The paper's Upper Bound assumes GC has **no compression time and no
impact on tensor computation**: every tensor enjoys the reduced
communication volume for free.  We realize it by running the compression
decision algorithm under a zero-work compressor wrapper (same wire
sizes, zero compress/decompress/aggregate cost) — the best strategy when
compression is free.  Because compression costs nothing there, GPU/CPU
placement is irrelevant and Algorithm 1 alone suffices.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.compression.base import CompressedTensor, Compressor
from repro.config import JobConfig
from repro.core.options import CompressionOption
from repro.core.strategy import StrategyEvaluator


class FreeCompression(Compressor):
    """A compressor with the wrapped algorithm's wire sizes but zero cost."""

    def __init__(self, inner: Compressor):
        self.inner = inner
        self.name = f"free-{inner.name}"
        self.work_factor = 0.0
        self.is_identity = inner.is_identity

    def compress(self, tensor, seed=None) -> CompressedTensor:
        return self.inner.compress(tensor, seed=seed)

    def decompress(self, compressed: CompressedTensor):
        return self.inner.decompress(compressed)

    def compressed_nbytes(self, num_elements: int) -> int:
        return self.inner.compressed_nbytes(num_elements)


def upper_bound_evaluator(job: JobConfig) -> StrategyEvaluator:
    """A strategy evaluator whose compression is free."""
    evaluator = StrategyEvaluator(job)
    free = FreeCompression(evaluator.compressor)
    evaluator.compressor = free
    evaluator.compiler = type(evaluator.compiler)(
        cluster=evaluator.cluster,
        compressor=free,
        gpu=job.system.gpu,
        cpu=job.system.cpu,
    )
    return evaluator


def upper_bound_iteration_time(
    job: JobConfig, candidates: Optional[Sequence[CompressionOption]] = None
) -> float:
    """Iteration time of the Upper Bound (free compression, best strategy).

    Runs Algorithm 1's per-tensor best-option search under the free
    evaluator.  Bubble elimination is kept off: with zero compression
    cost, trying an option on a shielded tensor can never hurt, and the
    bound should be as tight (low) as possible.
    """
    from repro.core.algorithm import (
        gpu_candidate_options,
        gpu_compression_decision,
        refinement_sweep,
    )
    from repro.core.options import Device
    from repro.core.presets import uniform_strategies

    evaluator = upper_bound_evaluator(job)
    if candidates is None:
        candidates = gpu_candidate_options()
    result = gpu_compression_decision(
        evaluator, candidates=candidates, min_bubble=float("inf")
    )
    strategy, best_time = result.strategy, result.iteration_time
    # Seed from the best uniform strategy too, then polish with one
    # sweep — the bound should be as tight as the search can make it.
    for _, uniform in uniform_strategies(
        job.model.num_tensors, devices=(Device.GPU,)
    ):
        uniform_time = evaluator.iteration_time(uniform)
        if uniform_time < best_time:
            strategy, best_time = uniform, uniform_time
    strategy, best_time, _ = refinement_sweep(evaluator, strategy, candidates)
    return best_time


def upper_bound_throughput(
    job: JobConfig, candidates: Optional[Sequence[CompressionOption]] = None
) -> float:
    """Upper Bound samples/second."""
    iteration = upper_bound_iteration_time(job, candidates)
    return job.model.batch_size * job.system.cluster.total_gpus / iteration
