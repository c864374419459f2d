"""Algorithm 2: provably optimal CPU offloading (§4.4.3).

After Algorithm 1, the compressed tensors T_gpu are grouped by
(size, compression option).  Lemma 1: if q tensors of a group must move
to the CPU, the best q are those **farthest from the output layer** —
they are computed earliest in backprop, so their CPU compression overlaps
the remaining computation and communication.  Algorithm 2 therefore only
searches the *count* of offloaded tensors per group (prod(|G_i| + 1)
count vectors, Theorem 1) instead of all 2^|T_gpu| subsets.

The exact search is a depth-first branch and bound over the group
counts (DESIGN.md §5.1).  It visits count vectors in
``itertools.product`` order and cuts a subtree once a lower bound on
every F(S) inside it reaches the incumbent.  The bound is each offloaded
tensor's chain: forward time, the backprop compute prefix up to the
tensor, then its CPU pipeline.  Leaves are priced by the evaluator and
accepted only when strictly faster, so the result is the first minimum
of the full product-order scan, bit for bit.

When the product exceeds ``max_evaluations``, a coordinate-descent sweep
over the group counts (each sweep step is exact within its group, by
Lemma 1) is used instead; the exact path is always taken when the
product fits, so Theorem 1's optimality claim is testable against brute
force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.core.options import CompressionOption, Device, canonical_key
from repro.core.strategy import CompressionStrategy, StrategyEvaluator


@dataclass(frozen=True)
class OffloadGroup:
    """One G_i^gpu: same-size, same-option tensors, sorted by descending
    distance to the output layer (the Lemma 1 offload order)."""

    size: int
    option: CompressionOption
    members: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def offload_groups(
    evaluator: StrategyEvaluator, strategy: CompressionStrategy
) -> List[OffloadGroup]:
    """Group the GPU-compressed tensors for Algorithm 2."""
    model = evaluator.model
    by_key: Dict[Tuple[int, int], List[int]] = {}
    options: Dict[Tuple[int, int], CompressionOption] = {}
    for index, option in enumerate(strategy.options):
        if not option.compresses or not option.uses_device(Device.GPU):
            continue
        # Group by option *value* (canonical key), not object identity:
        # two tensors assigned equal options belong to the same G_i even
        # when the option objects were built separately.
        key = (model.tensors[index].num_elements, canonical_key(option))
        by_key.setdefault(key, []).append(index)
        # Store the first member's option once and verify every later
        # member against it: a canonical_key collision (two unequal
        # options sharing a key) would otherwise silently merge distinct
        # plan chains into one Lemma-1 group and corrupt Algorithm 2's
        # optimum.  canonical_key is value-interned, so this can only
        # fire if that interning breaks — fail loudly, not quietly.
        stored = options.setdefault(key, option)
        if stored is not option and stored != option:
            raise ValueError(
                f"canonical_key collision: tensor {index} option "
                f"{option.describe()!r} shares key {key[1]} with unequal "
                f"option {stored.describe()!r}"
            )
    groups = []
    for key, members in by_key.items():
        members.sort(key=model.distance_to_output, reverse=True)
        groups.append(
            OffloadGroup(size=key[0], option=options[key], members=tuple(members))
        )
    groups.sort(key=lambda g: (-g.size, g.members))
    return groups


def apply_offload_counts(
    strategy: CompressionStrategy,
    groups: Sequence[OffloadGroup],
    counts: Sequence[int],
) -> CompressionStrategy:
    """Offload the first ``counts[i]`` tensors of each group to the CPU."""
    if len(counts) != len(groups):
        raise ValueError("counts must align with groups")
    options = list(strategy.options)
    for group, count in zip(groups, counts):
        if not 0 <= count <= len(group):
            raise ValueError(
                f"count {count} out of range for group of {len(group)}"
            )
        for index in group.members[:count]:
            options[index] = options[index].with_device(Device.CPU)
    return CompressionStrategy(options=tuple(options))


@dataclass
class OffloadResult:
    """Outcome of Algorithm 2."""

    strategy: CompressionStrategy
    iteration_time: float
    counts: Tuple[int, ...]
    groups: Tuple[OffloadGroup, ...]
    combinations: int
    evaluations: int = 0
    exhaustive: bool = True

    @property
    def offloaded_indices(self) -> List[int]:
        return [
            index
            for group, count in zip(self.groups, self.counts)
            for index in group.members[:count]
        ]


def _combination_count(groups: Sequence[OffloadGroup]) -> int:
    total = 1
    for group in groups:
        total *= len(group) + 1
    return total


def _count_replacements(
    groups: Sequence[OffloadGroup],
    counts: Sequence[int],
    cpu_options: Sequence[CompressionOption],
) -> List[Tuple[int, CompressionOption]]:
    """The per-tensor (index, CPU option) replacements a count vector
    implies — the delta-evaluation form of :func:`apply_offload_counts`."""
    return [
        (index, cpu_option)
        for group, count, cpu_option in zip(groups, counts, cpu_options)
        for index in group.members[:count]
    ]


def cpu_offload_decision(
    evaluator: StrategyEvaluator,
    strategy: CompressionStrategy,
    max_evaluations: int = 100_000,
) -> OffloadResult:
    """Run Algorithm 2 on the output of Algorithm 1.

    ``max_evaluations`` caps the Theorem 1 product searched exactly;
    a larger product takes coordinate descent.  The pass is booked in
    the evaluator's ``offload_*`` counters (``plan --stats``).
    """
    evaluations_before = evaluator.evaluations
    groups = tuple(offload_groups(evaluator, strategy))
    base_time = evaluator.iteration_time(strategy)
    combinations = _combination_count(groups)
    counts: Tuple[int, ...] = ()
    best_time = base_time
    exhaustive = True
    if groups:
        exhaustive = combinations <= max_evaluations
        search = _branch_and_bound if exhaustive else _coordinate_descent
        cpu_options = [group.option.with_device(Device.CPU) for group in groups]
        counts, best_time = search(
            evaluator, strategy, groups, cpu_options, base_time
        )
        strategy = apply_offload_counts(strategy, groups, counts)
    evaluations = evaluator.evaluations - evaluations_before
    stats = evaluator.stats
    stats.offload_passes += 1
    stats.offload_descent_passes += not exhaustive
    stats.offload_combinations += combinations
    stats.offload_trials += evaluations
    return OffloadResult(
        strategy=strategy,
        iteration_time=best_time,
        counts=counts,
        groups=groups,
        combinations=combinations,
        evaluations=evaluations,
        exhaustive=exhaustive,
    )


def _offload_bounds(
    evaluator: StrategyEvaluator,
    groups: Sequence[OffloadGroup],
    cpu_options: Sequence[CompressionOption],
) -> List[List[float]]:
    """Per group, entry c is a lower bound on F(S) of every strategy that
    moves at least the group's first c members to the CPU.

    Backprop compute is one serial chain on the GPU stream, and each
    stage of a tensor starts no earlier than its predecessor ends.  So
    tensor i's last stage ends no earlier than the left fold
    ``compute_0 + ... + compute_i`` continued over the durations of its
    CPU pipeline, and F(S), forward time plus the makespan, is no lower
    than forward time plus that fold.  The simulator adds the same
    floats along the same chain and float addition is monotone, so the
    bound holds exactly, with no margin.  Entry c is the running max
    over the first c members (entry 0 bounds nothing), so it never
    falls as c grows.
    """
    model = evaluator.model
    forward = model.forward_time
    compute_ends = list(
        accumulate(tensor.compute_time for tensor in model.tensors)
    )
    bounds = []
    for group, cpu_option in zip(groups, cpu_options):
        pipeline = [
            stage.duration
            for stage in evaluator.compiler.stages(cpu_option, group.size)
        ]
        ceiling = [-math.inf]
        for index in group.members:
            end = compute_ends[index]
            for duration in pipeline:
                end += duration
            ceiling.append(max(ceiling[-1], forward + end))
        bounds.append(ceiling)
    return bounds


def _branch_and_bound(
    evaluator: StrategyEvaluator,
    strategy: CompressionStrategy,
    groups: Sequence[OffloadGroup],
    cpu_options: Sequence[CompressionOption],
    base_time: float,
) -> Tuple[Tuple[int, ...], float]:
    """The first minimum of the product-order scan over group counts.

    An odometer over the counts (last group fastest, as
    ``itertools.product`` orders them) that skips a subtree once its
    bound (:func:`_offload_bounds`) reaches the incumbent: every leaf
    in it offloads the bounded tensors, so none is strictly faster, and
    the scan would accept none of them.  A bound only grows with the
    count and the incumbent only falls, so a cut count ends its group's
    level.  Written as a loop on purpose: a recursive closure is a
    reference cycle that keeps the evaluator alive until the cycle
    collector runs.
    """
    bounds = _offload_bounds(evaluator, groups, cpu_options)
    depth = len(groups)
    counts = [0] * depth
    # floors[g]: the bound every leaf below the counts fixed at levels
    # before g shares; a level at count 0 adds nothing to it.
    floors = [-math.inf] * depth
    best_counts = tuple(counts)
    best_time = base_time
    level = depth - 1
    while level >= 0:
        count = counts[level] + 1
        if count <= len(groups[level]):
            floor = max(floors[level], bounds[level][count])
            if floor < best_time:
                counts[level] = count
                for below in range(level + 1, depth):
                    floors[below] = floor
                trial_time = evaluator.iteration_time_multi(
                    strategy, _count_replacements(groups, counts, cpu_options)
                )
                if trial_time < best_time:
                    best_time = trial_time
                    best_counts = tuple(counts)
                level = depth - 1
                continue
        # This level is exhausted or cut: carry into the previous group.
        counts[level] = 0
        level -= 1
    return best_counts, best_time


def _coordinate_descent(
    evaluator: StrategyEvaluator,
    strategy: CompressionStrategy,
    groups: Sequence[OffloadGroup],
    cpu_options: Sequence[CompressionOption],
    base_time: float,
    max_sweeps: int = 4,
) -> Tuple[Tuple[int, ...], float]:
    """Per-group sweeps when the exhaustive product is too large."""
    counts = [0] * len(groups)
    best_time = base_time
    for _ in range(max_sweeps):
        improved = False
        for g, group in enumerate(groups):
            best_c = counts[g]
            for c in range(len(group) + 1):
                if c == counts[g]:
                    continue
                trial_counts = list(counts)
                trial_counts[g] = c
                trial_time = evaluator.iteration_time_multi(
                    strategy,
                    _count_replacements(groups, trial_counts, cpu_options),
                )
                if trial_time < best_time:
                    best_time = trial_time
                    best_c = c
                    improved = True
            counts[g] = best_c
        if not improved:
            break
    return tuple(counts), best_time
