"""Algorithm 1: Espresso's GPU compression decision (§4.4.2).

Faithful implementation of the paper's pseudo-code:

1. Sort tensors in descending size order, group by size, and sort within
   a group by ascending distance to the output layer (Property #2:
   bigger first; ties favour tensors computed later in backprop, whose
   compression overlaps better).
2. ``Remove()``: derive the communication timeline under the current
   strategy and rule out uncompressed tensors communicated before
   bubbles (Property #1).
3. For each surviving tensor, ``GetBestOption()`` tries every GPU
   compression option (plus "leave it unchanged"), evaluates each
   candidate's full iteration time F(S) with the empirical models — so
   the choice accounts for *overheads* and tensor interactions, not
   wall-clock times (Property #3) — and keeps the argmin.
4. After each decision, ``Remove()`` runs again, because a newly
   compressed tensor can open fresh bubbles (Fig. 9(b)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bubbles import DEFAULT_MIN_BUBBLE, tensors_before_bubbles
from repro.core.options import CompressionOption, Device, canonical_key
from repro.core.plan import PlanCompiler
from repro.core.strategy import CompressionStrategy, StrategyEvaluator
from repro.core.tree import enumerate_options

#: Unified improvement threshold for GetBestOption and the refinement
#: sweep.  Algorithm 1 used to accept any strictly smaller time while
#: the sweep required an improvement beyond 1e-12; the mismatch made the
#: search sensitive to float noise and to which phase saw a move first.
#: A candidate only displaces the incumbent when it improves the best
#: time by more than this; exact ties among candidates break by
#: canonical option key (see :func:`best_priced`), so the selected
#: strategy is independent of candidate enumeration order.
IMPROVEMENT_EPSILON = 1e-12

#: A priced candidate: (trial iteration time, canonical option key,
#: the option object).  Lists of these are what :func:`best_priced`
#: orders.
PricedOption = Tuple[float, int, CompressionOption]


def best_priced(priced: Sequence[PricedOption]) -> PricedOption:
    """The deterministic argmin: total order on (trial_time, key).

    Exact time ties break toward the smaller canonical key, never
    toward enumeration order.
    """
    return min(priced, key=lambda entry: (entry[0], entry[1]))


def price_candidates(
    evaluator: StrategyEvaluator,
    base: CompressionStrategy,
    index: int,
    options: Sequence[CompressionOption],
    bound: Optional[float] = None,
) -> List[PricedOption]:
    """Price every candidate for tensor ``index`` against ``base``.

    Returns ``[(trial_time, canonical_key, option), ...]`` — the input
    of :func:`best_priced`.  With ``bound`` given, candidates whose
    sound lower bound reaches it are omitted from the result; callers
    that only *accept* times strictly below ``bound`` (GetBestOption and
    the refinement sweep, via ``best_time - IMPROVEMENT_EPSILON``) get a
    bit-identical decision either way.
    """
    options = list(options)
    if not options:
        return []
    times = evaluator.price_options(base, index, options, bound=bound)
    return [
        (trial_time, canonical_key(option), option)
        for trial_time, option in zip(times, options)
        if trial_time is not None
    ]


class ErrorBudget:
    """L-GreCo-style global compression-error budget (greedy knapsack).

    Scores a strategy by the element-weighted average of each tensor's
    discarded-energy fraction (``Compressor.error_energy``, evaluated
    through the option's effective — possibly ratio-pinned —
    compressor).  The decision phases treat the budget as an
    *admissibility filter at accept time*: a candidate may replace the
    incumbent option of tensor ``index`` only if the resulting global
    weighted error stays within ``budget``.  The FP32 baseline has zero
    error, every accepted move preserves admissibility, and returning a
    tensor to no-compression always frees budget — so the greedy
    maintains the invariant without backtracking (the greedy-knapsack
    relaxation of L-GreCo's per-layer program).
    """

    def __init__(self, evaluator: StrategyEvaluator, budget: float):
        if not 0.0 <= budget <= 1.0:
            raise ValueError(f"error budget must be in [0, 1], got {budget}")
        self.evaluator = evaluator
        self.budget = budget
        self._elements = [
            tensor.num_elements for tensor in evaluator.model.tensors
        ]
        self._total_weight = float(sum(self._elements))
        #: (canonical option key, tensor index) -> weighted error.
        self._cache: Dict[Tuple[int, int], float] = {}

    def weighted_error(self, index: int, option: CompressionOption) -> float:
        """``num_elements * error_energy`` of one tensor's option."""
        key = (canonical_key(option), index)
        value = self._cache.get(key)
        if value is None:
            if option.compresses:
                compressor = self.evaluator.compiler.compressor_for(option)
                elements = self._elements[index]
                value = elements * compressor.error_energy(elements)
            else:
                value = 0.0
            self._cache[key] = value
        return value

    def strategy_error(self, strategy: CompressionStrategy) -> float:
        """The strategy's element-weighted average error fraction."""
        total = sum(
            self.weighted_error(index, option)
            for index, option in enumerate(strategy.options)
        )
        return total / self._total_weight

    def utilization(self, strategy: CompressionStrategy) -> float:
        """Fraction of the budget the strategy consumes (0 budget -> 0
        when unused, inf when violated)."""
        error = self.strategy_error(strategy)
        if self.budget == 0.0:
            return 0.0 if error == 0.0 else float("inf")
        return error / self.budget

    def admits_strategy(self, strategy: CompressionStrategy) -> bool:
        """Whether a whole strategy fits the budget (portfolio seeds)."""
        return self.strategy_error(strategy) <= self.budget

    def admits(
        self,
        strategy: CompressionStrategy,
        index: int,
        option: CompressionOption,
    ) -> bool:
        """Whether replacing tensor ``index``'s option keeps the budget."""
        current = sum(
            self.weighted_error(i, opt)
            for i, opt in enumerate(strategy.options)
            if i != index
        )
        trial = current + self.weighted_error(index, option)
        return trial / self._total_weight <= self.budget


def gpu_candidate_options(
    include_flat: bool = True, include_rooted: bool = False
) -> List[CompressionOption]:
    """The C_gpu of Algorithm 1: GPU-only compression options.

    Rooted (Reduce/Broadcast/Gather) schemes are excluded by default —
    they are dominated under the alpha-beta cost models for more than two
    participants — but can be re-enabled to search the full Table 3 space.
    """
    options = enumerate_options(
        mode="gpu", include_flat=include_flat, include_rooted=include_rooted
    )
    return [option for option in options if option.compresses]


def device_candidate_options(
    include_flat: bool = True, include_rooted: bool = False
) -> List[CompressionOption]:
    """GPU- plus CPU-uniform compression options for the decision loop.

    The paper's Algorithm 1 searches C_gpu and relies on Algorithm 2 to
    move compression to CPUs.  That offloading can only touch tensors
    Algorithm 1 chose to compress, so a tensor whose GPU compression is
    net-negative (e.g. kernel-launch contention on models with many
    mid-sized tensors) but whose CPU compression would win is never
    compressed at all.  Including the CPU-uniform options in the
    candidate set closes that gap while keeping the per-tensor greedy
    structure; Algorithm 2 still optimizes placement of the
    GPU-compressed groups afterwards.

    The set is a pure function of the two flags, so the decision tree
    is walked once per process; every call returns a fresh list of the
    same (immutable, already key-interned) options.
    """
    return list(_device_candidates(include_flat, include_rooted))


@functools.lru_cache(maxsize=None)
def _device_candidates(
    include_flat: bool, include_rooted: bool
) -> Tuple[CompressionOption, ...]:
    gpu = gpu_candidate_options(include_flat, include_rooted)
    cpu = [
        option
        for option in enumerate_options(
            mode="cpu", include_flat=include_flat, include_rooted=include_rooted
        )
        if option.compresses
    ]
    return tuple(gpu + cpu)


def prefilter_candidates(
    compiler: PlanCompiler,
    candidates: Sequence[CompressionOption],
    num_elements: int,
    per_device: int = 3,
) -> List[CompressionOption]:
    """Shrink the candidate set for one tensor size by standalone cost.

    GetBestOption() prices every candidate's F(S) by delta simulation
    against the resident strategy, pruning candidates whose sound lower
    bound cannot beat the incumbent — still a timeline replay per
    candidate left, expensive for models with hundreds of tensors.
    Most candidates are dominated *for a given size* before interactions
    are even considered: they move more bytes and burn more device time.
    This filter keeps, per device class, the ``per_device`` cheapest
    options by standalone communication time and by standalone total
    time (both kept, because a CPU option's larger total can still win
    through overlap).  The ranking uses
    :meth:`~repro.core.plan.PlanCompiler.standalone_times`, which prices
    a candidate without building its stage chain, so only the survivors
    are ever compiled.  ``per_device=0`` disables filtering — the exact,
    paper-sized search.  The planner's phases read these rankings
    through :func:`memoized_prefilter`.
    """
    kept = _kept_positions(compiler, candidates, num_elements, per_device)
    return [candidates[position] for position in kept]


def _kept_positions(
    compiler: PlanCompiler,
    candidates: Sequence[CompressionOption],
    num_elements: int,
    per_device: int,
) -> Tuple[int, ...]:
    """Where in ``candidates`` :func:`prefilter_candidates` keeps what."""
    if per_device <= 0:
        return tuple(range(len(candidates)))
    by_device: dict = {}
    for position, option in enumerate(candidates):
        device = "cpu" if option.uses_device(Device.CPU) else "gpu"
        comm, total = compiler.standalone_times(option, num_elements)
        by_device.setdefault(device, []).append((comm, total, position))
    kept: List[int] = []
    seen: set = set()
    for entries in by_device.values():
        for key in (0, 1):  # by comm time, then by total time
            for entry in sorted(entries, key=lambda e: e[key])[:per_device]:
                option_key = canonical_key(candidates[entry[2]])
                if option_key not in seen:
                    seen.add(option_key)
                    kept.append(entry[2])
    return tuple(kept)


def memoized_prefilter(
    compiler: PlanCompiler,
    candidates: Sequence[CompressionOption],
    per_device: int = 3,
) -> Callable[[int], List[CompressionOption]]:
    """:func:`prefilter_candidates` over ``candidates``, by tensor size,
    ranked once per pricing context.

    A ranking depends only on what prices the candidates, the candidate
    set, ``per_device`` and the size, so every compiler of ``compiler``'s
    context shares it through the context's
    :class:`~repro.core.plan.PricingTable`.
    The candidate set's rankings are resolved once here, and entries
    are tuples of kept positions, so each caller gets back exactly the
    objects a cold :func:`prefilter_candidates` would return.
    """
    candidates = list(candidates)
    ranked = compiler.table.rankings.setdefault(
        (tuple(canonical_key(o) for o in candidates), per_device), {}
    )

    def for_size(num_elements: int) -> List[CompressionOption]:
        kept = ranked.get(num_elements)
        if kept is None:
            kept = _kept_positions(compiler, candidates, num_elements, per_device)
            ranked[num_elements] = kept
        return [candidates[position] for position in kept]

    return for_size


def sorted_tensor_groups(evaluator: StrategyEvaluator) -> List[List[int]]:
    """Lines 2-3 of Algorithm 1: size-descending groups, closest-to-output
    first inside each group."""
    model = evaluator.model
    by_size: Dict[int, List[int]] = {}
    for index, tensor in enumerate(model.tensors):
        by_size.setdefault(tensor.num_elements, []).append(index)
    groups = []
    for size in sorted(by_size, reverse=True):
        members = sorted(by_size[size], key=model.distance_to_output)
        groups.append(members)
    return groups


@dataclass
class GPUDecisionResult:
    """Outcome of Algorithm 1."""

    strategy: CompressionStrategy
    iteration_time: float
    ruled_out: Set[int] = field(default_factory=set)
    evaluations: int = 0

    @property
    def compressed_indices(self) -> List[int]:
        return self.strategy.compressed_indices


def gpu_compression_decision(
    evaluator: StrategyEvaluator,
    candidates: Optional[Sequence[CompressionOption]] = None,
    min_bubble: float = DEFAULT_MIN_BUBBLE,
    prefilter_per_device: int = 3,
    error_budget: Optional[ErrorBudget] = None,
) -> GPUDecisionResult:
    """Run Algorithm 1 and return the GPU-compression strategy.

    ``prefilter_per_device`` bounds GetBestOption's per-tensor candidate
    set (see :func:`prefilter_candidates`, read through the process-wide
    :func:`memoized_prefilter`); pass 0 for the exact search.  An
    ``error_budget`` filters each tensor's candidate list to the options
    that keep the committed strategy's global weighted error within
    budget.
    """
    if candidates is None:
        candidates = gpu_candidate_options()
    options_for = memoized_prefilter(
        evaluator.compiler, candidates, prefilter_per_device
    )
    evaluations_before = evaluator.evaluations

    strategy = evaluator.baseline()
    groups = sorted_tensor_groups(evaluator)
    remaining: Set[int] = {index for group in groups for index in group}
    ruled_out: Set[int] = set()
    best_time = evaluator.iteration_time(strategy)

    def remove(current: CompressionStrategy) -> None:
        """Remove(): rule out uncompressed tensors before bubbles."""
        before = evaluator.tensors_before_bubbles(current, min_bubble)
        for index in before:
            if index in remaining and not current[index].compresses:
                remaining.discard(index)
                ruled_out.add(index)

    remove(strategy)

    for group in groups:
        for index in group:
            if index not in remaining:
                continue
            # GetBestOption(): keep-current plus every candidate, priced
            # by delta-simulation against the resident base strategy.
            # The candidate argmin is taken under the total order on
            # (trial_time, canonical_key) and displaces the incumbent
            # only past IMPROVEMENT_EPSILON, so the decision does not
            # depend on candidate enumeration order.
            # bound: a candidate is only *accepted* strictly below
            # best_time - epsilon, so the batch layer may prune any
            # candidate whose sound lower bound already reaches it —
            # the decision (including ties) is bit-identical.
            best_option = strategy[index]
            options = options_for(evaluator.model.tensors[index].num_elements)
            if error_budget is not None:
                options = [
                    option
                    for option in options
                    if error_budget.admits(strategy, index, option)
                ]
            priced = price_candidates(
                evaluator,
                strategy,
                index,
                options,
                bound=best_time - IMPROVEMENT_EPSILON,
            )
            if priced:
                trial_time, _, option = best_priced(priced)
                if trial_time < best_time - IMPROVEMENT_EPSILON:
                    best_time = trial_time
                    best_option = option
            strategy = strategy.replace(index, best_option)
            remaining.discard(index)
            remove(strategy)

    return GPUDecisionResult(
        strategy=strategy,
        iteration_time=best_time,
        ruled_out=ruled_out,
        evaluations=evaluator.evaluations - evaluations_before,
    )


def refinement_sweep(
    evaluator: StrategyEvaluator,
    strategy: CompressionStrategy,
    candidates: Sequence[CompressionOption],
    prefilter_per_device: int = 3,
    error_budget: Optional[ErrorBudget] = None,
) -> Tuple[CompressionStrategy, float, bool]:
    """One GetBestOption pass over *all* tensors in the final context.

    Algorithm 1's greedy decides each tensor while the others are still
    mostly uncompressed, and its bubble rule-outs are permanent; when two
    resources bind simultaneously (e.g. the GPU stream extended by
    compression kernels *and* a saturated link), single moves evaluated
    in the early context stall even though a coordinated strategy is much
    better.  This sweep re-decides every tensor — including previously
    ruled-out ones, and allowing a return to no-compression — against
    the *current* strategy, which breaks exactly that deadlock once
    Algorithm 2 has moved the compression load off the binding resource.

    Candidates are compared to the resident option by *value*
    (canonical key), never identity: an equal-but-distinct object (e.g.
    a fresh ``no_compression_option()`` vs the resident one) is neither
    re-priced nor "replaced".  The candidate argmin and acceptance
    threshold are exactly Algorithm 1's (total order on
    ``(trial_time, canonical_key)``, :data:`IMPROVEMENT_EPSILON`).

    Returns (strategy, iteration_time, improved).
    """
    from repro.core.options import no_compression_option

    keep_plain = no_compression_option()
    options_for = memoized_prefilter(
        evaluator.compiler, candidates, prefilter_per_device
    )
    best_time = evaluator.iteration_time(strategy)
    improved = False
    for group in sorted_tensor_groups(evaluator):
        for index in group:
            resident_key = canonical_key(strategy[index])
            options = [
                option
                for option in [
                    *options_for(evaluator.model.tensors[index].num_elements),
                    keep_plain,
                ]
                if canonical_key(option) != resident_key
            ]
            if error_budget is not None:
                # keep_plain has zero error and always survives, so a
                # budgeted sweep can still relax tensors back to FP32.
                options = [
                    option
                    for option in options
                    if error_budget.admits(strategy, index, option)
                ]
            priced = price_candidates(
                evaluator,
                strategy,
                index,
                options,
                bound=best_time - IMPROVEMENT_EPSILON,
            )
            if not priced:
                continue
            trial_time, _, option = best_priced(priced)
            if trial_time < best_time - IMPROVEMENT_EPSILON:
                best_time = trial_time
                strategy = strategy.replace(index, option)
                improved = True
    return strategy, best_time, improved


def _merge_plan(plan: "FusionPlan", group: int) -> "FusionPlan":
    """``plan`` with groups ``group`` and ``group + 1`` merged."""
    from repro.core.strategy import FusionPlan

    boundaries = (
        plan.boundaries[: group + 1] + plan.boundaries[group + 2 :]
    )
    return FusionPlan(num_tensors=plan.num_tensors, boundaries=boundaries)


def _split_plan(plan: "FusionPlan", group: int, at: int) -> "FusionPlan":
    """``plan`` with group ``group`` split before tensor ``at``."""
    from repro.core.strategy import FusionPlan

    boundaries = (
        plan.boundaries[: group + 1] + (at,) + plan.boundaries[group + 1 :]
    )
    return FusionPlan(num_tensors=plan.num_tensors, boundaries=boundaries)


def _balanced_split_point(model, start: int, stop: int) -> int:
    """The member boundary splitting ``[start, stop)`` most evenly by
    payload (ties to the earliest boundary — deterministic)."""
    total = sum(model.tensors[i].num_elements for i in range(start, stop))
    best_at, best_gap = start + 1, None
    prefix = 0
    for at in range(start + 1, stop):
        prefix += model.tensors[at - 1].num_elements
        gap = abs(2 * prefix - total)
        if best_gap is None or gap < best_gap:
            best_at, best_gap = at, gap
    return best_at


def fusion_boundary_sweep(
    job: "JobConfig",
    plan: "FusionPlan",
    options: Sequence[CompressionOption],
    sweeps: int = 2,
) -> Tuple["FusionPlan", Tuple[CompressionOption, ...], float, int, int]:
    """Joint local refinement of fusion-group boundaries and options.

    The fusion-aware analogue of :func:`refinement_sweep`: where that
    pass re-decides per-tensor *options* under fixed chains, this one
    moves the *bucket boundaries* the options ride on.  Each sweep
    prices every adjacent-pair merge (the merged bucket re-decided via
    GetBestOption's pricing over both parents' options and
    no-compression) and every payload-balanced split (both halves
    inheriting the parent's option), then accepts the steepest
    improving move under the deterministic total order
    ``(iteration_time, num_groups, boundaries)`` — the same
    :data:`IMPROVEMENT_EPSILON` acceptance as every other phase, so the
    search stays enumeration-order independent.

    ``options`` assigns one option per group of ``plan``.  Returns
    ``(plan, options, iteration_time, trials, accepts)``.
    """
    from repro.core.fusion import fused_job
    from repro.core.options import no_compression_option
    from repro.core.strategy import CompressionStrategy, StrategyEvaluator

    keep_plain = no_compression_option()

    def evaluate(
        trial_plan: "FusionPlan", trial_options: Tuple[CompressionOption, ...]
    ) -> Tuple[float, StrategyEvaluator, CompressionStrategy]:
        evaluator = StrategyEvaluator(fused_job(job, trial_plan))
        strategy = CompressionStrategy(options=trial_options)
        return evaluator.iteration_time(strategy), evaluator, strategy

    options = tuple(options)
    best_time, _, _ = evaluate(plan, options)
    trials = accepts = 0
    for _ in range(max(0, sweeps)):
        moves: List[Tuple[float, int, Tuple[int, ...], "FusionPlan", tuple]] = []

        for g in range(plan.num_groups - 1):
            trial_plan = _merge_plan(plan, g)
            merged = options[: g + 1] + options[g + 2 :]
            _, evaluator, base = evaluate(trial_plan, merged)
            # Re-decide the merged bucket among both parents' options
            # and no-compression (value-deduplicated, fixed order).
            seen = set()
            merged_candidates = []
            for option in (options[g], options[g + 1], keep_plain):
                key = canonical_key(option)
                if key not in seen:
                    seen.add(key)
                    merged_candidates.append(option)
            priced = price_candidates(evaluator, base, g, merged_candidates)
            trials += 1
            if not priced:
                continue
            trial_time, _, option = best_priced(priced)
            moves.append(
                (
                    trial_time,
                    trial_plan.num_groups,
                    trial_plan.boundaries,
                    trial_plan,
                    merged[:g] + (option,) + merged[g + 1 :],
                )
            )

        for g, (start, stop) in enumerate(plan.groups()):
            if stop - start < 2:
                continue
            at = _balanced_split_point(job.model, start, stop)
            trial_plan = _split_plan(plan, g, at)
            split = options[: g + 1] + (options[g],) + options[g + 1 :]
            trial_time, _, _ = evaluate(trial_plan, split)
            trials += 1
            moves.append(
                (
                    trial_time,
                    trial_plan.num_groups,
                    trial_plan.boundaries,
                    trial_plan,
                    split,
                )
            )

        if not moves:
            break
        moves.sort(key=lambda move: (move[0], move[1], move[2]))
        trial_time, _, _, trial_plan, trial_options = moves[0]
        if trial_time < best_time - IMPROVEMENT_EPSILON:
            best_time = trial_time
            plan, options = trial_plan, tuple(trial_options)
            accepts += 1
        else:
            break
    return plan, options, best_time, trials, accepts
