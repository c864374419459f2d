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
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.bubbles import DEFAULT_MIN_BUBBLE, tensors_before_bubbles
from repro.core.options import CompressionOption, Device, canonical_key
from repro.core.parallel import EvaluatorPool, best_priced, price_candidates
from repro.core.plan import PlanCompiler
from repro.core.strategy import CompressionStrategy, StrategyEvaluator
from repro.core.tree import enumerate_options

#: Unified improvement threshold for GetBestOption and the refinement
#: sweep.  Algorithm 1 used to accept any strictly smaller time while
#: the sweep required an improvement beyond 1e-12; the mismatch made the
#: search sensitive to float noise and to which phase saw a move first.
#: A candidate only displaces the incumbent when it improves the best
#: time by more than this; exact ties among candidates break by
#: canonical option key (see :func:`repro.core.parallel.best_priced`),
#: so the selected strategy is independent of candidate enumeration
#: order — the precondition for the deterministic parallel merge.
IMPROVEMENT_EPSILON = 1e-12


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
    paper-sized search.
    """
    if per_device <= 0:
        return list(candidates)
    by_device: dict = {}
    for option in candidates:
        device = "cpu" if option.uses_device(Device.CPU) else "gpu"
        comm, total = compiler.standalone_times(option, num_elements)
        by_device.setdefault(device, []).append((comm, total, option))
    kept: List[CompressionOption] = []
    seen: set = set()
    for entries in by_device.values():
        for key in (0, 1):  # by comm time, then by total time
            for entry in sorted(entries, key=lambda e: e[key])[:per_device]:
                option = entry[2]
                if canonical_key(option) not in seen:
                    seen.add(canonical_key(option))
                    kept.append(option)
    return kept


class CandidatePrefilter:
    """Planner-owned per-size prefilter cache shared across phases.

    :func:`prefilter_candidates` prices every candidate's standalone
    cost; the result depends only on the tensor *size*, yet each
    ``gpu_compression_decision`` and every ``refinement_sweep`` call used
    to rebuild it from scratch.  One instance of this class, created by
    the :class:`~repro.core.espresso.Espresso` planner and threaded
    through all phases, computes each size's candidate list exactly once
    per job.

    The per-size cache keys on ``num_elements`` *alone* — it is only
    valid for phases searching exactly the candidate set this instance
    was built from.  Sharing one prefilter between phases with different
    candidate sets would silently serve the wrong lists; the phases
    therefore call :meth:`ensure_compatible`, which turns that misuse
    into a loud :class:`ValueError`.
    """

    def __init__(
        self,
        compiler: PlanCompiler,
        candidates: Sequence[CompressionOption],
        per_device: int = 3,
    ):
        self.compiler = compiler
        self.candidates = list(candidates)
        self.per_device = per_device
        self._cache: Dict[int, List[CompressionOption]] = {}
        self._signature = tuple(canonical_key(o) for o in self.candidates)

    def ensure_compatible(
        self, candidates: Sequence[CompressionOption]
    ) -> None:
        """Raise ValueError unless ``candidates`` matches the build set.

        Cached per-size lists depend only on tensor size, so serving a
        phase that searches a different candidate set would be a silent
        wrong-cache reuse — this check makes it a loud error instead.
        """
        signature = tuple(canonical_key(o) for o in candidates)
        if signature != self._signature:
            raise ValueError(
                "CandidatePrefilter was built from a different candidate "
                f"set ({len(self._signature)} options) than this phase "
                f"searches ({len(signature)} options); build one "
                "prefilter per candidate set — its per-size cache keys "
                "on num_elements alone and cannot be shared across sets"
            )

    def for_size(self, num_elements: int) -> List[CompressionOption]:
        """The (cached) surviving candidates for one tensor size."""
        kept = self._cache.get(num_elements)
        if kept is None:
            kept = prefilter_candidates(
                self.compiler, self.candidates, num_elements, self.per_device
            )
            self._cache[num_elements] = kept
        return kept


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
    prefilter: Optional[CandidatePrefilter] = None,
    pool: Optional[EvaluatorPool] = None,
    error_budget: Optional[ErrorBudget] = None,
) -> GPUDecisionResult:
    """Run Algorithm 1 and return the GPU-compression strategy.

    ``prefilter_per_device`` bounds GetBestOption's per-tensor candidate
    set (see :func:`prefilter_candidates`); pass 0 for the exact search.
    A planner that runs several phases should build one
    :class:`CandidatePrefilter` and pass it as ``prefilter`` so the
    per-size filtering work is shared; when omitted, a private one is
    built from ``candidates``/``prefilter_per_device``.  An active
    ``pool`` prices each tensor's candidates on per-worker evaluator
    replicas; the deterministic merge keeps the result bit-identical to
    the serial run.  An ``error_budget`` filters each tensor's candidate
    list to the options that keep the committed strategy's global
    weighted error within budget; the filter is a pure function of the
    committed strategy, so serial and parallel runs still agree bitwise.
    """
    if prefilter is None:
        if candidates is None:
            candidates = gpu_candidate_options()
        prefilter = CandidatePrefilter(
            evaluator.compiler, candidates, prefilter_per_device
        )
    elif candidates is not None:
        prefilter.ensure_compatible(candidates)
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
            options = prefilter.for_size(
                evaluator.model.tensors[index].num_elements
            )
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
                pool=pool,
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
    prefilter: Optional[CandidatePrefilter] = None,
    pool: Optional[EvaluatorPool] = None,
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
    if prefilter is None:
        prefilter = CandidatePrefilter(
            evaluator.compiler, candidates, prefilter_per_device
        )
    else:
        prefilter.ensure_compatible(candidates)
    best_time = evaluator.iteration_time(strategy)
    improved = False
    for group in sorted_tensor_groups(evaluator):
        for index in group:
            resident_key = canonical_key(strategy[index])
            options = [
                option
                for option in [
                    *prefilter.for_size(
                        evaluator.model.tensors[index].num_elements
                    ),
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
                pool=pool,
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
    search stays enumeration-order independent and bit-identical across
    ``--jobs`` widths (trials are priced by in-process evaluators).

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
            priced = price_candidates(
                evaluator, base, g, merged_candidates, pool=None
            )
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
