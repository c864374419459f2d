"""Compression strategies and their evaluation (the paper's F(S)).

A :class:`CompressionStrategy` assigns a compression option to every
tensor of a model (S = {c_j} in §4.2.2).  The :class:`StrategyEvaluator`
derives the full iteration timeline of a strategy with the empirical
models — computing F(S), the iteration time — which is the primitive the
decision algorithm minimizes.

The evaluator owns a *fast evaluation layer* (DESIGN.md §5.2):
candidates that differ from a resident base strategy in one or a few
tensors are priced by :class:`~repro.sim.incremental.IncrementalSimulator`
— a delta-simulation that reuses the deterministic event prefix of the
base run instead of replaying from t=0 — and memoized against that base
until the next rebase.  Both are exact: results are bit-identical to the
full simulation, only cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import JobConfig
from repro.sim import batch as _batch
from repro.core.options import (
    CompressionOption,
    Device,
    canonical_key,
    no_compression_option,
)
from repro.core.plan import ChainEntry, PlanCompiler
from repro.sim.engine import Timeline, simulate, simulate_makespan
from repro.sim.incremental import IncrementalSimulator
from repro.sim.validate import assert_valid
from repro.sim.metrics import scaling_factor as _scaling_factor
from repro.sim.metrics import throughput as _throughput
from repro.sim.stages import TensorChain, compute_stage


@dataclass(frozen=True)
class CompressionStrategy:
    """Per-tensor compression options, indexed like ``model.tensors``."""

    options: Tuple[CompressionOption, ...]

    def __post_init__(self) -> None:
        if not self.options:
            raise ValueError("a strategy needs at least one tensor option")

    def __len__(self) -> int:
        return len(self.options)

    def __getitem__(self, index: int) -> CompressionOption:
        return self.options[index]

    def replace(self, index: int, option: CompressionOption) -> "CompressionStrategy":
        """A copy with tensor ``index`` assigned ``option``."""
        options = list(self.options)
        options[index] = option
        child = CompressionStrategy(options=tuple(options))
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is not None:
            # Derive the child's fingerprint from ours instead of making
            # it re-hash every option later.
            object.__setattr__(
                child,
                "_fingerprint",
                fingerprint[:index]
                + (canonical_key(option),)
                + fingerprint[index + 1 :],
            )
        return child

    @property
    def compressed_indices(self) -> List[int]:
        """Indices of tensors that get compressed under this strategy."""
        return [i for i, option in enumerate(self.options) if option.compresses]

    def device_indices(self, device: Device) -> List[int]:
        """Indices of compressed tensors using ``device``."""
        return [
            i
            for i, option in enumerate(self.options)
            if option.compresses and option.uses_device(device)
        ]

    def fingerprint(self) -> Tuple[int, ...]:
        """Canonical per-tensor option keys — the strategy's identity.

        Built from :func:`~repro.core.options.canonical_key`, so two
        strategies that assign value-equal options to every tensor share
        a fingerprint even when the option *objects* differ.  Cached on
        the (frozen) instance: the planner requests it on every F(S)
        evaluation.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = tuple(canonical_key(option) for option in self.options)
            object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def describe(self) -> str:
        """Multi-line human-readable dump of all per-tensor decisions."""
        return "\n".join(
            f"T{i}: {option.describe()}" for i, option in enumerate(self.options)
        )

    def __getstate__(self) -> dict:
        # The cached fingerprint is a tuple of process-local canonical
        # keys (see options.canonical_key); another process must
        # recompute it against its own interning table, so strip it
        # before pickling.
        state = dict(self.__dict__)
        state.pop("_fingerprint", None)
        return state


def baseline_strategy(num_tensors: int, flat: bool = False) -> CompressionStrategy:
    """The FP32 strategy: no tensor compressed (Algorithm 1's initial S)."""
    option = no_compression_option(flat=flat)
    return CompressionStrategy(options=(option,) * num_tensors)


@dataclass(frozen=True)
class FusionPlan:
    """A partition of a model's tensors into fused gradient buckets.

    Fusion-group boundaries are a first-class strategy-space decision
    (the MG-WFBP dimension Espresso's per-tensor search lacks): tensors
    of one group are communicated as a single aggregated payload, paying
    the per-message launch overhead once instead of once per member.
    Groups are contiguous runs in backprop completion order — the bucket
    becomes ready when its *last* member's gradient is computed, so
    non-contiguous groups would only ever delay communication.

    Attributes:
        num_tensors: tensor count of the model trace the plan partitions.
        boundaries: group start indices; ``boundaries[g]`` is the first
            tensor of group ``g``.  Always starts at 0 and is strictly
            increasing, so group ``g`` spans
            ``[boundaries[g], boundaries[g + 1])``.
    """

    num_tensors: int
    boundaries: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_tensors < 1:
            raise ValueError("a fusion plan needs at least one tensor")
        if not self.boundaries or self.boundaries[0] != 0:
            raise ValueError("fusion-group boundaries must start at 0")
        for a, b in zip(self.boundaries, self.boundaries[1:]):
            if b <= a:
                raise ValueError(
                    f"fusion-group boundaries must be strictly increasing, "
                    f"got {self.boundaries}"
                )
        if self.boundaries[-1] >= self.num_tensors:
            raise ValueError(
                f"boundary {self.boundaries[-1]} out of range for "
                f"{self.num_tensors} tensors"
            )

    @classmethod
    def singleton(cls, num_tensors: int) -> "FusionPlan":
        """The no-fusion plan: every tensor is its own group."""
        return cls(num_tensors=num_tensors, boundaries=tuple(range(num_tensors)))

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "FusionPlan":
        """Build a plan from per-group tensor counts."""
        boundaries = []
        start = 0
        for size in sizes:
            boundaries.append(start)
            start += size
        return cls(num_tensors=start, boundaries=tuple(boundaries))

    @property
    def num_groups(self) -> int:
        return len(self.boundaries)

    @property
    def is_singleton(self) -> bool:
        """True when the plan fuses nothing."""
        return self.num_groups == self.num_tensors

    def groups(self) -> List[Tuple[int, int]]:
        """Per-group ``(start, stop)`` tensor index ranges."""
        stops = (*self.boundaries[1:], self.num_tensors)
        return list(zip(self.boundaries, stops))

    def group_sizes(self) -> List[int]:
        return [stop - start for start, stop in self.groups()]

    def group_of(self, tensor_index: int) -> int:
        """The group containing ``tensor_index``."""
        if not 0 <= tensor_index < self.num_tensors:
            raise IndexError(f"tensor index {tensor_index} out of range")
        from bisect import bisect_right

        return bisect_right(self.boundaries, tensor_index) - 1

    def describe(self) -> str:
        return (
            f"{self.num_groups} fusion group(s) over {self.num_tensors} "
            f"tensors (sizes {self.group_sizes()})"
        )


@dataclass(frozen=True)
class FusedStrategy:
    """A fusion plan plus one compression option per fused group.

    The joint decision the fusion-aware planner outputs: bucket
    boundaries *and* per-bucket compression choices.  ``options`` is
    indexed like the fused model's tensors (group ``g`` of ``plan``),
    not like the original model's.
    """

    plan: FusionPlan
    options: Tuple[CompressionOption, ...]

    def __post_init__(self) -> None:
        if len(self.options) != self.plan.num_groups:
            raise ValueError(
                f"fused strategy assigns {len(self.options)} options to "
                f"{self.plan.num_groups} fusion groups"
            )

    def as_strategy(self) -> CompressionStrategy:
        """The per-group strategy, indexed like the fused model."""
        return CompressionStrategy(options=self.options)

    def per_tensor_options(self) -> Tuple[CompressionOption, ...]:
        """The decision expanded to the original model's tensors (every
        member of a group shares the group's option)."""
        expanded: List[CompressionOption] = []
        for option, size in zip(self.options, self.plan.group_sizes()):
            expanded.extend([option] * size)
        return tuple(expanded)

    def fingerprint(self) -> Tuple:
        """Canonical identity: boundaries + per-group option keys."""
        return (
            self.plan.num_tensors,
            self.plan.boundaries,
            tuple(canonical_key(option) for option in self.options),
        )

    def describe(self) -> str:
        lines = [self.plan.describe()]
        for g, ((start, stop), option) in enumerate(
            zip(self.plan.groups(), self.options)
        ):
            span = f"T{start}" if stop - start == 1 else f"T{start}..T{stop - 1}"
            lines.append(f"G{g} [{span}]: {option.describe()}")
        return "\n".join(lines)


@dataclass
class EvaluatorStats:
    """Fast-evaluation-layer instrumentation (reported by ``plan --stats``).

    Attributes:
        fs_calls: F(S) requests, however they were answered.
        cache_hits: requests answered from the fingerprint memo cache
            (including candidates chain-equal to the resident base).
        full_sims: from-scratch simulations (includes rebases).
        incremental_sims: delta-simulations via chain swaps that ran to
            an exact makespan.
        rebases: incremental-simulator base rebuilds.
        timelines: full timeline simulations (stage records materialized).
        events_full: completion events processed by full/base simulations.
        events_replayed: completion events processed during swap replays,
            including the partial replays of ``replay_cuts``.
        events_reused: completion events skipped via checkpoint restore.
        batch_calls: ``price_options`` invocations (one per tensor whose
            candidate set was priced as a batch).
        batch_candidates: candidates submitted across all batch calls.
        batch_pruned: candidates a sound lower bound proved cannot
            matter to the min-taking caller (DESIGN.md §5.7); no time is
            reported.  Either the static bound skipped the replay, or
            (``replay_cuts``) the replay stopped part-way.
        replay_cuts: the part of ``batch_pruned`` cut inside the replay
            by the backprop critical-path bound.  A cut candidate ran
            part of a replay, whose events count in ``events_replayed``,
            but it is not an incremental simulation and is not memoized.
        batch_dedup_hits: candidates answered by another candidate of
            the *same call* that compiles to an identical stage chain.
        batch_fallbacks: always 0.  It counted candidates a vectorized
            batch walk handed back to the scalar replay; that walk is
            gone, and the field stays because the planner benchmark's
            stats reader (``benchmarks/suite/spans.py``) still reads it.
        offload_passes: Algorithm 2 runs (``cpu_offload_decision``
            calls).
        offload_descent_passes: runs whose Theorem 1 product exceeded
            ``max_offload_evaluations`` and took coordinate descent.
        offload_combinations: Theorem 1 count vectors, prod(|G_i| + 1),
            summed over the runs.
        offload_trials: F(S) evaluations the runs made, the base
            included; a run that priced every count vector adds its
            combinations.
        parallel_jobs, parallel_tasks, fanout_seconds, merge_seconds:
            always 1, 0, 0.0 and 0.0.  They described a process pool
            that priced candidates in worker processes; planning now
            runs in one process, and the fields stay because the
            planner benchmark's stats readers
            (``benchmarks/suite/spans.py``, ``child.py``) still read
            them.
    """

    fs_calls: int = 0
    cache_hits: int = 0
    full_sims: int = 0
    incremental_sims: int = 0
    rebases: int = 0
    timelines: int = 0
    events_full: int = 0
    events_replayed: int = 0
    events_reused: int = 0
    batch_calls: int = 0
    batch_candidates: int = 0
    batch_pruned: int = 0
    replay_cuts: int = 0
    batch_dedup_hits: int = 0
    batch_fallbacks: int = 0
    offload_passes: int = 0
    offload_descent_passes: int = 0
    offload_combinations: int = 0
    offload_trials: int = 0
    parallel_jobs: int = 1
    parallel_tasks: int = 0
    fanout_seconds: float = 0.0
    merge_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of F(S) requests answered without a full replay.

        It takes three counters: memo/resident hits (``cache_hits``),
        candidates answered by a chain-identical sibling in the same
        call (``batch_dedup_hits``), and candidates a sound lower bound
        proved irrelevant (``batch_pruned``; those cut inside the replay,
        ``replay_cuts``, ran part of one).  Counting memo hits alone
        collapses on deep homogeneous models — the memo lives only as
        long as its resident base, so every accepted decision (a
        rebase) empties it, while dedup and pruning still answer
        20-40% of requests simulation-free.  ``memo_hit_rate`` keeps
        the narrow metric.
        """
        if not self.fs_calls:
            return 0.0
        answered = self.cache_hits + self.batch_dedup_hits + self.batch_pruned
        return answered / self.fs_calls

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of F(S) requests answered from the memo cache alone."""
        return self.cache_hits / self.fs_calls if self.fs_calls else 0.0

    @property
    def batch_prune_rate(self) -> float:
        """Fraction of batch candidates eliminated by lower bounds."""
        if not self.batch_candidates:
            return 0.0
        return self.batch_pruned / self.batch_candidates

    @property
    def prefix_reuse_fraction(self) -> float:
        """Of the events a naive replay would simulate during swaps, the
        fraction skipped by resuming from a checkpoint.  A replay cut
        counts the events it ran and the prefix it skipped, not the
        suffix it never reached."""
        denominator = self.events_replayed + self.events_reused
        return self.events_reused / denominator if denominator else 0.0

    def snapshot(self) -> "EvaluatorStats":
        """An independent copy (results keep a frozen-in-time view)."""
        return replace(self)


class StrategyEvaluator:
    """Derives timelines and F(S) for strategies of one training job.

    One evaluator is bound to one :class:`~repro.config.JobConfig`; it
    owns the plan compiler (and its option/size stage cache) so repeated
    evaluations during the decision algorithm stay fast.

    Args:
        job: the training job to evaluate strategies for.
        fast: enable the fast evaluation layer (memo cache + incremental
            delta-simulation).  ``False`` forces every F(S) request
            through a from-scratch simulation; results are bit-identical
            either way (the regression tests assert it), so the flag
            exists for benchmarking and for the equivalence tests.
        check: run the conformance invariant checker
            (:func:`repro.sim.validate.assert_valid`) on every timeline
            this evaluator materializes — ``plan --check`` turns it on;
            a violation raises :class:`~repro.sim.validate.
            ConformanceError` instead of silently producing a wrong
            schedule.
    """

    def __init__(self, job: JobConfig, fast: bool = True, check: bool = False):
        self.job = job
        self.model = job.model
        self.cluster = job.system.cluster
        self.compressor = job.build_compressor()
        try:  # the value key of everything that prices this job's options
            params = tuple(sorted(job.gc.params.items()))
            context = (job.system, job.gc.algorithm, params)
            hash(context)
        except TypeError:
            context = None
        self.compiler = PlanCompiler(
            cluster=self.cluster,
            compressor=self.compressor,
            gpu=job.system.gpu,
            cpu=job.system.cpu,
            pricing_context=context,
        )
        self._cpu_capacity = job.system.cpu.parallel_workers
        #: Each tensor's backprop compute stage, shared by its chains.
        self._compute_stages = [
            compute_stage(tensor.compute_time) for tensor in self.model.tensors
        ]
        self.fast = fast
        self.check = check
        self.timelines_checked = 0
        self.evaluations = 0  # F(S) computations, reported in Table 5
        #: Cooperative-cancellation seam: when set, called at the top of
        #: every F(S) entry point (``iteration_time``,
        #: ``iteration_time_multi``, ``price_options``).  The planning
        #: service installs a deadline check here so an in-flight
        #: selection unwinds within one evaluation of its deadline
        #: instead of running to completion; the callable signals
        #: cancellation by raising (the exception propagates out of the
        #: planner untouched).  ``None`` (the default) costs one
        #: attribute test per call.
        self.cancel_check: Optional[Callable[[], None]] = None
        self.stats = EvaluatorStats()
        #: (canonical option key, tensor index) -> the tensor's
        #: :data:`~repro.core.plan.ChainEntry` under that option, read
        #: through the compiler's pricing table.  Keyed on the canonical
        #: *value* key, not ``id(option)``, so a recycled ``id()`` can
        #: never alias a stale chain.
        self._chain_entries: Dict[Tuple[int, int], ChainEntry] = {}
        #: The F(S) memo of the resident base: makespans keyed by the
        #: ``(tensor index, chain key)`` pairs a trial changes, flattened
        #: in ascending index order.  The key says nothing about the
        #: tensors the trial keeps, so it is only valid against the base
        #: it was priced on and a rebase drops it (:meth:`_rebase` keeps
        #: the few entries that stay trials of the new base).  Keying by
        #: chain key rather than option key is safe — the makespan is a
        #: function of the stage chains and the resource capacities
        #: alone — and lets chain-equal option values share an entry.
        self._memo: Dict[Tuple[int, ...], float] = {}
        self._inc: Optional[IncrementalSimulator] = None
        #: The resident base's stage chains, option fingerprint
        #: (residency, timelines) and chain keys (the reference the memo
        #: keys diff against).
        self._inc_chains: List[TensorChain] = []
        self._inc_fp: Optional[Tuple[int, ...]] = None
        self._inc_cfp: Optional[Tuple[int, ...]] = None

    # -- chain construction ---------------------------------------------

    def _chain(self, index: int, option: CompressionOption) -> TensorChain:
        """The stage chain of tensor ``index`` under ``option``.

        Built on demand (a rebase, a checked timeline, a from-scratch
        run); the compiler caches the stages, and the pricing hot path
        reads :meth:`_chain_entry` instead.
        """
        return TensorChain(
            tensor_index=index,
            stages=[
                self._compute_stages[index],
                *self.compiler.stages(
                    option, self.model.tensors[index].num_elements
                ),
            ],
        )

    def _chain_entry(self, index: int, option: CompressionOption) -> ChainEntry:
        """Tensor ``index``'s ``(chain key, resources, durations)`` under
        ``option``.  Two option values with different canonical keys can
        share a chain key — that is the point (see ``_memo``).  A chain
        this evaluator has not seen comes from the pricing table, which
        every evaluator of this job's pricing context shares; only a
        chain the table lacks is compiled."""
        option_key = canonical_key(option)
        entry = self._chain_entries.get((option_key, index))
        if entry is None:
            tensor = self.model.tensors[index]
            shared = (option_key, tensor.num_elements, tensor.compute_time)
            table = self.compiler.table
            entry = table.chains.get(shared)
            if entry is None:
                entry = table.intern(shared, self._chain(index, option).stages)
            self._chain_entries[(option_key, index)] = entry
        return entry

    def _flat_chain(
        self, index: int, option: CompressionOption
    ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Tensor ``index``'s chain under ``option`` as parallel
        (resource index, duration) tuples."""
        return self._chain_entry(index, option)[1:]

    def _chains(self, strategy: CompressionStrategy) -> List[TensorChain]:
        """Per-tensor stage chains for a whole strategy."""
        self._check_length(strategy)
        return [
            self._chain(index, option)
            for index, option in enumerate(strategy.options)
        ]

    def _check_length(self, strategy: CompressionStrategy) -> None:
        if len(strategy) != self.model.num_tensors:
            raise ValueError(
                f"strategy covers {len(strategy)} tensors, "
                f"model has {self.model.num_tensors}"
            )

    # -- fast evaluation layer ------------------------------------------

    def _rebase(self, fingerprint: Tuple[int, ...], strategy: CompressionStrategy) -> None:
        """Make ``strategy`` the resident base of the incremental engine.

        The memo's keys are relative to the base's chains, so unless the
        chains are unchanged the memo is rebuilt.  It keeps only the
        trials confined to the tensors the rebase changed, re-keyed, and
        the old base itself: each is a trial of the new base too.  They
        answer a decision that re-prices or reverts what the rebase
        changed (a refinement sweep revisiting the tensor it just
        moved); every other entry is dropped.
        """
        self.stats.rebases += 1
        self.stats.full_sims += 1
        previous, previous_cfp = self._inc, self._inc_cfp
        if previous is None:
            chains = self._chains(strategy)
        else:
            # A rebase changes few tensors; the rest keep their chains.
            self._check_length(strategy)
            chains = [
                chain if key == old_key else self._chain(index, option)
                for index, (option, key, old_key, chain) in enumerate(
                    zip(strategy.options, fingerprint, self._inc_fp,
                        self._inc_chains)
                )
            ]
        self._inc = IncrementalSimulator(
            chains, cpu_capacity=self._cpu_capacity, stats=self.stats
        )
        self._inc_chains = chains
        self._inc_fp = fingerprint
        self._inc_cfp = cfp = tuple(
            self._chain_entry(index, option)[0]
            for index, option in enumerate(strategy.options)
        )
        if cfp == previous_cfp:
            return
        memo: Dict[Tuple[int, ...], float] = {}
        if previous is not None:
            changed = {
                index: old
                for index, (old, new) in enumerate(zip(previous_cfp, cfp))
                if old != new
            }
            carried = [((), previous.base_makespan)]
            carried += [
                entry
                for entry in self._memo.items()
                if all(index in changed for index in entry[0][::2])
            ]
            for key, makespan in carried:
                trial = {**changed, **dict(zip(key[::2], key[1::2]))}
                new_key = tuple(
                    part
                    for index in sorted(trial)
                    if trial[index] != cfp[index]
                    for part in (index, trial[index])
                )
                if new_key:
                    memo[new_key] = makespan
        self._memo = memo

    def _ensure_base(
        self, fingerprint: Tuple[int, ...], strategy: CompressionStrategy
    ) -> None:
        if self._inc is None or self._inc_fp != fingerprint:
            self._rebase(fingerprint, strategy)

    def _resident_makespan(
        self, replacements: Sequence[Tuple[int, CompressionOption]]
    ) -> float:
        """Makespan of the resident base with ``replacements`` applied,
        memoized against that base."""
        base_cfp = self._inc_cfp
        changed: Dict[int, ChainEntry] = {}
        for index, option in replacements:
            entry = self._chain_entry(index, option)
            if entry[0] != base_cfp[index]:
                changed[index] = entry
            else:
                changed.pop(index, None)
        if not changed:
            # Chain-equal to the resident base (covers option equality
            # and distinct options compiling identically).
            self.stats.cache_hits += 1
            return self._inc.base_makespan
        key = tuple(
            part
            for index in sorted(changed)
            for part in (index, changed[index][0])
        )
        makespan = self._memo.get(key)
        if makespan is not None:
            self.stats.cache_hits += 1
            return makespan
        self.stats.incremental_sims += 1
        makespan = self._inc.swap_chains_flat(
            [(index, res, dur) for index, (_, res, dur) in changed.items()]
        )
        self._memo[key] = makespan
        return makespan

    def price_options(
        self,
        base: CompressionStrategy,
        index: int,
        options: Sequence[CompressionOption],
        bound: Optional[float] = None,
    ) -> List[Optional[float]]:
        """Batch F(S): ``base`` with tensor ``index`` assigned each option.

        The planner's single-tensor F(S) path (DESIGN.md §5.7), used by
        GetBestOption and the refinement sweeps: one entry per option,
        every returned float bit-identical to ``iteration_time`` of the
        trial strategy.  Candidates compiling to
        identical stage chains are simulated once, memoized trials are
        not simulated again, and each remaining candidate is one
        :meth:`IncrementalSimulator.swap_chains_flat` replay.

        With ``bound`` given, the caller declares it is *min-taking*: it
        only accepts times strictly below ``bound`` and resolves exact
        time ties by canonical key (or first index).  Candidates whose
        *sound lower bound* proves they cannot win under those rules —
        the bound reaches ``bound``, or another candidate in the batch
        already priced strictly below it — are returned as ``None``
        instead of a time: the alpha-beta-style cut that makes
        GetBestOption and the refinement sweeps cheap once the incumbent
        is good.  Two bounds apply: the static one of
        :func:`repro.sim.batch.suffix_lower_bounds` before a replay, and
        the backprop critical path the replay checks as it runs.  The batch
        minimum and every candidate tying it always come back exact, so
        the winner and its tie-breaking are bit-identical to pricing
        everything.  Callers that need every exact time must pass
        ``bound=None``.
        """
        if self.cancel_check is not None:
            self.cancel_check()
        options = list(options)
        count = len(options)
        self.evaluations += count
        stats = self.stats
        stats.fs_calls += count
        stats.batch_calls += 1
        stats.batch_candidates += count
        forward = self.model.forward_time
        if not self.fast:
            stats.full_sims += count
            return [
                forward
                + simulate_makespan(
                    self._chains(base.replace(index, option)),
                    cpu_capacity=self._cpu_capacity,
                )
                for option in options
            ]
        self._ensure_base(base.fingerprint(), base)
        inc = self._inc
        memo = self._memo
        resident_key = self._inc_cfp[index]
        base_time = forward + inc.base_makespan
        results: List[Optional[float]] = [None] * count
        # One entry per distinct trial chain, in first-encounter order:
        # chain key -> (flat chain, slots).
        unique: Dict[int, Tuple[tuple, List[int]]] = {}
        for j, option in enumerate(options):
            chain_key, res, dur = self._chain_entry(index, option)
            if chain_key == resident_key:
                stats.cache_hits += 1
                results[j] = base_time
                continue
            entry = unique.get(chain_key)
            if entry is not None:
                stats.batch_dedup_hits += 1
                entry[1].append(j)
                continue
            makespan = memo.get((index, chain_key))
            if makespan is not None:
                stats.cache_hits += 1
                results[j] = forward + makespan
                continue
            unique[chain_key] = ((res, dur), [j])
        pending = list(unique.items())
        order = range(len(pending))
        bounds: Optional[List[float]] = None
        if bound is not None and pending:
            bounds = _batch.suffix_lower_bounds(
                inc, index, [flat for _, (flat, _) in pending]
            )
            order = sorted(order, key=bounds.__getitem__)
            bound_makespan = bound - forward
        # With a bound, a best-first scan with two sound cuts.  A
        # candidate is skipped (returned as None) when its lower bound
        # proves it cannot matter to a min-taking caller:
        #   1. ``forward + lb >= bound`` — the caller rejects any time
        #      reaching ``bound``, so the exact value (>= lb) is
        #      irrelevant.
        #   2. ``lb > best_seen`` — some other candidate in this very
        #      batch already priced *strictly* below lb, so this one can
        #      neither win nor tie the batch minimum.
        # Cut 2 is why the scan runs in ascending-lb order: the likely
        # winner is priced first and everything above it falls.
        # Strictness keeps exact time ties intact — a tying candidate's
        # lb never exceeds the tied value — so the (time, key)
        # tie-breaking downstream sees every tie.  A candidate that
        # survives both is replayed with the same two thresholds, which
        # the replay applies to the backprop critical path at each later
        # chain's compute dispatch (``swap_chains_flat``); a replay cut
        # counts as pruned and is not memoized.  Without a bound every
        # candidate is priced in full, in first-encounter order.
        best_seen = min(
            (time - forward for time in results if time is not None),
            default=None,
        )
        for position in order:
            chain_key, ((res, dur), slots) = pending[position]
            if bounds is None:
                makespan = inc.swap_chains_flat([(index, res, dur)])
            else:
                lb = bounds[position]
                if lb >= bound_makespan or (
                    best_seen is not None and lb > best_seen
                ):
                    stats.batch_pruned += len(slots)
                    continue
                makespan = inc.swap_chains_flat(
                    [(index, res, dur)], bound_makespan, best_seen
                )
                if makespan is None:
                    stats.batch_pruned += len(slots)
                    stats.replay_cuts += len(slots)
                    continue
            stats.incremental_sims += 1
            memo[(index, chain_key)] = makespan
            for j in slots:
                results[j] = forward + makespan
            if best_seen is None or makespan < best_seen:
                best_seen = makespan
        return results

    # -- public API ------------------------------------------------------

    def timeline(self, strategy: CompressionStrategy) -> Timeline:
        """Simulate the full iteration timeline of ``strategy``.

        With the fast layer on, ``strategy`` becomes (or already is) the
        incremental engine's resident base and the records are rebuilt
        from its arrays — Algorithm 1's Remove() asks for the timeline
        of exactly the strategy the following delta evaluations use, so
        the rebase is work the planner was about to do anyway.
        """
        self.evaluations += 1
        self.stats.timelines += 1
        if self.fast:
            self._ensure_base(strategy.fingerprint(), strategy)
            timeline = self._inc.base_timeline()
        else:
            timeline = simulate(
                self._chains(strategy), cpu_capacity=self._cpu_capacity
            )
        if self.check:
            assert_valid(
                timeline,
                chains=self._chains(strategy),
                cpu_capacity=self._cpu_capacity,
            )
            self.timelines_checked += 1
        return timeline

    def tensors_before_bubbles(
        self, strategy: CompressionStrategy, min_bubble: float
    ) -> set:
        """Remove()'s bubble shield for ``strategy``.

        Bit-identical to ``tensors_before_bubbles(self.timeline(...))``
        but, with the fast layer resident and conformance checking off,
        computed straight from the incremental engine's task arrays —
        no :class:`ScheduledStage` churn.  The counters move exactly as
        the Timeline path moves them, so ``plan --stats`` reads the
        same either way; in ``check`` mode the Timeline path is kept so
        every timeline the planner consults is still validated.
        """
        from repro.core.bubbles import (
            tensors_before_bubbles,
            tensors_before_bubbles_flat,
        )

        if self.fast and not self.check:
            self.evaluations += 1
            self.stats.timelines += 1
            self._ensure_base(strategy.fingerprint(), strategy)
            return tensors_before_bubbles_flat(
                self._inc.task_view(), min_bubble
            )
        return tensors_before_bubbles(
            self.timeline(strategy), min_bubble=min_bubble
        )

    def chains(self, strategy: CompressionStrategy) -> List[TensorChain]:
        """The per-tensor stage chains ``strategy`` compiles to.

        Public accessor for the conformance layer (oracle runs and the
        invariant checker need the chains the timeline claims to
        realize); the compiler caches the stages behind them.
        """
        return self._chains(strategy)

    def iteration_time(self, strategy: CompressionStrategy) -> float:
        """F(S): the iteration wall-clock time under ``strategy``.

        Uses the makespan-only fast path — the decision algorithm calls
        this thousands of times and never needs the stage records.  With
        the fast layer enabled the first call makes ``strategy`` the
        resident base; later calls are delta-simulations against
        whichever base is resident, memoized until it changes.
        """
        if self.cancel_check is not None:
            self.cancel_check()
        self.evaluations += 1
        self.stats.fs_calls += 1
        if not self.fast:
            self.stats.full_sims += 1
            makespan = simulate_makespan(
                self._chains(strategy), cpu_capacity=self._cpu_capacity
            )
            return self.model.forward_time + makespan
        fingerprint = strategy.fingerprint()
        if self._inc is None:
            self._rebase(fingerprint, strategy)
            return self.model.forward_time + self._inc.base_makespan
        self._check_length(strategy)
        base_fp = self._inc_fp
        makespan = self._resident_makespan(
            [
                (index, option)
                for index, option in enumerate(strategy.options)
                if fingerprint[index] != base_fp[index]
            ]
        )
        return self.model.forward_time + makespan

    def iteration_time_multi(
        self,
        base: CompressionStrategy,
        replacements: Sequence[Tuple[int, CompressionOption]],
    ) -> float:
        """F(S) of ``base`` with several tensors replaced at once.

        Equivalent to ``iteration_time`` of the strategy with the
        replacements applied, but reuses the simulation prefix of
        ``base`` (which becomes the resident incremental base).  Used by
        Algorithm 2's offload enumeration (each trial moves whole group
        prefixes to the CPU).  Prefix reuse is bounded by the earliest
        replaced tensor, but the flattened chains and the base's memo
        are still shared.
        """
        if self.cancel_check is not None:
            self.cancel_check()
        self.evaluations += 1
        self.stats.fs_calls += 1
        if not self.fast:
            options = list(base.options)
            for index, option in replacements:
                options[index] = option
            self.stats.full_sims += 1
            makespan = simulate_makespan(
                self._chains(CompressionStrategy(options=tuple(options))),
                cpu_capacity=self._cpu_capacity,
            )
            return self.model.forward_time + makespan
        self._ensure_base(base.fingerprint(), base)
        return self.model.forward_time + self._resident_makespan(replacements)

    def iteration_time_uncached(self, strategy: CompressionStrategy) -> float:
        """F(S) via an unconditional from-scratch simulation.

        Bypasses the memo cache and the incremental engine; used when
        the *cost* of one evaluation is the measurement (Table 5's
        brute-force extrapolation).
        """
        self.evaluations += 1
        self.stats.fs_calls += 1
        self.stats.full_sims += 1
        makespan = simulate_makespan(
            self._chains(strategy), cpu_capacity=self._cpu_capacity
        )
        return self.model.forward_time + makespan

    def throughput(self, strategy: CompressionStrategy) -> float:
        """Cluster samples/second under ``strategy``."""
        return _throughput(
            self.model, self.cluster, self.iteration_time(strategy)
        )

    def scaling_factor(self, strategy: CompressionStrategy) -> float:
        """The paper's scaling factor T_n / (n * T) under ``strategy``."""
        return _scaling_factor(self.model, self.iteration_time(strategy))

    def baseline(self, flat: bool = False) -> CompressionStrategy:
        """The FP32 strategy sized for this job's model."""
        return baseline_strategy(self.model.num_tensors, flat=flat)
