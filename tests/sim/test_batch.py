"""Batched candidate pricing (DESIGN.md §5.7).

The contract under test: ``price_options`` without a bound equals a
from-scratch simulation of every candidate float for float, the lower
bounds of ``repro.sim.batch`` never exceed the exact swapped makespan,
a replay given cut thresholds returns the exact makespan or a cut the
exact makespan justifies, and ``price_options``'s bound-driven pruning
changes *which* candidates get exact times but never the batch winner,
its time, or its ties.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso
from repro.core.algorithm import device_candidate_options
from repro.core.strategy import CompressionStrategy, StrategyEvaluator
from repro.models import available_models, get_model, synthetic_model
from repro.sim import batch as batch_module
from repro.sim.batch import suffix_lower_bounds
from repro.sim.incremental import IncrementalSimulator
from repro.utils.units import MB, MS

OPTIONS = device_candidate_options()
JOB_IDS = ("nvlink", "pcie", "compute-bound")


def _jobs():
    model = synthetic_model(
        "batch-eval",
        [
            (int(1 * MB / 4), 3 * MS),
            (int(8 * MB / 4), 6 * MS),
            (int(2 * MB / 4), 4 * MS),
            (int(32 * MB / 4), 8 * MS),
            (int(8 * MB / 4), 6 * MS),
            (int(64 * MB / 4), 10 * MS),
            (int(2 * MB / 4), 4 * MS),
            (int(128 * MB / 4), 12 * MS),
        ],
        forward_time=15 * MS,
    )
    # Backprop compute dwarfs every tensor's communication, so the
    # schedule is backprop-bound and a GPU compression kernel only
    # pushes the compute stream back; the last tensor's communication
    # tail is what the static bound cannot see.
    compute_bound = synthetic_model(
        "batch-compute-bound",
        [
            (int(4 * MB / 4), 40 * MS),
            (int(16 * MB / 4), 60 * MS),
            (int(2 * MB / 4), 30 * MS),
            (int(8 * MB / 4), 50 * MS),
            (int(1 * MB / 4), 20 * MS),
            (int(64 * MB / 4), 40 * MS),
        ],
        forward_time=100 * MS,
    )
    # NVLink exercises intra+inter routing; PCIe shifts the bottleneck
    # and (with CPU options) the capacity-4 multi-worker resource.
    return [
        JobConfig(
            model=model,
            gc=GCInfo("dgc", {"ratio": 0.01}),
            system=SystemInfo(
                cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=4)
            ),
        ),
        JobConfig(
            model=model,
            gc=GCInfo("efsignsgd"),
            system=SystemInfo(
                cluster=pcie_25g_cluster(num_machines=4, gpus_per_machine=4)
            ),
        ),
        JobConfig(
            model=compute_bound,
            gc=GCInfo("dgc", {"ratio": 0.01}),
            system=SystemInfo(
                cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=4)
            ),
        ),
    ]


def _resident(job):
    """A fast evaluator with its incremental engine resident on the
    baseline strategy, plus that base strategy."""
    evaluator = StrategyEvaluator(job, fast=True)
    base = evaluator.baseline()
    evaluator.iteration_time(base)
    return evaluator, base


def _unique_variants(evaluator, index):
    """Distinct candidate flat chains for one tensor (the lower bounds'
    input after price_options dedupes)."""
    variants, seen = [], set()
    for option in OPTIONS:
        res, dur = evaluator._flat_chain(index, option)
        signature = (tuple(res), tuple(dur))
        if signature not in seen:
            seen.add(signature)
            variants.append((res, dur))
    return variants


@pytest.mark.parametrize("job", _jobs(), ids=JOB_IDS)
def test_batch_swap_equals_scalar_swaps(job):
    """Unbounded price_options == a from-scratch simulation of every
    candidate, exactly."""
    evaluator, base = _resident(job)
    reference = StrategyEvaluator(job, fast=False)
    for index in range(job.model.num_tensors):
        assert evaluator.price_options(
            base, index, OPTIONS
        ) == reference.price_options(base, index, OPTIONS)


def test_batch_swap_validation_matches_scalar():
    """Invalid flat candidates raise the scalar path's ValueError."""
    evaluator, _ = _resident(_jobs()[0])
    inc = evaluator._inc
    res, dur = evaluator._flat_chain(2, OPTIONS[0])
    for index, variant in [
        (99, (res, dur)),                              # index out of range
        (2, ((), ())),                                 # empty chain
        (2, ([res[0]] * 1025, [dur[0]] * 1025)),       # too many stages
        (2, ([1 - res[0]] + list(res[1:]), dur)),      # leading stage swapped
        (2, (res, [dur[0] + 1.0] + list(dur[1:]))),    # leading dur changed
    ]:
        with pytest.raises(ValueError):
            inc.swap_chains_flat([(index, *variant)])


@pytest.mark.parametrize("job", _jobs(), ids=JOB_IDS)
def test_suffix_lower_bounds_are_sound(job):
    """Every lower bound <= the exact swapped makespan."""
    evaluator, _ = _resident(job)
    inc = evaluator._inc
    for index in range(job.model.num_tensors):
        variants = _unique_variants(evaluator, index)
        bounds = suffix_lower_bounds(inc, index, variants)
        assert len(bounds) == len(variants)
        for (res, dur), bound in zip(variants, bounds):
            exact = inc.swap_chains_flat([(index, res, dur)])
            assert bound <= exact, (index, res, dur)


def _assert_cuts_sound(inc, index, res, dur) -> int:
    """Replay one single-chain swap under threshold pairs around its
    exact makespan and the base's: each replay returns that exact float
    or a cut the exact makespan justifies (it reaches ``cut_at`` or
    exceeds ``cut_above``).  Returns the number of cuts."""
    exact = inc.swap_chains_flat([(index, res, dur)])
    below = exact - exact * 1e-3
    base = inc.base_makespan
    cuts = 0
    for cut_at, cut_above in (
        (below, None),
        (None, below),
        (exact, None),
        (None, exact),  # a tie never exceeds: no cut
        (math.nextafter(exact, math.inf), exact),  # no cut
        (base, base),
    ):
        got = inc.swap_chains_flat([(index, res, dur)], cut_at, cut_above)
        if got is None:
            cuts += 1
            assert (cut_at is not None and exact >= cut_at) or (
                cut_above is not None and exact > cut_above
            ), (index, res, dur, cut_at, cut_above, exact)
        else:
            assert got == exact, (index, res, dur, cut_at, cut_above)
    return cuts


def _cut_sweep(job, strategy, stride=None) -> int:
    """:func:`_assert_cuts_sound` over every tensor x candidate on a
    simulator of ``strategy`` (checkpoints every ``stride`` completions),
    plus a two-chain swap of each adjacent tensor pair, which must come
    back exact however low its thresholds.  Returns the number of cuts."""
    evaluator = StrategyEvaluator(job, fast=True)
    inc = IncrementalSimulator(
        evaluator.chains(strategy),
        cpu_capacity=job.system.cpu.parallel_workers,
        checkpoint_stride=stride,
    )
    cuts = 0
    previous = None
    for index in range(job.model.num_tensors):
        variants = _unique_variants(evaluator, index)
        for res, dur in variants:
            cuts += _assert_cuts_sound(inc, index, res, dur)
        if previous is not None:
            pair = [previous, (index, *variants[-1])]
            assert inc.swap_chains_flat(pair, 0.0, 0.0) == (
                inc.swap_chains_flat(pair)
            )
        previous = (index, *variants[-1])
    return cuts


@pytest.mark.parametrize("job", _jobs(), ids=JOB_IDS)
def test_replay_cuts_are_sound(job):
    """On the FP32 base and on the planned strategy, a replay given cut
    thresholds returns the unbounded replay's exact float or a cut that
    float justifies; multi-chain swaps never cut."""
    cuts = _cut_sweep(job, StrategyEvaluator(job).baseline())
    cuts += _cut_sweep(job, Espresso(job).select_strategy().strategy)
    assert cuts > 0


_SIZES = tuple(int(mb * MB / 4) for mb in (0.25, 2, 16, 64))
_COMPUTE = tuple(ms * MS for ms in (0.5, 3, 12, 40))
_GCS = (
    GCInfo("dgc", {"ratio": 0.01}),
    GCInfo("efsignsgd"),
    GCInfo("randomk", {"ratio": 0.05}),
)
_CLUSTERS = (
    lambda: nvlink_100g_cluster(num_machines=2, gpus_per_machine=4),
    lambda: pcie_25g_cluster(num_machines=4, gpus_per_machine=4),
)


@st.composite
def _small_jobs(draw):
    """A random small synthetic job and a random resident strategy."""
    tensors = draw(
        st.lists(
            st.tuples(st.sampled_from(_SIZES), st.sampled_from(_COMPUTE)),
            min_size=2,
            max_size=6,
        )
    )
    job = JobConfig(
        model=synthetic_model("cut-sound", tensors, forward_time=5 * MS),
        gc=draw(st.sampled_from(_GCS)),
        system=SystemInfo(cluster=draw(st.sampled_from(_CLUSTERS))()),
    )
    options = draw(
        st.lists(
            st.sampled_from(OPTIONS),
            min_size=len(tensors),
            max_size=len(tensors),
        )
    )
    return job, CompressionStrategy(options=tuple(options))


@settings(max_examples=40, deadline=None)
@given(_small_jobs(), st.sampled_from((1, 3, 7, None)))
def test_replay_cuts_are_sound_on_random_jobs(case, stride):
    """The same check on random small models and strategies; sparse
    checkpoints make replays restore before the swapped chain's own
    compute dispatch."""
    _cut_sweep(*case, stride=stride)


@pytest.mark.slow
@pytest.mark.parametrize("model_name", available_models())
def test_zoo_replay_cuts_are_sound(model_name):
    """The cut soundness sweep over each zoo model's planned strategy in
    the benchmark's zoo shape (dgc 0.01, NVLink 8x8)."""
    job = JobConfig(
        model=get_model(model_name),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(
            cluster=nvlink_100g_cluster(num_machines=8, gpus_per_machine=8)
        ),
    )
    assert _cut_sweep(job, Espresso(job).select_strategy().strategy) > 0


@pytest.mark.parametrize("job", _jobs(), ids=JOB_IDS)
def test_price_options_bound_preserves_winner_and_ties(job):
    """Bounded pricing returns exact times for the batch minimum and all
    its ties; pruned entries provably cannot matter to a min-taking
    caller."""
    evaluator, base = _resident(job)
    reference, _ = _resident(job)
    base_time = evaluator.iteration_time(base)
    for index in range(job.model.num_tensors):
        full = reference.price_options(base, index, OPTIONS)
        bounded = evaluator.price_options(
            base, index, OPTIONS, bound=base_time
        )
        assert all(time is not None for time in full)
        best = min(full)
        priced = [time for time in bounded if time is not None]
        if best < base_time:
            # The winner and every candidate tying it survive, exact.
            assert min(priced) == best
        for j, time in enumerate(bounded):
            if time is not None:
                assert time == full[j]
            else:
                # Sound cut: the exact time can neither beat the bound
                # nor win/tie the batch minimum.
                assert full[j] >= base_time or full[j] > best
    stats = evaluator.stats
    assert stats.replay_cuts <= stats.batch_pruned
    if job.model.name == "batch-compute-bound":
        # Backprop-bound: losing GPU candidates are cut inside the replay.
        assert stats.replay_cuts > 0


def test_a_replay_cut_counts_as_a_prune_and_is_not_memoized():
    """A candidate cut inside its replay is pruned (and a replay cut),
    not an incremental simulation; its partial replay's events count,
    and pricing it again without a bound replays it in full."""
    evaluator, base = _resident(_jobs()[2])
    base_time = evaluator.iteration_time(base)
    stats = evaluator.stats
    for option in OPTIONS:
        before = stats.snapshot()
        priced = evaluator.price_options(base, 0, [option], bound=base_time)
        if stats.replay_cuts > before.replay_cuts:
            break
    else:
        pytest.fail("no candidate of tensor 0 was cut inside its replay")
    assert priced == [None]
    assert stats.batch_pruned == before.batch_pruned + 1
    assert stats.replay_cuts == before.replay_cuts + 1
    assert stats.incremental_sims == before.incremental_sims
    assert stats.events_replayed > before.events_replayed
    before = stats.snapshot()
    (time,) = evaluator.price_options(base, 0, [option])
    assert time >= base_time
    assert stats.incremental_sims == before.incremental_sims + 1


def test_price_options_stats_accounting():
    """Counter bookkeeping: every candidate lands in a bucket (resident
    or memo hit, dedup, pruned, or simulated), and the derived rates
    stay fractions."""
    evaluator, base = _resident(_jobs()[0])
    stats_before = (
        evaluator.stats.batch_calls,
        evaluator.stats.batch_candidates,
    )
    base_time = evaluator.iteration_time(base)
    evaluator.price_options(base, 1, OPTIONS, bound=base_time)
    stats = evaluator.stats
    assert stats.batch_calls == stats_before[0] + 1
    assert stats.batch_candidates == stats_before[1] + len(OPTIONS)
    assert 0 <= stats.batch_pruned <= stats.batch_candidates
    assert 0 <= stats.batch_prune_rate <= 1.0
    # Bounded and unbounded pricing of every tensor.
    for index in range(len(base)):
        evaluator.price_options(base, index, OPTIONS, bound=base_time)
        evaluator.price_options(base, index, OPTIONS)
    assert stats.batch_calls == stats_before[0] + 1 + 2 * len(base)
    assert 0.0 <= stats.cache_hit_rate <= 1.0
    assert 0.0 <= stats.prefix_reuse_fraction <= 1.0
    assert stats.batch_pruned + stats.batch_dedup_hits <= (
        stats.batch_candidates
    )
    assert stats.batch_fallbacks == 0  # kept for stats readers, never set


def test_planner_stats_consistent_scalar_vs_vectorized(monkeypatch):
    """select_strategy() with both lower bounds switched off — the
    vectorized static bounds replaced by trivial ones, and every replay
    run without cut thresholds (pure scalar pricing, nothing pruned) —
    makes bit-identical decisions, and the batch counters describe the
    same candidate stream; only pruning differs."""
    job = _jobs()[0]
    fast = Espresso(job).select_strategy()
    unbounded_swap = IncrementalSimulator.swap_chains_flat
    with monkeypatch.context() as patch:
        patch.setattr(
            batch_module,
            "suffix_lower_bounds",
            lambda sim, index, variants: [0.0] * len(variants),
        )
        patch.setattr(
            IncrementalSimulator,
            "swap_chains_flat",
            lambda sim, replacements, *cuts: unbounded_swap(sim, replacements),
        )
        scalar = Espresso(job).select_strategy()
    assert scalar.strategy.options == fast.strategy.options
    assert scalar.iteration_time == fast.iteration_time
    s_fast, s_scalar = fast.stats, scalar.stats
    # Identical candidate stream in: same pricing calls, same F(S)
    # volume.  (Dedup and memo hits legitimately shift between the two
    # runs — the scalar run memoizes candidates the vectorized run
    # prunes, so later duplicates hit the memo before the per-call
    # dedup map; only the *sum of ways a candidate avoids simulation*
    # is comparable, and the plan equality above is the real contract.)
    assert s_scalar.batch_calls == s_fast.batch_calls
    assert s_scalar.batch_candidates == s_fast.batch_candidates
    assert s_scalar.fs_calls == s_fast.fs_calls
    assert s_scalar.batch_pruned == 0 < s_fast.batch_pruned
    assert s_scalar.replay_cuts == 0
    for stats in (s_fast, s_scalar):
        assert stats.batch_fallbacks == 0
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert 0.0 <= stats.prefix_reuse_fraction <= 1.0
        assert stats.batch_pruned + stats.batch_dedup_hits <= (
            stats.batch_candidates
        )
