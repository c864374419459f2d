"""Batched candidate pricing (DESIGN.md §5.7).

The contract under test: ``price_options`` without a bound equals a
from-scratch simulation of every candidate float for float, the lower
bounds of ``repro.sim.batch`` never exceed the exact swapped makespan,
and ``price_options``'s bound-driven pruning changes *which* candidates
get exact times but never the batch winner, its time, or its ties.
"""

from __future__ import annotations

import pytest

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso
from repro.core.algorithm import device_candidate_options
from repro.core.strategy import StrategyEvaluator
from repro.models import synthetic_model
from repro.sim import batch as batch_module
from repro.sim.batch import suffix_lower_bounds
from repro.utils.units import MB, MS

OPTIONS = device_candidate_options()


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


@pytest.mark.parametrize("job", _jobs(), ids=("nvlink", "pcie"))
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


@pytest.mark.parametrize("job", _jobs(), ids=("nvlink", "pcie"))
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


@pytest.mark.parametrize("job", _jobs(), ids=("nvlink", "pcie"))
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
    """select_strategy() with the vectorized lower bounds replaced by
    trivial ones (pure scalar pricing, nothing pruned) makes
    bit-identical decisions, and the batch counters describe the same
    candidate stream; only pruning differs."""
    job = _jobs()[0]
    fast = Espresso(job).select_strategy()
    with monkeypatch.context() as patch:
        patch.setattr(
            batch_module,
            "suffix_lower_bounds",
            lambda sim, index, variants: [0.0] * len(variants),
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
    for stats in (s_fast, s_scalar):
        assert stats.batch_fallbacks == 0
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert 0.0 <= stats.prefix_reuse_fraction <= 1.0
        assert stats.batch_pruned + stats.batch_dedup_hits <= (
            stats.batch_candidates
        )
