"""Algorithm 2 tests: grouping, Lemma 1, and Theorem 1 vs brute force."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bruteforce import brute_force_offload_search
from repro.core.algorithm import gpu_compression_decision
from repro.core.offload import (
    _offload_bounds,
    apply_offload_counts,
    cpu_offload_decision,
    offload_groups,
)
from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.core.options import Device, no_compression_option
from repro.core.presets import (
    double_compression_option,
    inter_allgather_option,
    inter_alltoall_option,
)
from repro.core.strategy import CompressionStrategy, StrategyEvaluator
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.models import synthetic_model
from repro.utils.units import MB, MS


@pytest.fixture
def offload_evaluator(small_cluster):
    """Six tensors, two size classes, all GPU-compressed."""
    model = synthetic_model(
        "offload-job",
        [(int(32 * MB / 4), 6 * MS)] * 3 + [(int(8 * MB / 4), 4 * MS)] * 3,
    )
    job = JobConfig(
        model=model,
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=small_cluster),
    )
    return StrategyEvaluator(job)


def gpu_strategy(evaluator):
    option = inter_allgather_option(Device.GPU)
    strategy = evaluator.baseline()
    for i in range(len(strategy)):
        strategy = strategy.replace(i, option)
    return strategy


def test_groups_by_size_and_option(offload_evaluator):
    strategy = gpu_strategy(offload_evaluator)
    groups = offload_groups(offload_evaluator, strategy)
    assert len(groups) == 2
    assert [len(g) for g in groups] == [3, 3]
    assert groups[0].size > groups[1].size


def test_group_members_sorted_farthest_first(offload_evaluator):
    """Lemma 1 order: descending distance to output = ascending index."""
    strategy = gpu_strategy(offload_evaluator)
    groups = offload_groups(offload_evaluator, strategy)
    for group in groups:
        assert list(group.members) == sorted(group.members)


def test_uncompressed_tensors_excluded(offload_evaluator):
    strategy = gpu_strategy(offload_evaluator).replace(
        0, offload_evaluator.baseline()[0]
    )
    groups = offload_groups(offload_evaluator, strategy)
    members = [i for g in groups for i in g.members]
    assert 0 not in members


def test_apply_offload_counts(offload_evaluator):
    strategy = gpu_strategy(offload_evaluator)
    groups = offload_groups(offload_evaluator, strategy)
    offloaded = apply_offload_counts(strategy, groups, [2, 0])
    cpu_indices = offloaded.device_indices(Device.CPU)
    assert cpu_indices == list(groups[0].members[:2])


def test_apply_offload_counts_validation(offload_evaluator):
    strategy = gpu_strategy(offload_evaluator)
    groups = offload_groups(offload_evaluator, strategy)
    with pytest.raises(ValueError):
        apply_offload_counts(strategy, groups, [99, 0])
    with pytest.raises(ValueError):
        apply_offload_counts(strategy, groups, [0])


def test_offload_never_worse(offload_evaluator):
    strategy = gpu_strategy(offload_evaluator)
    base = offload_evaluator.iteration_time(strategy)
    result = cpu_offload_decision(offload_evaluator, strategy)
    assert result.iteration_time <= base + 1e-12
    assert result.exhaustive
    assert result.combinations == 16


def test_theorem1_matches_brute_force(offload_evaluator):
    """Algorithm 2's group-count enumeration == full 2^n subset search."""
    strategy = gpu_strategy(offload_evaluator)
    result = cpu_offload_decision(offload_evaluator, strategy)
    brute = brute_force_offload_search(
        offload_evaluator, strategy, indices=list(range(6))
    )
    assert result.iteration_time == pytest.approx(
        brute.iteration_time, rel=1e-9
    )
    assert brute.evaluations == 64


def test_offload_with_no_compressed_tensors(offload_evaluator):
    strategy = offload_evaluator.baseline()
    result = cpu_offload_decision(offload_evaluator, strategy)
    assert result.counts == ()
    assert result.strategy is strategy


def test_coordinate_descent_fallback(offload_evaluator):
    strategy = gpu_strategy(offload_evaluator)
    exhaustive = cpu_offload_decision(offload_evaluator, strategy)
    swept = cpu_offload_decision(offload_evaluator, strategy, max_evaluations=2)
    assert not swept.exhaustive
    # The sweep is a heuristic but must never regress below no-offload.
    base = offload_evaluator.iteration_time(strategy)
    assert swept.iteration_time <= base + 1e-12
    assert swept.iteration_time >= exhaustive.iteration_time - 1e-12


def test_offloaded_indices_property(offload_evaluator):
    strategy = gpu_strategy(offload_evaluator)
    result = cpu_offload_decision(offload_evaluator, strategy)
    assert set(result.offloaded_indices) == set(
        result.strategy.device_indices(Device.CPU)
    )


def test_canonical_key_collision_raises(offload_evaluator, monkeypatch):
    """Regression: a canonical_key collision used to silently overwrite a
    group's option with the last member's — corrupting the Lemma-1 group
    if the colliding options ever compiled to different chains.  Now it
    fails loudly."""
    import repro.core.offload as offload_mod
    from repro.core.presets import inter_alltoall_option

    strategy = gpu_strategy(offload_evaluator)
    # Two *unequal* options on same-size tensors...
    strategy = strategy.replace(1, inter_alltoall_option(Device.GPU))
    # ...forced onto one key by breaking the interning.
    monkeypatch.setattr(offload_mod, "canonical_key", lambda option: 0)
    with pytest.raises(ValueError, match="canonical_key collision"):
        offload_groups(offload_evaluator, strategy)


def test_mixed_options_form_distinct_groups(offload_evaluator):
    """Equal sizes but unequal options must never share a group."""
    from repro.core.presets import inter_alltoall_option

    strategy = gpu_strategy(offload_evaluator)
    strategy = strategy.replace(1, inter_alltoall_option(Device.GPU))
    groups = offload_groups(offload_evaluator, strategy)
    for group in groups:
        for index in group.members:
            assert strategy[index] == group.option
    assert len(groups) == 3  # (big, allgather), (big, alltoall), (small, ...)


def test_canonical_key_is_value_interned():
    """canonical_key agreement must coincide with option equality — the
    property offload_groups' collision guard assumes (hypothesis sweep
    over independently rebuilt option objects)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.core.options import CompressionOption, canonical_key
    from repro.core.tree import enumerate_options

    options = enumerate_options(mode="uniform")

    @given(st.integers(0, len(options) - 1), st.integers(0, len(options) - 1))
    @settings(max_examples=200, deadline=None)
    def check(i, j):
        a, b = options[i], options[j]
        # A structurally equal clone built from scratch shares the key.
        clone = CompressionOption(actions=tuple(a.actions), flat=a.flat)
        assert canonical_key(clone) == canonical_key(a)
        assert (canonical_key(a) == canonical_key(b)) == (a == b)

    check()


def product_scan(evaluator, strategy):
    """The reference answer of Algorithm 2: the first minimum of the full
    product-order scan over group counts, priced from scratch."""
    groups = offload_groups(evaluator, strategy)
    best_counts = (0,) * len(groups)
    best_time = evaluator.iteration_time(strategy)
    for counts in itertools.product(*(range(len(g) + 1) for g in groups)):
        if not any(counts):
            continue
        trial = apply_offload_counts(strategy, groups, counts)
        trial_time = evaluator.iteration_time_uncached(trial)
        if trial_time < best_time:
            best_counts, best_time = counts, trial_time
    return best_counts, best_time


GPU_OPTIONS = [
    builder(Device.GPU)
    for builder in (
        inter_allgather_option,
        inter_alltoall_option,
        double_compression_option,
    )
]
COMPRESSORS = [
    GCInfo("dgc", {"ratio": 0.01}),
    GCInfo("randomk", {"ratio": 0.05}),
    GCInfo("topk", {"ratio": 0.01}),
    GCInfo("efsignsgd"),
    GCInfo("fp16"),
]


@st.composite
def offload_cases(draw):
    """A small job and an Algorithm-1-shaped strategy over it: sizes
    repeat so groups have several members, and compute times may be
    zero so exact F(S) ties occur."""
    sizes = draw(st.lists(
        st.sampled_from([int(0.5 * MB / 4), int(8 * MB / 4), int(64 * MB / 4)]),
        min_size=2,
        max_size=7,
    ))
    computes = draw(st.lists(
        st.sampled_from([0.0, 0.0, 1 * MS, 2.5 * MS, 6 * MS]),
        min_size=len(sizes),
        max_size=len(sizes),
    ))
    options = draw(st.lists(
        st.sampled_from([*GPU_OPTIONS, no_compression_option()]),
        min_size=len(sizes),
        max_size=len(sizes),
    ))
    testbed = draw(st.sampled_from([nvlink_100g_cluster, pcie_25g_cluster]))
    cluster = testbed(
        num_machines=draw(st.integers(1, 4)),
        gpus_per_machine=draw(st.integers(1, 4)),
    )
    job = JobConfig(
        model=synthetic_model(
            "offload-prop", list(zip(sizes, computes)), forward_time=2 * MS
        ),
        gc=draw(st.sampled_from(COMPRESSORS)),
        system=SystemInfo(cluster=cluster),
    )
    return job, CompressionStrategy(options=tuple(options))


@settings(max_examples=60, deadline=None)
@given(offload_cases(), st.booleans())
def test_search_equals_product_order_scan(case, fast):
    """The branch and bound returns the scan's first minimum: the same
    counts and the same F(S), bit for bit, with fast evaluation on or
    off, and never prices more trials than the scan."""
    job, strategy = case
    result = cpu_offload_decision(StrategyEvaluator(job, fast=fast), strategy)
    counts, best_time = product_scan(StrategyEvaluator(job, fast=False), strategy)
    assert result.counts == counts
    assert result.iteration_time == best_time
    assert result.exhaustive
    assert result.evaluations <= result.combinations


@settings(max_examples=30, deadline=None)
@given(offload_cases())
def test_offload_bounds_never_exceed_fs(case):
    """Entry c of a group's bound is at or below F(S) of every count
    vector that offloads at least the group's first c members."""
    job, strategy = case
    evaluator = StrategyEvaluator(job, fast=False)
    groups = offload_groups(evaluator, strategy)
    cpu_options = [group.option.with_device(Device.CPU) for group in groups]
    bounds = _offload_bounds(evaluator, groups, cpu_options)
    for counts in itertools.product(*(range(len(g) + 1) for g in groups)):
        trial = apply_offload_counts(strategy, groups, counts)
        fs = evaluator.iteration_time_uncached(trial)
        for bound, count in zip(bounds, counts):
            assert bound[count] <= fs


@pytest.mark.parametrize("gc", COMPRESSORS, ids=lambda gc: gc.algorithm)
def test_offload_bound_of_a_lone_tensor_is_its_fs(gc):
    """Nothing delays a lone tensor's chain, so its bound is its F(S)
    exactly: the bound carries no margin."""
    model = synthetic_model(
        "lone", [(int(8 * MB / 4), 3 * MS)], forward_time=2 * MS
    )
    job = JobConfig(
        model=model, gc=gc, system=SystemInfo(cluster=nvlink_100g_cluster(2, 4))
    )
    strategy = CompressionStrategy(options=(inter_allgather_option(Device.GPU),))
    evaluator = StrategyEvaluator(job)
    groups = offload_groups(evaluator, strategy)
    cpu_options = [groups[0].option.with_device(Device.CPU)]
    bound = _offload_bounds(evaluator, groups, cpu_options)[0][1]
    offloaded = apply_offload_counts(strategy, groups, [1])
    assert bound == evaluator.iteration_time(offloaded)


def test_search_cuts_the_subtrees_a_giant_tensor_outlasts():
    """One tensor whose CPU pipeline alone outlasts the iteration: every
    count vector that offloads it is cut unpriced, and the answer is
    still the scan's."""
    model = synthetic_model(
        "giant",
        [(268_435_456, 4 * MS)] + [(int(2 * MB / 4), 1 * MS)] * 4,
        forward_time=5 * MS,
    )
    job = JobConfig(
        model=model,
        gc=GCInfo("randomk", {"ratio": 0.01}),
        system=SystemInfo(cluster=nvlink_100g_cluster(2, 4)),
    )
    option = inter_allgather_option(Device.GPU)
    strategy = CompressionStrategy(options=(option,) * model.num_tensors)
    evaluator = StrategyEvaluator(job)
    result = cpu_offload_decision(evaluator, strategy)
    assert [len(g) for g in result.groups] == [1, 4]
    assert result.combinations == 10
    assert result.evaluations < result.combinations
    assert (result.counts, result.iteration_time) == product_scan(
        StrategyEvaluator(job, fast=False), strategy
    )
