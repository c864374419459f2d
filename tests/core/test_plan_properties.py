"""Hypothesis property tests for the plan compiler.

Invariants checked over the *entire* enumerated option space x random
tensor sizes x random cluster shapes: compilation never fails, durations
are finite and non-negative, compressed options beat the FP32 option on
inter-machine traffic for large tensors, CPU-device options never
occupy the GPU stream, and the pricing walk's two outputs (stage chains
and standalone times) agree bit for bit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster, single_gpu
from repro.cluster.topology import ClusterSpec
from repro.compression import DGC, EFSignSGD, available_compressors, create_compressor
from repro.core.options import DEFAULT_RATIO_LADDER, Device, no_compression_option
from repro.core.plan import PlanCompiler
from repro.core.tree import enumerate_options
from repro.profiling import v100_gpu, xeon_cpu
from repro.sim.stages import COMM, GPU, INTER

_OPTIONS = enumerate_options(mode="uniform")

clusters = st.builds(
    ClusterSpec,
    num_machines=st.integers(1, 16),
    gpus_per_machine=st.integers(1, 8),
    intra_bw=st.floats(1e9, 2e11),
    inter_bw=st.floats(1e8, 2e10),
)
sizes = st.integers(1, 1 << 28)
option_indices = st.integers(0, len(_OPTIONS) - 1)
compressors = st.sampled_from([DGC(ratio=0.01), EFSignSGD()])


@given(option_indices, sizes, clusters, compressors)
@settings(max_examples=150, deadline=None)
def test_every_option_compiles_everywhere(index, num_elements, cluster, compressor):
    compiler = PlanCompiler(
        cluster=cluster, compressor=compressor, gpu=v100_gpu(), cpu=xeon_cpu()
    )
    stages = compiler.stages(_OPTIONS[index], num_elements)
    for stage in stages:
        assert stage.duration >= 0.0
        assert stage.duration < float("inf")
    if not cluster.is_distributed:
        assert stages == []


@given(option_indices, st.integers(1 << 22, 1 << 27), clusters)
@settings(max_examples=100, deadline=None)
def test_inter_compression_reduces_inter_time(index, num_elements, cluster):
    """An option whose *entire* inter phase is compressed moves fewer
    bytes across machines than FP32, for large tensors (DGC 1%).

    Options that mix a dense first step with a compressed second step
    (e.g. Reduce + compressed Broadcast) are excluded: at two machines
    the dense step alone already matches the FP32 allreduce's cost.
    """
    from repro.core.options import ActionTask, Phase

    if cluster.num_machines < 2:
        return
    option = _OPTIONS[index]
    if not option.compresses_inter or option.flat:
        return
    dense_inter = any(
        a.phase is Phase.INTER
        and a.task in (ActionTask.COMM, ActionTask.COMM1, ActionTask.COMM2)
        for a in option.actions
    )
    if dense_inter:
        return
    compiler = PlanCompiler(
        cluster=cluster, compressor=DGC(ratio=0.01), gpu=v100_gpu(), cpu=xeon_cpu()
    )
    fp32_inter = sum(
        s.duration
        for s in compiler.stages(no_compression_option(), num_elements)
        if s.resource == INTER
    )
    option_inter = sum(
        s.duration
        for s in compiler.stages(option, num_elements)
        if s.resource == INTER
    )
    assert option_inter <= fp32_inter + 1e-9


@given(option_indices, sizes, clusters)
@settings(max_examples=100, deadline=None)
def test_cpu_options_never_touch_gpu_stream(index, num_elements, cluster):
    option = _OPTIONS[index]
    if option.devices and all(d is Device.CPU for d in option.devices):
        compiler = PlanCompiler(
            cluster=cluster,
            compressor=EFSignSGD(),
            gpu=v100_gpu(),
            cpu=xeon_cpu(),
        )
        stages = compiler.stages(option, num_elements)
        assert all(s.resource != GPU for s in stages)


@given(option_indices, st.integers(1, 1 << 26), clusters)
@settings(max_examples=100, deadline=None)
def test_stage_durations_monotone_in_size(index, num_elements, cluster):
    """Doubling the tensor never reduces any aggregate stage cost."""
    compiler = PlanCompiler(
        cluster=cluster, compressor=DGC(ratio=0.01), gpu=v100_gpu(), cpu=xeon_cpu()
    )
    option = _OPTIONS[index]
    small = sum(s.duration for s in compiler.stages(option, num_elements))
    large = sum(s.duration for s in compiler.stages(option, num_elements * 2))
    assert large >= small - 1e-12


_FULL_SPACE = enumerate_options(mode="independent", include_rooted=True)


@st.composite
def full_space_options(draw):
    """An option of the full Table 3 space, or one of its ladder variants."""
    option = _FULL_SPACE[draw(st.integers(0, len(_FULL_SPACE) - 1))]
    if option.compresses:
        option = option.with_ratio(
            draw(st.sampled_from((None, *DEFAULT_RATIO_LADDER)))
        )
    return option


testbeds = st.one_of(
    st.builds(nvlink_100g_cluster, st.integers(1, 8), st.integers(1, 8)),
    st.builds(pcie_25g_cluster, st.integers(1, 8), st.integers(1, 8)),
    st.just(single_gpu()),
)
tensor_sizes = st.one_of(
    st.integers(1, 10**8),
    st.sampled_from((2, 3, 97, 65537, 999983, 15485863, 86028121, 99999989)),
)


@given(
    full_space_options(),
    tensor_sizes,
    testbeds,
    st.sampled_from(available_compressors()),
)
@settings(max_examples=500, deadline=None)
def test_standalone_times_equal_stage_sums(option, num_elements, cluster, name):
    """``standalone_times`` is the chain's (COMM, total) duration sums,
    compared with ``==``: the same durations summed in the same order.
    Both outputs reject empty tensors, on every cluster."""
    compiler = PlanCompiler(
        cluster=cluster,
        compressor=create_compressor(name),
        gpu=v100_gpu(),
        cpu=xeon_cpu(),
    )
    times = compiler.standalone_times(option, num_elements)
    stages = compiler.stages(option, num_elements)
    assert times == (
        sum(s.duration for s in stages if s.kind == COMM),
        sum(s.duration for s in stages),
    )
    if not cluster.is_distributed:
        assert times == (0.0, 0.0)
    for empty in (0, -num_elements):
        with pytest.raises(ValueError):
            compiler.standalone_times(option, empty)
        with pytest.raises(ValueError):
            compiler.stages(option, empty)
