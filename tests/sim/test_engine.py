"""Discrete-event engine tests."""

import pytest

from repro.sim import (
    COMM,
    COMPRESS,
    COMPUTE,
    CPU,
    GPU,
    INTER,
    INTRA,
    Stage,
    TensorChain,
    compute_stage,
    make_chains,
    simulate,
)
from repro.sim.engine import simulate_makespan
from repro.sim.oracle import reference_makespan


def chain(i, *stages):
    return TensorChain(tensor_index=i, stages=[compute_stage(0.01), *stages])


def comm(duration, resource=INTER):
    return Stage(resource=resource, duration=duration, kind=COMM, label="c")


def test_single_chain_sequential():
    timeline = simulate([chain(0, comm(0.02))])
    assert timeline.makespan == pytest.approx(0.03)
    stages = timeline.by_tensor(0)
    assert [s.kind for s in stages] == [COMPUTE, COMM]
    assert stages[1].start == pytest.approx(stages[0].end)


def test_compute_stages_chain_across_tensors():
    timeline = simulate([chain(0), chain(1), chain(2)])
    computes = [s for s in timeline.stages if s.kind == COMPUTE]
    assert [s.start for s in computes] == pytest.approx([0.0, 0.01, 0.02])


def test_communication_overlaps_computation():
    """WFBP: T0's comm runs while T1 computes."""
    timeline = simulate([chain(0, comm(0.01)), chain(1, comm(0.01))])
    t0_comm = timeline.by_tensor(0)[1]
    t1_compute = timeline.by_tensor(1)[0]
    assert t0_comm.start < t1_compute.end
    assert timeline.makespan == pytest.approx(0.03)


def test_link_serializes_communications():
    timeline = simulate([chain(0, comm(0.05)), chain(1, comm(0.05))])
    comms = [s for s in timeline.stages if s.kind == COMM]
    assert comms[1].start == pytest.approx(comms[0].end)
    assert timeline.makespan == pytest.approx(0.01 + 0.05 + 0.05)


def test_gpu_compression_delays_backprop():
    """A GPU compression kernel ready before T1's compute runs first."""
    compress = Stage(resource=GPU, duration=0.02, kind=COMPRESS, label="gc")
    timeline = simulate([chain(0, compress), chain(1)])
    t1_compute = timeline.by_tensor(1)[0]
    # T1's compute waits for T0's compression on the shared GPU stream.
    assert t1_compute.start == pytest.approx(0.03)


def test_cpu_compression_does_not_delay_backprop():
    compress = Stage(resource=CPU, duration=0.02, kind=COMPRESS, label="cc")
    timeline = simulate([chain(0, compress), chain(1)])
    t1_compute = timeline.by_tensor(1)[0]
    assert t1_compute.start == pytest.approx(0.01)


def test_cpu_capacity_parallelism():
    compress = Stage(resource=CPU, duration=0.05, kind=COMPRESS, label="cc")
    serial = simulate([chain(0, compress), chain(1, compress)], cpu_capacity=1)
    parallel = simulate([chain(0, compress), chain(1, compress)], cpu_capacity=2)
    assert parallel.makespan < serial.makespan


def test_different_links_run_concurrently():
    timeline = simulate(
        [chain(0, comm(0.05, INTRA)), chain(1, comm(0.05, INTER))]
    )
    intra_op = timeline.by_resource(INTRA)[0]
    inter_op = timeline.by_resource(INTER)[0]
    assert intra_op.end > inter_op.start  # overlapping in time


def test_ready_order_respected_on_links():
    """Earlier-ready comm goes first even if enqueued later."""
    timeline = simulate(
        [chain(0, comm(0.001)), chain(1, comm(0.1)), chain(2, comm(0.001))]
    )
    comms = timeline.by_resource(INTER)
    assert [s.tensor_index for s in comms] == [0, 1, 2]


def test_makespan_fast_path_matches_full():
    chains = [chain(0, comm(0.02), comm(0.01, INTRA)), chain(1, comm(0.03))]
    assert simulate_makespan(chains) == reference_makespan(chains)


def test_no_resource_overlap():
    """No two stages on a capacity-1 resource may overlap."""
    chains = [
        chain(i, comm(0.005 * (i + 1)), comm(0.002, INTRA)) for i in range(6)
    ]
    timeline = simulate(chains)
    for resource in (GPU, INTRA, INTER):
        stages = timeline.by_resource(resource)
        for a, b in zip(stages, stages[1:]):
            assert b.start >= a.end - 1e-12


def test_empty_simulation_rejected():
    with pytest.raises(ValueError):
        simulate([])


def test_make_chains_validation():
    with pytest.raises(ValueError):
        make_chains([0.01], [[], []])


def test_chain_must_start_with_compute():
    with pytest.raises(ValueError, match="compute"):
        TensorChain(tensor_index=0, stages=[comm(0.01)])


def test_only_first_stage_computes():
    with pytest.raises(ValueError, match="first stage"):
        TensorChain(
            tensor_index=0, stages=[compute_stage(0.01), compute_stage(0.01)]
        )


def test_deterministic():
    chains = [chain(i, comm(0.004), comm(0.003, INTRA)) for i in range(5)]
    a = simulate(chains)
    b = simulate(chains)
    assert a.makespan == b.makespan
    assert [(s.start, s.end) for s in a.stages] == [(s.start, s.end) for s in b.stages]


def test_tensor_finish():
    timeline = simulate([chain(0, comm(0.02))])
    assert timeline.tensor_finish(0) == pytest.approx(0.03)
