"""Additional engine behaviours: timeline helpers and ready times."""

import pytest

from repro.sim import (
    COMM,
    COMPRESS,
    INTER,
    INTRA,
    Stage,
    TensorChain,
    compute_stage,
    simulate,
)


def _chain(i, *stages):
    return TensorChain(tensor_index=i, stages=[compute_stage(0.01), *stages])


def test_by_resource_sorted_by_start():
    comm_a = Stage(resource=INTRA, duration=0.02, kind=COMM, label="a")
    comm_b = Stage(resource=INTRA, duration=0.01, kind=COMM, label="b")
    timeline = simulate([_chain(0, comm_a), _chain(1, comm_b)])
    stages = timeline.by_resource(INTRA)
    assert [s.label for s in stages] == ["a", "b"]
    assert stages[0].start <= stages[1].start


def test_by_tensor_orders_by_stage_index():
    comp = Stage(resource="cpu", duration=0.01, kind=COMPRESS, label="")
    comm = Stage(resource=INTER, duration=0.01, kind=COMM, label="")
    timeline = simulate([_chain(0, comp, comm)])
    stages = timeline.by_tensor(0)
    assert [s.stage_index for s in stages] == [0, 1, 2]


def test_ready_time_recorded():
    comm = Stage(resource=INTER, duration=0.05, kind=COMM, label="")
    timeline = simulate([_chain(0, comm), _chain(1, comm)])
    second = [s for s in timeline.stages if s.tensor_index == 1 and s.kind == COMM][0]
    # Ready when its compute ended, started when the link freed.
    assert second.ready == pytest.approx(0.02)
    assert second.start == pytest.approx(0.06)
