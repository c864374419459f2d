"""End-to-end planner tests."""

import time

import pytest

from repro.cluster import nvlink_100g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso
from repro.core import espresso as espresso_module
from repro.core.options import Device
from repro.models import get_model


def test_espresso_improves_or_matches_fp32(medium_job):
    result = Espresso(medium_job).select_strategy()
    assert result.iteration_time <= result.baseline_iteration_time + 1e-12
    assert result.speedup_over_fp32 >= 1.0


def test_espresso_compresses_comm_bound_job(pcie_job):
    result = Espresso(pcie_job).select_strategy()
    assert len(result.compressed_indices) > 0
    assert result.speedup_over_fp32 > 1.05


def test_result_accounting(medium_job):
    result = Espresso(medium_job).select_strategy()
    assert result.selection_seconds >= (
        result.gpu_selection_seconds
        + result.offload_selection_seconds
        + result.refinement_seconds
    ) - 1e-6
    assert result.refinement_sweeps_run >= 1
    assert set(result.cpu_indices) | set(result.gpu_indices) == set(
        result.compressed_indices
    )
    assert set(result.cpu_indices).isdisjoint(result.gpu_indices)


def test_every_offload_pass_counts_as_algorithm2_time(monkeypatch):
    """The re-offload passes after improving refinement sweeps are
    Algorithm 2 time, not refinement time."""
    real = espresso_module.cpu_offload_decision
    calls = []

    def slow_offload(*args, **kwargs):
        calls.append(None)
        time.sleep(0.02)
        return real(*args, **kwargs)

    monkeypatch.setattr(espresso_module, "cpu_offload_decision", slow_offload)
    job = JobConfig(
        model=get_model("vgg16"),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(
            cluster=nvlink_100g_cluster(num_machines=8, gpus_per_machine=8)
        ),
    )
    result = Espresso(job).select_strategy()
    assert len(calls) >= 2
    assert result.offload_selection_seconds >= 0.02 * len(calls)


def test_summary_readable(medium_job):
    summary = Espresso(medium_job).select_strategy().summary()
    assert "Espresso selected compression" in summary
    assert "ms" in summary


def test_custom_candidates_respected(medium_job):
    from repro.core.presets import inter_allgather_option

    only = [inter_allgather_option(Device.CPU)]
    result = Espresso(medium_job, candidates=only).select_strategy()
    for index in result.compressed_indices:
        assert result.strategy[index].uses_device(Device.CPU)


def test_deterministic_selection(medium_job):
    a = Espresso(medium_job).select_strategy()
    b = Espresso(medium_job).select_strategy()
    assert a.iteration_time == pytest.approx(b.iteration_time)
    assert [o.describe() for o in a.strategy.options] == [
        o.describe() for o in b.strategy.options
    ]


def test_no_refinement_mode(medium_job):
    result = Espresso(medium_job, refinement_sweeps=0).select_strategy()
    assert result.refinement_sweeps_run == 0
    assert result.iteration_time <= result.baseline_iteration_time + 1e-12
