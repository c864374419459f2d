"""Shared fixtures: small, fast jobs for the decision-algorithm tests."""

from __future__ import annotations

import pytest

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.strategy import StrategyEvaluator
from repro.models import synthetic_model, three_tensor_job
from repro.utils.units import MB, MS


@pytest.fixture
def small_cluster():
    """2 machines x 4 GPUs, NVLink-class intra, 100 Gbps inter."""
    return nvlink_100g_cluster(num_machines=2, gpus_per_machine=4)


@pytest.fixture
def pcie_cluster():
    """4 machines x 4 GPUs, PCIe intra, 25 Gbps inter."""
    return pcie_25g_cluster(num_machines=4, gpus_per_machine=4)


@pytest.fixture
def tiny_model():
    """The Fig. 2 didactic three-tensor job."""
    return three_tensor_job()


@pytest.fixture
def medium_model():
    """Eight tensors with mixed sizes/compute — fast but non-trivial."""
    return synthetic_model(
        "medium",
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


@pytest.fixture
def tiny_job(tiny_model, small_cluster):
    return JobConfig(
        model=tiny_model,
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=small_cluster),
    )


@pytest.fixture
def medium_job(medium_model, small_cluster):
    return JobConfig(
        model=medium_model,
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=small_cluster),
    )


@pytest.fixture
def pcie_job(medium_model, pcie_cluster):
    return JobConfig(
        model=medium_model,
        gc=GCInfo("efsignsgd"),
        system=SystemInfo(cluster=pcie_cluster),
    )


@pytest.fixture
def tiny_evaluator(tiny_job):
    return StrategyEvaluator(tiny_job)


@pytest.fixture
def medium_evaluator(medium_job):
    return StrategyEvaluator(medium_job)


class PlannerClock:
    """A fake ``time`` module for :mod:`repro.core.robust` whose
    ``perf_counter`` moves only when a planner runs, by ``step`` seconds
    per run, so replan budgets and ledgers decide the same way on any
    host.  :meth:`planner_factory` wraps :class:`~repro.core.Espresso`
    and is what a :class:`~repro.core.robust.DegradationTable` is built
    with."""

    def __init__(self, step: float):
        self.step = step
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now

    def planner_factory(self, job: JobConfig):
        from repro.core import Espresso

        planner = Espresso(job)
        select = planner.select_strategy

        def timed_select():
            self.now += self.step
            return select()

        planner.select_strategy = timed_select
        return planner


@pytest.fixture
def planner_clock(monkeypatch):
    """:mod:`repro.core.robust` on a :class:`PlannerClock` that charges
    1/8 s per planner run (a power of two, so sums of steps are exact)."""
    from repro.core import robust

    clock = PlannerClock(step=0.125)
    monkeypatch.setattr(robust, "time", clock)
    return clock
