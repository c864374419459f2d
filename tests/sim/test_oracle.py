"""Differential testing: the scheduler vs the naive oracle.

The incremental simulator (whose base run also backs ``engine.simulate``)
and the oracle implement the same scheduling model with radically
different data structures (heaps, packed ranks and checkpoint replay vs
flat O(n²) scans).  These tests assert **exact float equality** between
base runs, swap replays and the oracle — not approximate agreement —
because the planner compares candidate strategies by exact floats and
an ulp of drift could flip a decision.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.conformance import (
    conformance_strategies,
    validate_job,
    validate_strategy,
)
from repro.core.strategy import StrategyEvaluator
from repro.models import available_models, get_model
from repro.sim import (
    COMM,
    COMPRESS,
    CPU,
    DECOMPRESS,
    GPU,
    INTER,
    INTRA,
    Stage,
    TensorChain,
    compute_stage,
    simulate,
)
from repro.sim.engine import simulate_makespan
from repro.sim.incremental import IncrementalSimulator
from repro.sim.oracle import reference_makespan, simulate_reference

durations = st.floats(0.0, 0.1)


def _sync_stage(draw_tuple):
    resource, duration, kind = draw_tuple
    return Stage(resource=resource, duration=duration, kind=kind, label="")


sync_stages = st.tuples(
    st.sampled_from([CPU, INTRA, INTER, GPU]),
    durations,
    st.sampled_from([COMM, COMPRESS, DECOMPRESS]),
).map(_sync_stage)

chain_lists = st.lists(
    st.tuples(durations, st.lists(sync_stages, max_size=4)),
    min_size=1,
    max_size=8,
)


def build(chains_spec):
    return [
        TensorChain(tensor_index=i, stages=[compute_stage(ct), *stages])
        for i, (ct, stages) in enumerate(chains_spec)
    ]


@given(chain_lists, st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_oracle_matches_engine_exactly(chains_spec, cpu_capacity):
    """Full-Timeline equality: every float, every stage, same order."""
    chains = build(chains_spec)
    engine = simulate(chains, cpu_capacity=cpu_capacity)
    oracle = simulate_reference(chains, cpu_capacity=cpu_capacity)
    assert oracle == engine
    assert oracle.makespan == engine.makespan
    assert reference_makespan(chains, cpu_capacity=cpu_capacity) == (
        simulate_makespan(chains, cpu_capacity=cpu_capacity)
    )


@given(chain_lists, st.lists(sync_stages, max_size=4), st.data())
@settings(max_examples=120, deadline=None)
def test_incremental_swap_matches_oracle(chains_spec, new_sync, data):
    """A mid-run chain swap agrees with re-simulating from scratch —
    both against the engine and against the naive oracle."""
    chains = build(chains_spec)
    index = data.draw(st.integers(0, len(chains) - 1))
    # The swap keeps the leading compute stage (the incremental
    # simulator's resumable-prefix contract) and replaces the sync tail.
    compute = chains[index].stages[0]
    new_stages = [compute, *new_sync]

    incremental = IncrementalSimulator(chains)
    swapped_makespan = incremental.swap_chain(index, new_stages)

    swapped_chains = list(chains)
    swapped_chains[index] = TensorChain(
        tensor_index=chains[index].tensor_index, stages=new_stages
    )
    assert swapped_makespan == simulate_makespan(swapped_chains)
    assert swapped_makespan == reference_makespan(swapped_chains)
    # The swap must not have perturbed the resident base.
    assert incremental.base_makespan == reference_makespan(chains)


@given(chain_lists, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_incremental_base_timeline_matches_oracle(chains_spec, cpu_capacity):
    chains = build(chains_spec)
    incremental = IncrementalSimulator(chains, cpu_capacity=cpu_capacity)
    oracle = simulate_reference(chains, cpu_capacity=cpu_capacity)
    assert incremental.base_timeline() == oracle
    assert incremental.base_makespan == oracle.makespan


def _zoo_job(model_name, testbed):
    factory = nvlink_100g_cluster if testbed == "nvlink" else pcie_25g_cluster
    return JobConfig(
        model=get_model(model_name),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(
            cluster=factory(num_machines=2, gpus_per_machine=4)
        ),
    )


@pytest.mark.slow
@pytest.mark.parametrize("testbed", ["nvlink", "pcie"])
@pytest.mark.parametrize("model_name", available_models())
def test_zoo_oracle_sweep(model_name, testbed):
    """O(n²) oracle equality over the whole zoo × uniform preset suite."""
    for report in validate_job(_zoo_job(model_name, testbed), oracle=True):
        assert report.oracle_exact, (
            f"{model_name}/{testbed}/{report.name}: "
            f"engine timeline != reference simulation"
        )
        assert report.incremental_exact
        assert not report.violations


@pytest.mark.parametrize("model_name", ["lstm", "vgg16"])
def test_zoo_oracle_fast_subset(model_name):
    """Default-on fast subset of the oracle sweep (smallest two models)."""
    for report in validate_job(_zoo_job(model_name, "nvlink"), oracle=True):
        assert report.ok, f"{model_name}/{report.name} failed conformance"


@pytest.mark.parametrize("name", ["baseline", "baseline-flat", "allgather-gpu"])
def test_validate_audits_the_swap_path(monkeypatch, name):
    """The incremental column prices each strategy by swapping it into
    a simulator built on a different FP32 base, so a swap replay one
    ulp off fails the audit while the from-scratch run stays exact."""
    swap = IncrementalSimulator.swap_chains_flat

    def one_ulp_high(self, replacements):
        return math.nextafter(swap(self, replacements), math.inf)

    monkeypatch.setattr(IncrementalSimulator, "swap_chains_flat", one_ulp_high)
    job = _zoo_job("lstm", "nvlink")
    strategy = dict(conformance_strategies(job.model.num_tensors))[name]
    report = validate_strategy(StrategyEvaluator(job), strategy, name=name)
    assert report.oracle_exact
    assert not report.incremental_exact
    assert not report.ok
