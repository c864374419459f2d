"""Hypothesis property tests for the DES engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.sim.oracle import reference_makespan

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
@settings(max_examples=80, deadline=None)
def test_all_stages_scheduled_once(chains_spec, cpu_capacity):
    chains = build(chains_spec)
    timeline = simulate(chains, cpu_capacity=cpu_capacity)
    expected = sum(len(c.stages) for c in chains)
    assert len(timeline.stages) == expected


@given(chain_lists, st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_chain_order_and_no_overlap(chains_spec, cpu_capacity):
    chains = build(chains_spec)
    timeline = simulate(chains, cpu_capacity=cpu_capacity)
    # Within a chain, stages run in order.
    for chain in chains:
        stages = timeline.by_tensor(chain.tensor_index)
        for a, b in zip(stages, stages[1:]):
            assert b.start >= a.end - 1e-12
    # Serial resources never overlap.  Zero-duration stages may share an
    # instant with a boundary, so order by (start, end).
    for resource in (GPU, INTRA, INTER):
        stages = sorted(timeline.by_resource(resource), key=lambda s: (s.start, s.end))
        for a, b in zip(stages, stages[1:]):
            assert b.start >= a.end - 1e-12
    # Makespan is the max end.
    assert timeline.makespan >= max(s.end for s in timeline.stages) - 1e-12


@given(chain_lists)
@settings(max_examples=80, deadline=None)
def test_makespan_lower_bounds(chains_spec):
    """Makespan >= total compute and >= each resource's busy time."""
    chains = build(chains_spec)
    timeline = simulate(chains)
    total_compute = sum(spec[0] for spec in chains_spec)
    assert timeline.makespan >= total_compute - 1e-9
    for resource in (GPU, INTRA, INTER):
        busy = sum(s.duration for s in timeline.by_resource(resource))
        assert timeline.makespan >= busy - 1e-9


@given(chain_lists, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_fast_path_agrees(chains_spec, cpu_capacity):
    """The makespan-only path equals the naive oracle's, exactly."""
    chains = build(chains_spec)
    assert simulate_makespan(chains, cpu_capacity=cpu_capacity) == (
        reference_makespan(chains, cpu_capacity=cpu_capacity)
    )


@given(chain_lists)
@settings(max_examples=60, deadline=None)
def test_makespan_monotone_in_durations(chains_spec):
    """Doubling one stage's duration never shortens the makespan.

    (A monotone scheduler property that holds for FIFO-by-readiness with
    fixed priorities on this chain-structured DAG.)
    """
    chains = build(chains_spec)
    base = simulate_makespan(chains)
    longer_spec = [
        (ct * 2, [Stage(s.resource, s.duration * 2, s.kind, s.label) for s in stages])
        for ct, stages in chains_spec
    ]
    longer = simulate_makespan(build(longer_spec))
    assert longer >= base - 1e-12
