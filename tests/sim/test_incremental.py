"""Exactness of the incremental delta-simulator (DESIGN.md §5.2).

The fast evaluation layer is only admissible because a chain swap priced
by :class:`~repro.sim.incremental.IncrementalSimulator` is *bit-identical*
to re-simulating the whole job from scratch.  The property tests here
drive randomly generated stage chains — durations include zeros so that
several scheduling batches land on one instant, the regime where the
checkpoint/restore machinery is easiest to get wrong — through random
single and multi swaps and compare each swap with a from-scratch run
(a fresh base run, :func:`~repro.sim.engine.simulate_makespan`).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import simulate_makespan
from repro.sim.incremental import IncrementalSimulator
from repro.sim.oracle import reference_makespan
from repro.sim.stages import (
    COMM,
    CPU,
    GPU,
    INTER,
    INTRA,
    Stage,
    TensorChain,
    compute_stage,
)

# Zero durations are deliberate: they force several completion batches at
# the same instant, and ties between chains, which is where checkpoint
# placement and the reconvergence early-exit have historically broken.
DURATIONS = (0.0, 1.0, 1.5, 2.0, 3.0)
SYNC_RESOURCES = (GPU, CPU, INTRA, INTER)


def _sync_stage(resource: str, duration: float) -> Stage:
    return Stage(resource=resource, duration=duration, kind=COMM)


sync_stage_st = st.builds(
    _sync_stage,
    st.sampled_from(SYNC_RESOURCES),
    st.sampled_from(DURATIONS),
)

chain_tail_st = st.lists(sync_stage_st, min_size=0, max_size=5)


@st.composite
def jobs(draw):
    """A base chain set plus replacement chains for a subset of them."""
    num_chains = draw(st.integers(min_value=1, max_value=5))
    chains = []
    for i in range(num_chains):
        head = compute_stage(draw(st.sampled_from(DURATIONS[1:])))
        chains.append(TensorChain(i, [head] + draw(chain_tail_st)))
    swap_indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_chains - 1),
            min_size=1,
            max_size=num_chains,
            unique=True,
        )
    )
    replacements = []
    for index in swap_indices:
        old = list(chains[index].stages)
        # Half the replacements keep a random prefix of the old chain
        # (exercising the shared-prefix reuse path, including pure
        # truncations and no-op swaps); the rest are fully fresh tails.
        keep = draw(st.integers(min_value=1, max_value=len(old)))
        tail = draw(chain_tail_st)
        replacements.append((index, old[:keep] + tail))
    cpu_capacity = draw(st.sampled_from((1, 2, 4)))
    stride = draw(st.sampled_from((1, 2, 7, None)))
    return chains, replacements, cpu_capacity, stride


def _swapped(chains, replacements):
    out = list(chains)
    for index, stages in replacements:
        out[index] = TensorChain(chains[index].tensor_index, stages)
    return out


@settings(max_examples=300, deadline=None)
@given(jobs())
def test_swaps_match_full_simulation(job):
    """Incremental F(S) == full F(S), exactly, for arbitrary swaps."""
    chains, replacements, cpu_capacity, stride = job
    sim = IncrementalSimulator(
        chains, cpu_capacity=cpu_capacity, checkpoint_stride=stride
    )
    assert sim.base_makespan == reference_makespan(
        chains, cpu_capacity=cpu_capacity
    )

    expected = simulate_makespan(
        _swapped(chains, replacements), cpu_capacity=cpu_capacity
    )
    assert sim.swap_chains(replacements) == expected

    # The resident base must be restored bit-exactly after every swap:
    # single swaps of each replacement, priced on the same simulator,
    # must still agree with from-scratch simulations.
    for index, stages in replacements:
        expected = simulate_makespan(
            _swapped(chains, [(index, stages)]), cpu_capacity=cpu_capacity
        )
        assert sim.swap_chain(index, stages) == expected


@settings(max_examples=100, deadline=None)
@given(jobs(), jobs())
def test_repeated_swaps_do_not_corrupt_the_base(job_a, job_b):
    """Back-to-back swap batches reuse one simulator without drift."""
    chains, replacements, cpu_capacity, stride = job_a
    _, other, _, _ = job_b
    # Swaps must preserve the leading compute stage, so graft job_a's.
    other = [
        (i, [chains[i].stages[0]] + list(stages[1:]))
        for i, stages in other
        if i < len(chains)
    ]
    sim = IncrementalSimulator(
        chains, cpu_capacity=cpu_capacity, checkpoint_stride=stride
    )
    for batch in (replacements, other, replacements):
        if not batch:
            continue
        expected = simulate_makespan(
            _swapped(chains, batch), cpu_capacity=cpu_capacity
        )
        assert sim.swap_chains(batch) == expected


def test_mid_instant_checkpoint_regression():
    """Checkpoints must snapshot before the *first* batch of an instant.

    Zero-duration stages create several completion batches at one
    instant; a snapshot taken between them captures successors already
    dispatched with the *base* chain layout, so a replay restoring there
    skipped the swap entirely and returned the base makespan (12.5
    instead of 8.5 on this chain set, found by fuzzing with stride=2).
    """
    chains = [
        TensorChain(0, [compute_stage(3.0), _sync_stage(INTER, 0.0)]),
        TensorChain(
            1,
            [
                compute_stage(1.5),
                _sync_stage(INTRA, 2.0),
                _sync_stage(INTRA, 0.0),
                _sync_stage(CPU, 3.0),
                _sync_stage(CPU, 2.0),
                _sync_stage(INTER, 1.0),
            ],
        ),
        TensorChain(2, [compute_stage(2.0), _sync_stage(INTER, 1.0)]),
        TensorChain(3, [compute_stage(2.0)]),
    ]
    replacement = [compute_stage(1.5), _sync_stage(INTRA, 2.0)]
    sim = IncrementalSimulator(chains, cpu_capacity=4, checkpoint_stride=2)
    expected = simulate_makespan(
        _swapped(chains, [(1, replacement)]), cpu_capacity=4
    )
    assert expected == 8.5
    assert sim.swap_chain(1, replacement) == 8.5
    assert sim.base_makespan == 12.5


def test_noop_swap_returns_base_makespan():
    chains = [
        TensorChain(0, [compute_stage(1.0), _sync_stage(INTER, 2.0)]),
        TensorChain(1, [compute_stage(2.0), _sync_stage(CPU, 1.5)]),
    ]
    sim = IncrementalSimulator(chains)
    assert sim.swap_chain(0, list(chains[0].stages)) == sim.base_makespan
    assert (
        sim.swap_chains([(i, list(c.stages)) for i, c in enumerate(chains)])
        == sim.base_makespan
    )


def test_swap_validation_errors():
    chains = [TensorChain(0, [compute_stage(1.0), _sync_stage(INTER, 2.0)])]
    sim = IncrementalSimulator(chains)
    with pytest.raises(ValueError, match="out of range"):
        sim.swap_chain(1, [compute_stage(1.0)])
    with pytest.raises(ValueError, match="duplicate"):
        sim.swap_chains(
            [(0, [compute_stage(1.0)]), (0, [compute_stage(1.0)])]
        )
    with pytest.raises(ValueError, match="at least one stage"):
        sim.swap_chain(0, [])
    with pytest.raises(ValueError, match="more than 1024 stages"):
        sim.swap_chain(
            0, [compute_stage(1.0)] + [_sync_stage(INTER, 1.0)] * 1024
        )
    # The leading compute stage is pinned: a swap may only change the
    # synchronization tail (the planner never changes backprop).
    tail = [_sync_stage(INTER, 2.0)]
    for head in (compute_stage(9.0), _sync_stage(INTER, 1.0)):
        with pytest.raises(ValueError, match="leading compute stage"):
            sim.swap_chain(0, [head])
        with pytest.raises(ValueError, match="leading compute stage"):
            sim.swap_chain(0, [head] + tail)


def test_failed_swap_restores_the_simulator():
    """A swap that raises on a later replacement leaves no scratch tasks
    and no rewired completion records behind."""
    chains = [
        TensorChain(0, [compute_stage(1.0), _sync_stage(INTER, 2.0)]),
        TensorChain(1, [compute_stage(2.0), _sync_stage(CPU, 1.5)]),
        TensorChain(2, [compute_stage(1.5), _sync_stage(INTRA, 1.0)]),
    ]
    sim = IncrementalSimulator(chains, cpu_capacity=2)
    post = list(sim._post)
    good = (
        0,
        [compute_stage(1.0), _sync_stage(CPU, 1.5), _sync_stage(INTER, 0.5)],
    )
    for bad in (
        (0, [compute_stage(1.0)]),  # duplicate index
        (1, [compute_stage(9.0), _sync_stage(CPU, 1.5)]),  # leading stage
    ):
        with pytest.raises(ValueError):
            sim.swap_chains([good, bad])
        assert len(sim._durations) == sim._num_tasks
        assert sim._post == post
        swapped = [good, (2, [compute_stage(1.5), _sync_stage(INTER, 3.0)])]
        assert sim.swap_chains(swapped) == simulate_makespan(
            _swapped(chains, swapped), cpu_capacity=2
        )
