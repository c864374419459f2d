"""CompressionOption / Action tests."""

import sys
import threading

import pytest

from repro.core.options import (
    Action,
    ActionTask,
    CompressionOption,
    Device,
    Phase,
    RoutineName,
    canonical_key,
    no_compression_option,
    validate_option,
)
from repro.core.presets import (
    double_compression_option,
    inter_allgather_option,
    inter_alltoall_option,
)


def test_action_comm_requires_routine():
    with pytest.raises(ValueError, match="routine"):
        Action(task=ActionTask.COMM, phase=Phase.INTER)


def test_action_comp_requires_device():
    with pytest.raises(ValueError, match="device"):
        Action(task=ActionTask.COMP, phase=Phase.INTER)


def test_action_comm_rejects_device():
    with pytest.raises(ValueError):
        Action(
            task=ActionTask.COMM,
            phase=Phase.INTER,
            routine=RoutineName.ALLREDUCE,
            device=Device.GPU,
        )


def test_no_compression_option_properties():
    option = no_compression_option()
    assert not option.compresses
    assert not option.compresses_intra
    assert not option.compresses_inter
    assert option.devices == ()
    assert validate_option(option) == []


def test_flat_no_compression():
    option = no_compression_option(flat=True)
    assert option.flat
    assert validate_option(option) == []


def test_preset_options_valid():
    for builder in (
        inter_allgather_option,
        inter_alltoall_option,
        double_compression_option,
    ):
        for device in (Device.GPU, Device.CPU):
            option = builder(device)
            assert validate_option(option) == []
            assert option.compresses
            assert option.compresses_inter


def test_double_compression_touches_both_scopes():
    option = double_compression_option(Device.GPU)
    assert option.compresses_intra
    assert option.compresses_inter


def test_inter_only_options_do_not_compress_intra():
    assert not inter_allgather_option(Device.GPU).compresses_intra
    assert not inter_alltoall_option(Device.CPU).compresses_intra


def test_with_device_moves_every_device_task():
    option = double_compression_option(Device.GPU)
    moved = option.with_device(Device.CPU)
    assert moved.devices == (Device.CPU,) * len(option.devices)
    assert moved.uses_device(Device.CPU)
    assert not moved.uses_device(Device.GPU)
    # Communication structure untouched.
    assert [a.task for a in moved.actions] == [a.task for a in option.actions]


def test_describe_readable():
    text = inter_allgather_option(Device.GPU).describe()
    assert "inter:comm_comp[allgather]" in text
    assert text.startswith("hier:")


def test_validate_catches_pairing_violation():
    option = CompressionOption(
        actions=(
            Action(ActionTask.COMM1, Phase.FLAT, routine=RoutineName.REDUCE_SCATTER),
            Action(ActionTask.COMM2, Phase.FLAT, routine=RoutineName.BROADCAST),
        ),
        flat=True,
    )
    problems = validate_option(option)
    assert any("pairs with" in p for p in problems)


def test_validate_catches_compressed_comm_on_dense_payload():
    option = CompressionOption(
        actions=(
            Action(ActionTask.COMM_C, Phase.FLAT, routine=RoutineName.ALLGATHER),
        ),
        flat=True,
    )
    problems = validate_option(option)
    assert any("dense payload" in p for p in problems)


def test_validate_catches_missing_final_decompress():
    option = CompressionOption(
        actions=(
            Action(ActionTask.COMP, Phase.FLAT, device=Device.GPU),
            Action(ActionTask.COMM_C, Phase.FLAT, routine=RoutineName.ALLGATHER),
        ),
        flat=True,
    )
    problems = validate_option(option)
    assert any("compressed payload" in p for p in problems)


def test_validate_catches_phase_mixing():
    option = CompressionOption(
        actions=(
            Action(ActionTask.COMM, Phase.INTER, routine=RoutineName.ALLREDUCE),
        ),
        flat=True,
    )
    problems = validate_option(option)
    assert any("flat option contains" in p for p in problems)


def test_canonical_key_interning_is_thread_safe():
    """Two threads interning new values at once never share a key.

    Unlocked, interning read the table's size and stored it as the new
    key in two steps, so two threads could both read one size: 8,000
    new values from two threads at a 1 us switch interval collided in
    the hundreds."""
    base = inter_allgather_option(Device.GPU)
    # Ratios no ladder uses, so every value is new to this process.
    variants = [
        [base.with_ratio(0.5 + (2 * i + thread) * 1e-7) for i in range(4000)]
        for thread in (0, 1)
    ]
    keys = [None, None]

    def intern(thread):
        keys[thread] = [canonical_key(option) for option in variants[thread]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=intern, args=(t,)) for t in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    every_key = keys[0] + keys[1]
    assert len(set(every_key)) == len(every_key)
