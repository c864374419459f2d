"""Preset option-pipeline tests."""

from repro.core.options import ActionTask, Device, Phase, validate_option
from repro.core.presets import (
    double_compression_option,
    inter_allgather_option,
    inter_alltoall_option,
    uniform_strategies,
)


def test_inter_allgather_is_single_compression():
    option = inter_allgather_option(Device.GPU)
    comps = [a for a in option.actions if a.task is ActionTask.COMP]
    assert len(comps) == 1
    assert comps[0].phase is Phase.INTER


def test_inter_alltoall_recompresses():
    option = inter_alltoall_option(Device.CPU)
    comps = [a for a in option.actions if a.task is ActionTask.COMP]
    assert len(comps) == 2  # first step + re-compression of the aggregate


def test_inter_alltoall_without_recompression():
    option = inter_alltoall_option(Device.GPU, recompress=False)
    comps = [a for a in option.actions if a.task is ActionTask.COMP]
    assert len(comps) == 1
    assert validate_option(option) == []


def test_double_compression_compresses_three_times():
    option = double_compression_option(Device.GPU)
    comps = [a for a in option.actions if a.task is ActionTask.COMP]
    assert len(comps) == 3  # intra1, recompress, inter second-step
    phases = {a.phase for a in comps}
    assert Phase.INTRA1 in phases and Phase.INTER in phases


def test_presets_exist_in_enumerated_tree():
    """Every preset pipeline is one of the tree's enumerated paths."""
    from repro.core.tree import enumerate_options

    tree = {
        tuple((a.task, a.phase, a.routine) for a in o.actions)
        for o in enumerate_options(mode="uniform")
    }
    for builder in (inter_allgather_option, inter_alltoall_option,
                    double_compression_option):
        option = builder(Device.GPU)
        key = tuple((a.task, a.phase, a.routine) for a in option.actions)
        assert key in tree, builder.__name__


def test_uniform_strategies_names_and_order():
    # Robust selection breaks score ties by candidate name and the
    # portfolio seeds keep the first strict improvement, so both the
    # names and the preset-major order are part of the plan.
    names = [name for name, _ in uniform_strategies(3)]
    assert names == [
        "allgather-gpu", "allgather-cpu",
        "alltoall-gpu", "alltoall-cpu",
        "double-gpu", "double-cpu",
    ]
    gpu_only = uniform_strategies(3, devices=(Device.GPU,))
    assert [name for name, _ in gpu_only] == [
        "allgather-gpu", "alltoall-gpu", "double-gpu",
    ]
    for _, strategy in uniform_strategies(3):
        assert len(strategy) == 3
        assert len(set(strategy.options)) == 1
    assert gpu_only[1][1].options[0] == inter_alltoall_option(Device.GPU)
