"""Preset compression options: the fixed pipelines used by the baseline
systems (HiPress/BytePS-Compress/HiTopKComm) and by Espresso's portfolio
initialization and the Fig. 15 ablation mechanisms."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.options import (
    Action,
    ActionTask,
    CompressionOption,
    Device,
    Phase,
    RoutineName,
)
from repro.core.strategy import CompressionStrategy


def _act(
    task: ActionTask,
    phase: Phase,
    routine: RoutineName = None,
    device: Device = None,
) -> Action:
    return Action(task=task, phase=phase, routine=routine, device=device)


def inter_allgather_option(device: Device) -> CompressionOption:
    """Compress for inter-machine comm, indivisible Allgather scheme.

    This is the classic compressed synchronization used by HiPress and
    BytePS-Compress: hierarchical reduce-scatter inside the machine,
    compress the shard, Allgather the compressed shards across machines,
    decompress + aggregate, Allgather inside the machine.
    """
    return CompressionOption(
        actions=(
            _act(ActionTask.COMM1, Phase.INTRA1, routine=RoutineName.REDUCE_SCATTER),
            _act(ActionTask.COMP, Phase.INTER, device=device),
            _act(ActionTask.COMM_C, Phase.INTER, routine=RoutineName.ALLGATHER),
            _act(ActionTask.DECOMP, Phase.INTER, device=device),
            _act(ActionTask.AGG, Phase.INTER, device=device),
            _act(ActionTask.COMM2, Phase.INTRA2, routine=RoutineName.ALLGATHER),
        ),
        flat=False,
    )


def inter_alltoall_option(
    device: Device, recompress: bool = True
) -> CompressionOption:
    """Compress for inter-machine comm, divisible Alltoall/Allgather scheme."""
    actions = [
        _act(ActionTask.COMM1, Phase.INTRA1, routine=RoutineName.REDUCE_SCATTER),
        _act(ActionTask.COMP, Phase.INTER, device=device),
        _act(ActionTask.COMM1_C, Phase.INTER, routine=RoutineName.ALLTOALL),
        _act(ActionTask.DECOMP, Phase.INTER, device=device),
        _act(ActionTask.AGG, Phase.INTER, device=device),
    ]
    if recompress:
        actions += [
            _act(ActionTask.COMP, Phase.INTER, device=device),
            _act(ActionTask.COMM2_C, Phase.INTER, routine=RoutineName.ALLGATHER),
            _act(ActionTask.DECOMP, Phase.INTER, device=device),
        ]
    else:
        actions.append(
            _act(ActionTask.COMM2, Phase.INTER, routine=RoutineName.ALLGATHER)
        )
    actions.append(
        _act(ActionTask.COMM2, Phase.INTRA2, routine=RoutineName.ALLGATHER)
    )
    return CompressionOption(actions=tuple(actions), flat=False)


def double_compression_option(device: Device) -> CompressionOption:
    """Compress for both intra- and inter-machine communication.

    Alltoall on the compressed tensor inside the machine, re-compress
    the aggregated shard, Alltoall/Allgather across machines, Allgather
    of compressed pieces inside the machine (Fig. 15(d)'s
    "Alltoall+Alltoall" mechanism).
    """
    return CompressionOption(
        actions=(
            _act(ActionTask.COMP, Phase.INTRA1, device=device),
            _act(ActionTask.COMM1_C, Phase.INTRA1, routine=RoutineName.ALLTOALL),
            _act(ActionTask.DECOMP, Phase.INTRA1, device=device),
            _act(ActionTask.AGG, Phase.INTRA1, device=device),
            _act(ActionTask.COMP, Phase.INTRA1, device=device),
            _act(ActionTask.COMM1_C, Phase.INTER, routine=RoutineName.ALLTOALL),
            _act(ActionTask.DECOMP, Phase.INTER, device=device),
            _act(ActionTask.AGG, Phase.INTER, device=device),
            _act(ActionTask.COMP, Phase.INTER, device=device),
            _act(ActionTask.COMM2_C, Phase.INTER, routine=RoutineName.ALLGATHER),
            _act(ActionTask.COMM2_C, Phase.INTRA2, routine=RoutineName.ALLGATHER),
            _act(ActionTask.DECOMP, Phase.INTRA2, device=device),
        ),
        flat=False,
    )


def uniform_strategies(
    num_tensors: int, devices: Sequence[Device] = (Device.GPU, Device.CPU)
) -> List[Tuple[str, CompressionStrategy]]:
    """Every tensor on one preset pipeline, per preset and device.

    Returns ``("<preset>-<device>", strategy)`` pairs, preset-major
    (allgather, alltoall, double) and in ``devices`` order within each
    preset: Espresso's portfolio seeds, robust selection's uniform
    candidates, the default conformance suite and the upper bound's
    seeds all take them in this order.
    """
    presets = (
        ("allgather", inter_allgather_option),
        ("alltoall", inter_alltoall_option),
        ("double", double_compression_option),
    )
    return [
        (
            f"{label}-{device.value}",
            CompressionStrategy(options=(builder(device),) * num_tensors),
        )
        for label, builder in presets
        for device in devices
    ]
