"""Deterministic discrete-event engine for DDL iteration timelines.

Scheduling model
----------------
* Each resource has ``capacity`` identical workers (1 for the GPU stream
  and the links; >1 for the CPU compression pool).
* Stage *k* of a tensor becomes ready when stage *k-1* of the same tensor
  completes.  Backprop compute stages additionally chain across tensors
  (tensor *i*'s compute waits for tensor *i-1*'s — one backward pass).
* A free worker runs, among the stages ready at that moment, the one with
  the smallest ``(ready_time, tensor_index, stage_index)`` — FIFO by
  readiness with deterministic tie-breaking.  This mirrors how frameworks
  enqueue collectives/kernels in gradient-ready order, and is what makes
  GPU compression kernels delay subsequent backprop computation.

The engine is exact and deterministic: identical inputs give identical
timelines, the property Espresso's decision algorithm relies on when it
compares candidate strategies by simulated iteration time.

This docstring is the specification.  Its one implementation is
:class:`~repro.sim.incremental.IncrementalSimulator`, whose base run
:func:`simulate` and :func:`simulate_makespan` wrap; :mod:`repro.sim.
oracle` restates the model independently as the reference.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Sequence

from repro.sim.stages import TensorChain


@dataclass(frozen=True)
class ScheduledStage:
    """A stage with its simulated schedule."""

    tensor_index: int
    stage_index: int
    resource: str
    kind: str
    label: str
    duration: float
    ready: float
    start: float
    end: float


@dataclass(frozen=True)
class Timeline:
    """The simulated iteration timeline.

    Attributes:
        stages: all scheduled stages, in start order.
        makespan: completion time of the last stage (backprop start = 0).
    """

    stages: Sequence[ScheduledStage]
    makespan: float

    def by_resource(self, resource: str) -> List[ScheduledStage]:
        """Stages on ``resource``, ordered by start time."""
        return [s for s in self.stages if s.resource == resource]

    def by_tensor(self, tensor_index: int) -> List[ScheduledStage]:
        """Stages of one tensor, ordered by stage index."""
        selected = [s for s in self.stages if s.tensor_index == tensor_index]
        selected.sort(key=lambda s: s.stage_index)
        return selected

    def tensor_finish(self, tensor_index: int) -> float:
        """When the tensor's last stage (its synchronization) completes."""
        return max(s.end for s in self.stages if s.tensor_index == tensor_index)


def simulate_makespan(
    chains: Sequence[TensorChain], cpu_capacity: int = 1
) -> float:
    """:func:`simulate`'s makespan, without building the stage records."""
    return _from_scratch(chains, cpu_capacity).base_makespan


def simulate(chains: Sequence[TensorChain], cpu_capacity: int = 1) -> Timeline:
    """Simulate the per-tensor stage chains and return the timeline.

    Args:
        chains: one chain per tensor, in backprop completion order; at
            most 1,024 stages each, tensor indices below 2**20.
        cpu_capacity: parallel workers of the CPU compression pool.
    """
    return _from_scratch(chains, cpu_capacity).base_timeline()


def _from_scratch(chains: Sequence[TensorChain], cpu_capacity: int):
    # Imported here: the incremental module imports ScheduledStage and
    # Timeline from this one.  Nothing will be swapped, so the stride
    # keeps only the snapshot taken at the first instant.
    from repro.sim.incremental import IncrementalSimulator

    return IncrementalSimulator(
        chains, cpu_capacity=cpu_capacity, checkpoint_stride=sys.maxsize
    )
