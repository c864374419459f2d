"""Deliberately naive reference simulator — the differential oracle.

This module re-implements the scheduling semantics of
:mod:`repro.sim.engine` with the dumbest data structures that can
possibly work: flat Python lists, ``min()`` scans instead of heaps, no
checkpoints, no incremental paths, no packed ranks.  It is O(n²) and
proud of it — the point is that it is *obviously correct by inspection*,
so it can serve as the ground truth the optimized engine and the
incremental delta-simulator are differentially tested against
(``tests/sim/test_oracle.py`` asserts **exact float equality**, not
approximate agreement: the planner compares candidate strategies by
exact floats, so an ulp of drift in the fast paths could flip a
decision).

Scheduling model (identical to the engine, restated independently):

* Each resource has ``capacity`` identical workers.
* Stage *k* of a tensor becomes ready when stage *k-1* of the same
  tensor completes; the compute stage of chain *i* additionally waits
  for chain *i-1*'s compute stage (one backward pass).
* At every instant, all completions at that instant are processed
  before anything is dispatched; then each resource runs, among its
  ready stages, the ones with the smallest
  ``(ready_time, tensor_index, stage_index)`` until its workers are
  exhausted.

The float arithmetic is the same single operation the engine performs
(``end = now + duration``) applied in the same order, which is what
makes exact equality attainable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.sim.engine import ScheduledStage, Timeline
from repro.sim.stages import CPU, RESOURCES, TensorChain


class _Task:
    """One stage instance with its scheduling state."""

    __slots__ = (
        "tensor", "k", "stage", "resource_index",
        "ready", "start", "end", "succ", "compute_succ",
    )

    def __init__(self, tensor: int, k: int, stage, resource_index: int):
        self.tensor = tensor
        self.k = k
        self.stage = stage
        self.resource_index = resource_index
        self.ready: Optional[float] = None  # None until the predecessor completes
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.succ: Optional["_Task"] = None
        self.compute_succ: Optional["_Task"] = None


def simulate_reference(
    chains: Sequence[TensorChain], cpu_capacity: int = 1
) -> Timeline:
    """Simulate ``chains`` naively and return the full timeline.

    Same contract as :func:`repro.sim.engine.simulate`; the returned
    :class:`~repro.sim.engine.Timeline` compares equal to the engine's
    (same stage records, same floats, same order).
    """
    if not chains:
        raise ValueError("nothing to simulate")
    resource_capacity = {name: 1 for name in RESOURCES}
    resource_capacity[CPU] = max(1, cpu_capacity)
    res_index = {name: i for i, name in enumerate(RESOURCES)}

    tasks: List[_Task] = []
    prev_compute: Optional[_Task] = None
    for chain in chains:
        prev: Optional[_Task] = None
        for k, stage in enumerate(chain.stages):
            task = _Task(chain.tensor_index, k, stage, res_index[stage.resource])
            if prev is not None:
                prev.succ = task
            tasks.append(task)
            prev = task
        first = tasks[-len(chain.stages)]
        if prev_compute is not None:
            prev_compute.compute_succ = first
        prev_compute = first

    free = [resource_capacity[name] for name in RESOURCES]
    ready: List[List[_Task]] = [[] for _ in RESOURCES]
    running: List[_Task] = []

    def dispatch(now: float) -> None:
        for r in range(len(RESOURCES)):
            pool = ready[r]
            while pool and free[r] > 0:
                best = min(pool, key=lambda t: (t.ready, t.tensor, t.k))
                pool.remove(best)
                free[r] -= 1
                best.start = now
                best.end = now + best.stage.duration
                running.append(best)

    first = tasks[0]
    first.ready = 0.0
    ready[first.resource_index].append(first)
    dispatch(0.0)

    makespan = 0.0
    while running:
        now = min(task.end for task in running)
        if now > makespan:
            makespan = now
        # Drain every completion at this exact instant before dispatching,
        # like the engine — simultaneous readiness ties must resolve by
        # priority, not by completion-discovery order.
        finished = [task for task in running if task.end == now]
        for task in finished:
            running.remove(task)
            free[task.resource_index] += 1
            for succ in (task.succ, task.compute_succ):
                if succ is not None:
                    succ.ready = now
                    ready[succ.resource_index].append(succ)
        dispatch(now)

    scheduled = [
        ScheduledStage(
            tensor_index=task.tensor,
            stage_index=task.k,
            resource=task.stage.resource,
            kind=task.stage.kind,
            label=task.stage.label,
            duration=task.stage.duration,
            ready=task.ready,
            start=task.start,
            end=task.end,
        )
        for task in tasks
    ]
    scheduled.sort(key=lambda s: (s.start, s.tensor_index, s.stage_index))
    return Timeline(stages=tuple(scheduled), makespan=makespan)


def reference_makespan(
    chains: Sequence[TensorChain], cpu_capacity: int = 1
) -> float:
    """The naive simulation's makespan only."""
    return simulate_reference(chains, cpu_capacity=cpu_capacity).makespan
