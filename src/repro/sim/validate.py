"""Runtime invariant checker for simulated timelines (conformance layer).

Every number this reproduction produces rests on the discrete-event
simulator being exactly right, and the fast paths (makespan-only
simulation, incremental delta-simulation, timeline reconstruction from
resident arrays) keep being rewritten for speed.  This module is the
correctness net that makes those rewrites safe: given any
:class:`~repro.sim.engine.Timeline` — however it was produced — it
checks the schedule against the invariants the scheduling model
guarantees, and reports every violation found.

Checked invariants (names appear in :class:`Violation.invariant`):

``completeness``
    Every stage of every chain appears exactly once, with the chain's
    resource/kind/duration; no extra stages.
``chain-precedence``
    Stage *k* of a tensor starts no earlier than stage *k-1* ends, its
    recorded ``ready`` is exactly the predecessor's ``end`` (0.0 for the
    first chain's compute stage), and the compute stages chain across
    tensors in backprop order.
``start-after-ready``
    No stage starts before it is ready.
``no-overlap``
    At no instant does a resource run more concurrent stages than it has
    workers (zero-duration stages occupy no open interval).
``fifo-dispatch``
    A stage that became ready strictly before another stage started on
    the same resource, with a smaller ``(ready, tensor, stage)``
    priority, never starts later — the engine's FIFO-by-readiness
    dispatch order.
``makespan``
    The recorded makespan equals the maximum stage end exactly.

Comparisons are **exact** (no epsilons): the engine is deterministic
float arithmetic, and the planner compares strategies by exact floats.

:func:`check_option_conservation` additionally audits the payload-size
algebra of a compression option against an independent re-statement of
the compile rules (DESIGN.md §5): after a full root-to-End walk the
payload must be dense, un-sharded, and exactly one tensor's worth of
elements again — per-tensor bookkeeping errors here silently corrupt
the global optimum (cf. L-GreCo's per-layer cost accounting).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.topology import ClusterSpec
from repro.core.options import ActionTask, CompressionOption, Phase, RoutineName
from repro.sim.engine import ScheduledStage, Timeline
from repro.sim.stages import CPU, RESOURCES, TensorChain


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in a timeline."""

    invariant: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.message}"


class ConformanceError(AssertionError):
    """Raised by :func:`assert_valid` when a timeline violates invariants."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        lines = "\n".join(f"  {v}" for v in self.violations)
        super().__init__(
            f"timeline violates {len(self.violations)} invariant(s):\n{lines}"
        )


def check_timeline(
    timeline: Timeline,
    chains: Optional[Sequence[TensorChain]] = None,
    cpu_capacity: int = 1,
    max_violations: int = 20,
) -> List[Violation]:
    """Check ``timeline`` against the scheduler invariants.

    Args:
        timeline: the schedule to audit.
        chains: the stage chains the timeline claims to realize; enables
            the completeness and cross-tensor precedence checks.
        cpu_capacity: CPU pool workers used for the overlap check.
        max_violations: stop collecting after this many (the checker is
            a diagnostic, not an enumerator of every consequence of one
            root cause).

    Returns:
        All violations found (empty list == conformant).
    """
    violations: List[Violation] = []

    def report(invariant: str, message: str) -> bool:
        violations.append(Violation(invariant, message))
        return len(violations) >= max_violations

    resource_capacity = {name: 1 for name in RESOURCES}
    resource_capacity[CPU] = max(1, cpu_capacity)

    stages = list(timeline.stages)
    if not stages:
        report("completeness", "timeline has no stages")
        return violations

    if chains is not None and _check_completeness(stages, chains, report):
        return violations
    if _check_precedence(stages, chains, report):
        return violations
    if _check_overlap(stages, resource_capacity, report):
        return violations
    if _check_fifo(stages, report):
        return violations

    max_end = max(s.end for s in stages)
    if timeline.makespan != max_end:
        report(
            "makespan",
            f"makespan {timeline.makespan!r} != max stage end {max_end!r}",
        )
    return violations


def assert_valid(
    timeline: Timeline,
    chains: Optional[Sequence[TensorChain]] = None,
    cpu_capacity: int = 1,
) -> Timeline:
    """Raise :class:`ConformanceError` on any violation; return the timeline."""
    violations = check_timeline(
        timeline, chains=chains, cpu_capacity=cpu_capacity
    )
    if violations:
        raise ConformanceError(violations)
    return timeline


# -- individual checks ----------------------------------------------------


def _key(stage: ScheduledStage) -> Tuple[int, int]:
    return (stage.tensor_index, stage.stage_index)


def _check_completeness(stages, chains, report) -> bool:
    seen: Dict[Tuple[int, int], ScheduledStage] = {}
    for stage in stages:
        key = _key(stage)
        if key in seen:
            if report("completeness", f"stage {key} scheduled twice"):
                return True
        seen[key] = stage
    expected = 0
    for chain in chains:
        expected += len(chain.stages)
        for k, spec in enumerate(chain.stages):
            scheduled = seen.get((chain.tensor_index, k))
            if scheduled is None:
                if report(
                    "completeness",
                    f"tensor {chain.tensor_index} stage {k} never scheduled "
                    f"— its chain did not complete",
                ):
                    return True
                continue
            if (
                scheduled.resource != spec.resource
                or scheduled.kind != spec.kind
                or scheduled.duration != spec.duration
            ):
                if report(
                    "completeness",
                    f"tensor {chain.tensor_index} stage {k} scheduled as "
                    f"({scheduled.resource}, {scheduled.kind}, "
                    f"{scheduled.duration!r}), chain says "
                    f"({spec.resource}, {spec.kind}, {spec.duration!r})",
                ):
                    return True
            if scheduled.end != scheduled.start + scheduled.duration:
                if report(
                    "completeness",
                    f"tensor {chain.tensor_index} stage {k}: end "
                    f"{scheduled.end!r} != start + duration "
                    f"{(scheduled.start + scheduled.duration)!r}",
                ):
                    return True
    if len(stages) != expected:
        if report(
            "completeness",
            f"{len(stages)} stages scheduled, chains define {expected}",
        ):
            return True
    return False


def _check_precedence(stages, chains, report) -> bool:
    by_tensor: Dict[int, List[ScheduledStage]] = {}
    for stage in stages:
        if stage.start < stage.ready:
            if report(
                "start-after-ready",
                f"tensor {stage.tensor_index} stage {stage.stage_index} "
                f"starts at {stage.start!r} before ready {stage.ready!r}",
            ):
                return True
        by_tensor.setdefault(stage.tensor_index, []).append(stage)

    for tensor, ts in by_tensor.items():
        ts.sort(key=lambda s: s.stage_index)
        for prev, cur in zip(ts, ts[1:]):
            if cur.stage_index != prev.stage_index + 1:
                continue  # gap already reported by completeness
            if cur.ready != prev.end:
                if report(
                    "chain-precedence",
                    f"tensor {tensor} stage {cur.stage_index} ready "
                    f"{cur.ready!r} != stage {prev.stage_index} end "
                    f"{prev.end!r}",
                ):
                    return True
            if cur.start < prev.end:
                if report(
                    "chain-precedence",
                    f"tensor {tensor} stage {cur.stage_index} starts at "
                    f"{cur.start!r} before stage {prev.stage_index} ends "
                    f"at {prev.end!r}",
                ):
                    return True

    if chains is not None:
        # Compute stages chain across tensors in the chains' (backprop)
        # order; the first one is ready at t=0 exactly.
        computes = [
            by_tensor[c.tensor_index][0]
            for c in chains
            if c.tensor_index in by_tensor and by_tensor[c.tensor_index]
        ]
        if computes and computes[0].ready != 0.0:
            if report(
                "chain-precedence",
                f"first compute stage ready {computes[0].ready!r} != 0.0",
            ):
                return True
        for prev, cur in zip(computes, computes[1:]):
            if cur.ready != prev.end:
                if report(
                    "chain-precedence",
                    f"tensor {cur.tensor_index} compute ready {cur.ready!r} "
                    f"!= tensor {prev.tensor_index} compute end {prev.end!r}",
                ):
                    return True
    return False


def _check_overlap(stages, resource_capacity, report) -> bool:
    for resource in RESOURCES:
        capacity = resource_capacity[resource]
        # Half-open occupancy sweep; zero-duration stages occupy no open
        # interval (the engine completes them before the next dispatch at
        # the same instant), so they are excluded.
        events: List[Tuple[float, int]] = []
        for s in stages:
            if s.resource == resource and s.duration > 0.0:
                events.append((s.start, 1))
                events.append((s.end, -1))
        # Ends sort before starts at the same instant: back-to-back
        # stages sharing a boundary do not overlap.
        events.sort(key=lambda e: (e[0], e[1]))
        load = 0
        for time, delta in events:
            load += delta
            if load > capacity:
                if report(
                    "no-overlap",
                    f"{resource} runs {load} concurrent stages at "
                    f"{time!r} (capacity {capacity})",
                ):
                    return True
    return False


def _check_fifo(stages, report) -> bool:
    """FIFO-by-(ready, tensor, stage) dispatch on every resource.

    Violation: stage ``u`` became ready *strictly* before stage ``s``
    started (so ``u`` was in the ready queue at every dispatch instant
    up to and including ``s.start``), has smaller priority, and yet
    started after ``s``.  Ties at ``u.ready == s.start`` are excused:
    with zero-duration stages several drain-dispatch batches share one
    instant, and a stage made ready by a later batch legitimately misses
    the earlier batch's dispatch.
    """
    for resource in RESOURCES:
        on_res = [s for s in stages if s.resource == resource]
        if len(on_res) < 2:
            continue
        by_start = sorted(on_res, key=lambda s: s.start)
        by_ready = sorted(on_res, key=lambda s: s.ready)
        pending: List[Tuple[float, int, int, float]] = []  # priority + start
        i = 0
        n = len(by_ready)
        j = 0
        while j < len(by_start):
            now = by_start[j].start
            while i < n and by_ready[i].ready < now:
                u = by_ready[i]
                heapq.heappush(
                    pending, (u.ready, u.tensor_index, u.stage_index, u.start)
                )
                i += 1
            # Discard pending stages that have already started.
            while pending and pending[0][3] <= now:
                heapq.heappop(pending)
            batch_end = j
            worst = by_start[j]
            while batch_end < len(by_start) and by_start[batch_end].start == now:
                s = by_start[batch_end]
                if (s.ready, s.tensor_index, s.stage_index) > (
                    worst.ready, worst.tensor_index, worst.stage_index
                ):
                    worst = s
                batch_end += 1
            if pending and pending[0][:3] < (
                worst.ready, worst.tensor_index, worst.stage_index
            ):
                u_ready, u_tensor, u_k, u_start = pending[0]
                if report(
                    "fifo-dispatch",
                    f"{resource}: tensor {worst.tensor_index} stage "
                    f"{worst.stage_index} (ready {worst.ready!r}) started at "
                    f"{now!r} while higher-priority tensor {u_tensor} stage "
                    f"{u_k} (ready {u_ready!r}) waited until {u_start!r}",
                ):
                    return True
            j = batch_end
    return False


# -- payload-size conservation --------------------------------------------


def check_option_conservation(
    option: CompressionOption,
    num_elements: int,
    cluster: ClusterSpec,
    rel_tol: float = 1e-9,
) -> List[Violation]:
    """Audit an option's payload algebra for size conservation.

    Walks the option's action path with an independent re-statement of
    the compiler's payload rules (divide on Reduce-scatter/Alltoall,
    multiply back on Allgather, pieces on compressed first steps) and
    checks that the walk ends with the payload dense, aggregated to one
    piece, and restored to exactly the tensor's ``num_elements`` — i.e.
    every participant holds the full synchronized tensor again.  A
    violation means the compile chain loses or duplicates payload, which
    would misprice every strategy touching the option.
    """
    violations: List[Violation] = []
    if not cluster.is_distributed:
        return violations

    region = float(num_elements)
    pieces = 1
    compressed = False
    for action in option.actions:
        if action.task is ActionTask.COMP:
            compressed = True
            continue
        if action.task is ActionTask.DECOMP:
            compressed = False
            continue
        if action.task is ActionTask.AGG:
            pieces = 1
            continue
        # Communication: participant count from the phase.
        if action.phase in (Phase.INTRA1, Phase.INTRA2):
            participants = cluster.gpus_per_machine
        elif action.phase is Phase.INTER:
            participants = cluster.num_machines
        else:  # FLAT
            participants = cluster.total_gpus
        if participants <= 1:
            continue
        routine = action.routine
        if action.task in (ActionTask.COMM, ActionTask.COMM1, ActionTask.COMM2):
            if routine is RoutineName.REDUCE_SCATTER:
                region /= participants
            elif routine is RoutineName.ALLGATHER:
                region *= participants
        elif action.task in (ActionTask.COMM_C, ActionTask.COMM1_C):
            if routine is RoutineName.ALLTOALL:
                region /= participants
            pieces *= participants
        elif action.task is ActionTask.COMM2_C:
            if routine is RoutineName.ALLGATHER:
                region *= participants

    def off_by(value: float, target: float) -> bool:
        return abs(value - target) > rel_tol * max(abs(value), abs(target), 1.0)

    if off_by(region, float(num_elements)):
        violations.append(
            Violation(
                "payload-conservation",
                f"{option.describe()}: walk ends with {region!r} elements, "
                f"tensor has {num_elements}",
            )
        )
    if compressed:
        violations.append(
            Violation(
                "payload-conservation",
                f"{option.describe()}: payload still compressed at End",
            )
        )
    if pieces != 1:
        violations.append(
            Violation(
                "payload-conservation",
                f"{option.describe()}: {pieces} unaggregated pieces at End",
            )
        )
    return violations
