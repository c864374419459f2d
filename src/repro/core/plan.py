"""Compile compression options into simulator stage chains.

This is where the decision-tree abstraction meets the empirical models:
given a tensor size, a cluster, a compressor, and the device time models,
:class:`PlanCompiler` walks an option's action path, tracks the payload
state (dense region size, compressed wire size, pending pieces), prices
every action with the cost models, and emits the
:class:`~repro.sim.stages.Stage` chain the timeline simulator executes.

Pricing is one walk per (option, size) over a per-option *program*: the
option's actions with their stage labels, kinds and resources, device
time models and phase link parameters resolved once per compiler.  The
walk has two outputs: :meth:`PlanCompiler.stages` wraps its durations in
(cached) ``Stage`` objects, and :meth:`PlanCompiler.standalone_times`
sums them without building any.

What a pricing context has priced -- flattened chains and candidate
rankings -- lives in one :class:`PricingTable` per context, shared by
every compiler in the process with that context (DESIGN.md §5.1).

Payload-state rules (one representative GPU):

* A first-step collective (Reduce-scatter/Alltoall) divides the dense
  region by the participant count; Reduce/Gather leave the region at the
  root.  Compressed first steps additionally leave ``p`` received pieces
  that the following DECOMP/AGG micro-tasks price.
* A second-step Allgather multiplies the region back; Broadcast leaves it.
* Inter-machine collectives run at machine granularity: the per-machine
  payload is ``k x`` the per-GPU payload when the intra phase divided the
  tensor across the machine's ``k`` GPUs, and ``1 x`` when a rooted
  intra routine concentrated it on one GPU.
* Flat collectives span all ``P = N x k`` GPUs; they occupy the
  inter-machine link with an effective per-GPU bandwidth of the NIC
  bandwidth divided by ``k`` (the machine's GPUs share the NIC).
"""

from __future__ import annotations

import copy
import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Tuple

from repro.cluster.topology import ClusterSpec
from repro.comm.routines import LinkParams, Routine, routine_time
from repro.compression.base import FP32_BYTES, Compressor
from repro.core.options import (
    Action,
    ActionTask,
    CompressionOption,
    Device,
    Phase,
    RoutineName,
    canonical_key,
)
from repro.profiling.device import DeviceProfile
from repro.profiling.timing import CompressionTimeModel
from repro.sim.stages import (
    AGGREGATE,
    COMM,
    COMPRESS,
    CPU,
    DECOMPRESS,
    GPU,
    INTER,
    INTRA,
    RESOURCES,
    Stage,
)
from repro.utils.validation import check_non_negative

_ROUTINE_MAP = {
    RoutineName.ALLREDUCE: Routine.ALLREDUCE,
    RoutineName.REDUCE_SCATTER: Routine.REDUCE_SCATTER,
    RoutineName.ALLGATHER: Routine.ALLGATHER,
    RoutineName.ALLTOALL: Routine.ALLTOALL,
    RoutineName.REDUCE: Routine.REDUCE,
    RoutineName.BROADCAST: Routine.BROADCAST,
    RoutineName.GATHER: Routine.GATHER,
}

#: Routines that divide the dense region across participants.
_DIVIDING = (RoutineName.REDUCE_SCATTER, RoutineName.ALLTOALL)
#: Stage kind of each device micro-task.
_DEVICE_KINDS = {
    ActionTask.COMP: COMPRESS,
    ActionTask.DECOMP: DECOMPRESS,
    ActionTask.AGG: AGGREGATE,
}


@dataclass
class _PayloadState:
    """Mutable payload bookkeeping while walking an option."""

    region_elements: float  # dense elements this GPU is responsible for
    compressed: bool = False
    pieces: int = 1  # identical-region compressed pieces awaiting agg
    machine_multiplier: int = 1  # active GPUs per machine on the NIC


class _Step(NamedTuple):
    """One action of an option, resolved once per compiler: its stage's
    resource, kind and label, and how it is priced — a device time-model
    method for COMP/DECOMP/AGG, a routine on a phase link otherwise."""

    action: Action
    resource: str
    kind: str
    label: str
    device_time: Optional[Callable[[int], float]] = None
    routine: Optional[Routine] = None
    link: Optional[LinkParams] = None


#: One tensor's compiled chain, flattened: ``(chain key, resource
#: indices, durations)``, as :meth:`~repro.sim.incremental.
#: IncrementalSimulator.swap_chains_flat` consumes it (resources by their
#: position in ``RESOURCES``).  Chain keys are unique in the process and
#: equal exactly when the flattened chains are.
ChainEntry = Tuple[int, Tuple[int, ...], Tuple[float, ...]]

_RES_INDEX = {name: i for i, name in enumerate(RESOURCES)}

#: Most contexts the process keeps rankings for; resolving one more
#: drops the least recently resolved.
RANKED_CONTEXTS = 256
#: Most of those whose tables also keep chains: the most recently
#: resolved.  Chains are most of a table's memory; rankings are small.
PRICING_TABLES = 32
#: A table holding this many chains (about 660 bytes each), or ranking
#: this many sizes for one candidate set, is full: the next compiler of
#: its context starts a fresh one.
TABLE_CHAINS = 4096

#: Guards the table memo and every write to a table.
_LOCK = threading.Lock()
_TABLES: "OrderedDict[Hashable, PricingTable]" = OrderedDict()
_CHAIN_KEYS = itertools.count()


class PricingTable:
    """What one pricing context has priced, for every compiler in the
    process with that context.

    Attributes:
        chains: (canonical option key, tensor size, compute time) -> the
            tensor's :data:`ChainEntry` under that option.  Chain-equal
            entries are one tuple.
        rankings: (candidate keys, ``per_device``) -> {tensor size: the
            positions :func:`repro.core.algorithm.prefilter_candidates`
            keeps}.

    Reads are plain dict lookups, and so are ranking stores: a ranking
    is a pure function of its key, so two threads store equal tuples.
    Interning takes the module lock, so two threads compiling one chain
    get one chain key.
    """

    def __init__(self, rankings: Optional[Dict[tuple, dict]] = None) -> None:
        self.chains: Dict[Tuple[int, int, float], ChainEntry] = {}
        self.rankings: Dict[tuple, Dict[int, Tuple[int, ...]]] = (
            {} if rankings is None else rankings
        )
        self._signatures: Dict[tuple, ChainEntry] = {}

    def intern(
        self, key: Tuple[int, int, float], stages: List[Stage]
    ) -> ChainEntry:
        """Record ``stages`` as the chain of ``key`` and return its entry."""
        signature = (
            tuple(_RES_INDEX[stage.resource] for stage in stages),
            tuple(stage.duration for stage in stages),
        )
        with _LOCK:
            entry = self._signatures.get(signature)
            if entry is None:
                entry = (next(_CHAIN_KEYS), *signature)
                self._signatures[signature] = entry
            self.chains[key] = entry
        return entry


def pricing_table(context: Optional[Hashable]) -> PricingTable:
    """The process-wide table of ``context``; a private one for ``None``."""
    if context is None:
        return PricingTable()
    with _LOCK:
        table = _TABLES.get(context)
        if table is None or _full(table):
            table = _TABLES[context] = PricingTable()
            if len(_TABLES) > RANKED_CONTEXTS:
                _TABLES.popitem(last=False)
        _TABLES.move_to_end(context)
        if len(_TABLES) > PRICING_TABLES:
            # The context that just left the most recent PRICING_TABLES
            # keeps its rankings and drops its chains.  Compilers holding
            # its table keep that table, so their chain keys stay put.
            stale = next(itertools.islice(reversed(_TABLES), PRICING_TABLES, None))
            if _TABLES[stale].chains:
                _TABLES[stale] = PricingTable(_TABLES[stale].rankings)
    return table


def _full(table: PricingTable) -> bool:
    return len(table.chains) >= TABLE_CHAINS or any(
        len(sizes) >= TABLE_CHAINS for sizes in table.rankings.values()
    )


def clear_pricing_tables() -> None:
    """Forget every shared table: compilers built afterwards price cold."""
    with _LOCK:
        _TABLES.clear()


class PlanCompiler:
    """Compiles (option, tensor size) pairs into priced stage chains."""

    def __init__(
        self,
        cluster: ClusterSpec,
        compressor: Compressor,
        gpu: DeviceProfile,
        cpu: DeviceProfile,
        pricing_context: Optional[Hashable] = None,
    ):
        self.cluster = cluster
        self.compressor = compressor
        #: The table of ``pricing_context``, the value key of what prices
        #: an (option, size) pair here: compilers with equal keys share
        #: one, and a compiler without a key gets a private one.
        self.table = pricing_table(pricing_context)
        self._models = {
            Device.GPU: CompressionTimeModel(gpu, compressor.work_factor),
            Device.CPU: CompressionTimeModel(cpu, compressor.work_factor),
        }
        self._cache: Dict[Tuple[int, int], List[Stage]] = {}
        #: (effective compressor, steps) per canonical option key, and
        #: (resource, link params) per phase.
        self._programs: Dict[int, Tuple[Compressor, Tuple[_Step, ...]]] = {}
        self._links: Dict[Phase, Tuple[str, LinkParams]] = {}
        #: Ratio-pinned shallow copies of ``compressor``, one per ladder
        #: ratio the planner prices.  ``work_factor`` is ratio-independent
        #: for every registered algorithm, so the time models stay shared.
        self._ratio_variants: Dict[float, Compressor] = {}

    # -- public API ------------------------------------------------------

    def compressor_for(self, option: CompressionOption) -> Compressor:
        """The effective compressor pricing ``option``'s wire bytes.

        An option pinned to a ladder ratio is priced by a shallow copy
        of the job's compressor with its ``ratio`` overridden; options
        without a pin — or jobs whose compressor has no ratio knob
        (fp16, efsignsgd, ...) — use the job compressor unchanged, so
        ratio metadata on such jobs is cost-irrelevant and the chain
        coarsening in the evaluator merges the variants.
        """
        ratio = option.ratio
        if ratio is None or not hasattr(self.compressor, "ratio"):
            return self.compressor
        variant = self._ratio_variants.get(ratio)
        if variant is None:
            variant = copy.copy(self.compressor)
            variant.ratio = ratio
            self._ratio_variants[ratio] = variant
        return variant

    def stages(self, option: CompressionOption, num_elements: int) -> List[Stage]:
        """The stage chain realizing ``option`` for a tensor of this size.

        Results are cached per (option value, size): Algorithm 1
        re-evaluates the same candidates for many same-size tensors.
        The key is the interned canonical key, not ``id(option)`` — the
        ratio ladder builds ad-hoc pinned variants whose recycled ids
        could alias a stale chain, while value keys cannot.
        """
        key = (canonical_key(option), num_elements)
        cached = self._cache.get(key)
        if cached is None:
            cached = [
                Stage(
                    resource=step.resource,
                    duration=duration,
                    kind=step.kind,
                    label=step.label,
                )
                for step, duration in self._walk(option, num_elements)
            ]
            self._cache[key] = cached
        return cached

    def standalone_times(
        self, option: CompressionOption, num_elements: int
    ) -> Tuple[float, float]:
        """(communication, total) seconds of ``option``'s chain for a
        tensor of this size, without building the chain.

        Equal bit for bit to summing :meth:`stages`' ``COMM``-stage
        durations and all its durations with the builtin ``sum``: both
        walk the same durations in the same order, and the order is part
        of the contract (Python 3.12's ``sum`` is compensated).  Builds
        no ``Stage`` and fills no chain cache.  A single-GPU cluster
        gives ``(0.0, 0.0)``.
        """
        comm: List[float] = []
        total: List[float] = []
        for step, duration in self._walk(option, num_elements):
            check_non_negative("duration", duration)
            total.append(duration)
            if step.kind == COMM:
                comm.append(duration)
        return sum(comm), sum(total)

    # -- the pricing walk ------------------------------------------------

    def _walk(
        self, option: CompressionOption, num_elements: int
    ) -> List[Tuple[_Step, float]]:
        """Price ``option`` for a tensor of ``num_elements``: the
        (step, duration) of every stage its chain keeps, in order."""
        if num_elements < 1:
            raise ValueError(f"num_elements must be >= 1, got {num_elements}")
        compressor, steps = self._program(option)
        state = _PayloadState(region_elements=float(num_elements))
        priced: List[Tuple[_Step, float]] = []
        for step in steps:
            action = step.action
            if step.device_time is None:
                payload = self._wire_bytes(state, compressor)
                if action.phase is Phase.INTER:
                    payload *= state.machine_multiplier
                duration = routine_time(step.routine, payload, step.link)
                if duration > 0.0:
                    priced.append((step, duration))
                self._apply_comm(action, state, step.link.participants)
                continue
            elements = max(1, math.ceil(state.region_elements))
            dense_bytes = elements * FP32_BYTES
            if action.task is ActionTask.COMP:
                priced.append((step, step.device_time(dense_bytes)))
                state.compressed = True
            elif action.task is ActionTask.DECOMP:
                priced.append((step, step.device_time(state.pieces * dense_bytes)))
                state.compressed = False
            else:  # AGG
                priced.append((step, step.device_time(state.pieces * dense_bytes)))
                state.pieces = 1
        return priced

    def _program(
        self, option: CompressionOption
    ) -> Tuple[Compressor, Tuple[_Step, ...]]:
        """``option``'s effective compressor and resolved steps (cached
        per option value; empty when there is nothing to synchronize)."""
        key = canonical_key(option)
        program = self._programs.get(key)
        if program is None:
            actions = option.actions if self.cluster.is_distributed else ()
            steps = tuple(self._resolve(action) for action in actions)
            program = (self.compressor_for(option), steps)
            self._programs[key] = program
        return program

    def _resolve(self, action: Action) -> _Step:
        """One action with everything its pricing needs but the size."""
        label = action.describe()
        if action.task in _DEVICE_KINDS:
            model = self._models[action.device]
            if action.task is ActionTask.COMP:
                device_time = model.compress_time
            elif action.task is ActionTask.DECOMP:
                device_time = model.decompress_time
            else:
                device_time = model.aggregate_time
            resource = GPU if action.device is Device.GPU else CPU
            return _Step(
                action, resource, _DEVICE_KINDS[action.task], label, device_time
            )
        resource, link = self._link(action.phase)
        return _Step(
            action,
            resource,
            COMM,
            label,
            routine=_ROUTINE_MAP[action.routine],
            link=link,
        )

    def _wire_bytes(self, state: _PayloadState, compressor: Compressor) -> float:
        """Current per-GPU payload bytes on the wire."""
        elements = max(1, math.ceil(state.region_elements))
        if state.compressed:
            return float(
                state.pieces * compressor.compressed_nbytes(elements)
            )
        return float(state.pieces * elements * FP32_BYTES)

    def _link(self, phase: Phase) -> Tuple[str, LinkParams]:
        """(resource, link params) of a phase's collectives, built — and
        so validated — once per compiler."""
        link = self._links.get(phase)
        if link is None:
            link = self._links[phase] = self._build_link(phase)
        return link

    def _build_link(self, phase: Phase) -> Tuple[str, LinkParams]:
        cluster = self.cluster
        if phase in (Phase.INTRA1, Phase.INTRA2):
            return (
                INTRA,
                LinkParams(
                    cluster.gpus_per_machine, cluster.intra_bw, cluster.intra_latency
                ),
            )
        if phase is Phase.INTER:
            return (
                INTER,
                LinkParams(
                    cluster.num_machines, cluster.inter_bw, cluster.inter_latency
                ),
            )
        # Flat: all GPUs in one collective; the NIC (shared by the
        # machine's GPUs) is the bottleneck link when machines > 1.
        if cluster.num_machines > 1:
            bandwidth = cluster.inter_bw / cluster.gpus_per_machine
            return (
                INTER,
                LinkParams(cluster.total_gpus, bandwidth, cluster.inter_latency),
            )
        return (
            INTRA,
            LinkParams(cluster.total_gpus, cluster.intra_bw, cluster.intra_latency),
        )

    def _apply_comm(
        self, action: Action, state: _PayloadState, participants: int
    ) -> None:
        """Update payload state after a collective."""
        routine = action.routine
        if participants <= 1:
            return
        if action.phase is Phase.INTRA1:
            # The intra phase decides how the machine's payload reaches
            # the NIC: divided across all k GPUs, or rooted on one.
            state.machine_multiplier = (
                self.cluster.gpus_per_machine if routine in _DIVIDING else 1
            )
        if action.task in (ActionTask.COMM1, ActionTask.COMM2, ActionTask.COMM):
            # Dense collectives aggregate in-network (associative ops).
            if routine is RoutineName.REDUCE_SCATTER:
                state.region_elements /= participants
            elif routine is RoutineName.ALLGATHER:
                state.region_elements *= participants
            # Allreduce / Reduce / Broadcast leave the region unchanged.
            return
        if action.task in (ActionTask.COMM_C, ActionTask.COMM1_C):
            # First-step (or indivisible) compressed collectives deliver
            # `participants` compressed pieces to decompress + aggregate.
            if routine is RoutineName.ALLTOALL:
                state.region_elements /= participants
            state.pieces *= participants
            return
        if action.task is ActionTask.COMM2_C:
            # Second-step compressed collectives concatenate distinct
            # regions (Allgather) or replicate the root's (Broadcast).
            if routine is RoutineName.ALLGATHER:
                state.region_elements *= participants
            return
        raise AssertionError(f"unhandled comm action {action!r}")
