"""Compression options: the paper's decision-tree vocabulary (§4.2).

A *compression option* is a root-to-End path through the decision tree of
Fig. 8 — a sequence of **action tasks** (Table 3) annotated with the
communication phase they execute in, the collective routine chosen for
communication tasks, and the compute device chosen for compression tasks.

The eight action tasks (Table 3):

=============  ========================================================
``COMP``       compression operation, device in {CPU, GPU}
``DECOMP``     decompression operation, device in {CPU, GPU}
``COMM``       indivisible scheme for uncompressed tensors {Allreduce}
``COMM1``      first step of a divisible scheme, uncompressed
               {Reduce-scatter, Reduce}
``COMM2``      second step of a divisible scheme, uncompressed
               {Allgather, Broadcast}
``COMM_C``     indivisible scheme for compressed tensors {Allgather}
``COMM1_C``    first step of a divisible scheme, compressed
               {Alltoall, Gather}
``COMM2_C``    second step of a divisible scheme, compressed
               {Allgather, Broadcast}
=============  ========================================================

plus an ``AGG`` micro-task for the aggregation a node performs after
decompressing the pieces received by a first-step collective (Fig. 4(b)).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple


class ActionTask(enum.Enum):
    """The paper's Table 3 action tasks (plus the implied aggregation)."""

    COMP = "comp"
    DECOMP = "decomp"
    AGG = "agg"
    COMM = "comm"
    COMM1 = "comm1"
    COMM2 = "comm2"
    COMM_C = "comm_comp"
    COMM1_C = "comm1_comp"
    COMM2_C = "comm2_comp"


#: Action tasks that move bytes.
COMM_TASKS = (
    ActionTask.COMM,
    ActionTask.COMM1,
    ActionTask.COMM2,
    ActionTask.COMM_C,
    ActionTask.COMM1_C,
    ActionTask.COMM2_C,
)
#: Action tasks that run on a compute device.
DEVICE_TASKS = (ActionTask.COMP, ActionTask.DECOMP, ActionTask.AGG)


class Phase(enum.Enum):
    """Which communication phase of hierarchical/flat sync an action is in."""

    FLAT = "flat"
    INTRA1 = "intra1"
    INTER = "inter"
    INTRA2 = "intra2"


class Device(enum.Enum):
    """Compute resource for compression-related tasks (Dimension 2)."""

    GPU = "gpu"
    CPU = "cpu"


class RoutineName(enum.Enum):
    """Collective routines of Table 2."""

    ALLREDUCE = "allreduce"
    REDUCE_SCATTER = "reduce_scatter"
    ALLGATHER = "allgather"
    ALLTOALL = "alltoall"
    REDUCE = "reduce"
    BROADCAST = "broadcast"
    GATHER = "gather"


#: Pruning rule 3 (§4.2.2): first- and second-step routines must pair.
ROUTINE_PAIRING = {
    RoutineName.REDUCE_SCATTER: RoutineName.ALLGATHER,
    RoutineName.REDUCE: RoutineName.BROADCAST,
    RoutineName.ALLTOALL: RoutineName.ALLGATHER,
    RoutineName.GATHER: RoutineName.BROADCAST,
}


@dataclass(frozen=True)
class Action:
    """One action-task instance on a compression option's path."""

    task: ActionTask
    phase: Phase
    routine: Optional[RoutineName] = None
    device: Optional[Device] = None

    def __post_init__(self) -> None:
        if self.task in COMM_TASKS:
            if self.routine is None:
                raise ValueError(f"{self.task} requires a routine")
            if self.device is not None:
                raise ValueError(f"{self.task} takes no device")
        else:
            if self.device is None:
                raise ValueError(f"{self.task} requires a device")
            if self.routine is not None:
                raise ValueError(f"{self.task} takes no routine")

    def describe(self) -> str:
        """Short human-readable form, e.g. ``inter:comm_comp[allgather]``."""
        detail = self.routine.value if self.routine else self.device.value
        return f"{self.phase.value}:{self.task.value}[{detail}]"


@dataclass(frozen=True)
class CompressionOption:
    """A full root-to-End decision-tree path for one tensor.

    Attributes:
        actions: the action tasks in execution order.
        flat: whether the option uses flat (vs hierarchical) communication.
        ratio: per-tensor compression-ratio override for
            ratio-parameterized compressors (topk/randomk/dgc); ``None``
            means the job's configured ratio applies.  Part of the
            option's *value*: two options differing only in ratio get
            distinct canonical keys, fingerprints, and memo entries.
    """

    actions: Tuple[Action, ...]
    flat: bool
    ratio: Optional[float] = None

    @property
    def compresses(self) -> bool:
        """Dimension 1: does the tensor get compressed at all?"""
        return any(a.task is ActionTask.COMP for a in self.actions)

    @property
    def compresses_intra(self) -> bool:
        """True when compression is applied to intra-machine communication."""
        return any(
            a.task in (ActionTask.COMM1_C, ActionTask.COMM2_C, ActionTask.COMM_C)
            and a.phase in (Phase.INTRA1, Phase.INTRA2)
            for a in self.actions
        )

    @property
    def compresses_inter(self) -> bool:
        """True when compression is applied to inter-machine (or flat) comm."""
        return any(
            a.task in (ActionTask.COMM1_C, ActionTask.COMM2_C, ActionTask.COMM_C)
            and a.phase in (Phase.INTER, Phase.FLAT)
            for a in self.actions
        )

    @property
    def devices(self) -> Tuple[Device, ...]:
        """Devices of the device-bound actions, in order."""
        return tuple(a.device for a in self.actions if a.device is not None)

    def uses_device(self, device: Device) -> bool:
        return device in self.devices

    def with_device(self, device: Device) -> "CompressionOption":
        """A copy with every compression-related task moved to ``device``.

        This is the "offload compression" operation of Algorithm 2: a
        tensor's whole option keeps its communication schemes but runs
        its Comp/Decomp/Agg tasks on the other resource.
        """
        actions = tuple(
            replace(a, device=device) if a.device is not None else a
            for a in self.actions
        )
        return CompressionOption(
            actions=actions, flat=self.flat, ratio=self.ratio
        )

    def with_ratio(self, ratio: Optional[float]) -> "CompressionOption":
        """A copy pinned to a ladder ``ratio`` (``None`` = job default).

        The ratio dimension only changes how many bytes the compressed
        collectives move; the action path is untouched, so the returned
        option shares the vocabulary, pairing rules, and pruning logic
        of the original.
        """
        if ratio is not None and not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        if ratio == self.ratio:
            return self
        return CompressionOption(
            actions=self.actions, flat=self.flat, ratio=ratio
        )

    def describe(self) -> str:
        """Readable one-line summary of the full path."""
        mode = "flat" if self.flat else "hier"
        if self.ratio is not None:
            # The ratio rides on the mode prefix so per-action labels
            # (and the evaluator's ratio-free stage names) stay shared
            # across ladder variants, while describe() — the wire-safe
            # value form service digests hash — still spells the ratio.
            mode += f"[r={self.ratio:g}]"
        if not self.actions:
            return f"{mode}: (no-op)"
        return f"{mode}: " + " -> ".join(a.describe() for a in self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __getstate__(self) -> dict:
        # The memoized canonical key (see :func:`canonical_key`) is only
        # meaningful inside the process whose interning table assigned
        # it.  Strip it before pickling — a worker process re-interns the
        # value against its own table; shipping the parent's key could
        # alias a *different* value in the worker's caches.
        state = dict(self.__dict__)
        state.pop("_canonical_key", None)
        return state


#: Value-interning registry behind :func:`canonical_key`.  Options are
#: small frozen dataclasses; keeping every distinct *value* alive forever
#: is bounded by the search-space size and guarantees keys are never
#: recycled the way ``id()`` is after garbage collection.
_CANONICAL_KEYS: dict = {}
#: Serializes the registry's read-then-store: two threads interning new
#: values at once (``repro serve --workers 2``) would otherwise both
#: read the same ``len`` and hand two values one key.
_INTERN_LOCK = threading.Lock()


def canonical_key(option: CompressionOption) -> int:
    """A stable small-int key for an option's *value*.

    Two options that compare equal (same actions, same flat bit) map to
    the same key, no matter when or where they were constructed; distinct
    values always map to distinct keys.  Every cache in the planner keys
    on this instead of ``id(option)``: a GC'd trial option's reused
    ``id()`` could alias a stale cache entry, and value-equal duplicates
    (e.g. two ``no_compression_option()`` calls) would miss each other.
    Strategy fingerprints (tuples of these keys) are what the F(S) memo
    cache hashes.

    The key is memoized on the option object itself (value hashing walks
    the whole action tuple — far too slow for the planner's hot loop,
    which computes millions of keys); the object-level memo cannot alias
    because it dies with the object.  Only the miss path takes a lock;
    the hit path stays one attribute read.
    """
    key = option.__dict__.get("_canonical_key")
    if key is None:
        with _INTERN_LOCK:
            key = _CANONICAL_KEYS.setdefault(option, len(_CANONICAL_KEYS))
        object.__setattr__(option, "_canonical_key", key)
    return key


def no_compression_option(flat: bool = False) -> CompressionOption:
    """The canonical FP32 option: hierarchical RS / Allreduce / AG.

    Built here for convenience; the enumerator in
    :mod:`repro.core.tree` also produces it as a tree path.
    """
    if flat:
        return CompressionOption(
            actions=(
                Action(ActionTask.COMM, Phase.FLAT, routine=RoutineName.ALLREDUCE),
            ),
            flat=True,
        )
    return CompressionOption(
        actions=(
            Action(
                ActionTask.COMM1, Phase.INTRA1, routine=RoutineName.REDUCE_SCATTER
            ),
            Action(ActionTask.COMM, Phase.INTER, routine=RoutineName.ALLREDUCE),
            Action(ActionTask.COMM2, Phase.INTRA2, routine=RoutineName.ALLGATHER),
        ),
        flat=False,
    )


#: The default ratio ladder ``plan --ratios`` expands sparsifying
#: candidates over (L-GreCo's per-layer grid, spanning the sparsity
#: regimes the paper's §5 experiments use).
DEFAULT_RATIO_LADDER: Tuple[float, ...] = (0.001, 0.005, 0.01, 0.05, 0.1)


def ladder_options(
    options: Sequence[CompressionOption],
    ratios: Sequence[float],
) -> List[CompressionOption]:
    """Expand compressing options into one variant per ladder ratio.

    Every compressing option contributes itself (ratio ``None`` — the
    job's configured ratio, which may sit outside the ladder) plus one
    pinned variant per ratio; non-compressing options pass through
    unchanged (a ratio means nothing without a COMP task).  Duplicates
    are removed by canonical key, preserving first-seen order so the
    expansion is deterministic for a deterministic input order.
    """
    for ratio in ratios:
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    expanded: List[CompressionOption] = []
    seen = set()
    for option in options:
        variants = [option]
        if option.compresses:
            variants.extend(option.with_ratio(ratio) for ratio in ratios)
        for variant in variants:
            key = canonical_key(variant)
            if key not in seen:
                seen.add(key)
                expanded.append(variant)
    return expanded


def validate_option(option: CompressionOption) -> List[str]:
    """Check an option against the three pruning rules of §4.2.2.

    Returns a list of violation messages (empty when valid).  Used by the
    tree tests to prove every enumerated path is well-formed, and by the
    extensibility hook so user-supplied options are validated too.
    """
    problems: List[str] = []
    actions = option.actions
    if not actions:
        problems.append("option has no actions")
        return problems

    # Rule 2: first/second-step tasks only in their steps — encoded as:
    # every COMM1* must be followed (eventually, same phase pair) by the
    # matching COMM2*, and COMM2* must have a preceding COMM1* partner.
    # Rule 3: routines of the pair must match ROUTINE_PAIRING.
    open_first: List[Action] = []
    for action in actions:
        if action.task in (ActionTask.COMM1, ActionTask.COMM1_C):
            open_first.append(action)
        elif action.task in (ActionTask.COMM2, ActionTask.COMM2_C):
            if not open_first:
                problems.append(f"{action.describe()} has no first step")
                continue
            first = open_first.pop()
            expected = ROUTINE_PAIRING.get(first.routine)
            if action.routine is not expected:
                problems.append(
                    f"{first.describe()} pairs with {expected}, "
                    f"got {action.describe()}"
                )
    # Unclosed divisible schemes are allowed only when the first step is
    # hierarchical INTRA1/INTER whose second half belongs to a later
    # phase that a compressed path legitimately transforms; we require
    # closure for FLAT, where there is a single phase.
    for first in open_first:
        if first.phase is Phase.FLAT:
            problems.append(f"{first.describe()} never closed")

    # Compression state machine: COMM_C/COMM1_C/COMM2_C require the
    # payload to be compressed; COMM/COMM1/COMM2 require it dense.
    compressed = False
    for action in actions:
        if action.task is ActionTask.COMP:
            if compressed:
                problems.append("double compression without decompression")
            compressed = True
        elif action.task is ActionTask.DECOMP:
            if not compressed:
                problems.append("decompression of a dense payload")
            compressed = False
        elif action.task in (ActionTask.COMM_C, ActionTask.COMM1_C, ActionTask.COMM2_C):
            if not compressed:
                problems.append(f"{action.describe()} on a dense payload")
        elif action.task in (ActionTask.COMM, ActionTask.COMM1, ActionTask.COMM2):
            if compressed:
                problems.append(f"{action.describe()} on a compressed payload")
    if compressed:
        problems.append("option ends with a compressed payload (no final decomp)")

    # Flat options must not touch hierarchical phases and vice versa.
    for action in actions:
        if option.flat and action.phase is not Phase.FLAT:
            problems.append(f"flat option contains {action.describe()}")
        if not option.flat and action.phase is Phase.FLAT:
            problems.append(f"hierarchical option contains {action.describe()}")

    # Ratio dimension: a pinned ratio must be a usable sparsity and only
    # makes sense on a path that actually compresses.
    if option.ratio is not None:
        if not 0.0 < option.ratio <= 1.0:
            problems.append(
                f"ratio must be in (0, 1], got {option.ratio}"
            )
        if not option.compresses:
            problems.append(
                "ratio pinned on a non-compressing option"
            )
    return problems
