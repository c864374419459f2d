"""Incremental re-simulation of chain substitutions (delta F(S)).

Espresso's planner evaluates thousands of candidate strategies that
differ from a resident *base* strategy in one (or a few) tensors:
Algorithm 1's GetBestOption loop, the refinement sweeps, and Lemma-1
offloading all generate single- or few-tensor replacements.  Replaying
the full discrete-event simulation from t=0 for every candidate wastes
the prefix the trial shares with the base run.

The scheduling model is deterministic FIFO-by-readiness (specified in
:mod:`repro.sim.engine`), so the trial trajectory is *identical* to the
base trajectory up to the first instant a swapped tensor's replacement
stages can enter a ready queue.  A chain's synchronization pipeline
becomes ready exactly when its backprop compute stage completes; a swap
that preserves the compute stage therefore cannot influence anything
scheduled before that completion.

:class:`IncrementalSimulator` runs the base chains once, snapshotting
the scheduler state (free workers, ready heaps, in-flight events,
makespan) at event-batch boundaries, and prices a candidate by restoring
the latest snapshot taken no later than the divergence instant and
replaying only the suffix.  The replay executes the same float
operations in the same order as a from-scratch (base) run of the trial
chains — which is what :func:`repro.sim.engine.simulate_makespan` is —
so the makespans are bit-identical; ``tests/sim/test_incremental.py``
and ``tests/sim/test_oracle.py`` check it against both.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

from repro.sim.engine import ScheduledStage, Timeline
from repro.sim.stages import COMM, CPU, RESOURCES, Stage, TensorChain

#: Scheduler snapshot: (free workers, ready heaps, in-flight events,
#: makespan so far, dispatch sequence counter, completions processed).
_Checkpoint = Tuple[List[int], List[list], list, float, int, int]

# Heap entries are packed 2-tuples to keep the event loop cheap:
#   ready:  (ready_time, rank)    rank = tensor << 40 | k << 30 | tid
#   events: (end_time, seq << 30 | tid)
# Tuple order is the scheduling model's (time, tensor, k, tid) /
# (end, seq, tid) order as long as every field fits its bit budget,
# which __init__ / swap_chains validate.
_TID_BITS = 30
_K_BITS = 10
_TID_MASK = (1 << _TID_BITS) - 1
_MAX_STAGES = 1 << _K_BITS
_MAX_TENSOR = 1 << 20


class IncrementalSimulator:
    """Replays one base simulation, then prices chain swaps by suffix.

    Args:
        chains: the base strategy's per-tensor stage chains, in backprop
            completion order (same contract as :func:`~repro.sim.engine.
            simulate`).
        cpu_capacity: parallel workers of the CPU compression pool.
        checkpoint_stride: minimum completions between two snapshots;
            defaults to ``max(1, num_tasks // 128)`` so snapshot copying
            stays a small fraction of the base simulation cost while a
            restore overshoots the ideal resume point by <1% of events.
        stats: optional object with ``events_full``, ``events_replayed``
            and ``events_reused`` counters (e.g. ``EvaluatorStats``) that
            the simulator increments in place.
    """

    def __init__(
        self,
        chains: Sequence[TensorChain],
        cpu_capacity: int = 1,
        checkpoint_stride: Optional[int] = None,
        stats=None,
    ):
        if not chains:
            raise ValueError("nothing to simulate")
        self._capacity = [
            max(1, cpu_capacity) if name == CPU else 1 for name in RESOURCES
        ]
        if len(self._capacity) != 4:
            # The replay dispatch scan is unrolled over the four sim
            # resources (gpu, cpu, intra, inter).
            raise ValueError("IncrementalSimulator expects exactly 4 resources")
        self._res_index = {name: i for i, name in enumerate(RESOURCES)}
        self.stats = stats

        # Flattened task arrays, one task per stage in chain order; the
        # base layout stays resident, swaps append scratch tasks past
        # ``_num_tasks`` to ``_durations`` and ``_post`` and truncate
        # them afterwards.
        durations: List[float] = []
        resources: List[int] = []
        tensors: List[int] = []
        ks: List[int] = []
        is_comm: List[bool] = []
        next_in_chain: List[int] = []
        compute_succ: List[int] = []
        rank: List[int] = []
        base: List[int] = []
        for chain in chains:
            base.append(len(durations))
            n_stages = len(chain.stages)
            if n_stages > _MAX_STAGES:
                raise ValueError(f"chain has more than {_MAX_STAGES} stages")
            if not 0 <= chain.tensor_index < _MAX_TENSOR:
                raise ValueError(
                    f"tensor index {chain.tensor_index} outside [0, {_MAX_TENSOR})"
                )
            for k, stage in enumerate(chain.stages):
                tid = len(durations)
                durations.append(stage.duration)
                resources.append(self._res_index[stage.resource])
                tensors.append(chain.tensor_index)
                ks.append(k)
                is_comm.append(stage.kind == COMM)
                rank.append(
                    chain.tensor_index << (_K_BITS + _TID_BITS)
                    | k << _TID_BITS
                    | tid
                )
                next_in_chain.append(tid + 1 if k + 1 < n_stages else -1)
                compute_succ.append(-1)
        for i in range(len(chains) - 1):
            compute_succ[base[i]] = base[i + 1]
        # The four ready heaps are *persistent* list objects: the base
        # run fills them, checkpoints store copies, and every replay
        # refills them in place via slice assignment.  Stable identity is
        # what lets each task precompute the actual heap object its
        # successors push into instead of resolving ``ready[resource]``
        # per event.
        self._ready: List[list] = [[] for _ in RESOURCES]
        ready = self._ready
        # Completion record per task, consumed by the event loops:
        # ``(resource, s1 heap, s1 rank, s2 heap, s2 rank)``, where s1 is
        # the task's pipeline successor and s2 — on compute stages — the
        # next chain's compute stage (heap ``None`` when absent).  One
        # list index + a C-level tuple unpack replaces chasing the
        # successor links through separate array lookups per completed
        # event in the replay hot path.
        post: List[tuple] = []
        for t in range(len(durations)):
            s1 = next_in_chain[t]
            s2 = compute_succ[t]
            post.append(
                (
                    resources[t],
                    ready[resources[s1]] if s1 >= 0 else None,
                    rank[s1] if s1 >= 0 else 0,
                    ready[resources[s2]] if s2 >= 0 else None,
                    rank[s2] if s2 >= 0 else 0,
                )
            )
        self._post = post
        self._durations = durations
        self._resources = resources
        self._tensors = tensors
        self._ks = ks
        self._is_comm = is_comm
        self._rank = rank
        self._base = base
        self._num_tasks = len(durations)
        self._num_chains = len(chains)
        self._chain_len = [
            (base[i + 1] if i + 1 < len(base) else len(durations)) - base[i]
            for i in range(len(base))
        ]
        #: (resource index, duration) of each chain's leading stage, for
        #: validating that a swap preserves it.
        self._stage0 = [
            (resources[t0], durations[t0]) for t0 in base
        ]
        #: Base completion time of every base task.  A swap diverges at
        #: the completion of the last stage the replacement chain shares
        #: with the resident chain — everything earlier is bit-identical.
        self._end_time = [0.0] * len(durations)
        #: Base dispatch time of every base task, recorded (not derived
        #: as ``end - duration``, which would reintroduce float rounding)
        #: so :meth:`base_timeline` can rebuild the full timeline without
        #: a second simulation.
        self._start_time = [0.0] * len(durations)
        self._chain_objs = list(chains)

        self._cp_times: List[float] = []
        self._checkpoints: List[_Checkpoint] = []
        #: Lazily built order-insensitive forms of each checkpoint's
        #: state, for the reconvergence early-exit of :meth:`_replay`.
        self._cp_state_keys: List[Optional[tuple]] = []
        if checkpoint_stride is None:
            checkpoint_stride = max(1, self._num_tasks // 128)
        self.base_makespan = self._run_base(max(1, checkpoint_stride))

    # -- base simulation -------------------------------------------------

    def _run_base(self, stride: int) -> float:
        durations = self._durations
        resources = self._resources
        rank = self._rank
        post = self._post
        end_time = self._end_time
        start_time = self._start_time
        heappush = heapq.heappush
        heappop = heapq.heappop
        tid_mask = _TID_MASK
        n_res = len(RESOURCES)

        free = self._capacity.copy()
        ready = self._ready
        events: list = []
        seq = 0
        ready[resources[0]].append((0.0, rank[0]))
        # Initial dispatch at t=0.  Event entries are
        # ``(end, seq << _TID_BITS | tid)``: dispatch sequence numbers
        # are unique, so the packed tie-break orders exactly like an
        # ``(end, seq, tid)`` triple while the heap moves cheaper
        # 2-tuples.
        for r in range(n_res):
            heap = ready[r]
            while heap and free[r] > 0:
                tid = heappop(heap)[1] & tid_mask
                free[r] -= 1
                seq += 1
                heappush(events, (durations[tid], seq << _TID_BITS | tid))

        makespan = 0.0
        events_done = 0
        need_cp = True
        last_cp_events = 0
        prev_now = -1.0
        while events:
            now = events[0][0]
            # Snapshot only before the *first* batch at a new instant:
            # zero-duration tasks make several batches share one time,
            # and a mid-instant snapshot would capture completions
            # already processed with the base successor arrays — a
            # restore at exactly the divergence instant would then skip
            # the swap.  One snapshot per instant also keeps the times
            # strictly increasing.
            if now != prev_now and (
                need_cp or events_done - last_cp_events >= stride
            ):
                self._cp_times.append(now)
                self._checkpoints.append(
                    (
                        free.copy(),
                        [h.copy() for h in ready],
                        events.copy(),
                        makespan,
                        seq,
                        events_done,
                    )
                )
                self._cp_state_keys.append(None)
                need_cp = False
                last_cp_events = events_done
            prev_now = now
            if now > makespan:
                makespan = now
            while events and events[0][0] == now:
                tid = heappop(events)[1] & tid_mask
                events_done += 1
                end_time[tid] = now
                r, h1, rk1, h2, rk2 = post[tid]
                free[r] += 1
                if h1 is not None:
                    heappush(h1, (now, rk1))
                if h2 is not None:
                    heappush(h2, (now, rk2))
            for r in range(n_res):
                heap = ready[r]
                while heap and free[r] > 0:
                    tid = heappop(heap)[1] & tid_mask
                    free[r] -= 1
                    seq += 1
                    start_time[tid] = now
                    heappush(events, (now + durations[tid], seq << _TID_BITS | tid))

        self.base_events = events_done
        if self.stats is not None:
            self.stats.events_full += events_done
        return makespan

    def base_timeline(self) -> Timeline:
        """The base run's full timeline, rebuilt from the resident arrays.

        This is what ``engine.simulate(chains)`` returns: every ``start``
        and ``end`` is the exact float the base event loop produced, and
        a stage's ``ready`` is its predecessor's completion (0.0 for the
        first backprop stage) — the instant the stage entered its ready
        queue.  Costs one pass over the tasks instead of a second,
        record-collecting simulation.
        """
        start_time = self._start_time
        end_time = self._end_time
        scheduled = []
        prev_compute_end = 0.0
        for i, chain in enumerate(self._chain_objs):
            t0 = self._base[i]
            ready = prev_compute_end
            for k, stage in enumerate(chain.stages):
                tid = t0 + k
                scheduled.append(
                    ScheduledStage(
                        tensor_index=chain.tensor_index,
                        stage_index=k,
                        resource=stage.resource,
                        kind=stage.kind,
                        label=stage.label,
                        duration=stage.duration,
                        ready=ready,
                        start=start_time[tid],
                        end=end_time[tid],
                    )
                )
                ready = end_time[tid]
            prev_compute_end = end_time[t0]
        scheduled.sort(key=lambda s: (s.start, s.tensor_index, s.stage_index))
        return Timeline(stages=tuple(scheduled), makespan=self.base_makespan)

    def task_view(
        self,
    ) -> Tuple[
        List[int], List[int], List[int], List[float], List[float], List[bool]
    ]:
        """Parallel per-task arrays of the base schedule, for flat
        analyses that do not need :class:`ScheduledStage` objects:
        ``(tensors, stage_indexes, resource_indexes, starts, ends,
        comm_flags)``.  Starts and ends are the exact event-loop floats.
        The lists are the live resident arrays — callers must not mutate
        them or hold them across a rebase.
        """
        return (
            self._tensors,
            self._ks,
            self._resources,
            self._start_time,
            self._end_time,
            self._is_comm,
        )

    # -- swaps -----------------------------------------------------------

    def swap_chain(self, index: int, stages: Sequence[Stage]) -> float:
        """Makespan with chain ``index`` replaced by ``stages``.

        ``stages[0]`` must equal the base chain's leading (compute)
        stage — that is what makes the shared prefix sound.  The base
        arrays are restored before returning, so swaps never accumulate.
        """
        return self.swap_chains(((index, stages),))

    def swap_chains(
        self, replacements: Sequence[Tuple[int, Sequence[Stage]]]
    ) -> float:
        """Makespan with several chains replaced at once.

        The resumable prefix is bounded by the *earliest* swapped
        chain's compute completion; a single-chain swap therefore reuses
        the most.
        """
        res_index = self._res_index
        return self.swap_chains_flat(
            [
                (
                    pos,
                    [res_index[s.resource] for s in stages],
                    [s.duration for s in stages],
                )
                for pos, stages in replacements
            ]
        )

    def swap_chains_flat(
        self,
        replacements: Sequence[Tuple[int, Sequence[int], Sequence[float]]],
    ) -> float:
        """:meth:`swap_chains` with pre-flattened replacement chains.

        Each replacement is ``(index, resource_indices, durations)`` —
        two parallel lists over the stages, resources already mapped
        through the :data:`~repro.sim.stages.RESOURCES` order.  The
        planner's evaluator caches these per (option, tensor) so the hot
        loop never touches :class:`Stage` objects.
        """
        if not replacements:
            return self.base_makespan
        durations = self._durations
        resources = self._resources
        post = self._post
        ready = self._ready
        n_base = self._num_tasks
        seen = set()
        # (tlast, its base completion record) for every applied swap.
        saved: List[Tuple[int, tuple]] = []
        t_influence = float("inf")
        guard: Optional[set] = set() if len(replacements) > 1 else None
        try:
            for pos, new_res, new_dur in replacements:
                if not 0 <= pos < self._num_chains:
                    raise ValueError(f"chain index {pos} out of range")
                if pos in seen:
                    raise ValueError(f"duplicate swap of chain {pos}")
                seen.add(pos)
                if not new_res:
                    raise ValueError("a chain needs at least one stage")
                n_stages = len(new_res)
                if n_stages > _MAX_STAGES:
                    raise ValueError(f"chain has more than {_MAX_STAGES} stages")
                r0, d0 = self._stage0[pos]
                if new_res[0] != r0 or new_dur[0] != d0:
                    raise ValueError(
                        "swap must preserve the chain's leading compute stage"
                    )
                t0 = self._base[pos]
                old_len = self._chain_len[pos]
                # Length of the stage prefix the replacement shares with
                # the resident chain (resource and duration equal at the
                # same position).  The trial trajectory is bit-identical
                # to the base until the first *differing* stage becomes
                # ready — the completion of the last shared stage — so
                # only stages[m:] need scratch tasks and the replay can
                # resume that much later.
                m = 1
                limit = old_len if old_len < n_stages else n_stages
                while m < limit:
                    t = t0 + m
                    if resources[t] != new_res[m] or durations[t] != new_dur[m]:
                        break
                    m += 1
                if m == old_len and m == n_stages:
                    continue  # identical chain: no-op replacement
                tlast = t0 + m - 1
                old_post = post[tlast]
                saved.append((tlast, old_post))
                if guard is not None:
                    guard.add(tlast)
                end_last = self._end_time[tlast]
                if end_last < t_influence:
                    t_influence = end_last
                n_new = n_stages - m
                start_id = len(durations)
                if start_id + n_new > _TID_MASK:
                    raise ValueError("too many scratch tasks for the rank encoding")
                if n_new:
                    # Scratch task ``start_id + k - m`` runs stage k and
                    # enters ready heap and rank ``targets[k - m]``; its
                    # completion record pushes the next scratch task
                    # (the last one pushes nothing).
                    durations += new_dur[m:]
                    tensor_bits = self._tensors[t0] << (_K_BITS + _TID_BITS)
                    targets = [
                        (
                            ready[new_res[k]],
                            tensor_bits | k << _TID_BITS | (start_id + k - m),
                        )
                        for k in range(m, n_stages)
                    ]
                    for k in range(m, n_stages - 1):
                        post.append((new_res[k], *targets[k + 1 - m], None, 0))
                    post.append((new_res[n_stages - 1], None, 0, None, 0))
                    s1_heap, s1_rank = targets[0]
                else:
                    s1_heap, s1_rank = None, 0
                post[tlast] = (old_post[0], s1_heap, s1_rank, *old_post[3:])
            if not saved:
                return self.base_makespan
            ci = bisect_right(self._cp_times, t_influence) - 1
            return self._replay(ci, guard)
        finally:
            del durations[n_base:]
            del post[n_base:]
            for tlast, old_post in saved:
                post[tlast] = old_post

    def _state_key(self, ci: int) -> tuple:
        """Order-insensitive form of checkpoint ``ci``'s scheduler state.

        Dispatch sequence numbers are dropped on purpose: they only
        break ties between same-instant completions, which are all
        drained before any dispatch, so they cannot influence scheduling.
        """
        key = self._cp_state_keys[ci]
        if key is None:
            cp_free, cp_ready, cp_events = self._checkpoints[ci][:3]
            key = (
                frozenset(
                    (end, packed & _TID_MASK) for end, packed in cp_events
                ),
                tuple(frozenset(h) for h in cp_ready),
            )
            self._cp_state_keys[ci] = key
        return key

    def _replay(self, ci: int, guard: Optional[set]) -> float:
        durations = self._durations
        post = self._post
        heappush = heapq.heappush
        heappop = heapq.heappop
        tid_mask = _TID_MASK
        tid_bits = _TID_BITS
        cp_times = self._cp_times
        n_cps = len(cp_times)
        inf = float("inf")

        cp_free, cp_ready, cp_events, makespan, seq, cp_events_done = (
            self._checkpoints[ci]
        )
        free = cp_free.copy()
        # Refill the persistent ready heaps in place (their identity is
        # what the s1/s2 successor-heap arrays point at).  The dispatch
        # scan below is unrolled over the four resources, so each batch
        # costs four truthiness tests instead of a loop with subscripts.
        ready = self._ready
        ready0, ready1, ready2, ready3 = ready
        ready0[:] = cp_ready[0]
        ready1[:] = cp_ready[1]
        ready2[:] = cp_ready[2]
        ready3[:] = cp_ready[3]
        events = cp_events.copy()
        seq0 = seq
        in_flight0 = len(events)
        # Reconvergence tests start at the *next* checkpoint: at the
        # restore point the copied state trivially equals the base state
        # even though the trial's successor arrays already diverge.
        ci += 1
        next_cp = cp_times[ci] if ci < n_cps else inf
        now = makespan
        while events:
            now = events[0][0]
            # Reconvergence early-exit: once every swapped chain's
            # leading stage has completed (``guard`` drained; always true
            # for single swaps past the restore point), a trial state
            # identical to the base state snapshotted at the same instant
            # evolves identically forever — the answer is the base
            # makespan and the tail need not be replayed.
            if next_cp <= now:
                while ci < n_cps and cp_times[ci] < now:
                    ci += 1
                if ci < n_cps and cp_times[ci] == now and not guard:
                    bcp = self._checkpoints[ci]
                    bready = bcp[1]
                    if (
                        free == bcp[0]
                        and len(events) == len(bcp[2])
                        and len(ready0) == len(bready[0])
                        and len(ready1) == len(bready[1])
                        and len(ready2) == len(bready[2])
                        and len(ready3) == len(bready[3])
                    ):
                        key = self._state_key(ci)
                        kready = key[1]
                        if (
                            frozenset(
                                (end, packed & tid_mask)
                                for end, packed in events
                            )
                            == key[0]
                            and frozenset(ready3) == kready[3]
                            and frozenset(ready2) == kready[2]
                            and frozenset(ready1) == kready[1]
                            and frozenset(ready0) == kready[0]
                        ):
                            if self.stats is not None:
                                self.stats.events_replayed += (
                                    in_flight0 + (seq - seq0) - len(events)
                                )
                                self.stats.events_reused += cp_events_done + (
                                    self.base_events - bcp[5]
                                )
                            return self.base_makespan
                    ci += 1
                next_cp = cp_times[ci] if ci < n_cps else inf
            if guard:
                while events and events[0][0] == now:
                    tid = heappop(events)[1] & tid_mask
                    if tid in guard:
                        guard.discard(tid)
                    r, h1, rk1, h2, rk2 = post[tid]
                    free[r] += 1
                    if h1 is not None:
                        heappush(h1, (now, rk1))
                    if h2 is not None:
                        heappush(h2, (now, rk2))
            else:
                while events and events[0][0] == now:
                    tid = heappop(events)[1] & tid_mask
                    r, h1, rk1, h2, rk2 = post[tid]
                    free[r] += 1
                    if h1 is not None:
                        heappush(h1, (now, rk1))
                    if h2 is not None:
                        heappush(h2, (now, rk2))
            if ready0 and free[0]:
                fr = free[0]
                while ready0 and fr:
                    tid = heappop(ready0)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[0] = fr
            if ready1 and free[1]:
                fr = free[1]
                while ready1 and fr:
                    tid = heappop(ready1)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[1] = fr
            if ready2 and free[2]:
                fr = free[2]
                while ready2 and fr:
                    tid = heappop(ready2)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[2] = fr
            if ready3 and free[3]:
                fr = free[3]
                while ready3 and fr:
                    tid = heappop(ready3)[1] & tid_mask
                    fr -= 1
                    seq += 1
                    heappush(events, (now + durations[tid], seq << tid_bits | tid))
                free[3] = fr
        if self.stats is not None:
            self.stats.events_replayed += in_flight0 + (seq - seq0)
            self.stats.events_reused += cp_events_done
        # Batch times pop from the event heap in non-decreasing order,
        # so the last one is the makespan (the checkpoint's running
        # makespan is strictly below its own time, hence below ``now``).
        return now if now > makespan else makespan
