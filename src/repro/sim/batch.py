"""Sound lower bounds on single-chain swaps (DESIGN.md §5.7).

GetBestOption and the refinement sweeps price *every* candidate option
of one tensor against the same resident base strategy and keep the
minimum.  :func:`suffix_lower_bounds` bounds all of a tensor's
candidates from below in one numpy pass over the base schedule, so
``StrategyEvaluator.price_options`` can skip the candidates that
provably cannot win and replay only the rest
(:meth:`~repro.sim.incremental.IncrementalSimulator.swap_chains_flat`,
which may still cut a replay once the backprop critical path shows the
candidate loses).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.incremental import LB_MARGIN, IncrementalSimulator

#: A candidate replacement chain in the evaluator's pre-flattened form:
#: parallel (resource index, duration) lists over the stages.
FlatChain = Tuple[Sequence[int], Sequence[float]]


def _sim_arrays(sim: IncrementalSimulator) -> dict:
    """Numpy mirrors of the simulator's (static) base arrays, cached on
    the instance.  A rebase builds a new simulator, so the cache can
    never go stale."""
    cache = getattr(sim, "_batch_arrays", None)
    if cache is None:
        cache = {
            "start": np.array(sim._start_time, dtype=np.float64),
            "end": np.array(sim._end_time, dtype=np.float64),
            "dur": np.array(sim._durations, dtype=np.float64),
            "res": np.array(sim._resources, dtype=np.int64),
        }
        sim._batch_arrays = cache
    return cache


def suffix_lower_bounds(
    sim: IncrementalSimulator, index: int, variants: Sequence[FlatChain]
) -> List[float]:
    """Sound per-candidate lower bounds on the swapped makespan.

    For each candidate replacement chain of tensor ``index``, computes a
    bound provably <= ``sim.swap_chains_flat([(index, vres, vdur)])`` in
    one numpy pass over the base arrays — no replay, no ordering
    assumptions (zero-duration stages are fine).

    Derivation.  Let ``t_cut`` be the completion of the chain's compute
    stage: the trial schedule is identical to the base *before* t_cut
    (the swap's first differing task only becomes ready at t_cut, and
    the engine processes instants monotonically), so every other task is
    either *pre* (base start < t_cut, times frozen) or *post* (trial
    start >= t_cut).  On a capacity-1 resource all post tasks serialize
    after the last pre task's end ``E_r`` (non-overlap + start order),
    hence ``makespan >= max(t_cut, E_r) + sum(post durations)``; on a
    W-worker resource the window argument gives ``makespan >= t_cut +
    sum(post durations)/W``.  Post work counts the base's post tasks
    minus the replaced old tail plus the candidate's stages; the
    candidate chain itself also bounds via its serial dependency from
    t_cut.  ``makespan >= max(pre ends)`` always.  All inputs are exact
    engine floats; only the duration sums introduce rounding, which
    :data:`~repro.sim.incremental.LB_MARGIN` absorbs.

    (A strictly stronger release-date relaxation — per-task earliest
    -ready bounds via frozen ancestors, maximized over thresholds — was
    prototyped and measured: on this engine's schedules the extra
    tightness never exceeded the contention bubbles it cannot model, so
    it pruned nothing the work bound missed while costing ~15x more per
    call.  The cheap bound is the right trade.)
    """
    arrays = _sim_arrays(sim)
    t0 = sim._base[index]
    old_len = sim._chain_len[index]
    t_cut = sim._end_time[t0]
    start = arrays["start"]
    end = arrays["end"]
    dur = arrays["dur"]
    res = arrays["res"]
    caps = sim._capacity
    n_res = len(caps)

    pre = start < t_cut
    post = ~pre
    post_work = np.bincount(res[post], weights=dur[post], minlength=n_res)
    for t in range(t0 + 1, t0 + old_len):  # replaced old tail
        post_work[sim._resources[t]] -= sim._durations[t]
    prefix_max = float(end[pre].max()) if pre.any() else 0.0
    if prefix_max < t_cut:
        prefix_max = t_cut
    # R[r]: earliest instant resource r can run post work.
    R = [t_cut] * n_res
    for r in range(n_res):
        if caps[r] == 1:
            mask = pre & (res == r)
            if mask.any():
                e = float(end[mask].max())
                if e > t_cut:
                    R[r] = e

    base_post = post_work.tolist()
    bounds = []
    for vres, vdur in variants:
        lb = prefix_max
        cand_work = [0.0] * n_res
        tail = 0.0
        for r, d in zip(vres[1:], vdur[1:]):
            cand_work[r] += d
            tail += d
        for r in range(n_res):
            work = base_post[r] + cand_work[r]
            if work > 0.0:
                if caps[r] == 1:
                    b = R[r] + work
                else:
                    b = t_cut + work / caps[r]
                if b > lb:
                    lb = b
        if tail > 0.0:
            r1 = vres[1]
            b = (R[r1] if caps[r1] == 1 else t_cut) + tail
            if b > lb:
                lb = b
        bounds.append(lb - lb * LB_MARGIN)
    return bounds
