"""Outside-in span tracing of the planner's layers.

Every wrapped target is listed once in :data:`TARGETS` as
``"module:Qualified.name"``.  :func:`install` replaces each target with a
wrapper that records a span -- target, start, end, thread, parent span,
request id -- on a per-thread stack held in memory.  A module-level
function is patched in its own module *and* in every loaded ``repro.*``
module that bound it by name (``espresso.py`` imports
``gpu_compression_decision`` that way); a method is patched on its class.
Nothing inside ``src/`` changes.

A span's parent is the innermost open span on the same thread, so spans
from different threads never nest.  A span with no request id of its
own inherits its parent's, which links an executor thread's planning
spans to the request that started them; a top-level one inherits the
last request id seen on its thread, which links the server's cache
lookup (``job_fingerprint``, ``StrategyCache.get``) to the
``build_job`` call just before it in the same event-loop step.
Coroutine functions get "async" spans: timed from call to completion,
never pushed on the stack (other coroutines run on the same thread
meanwhile), and never anyone's parent.

Spans recorded inside forked pool workers stay in those processes and
are lost; pool-level numbers come from the parent's ``EvaluatorStats``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

WORKLOADS = ("zoo", "portfolio", "serve-mix", "fleet-churn")
ALL = frozenset(WORKLOADS)
PORTFOLIO = frozenset({"portfolio"})
SERVE = frozenset({"serve-mix"})
FLEET = frozenset({"fleet-churn"})


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    Attributes:
        name: ``"module:Qualified.name"``.
        layer: report label; several targets may share one.
        workloads: workloads on which the span must fire (coverage).
        rid: ``(args, kwargs) -> request id`` for spans that start a
            request's work.
        info: ``(result, args) -> dict`` of counters kept on the span.
    """

    name: str
    layer: str
    workloads: FrozenSet[str] = ALL
    rid: Optional[Callable] = None
    info: Optional[Callable] = None


def _stats_info(result, args) -> dict:
    stats = result.stats
    return {
        "fs_calls": stats.fs_calls,
        "cache_hits": stats.cache_hits,
        "batch_candidates": stats.batch_candidates,
        "batch_pruned": stats.batch_pruned,
        "batch_dedup_hits": stats.batch_dedup_hits,
        "batch_fallbacks": stats.batch_fallbacks,
        "full_sims": stats.full_sims,
        "rebases": stats.rebases,
        "events_replayed": stats.events_replayed,
        "events_reused": stats.events_reused,
        "parallel_jobs": stats.parallel_jobs,
        "parallel_tasks": stats.parallel_tasks,
        "fanout_s": stats.fanout_seconds,
        "merge_s": stats.merge_seconds,
    }


def _offload_info(result, args) -> dict:
    return {"combinations": result.combinations, "exhaustive": result.exhaustive}


def _pass_info(result, args) -> dict:
    # Espresso._run_pipeline(self, pool, candidates, prefilter): a pass is
    # the ladder pass when its candidates carry pinned ratios.
    return {"ladder": any(option.ratio is not None for option in args[2])}


def _replan_info(result, args) -> dict:
    return {"full": result.used_full_planner, "within": result.within_budget}


def _apply_info(result, args) -> dict:
    return {
        "replans": len(result.replans),
        "degraded": sum(1 for replan in result.replans if replan.degraded),
    }


def _cache_info(result, args) -> dict:
    return {"hit": result is not None}


def _message_rid(args, kwargs):
    message = args[1] if len(args) > 1 else kwargs.get("message", kwargs.get("data"))
    return str(message.get("request_id", "")) if isinstance(message, dict) else None


def _payload_rid(args, kwargs):
    payload = args[0] if args else kwargs.get("payload")
    return str(payload.get("request_id", "")) if isinstance(payload, dict) else None


def _self_rid(args, kwargs):
    return args[0].request_id


def _request_rid(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return request.request_id


#: Every wrapped target, grouped by the package layer it belongs to.
TARGETS: Tuple[Target, ...] = (
    # core.espresso -- the planner entry and its portfolio passes.
    Target("repro.core.espresso:Espresso.__init__", "espresso"),
    Target("repro.core.espresso:Espresso.select_strategy", "espresso", info=_stats_info),
    Target("repro.core.espresso:Espresso._run_pipeline", "espresso", info=_pass_info),
    # core.algorithm / core.offload -- Algorithms 1 and 2, refinement.
    Target("repro.core.algorithm:gpu_compression_decision", "alg1"),
    Target("repro.core.algorithm:refinement_sweep", "refine"),
    Target("repro.core.offload:cpu_offload_decision", "alg2", info=_offload_info),
    # core.strategy -- the F(S) evaluator.
    Target("repro.core.strategy:StrategyEvaluator.price_options", "price"),
    Target("repro.core.strategy:StrategyEvaluator.iteration_time", "fs"),
    Target("repro.core.strategy:StrategyEvaluator.iteration_time_multi", "fs"),
    Target("repro.core.strategy:StrategyEvaluator.timeline", "fs", FLEET),
    # core.plan -- stage-chain compilation.
    Target("repro.core.plan:PlanCompiler.stages", "compile"),
    # sim -- incremental base runs and swaps, batch walk, lower bounds.
    # The batch walk needs six candidates of one tensor left after dedup
    # and pruning; that happens on no workload (nor on bert-base), so
    # none is required to fire it.  The portfolio prices candidates
    # inside its pool workers, whose spans are lost.
    Target("repro.sim.incremental:IncrementalSimulator.__init__", "sim"),
    Target("repro.sim.incremental:IncrementalSimulator.swap_chains_flat", "sim"),
    Target("repro.sim.batch:batch_swap_makespans", "sim", frozenset()),
    Target("repro.sim.batch:suffix_lower_bounds", "sim", ALL - PORTFOLIO),
    # Job building from wire specs (service.api) and tenant specs.
    Target("repro.service.api:PlanRequest.build_job", "jobs",
           ALL - FLEET, rid=_self_rid),
    Target("repro.cluster.tenancy:TenantSpec.job", "jobs", FLEET),
    # core.fusion and core.parallel -- the portfolio workload only.
    Target("repro.core.fusion:FusionPlanner.select_strategy", "fusion", PORTFOLIO),
    Target("repro.core.fusion:FusionPlanner._plan_candidate", "fusion", PORTFOLIO),
    Target("repro.core.fusion:candidate_plans", "fusion", PORTFOLIO),
    Target("repro.core.algorithm:fusion_boundary_sweep", "fusion", PORTFOLIO),
    Target("repro.core.parallel:EvaluatorPool.__init__", "parallel", PORTFOLIO),
    Target("repro.core.parallel:EvaluatorPool.close", "parallel", PORTFOLIO),
    # service -- inside the server process (serve_traced.py).
    Target("repro.service.server:PlanningServer.submit", "service",
           SERVE, rid=_message_rid),
    Target("repro.service.api:decode_message", "service", SERVE),
    Target("repro.service.api:PlanRequest.from_dict", "service",
           SERVE, rid=_message_rid),
    Target("repro.service.api:job_fingerprint", "service", SERVE),
    Target("repro.service.api:family_key", "service", SERVE),
    Target("repro.service.core:StrategyCache.get", "service", SERVE, info=_cache_info),
    Target("repro.service.core:PlanningCore.plan_request", "service",
           SERVE, rid=_request_rid),
    Target("repro.service.api:PlanResponse.to_dict", "service", SERVE, rid=_self_rid),
    Target("repro.service.api:encode_message", "service", SERVE, rid=_payload_rid),
    # core.fleet, cluster.tenancy, core.robust -- the fleet-churn workload.
    Target("repro.core.fleet:plan_fleet", "fleet", FLEET),
    Target("repro.core.fleet:evaluate_assignment", "fleet", FLEET),
    Target("repro.core.fleet:FleetChurnController.__init__", "fleet", FLEET),
    Target("repro.core.fleet:FleetChurnController.apply", "fleet", FLEET,
           info=_apply_info),
    Target("repro.cluster.tenancy:link_load", "tenancy", FLEET),
    Target("repro.cluster.tenancy:contention_models", "tenancy", FLEET),
    Target("repro.core.robust:DegradationTable.build", "robust", FLEET),
    Target("repro.core.robust:DegradationTable.replan", "robust", FLEET,
           info=_replan_info),
)

#: Modules imported before patching, so that every by-name binding of a
#: target already exists when :func:`install` scans for it.
_PRELOAD = (
    "repro.cli",
    "repro.core.espresso",
    "repro.core.fusion",
    "repro.core.fleet",
    "repro.core.robust",
    "repro.service.core",
    "repro.service.server",
)

# Fields of an exported span tuple.
TARGET, START, END, THREAD, PARENT, RID, INFO, ASYNC = range(8)


class _ThreadSpans:
    """One thread's spans, open-span stack and last request id.

    A span is a slot in ``spans``, filled with a tuple when it closes;
    ``PARENT`` is an index into the same list.  Closed tuples hold no
    containers, so the cyclic garbage collector soon stops scanning
    them however many a run records.
    """

    __slots__ = ("thread", "spans", "stack", "rid")

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.spans: List[Optional[tuple]] = []
        self.stack: List[Tuple[int, Optional[str]]] = []
        self.rid: Optional[str] = None


class Recorder:
    """In-memory span store, one :class:`_ThreadSpans` per thread."""

    def __init__(self) -> None:
        self.threads: List[_ThreadSpans] = []
        self.local = threading.local()

    def state(self) -> _ThreadSpans:
        try:
            return self.local.state
        except AttributeError:
            state = self.local.state = _ThreadSpans(threading.get_ident())
            self.threads.append(state)
            return state

    def export(self) -> List[tuple]:
        """Closed spans of every thread in one list of
        ``(target, start, end, thread, parent, rid, info, async)``
        tuples, ``parent`` indexing that list (-1 for none)."""
        exported = []
        for state in list(self.threads):
            # Spans still open (None) are dropped; renumber the rest.
            closed = [(i, span) for i, span in enumerate(list(state.spans)) if span]
            position = {i: len(exported) + n for n, (i, _) in enumerate(closed)}
            for _, (target, start, end, parent, rid, info, is_async) in closed:
                exported.append((
                    target, start, end, state.thread,
                    position.get(parent, -1), rid, info, is_async,
                ))
        return exported


def _wrap(fn: Callable, target_index: int, target: Target, recorder: Recorder):
    local = recorder.local
    now = time.perf_counter_ns
    rid_of = target.rid
    info_of = target.info

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = recorder.state()
            rid = rid_of(args, kwargs) if rid_of is not None else None
            if rid is not None:
                state.rid = rid
            spans = state.spans
            index = len(spans)
            spans.append(None)
            start = now()
            try:
                return await fn(*args, **kwargs)
            finally:
                spans[index] = (target_index, start, now(), -1, rid, None, True)

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            state = local.state
        except AttributeError:
            state = recorder.state()
        stack = state.stack
        parent, rid = stack[-1] if stack else (-1, state.rid)
        if rid_of is not None:
            own = rid_of(args, kwargs)
            if own is not None:
                rid = state.rid = own
        spans = state.spans
        index = len(spans)
        spans.append(None)
        stack.append((index, rid))
        start = now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = now()
            stack.pop()
            spans[index] = (target_index, start, end, parent, rid, None, False)
        if info_of is not None:
            spans[index] = (target_index, start, end, parent, rid,
                            info_of(result, args), False)
        return result

    return wrapper


def _resolve(name: str):
    """``(owner, attribute, raw value)`` of a ``module:Qual.name`` target."""
    module_name, qualname = name.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Installation:
    """The wrappers :func:`install` put in place; :meth:`uninstall` undoes them."""

    def __init__(self) -> None:
        self.patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: Recorder, targets: Sequence[Target] = TARGETS) -> Installation:
    """Wrap every target; a target that no longer resolves is listed in
    ``Installation.missing`` instead of failing the run."""
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    installation = Installation()
    for index, target in enumerate(targets):
        try:
            owner, attr, raw = _resolve(target.name)
        except (ImportError, AttributeError, KeyError):
            installation.missing.append(target.name)
            continue
        if isinstance(raw, classmethod):
            patched = classmethod(_wrap(raw.__func__, index, target, recorder))
        else:
            patched = _wrap(raw, index, target, recorder)
        installation.patches.append((owner, attr, raw))
        setattr(owner, attr, patched)
        if isinstance(owner, type):
            continue
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if (
                module is not owner
                and name.startswith("repro")
                and module.__dict__.get(attr) is raw
            ):
                installation.patches.append((module, attr, raw))
                setattr(module, attr, patched)
    return installation


# -- analysis ---------------------------------------------------------------


def self_times(spans: Sequence[tuple]) -> List[int]:
    """Each span's duration minus the time its child spans cover.

    Children run inside their parent on the parent's thread, one at a
    time, so the time they cover is the sum of their durations.
    """
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[i] for i, span in enumerate(spans)]


def summarize(
    spans: Sequence[tuple],
    ops: Sequence[Tuple[int, int, tuple, int]],
    since_ns: int = 0,
) -> dict:
    """Per-target totals of the spans starting at or after ``since_ns``,
    and how much op time the spans cover.

    ``ops`` are ``(start_ns, end_ns, key, waited_ns)``.  ``key`` is
    ``("thread", id)`` for an op run by a workload loop, whose covered
    time is that of the top-level spans inside it on its thread, or
    ``("rid", id)`` for a server request, covered by the top-level spans
    of that request on any thread.  ``waited_ns`` is time the op spent
    queued, which counts as accounted for.
    """
    selfs = self_times(spans)
    per_target: Dict[str, dict] = {}
    for span, self_ns in zip(spans, selfs):
        if span[START] < since_ns:
            continue
        name = TARGETS[span[TARGET]].name
        row = per_target.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0, "infos": []}
        )
        row["calls"] += 1
        row["total_ns"] += span[END] - span[START]
        if not span[ASYNC]:
            row["self_ns"] += self_ns
        if span[INFO] is not None:
            row["infos"].append(span[INFO])
    top: Dict[tuple, List[Tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] < 0 and not span[ASYNC]:
            interval = (span[START], span[END])
            top.setdefault(("thread", span[THREAD]), []).append(interval)
            top.setdefault(("rid", span[RID]), []).append(interval)
    op_ns = covered = 0
    for start, end, key, waited in ops:
        op_ns += end - start
        covered += waited + sum(
            min(e, end) - max(s, start)
            for s, e in top.get(key, ())
            if s < end and e > start
        )
    return {"targets": per_target, "op_ns": op_ns, "covered_ns": covered}


def layer_self_ns(summary: dict) -> Dict[str, int]:
    layers: Dict[str, int] = {}
    by_name = {target.name: target for target in TARGETS}
    for name, row in summary["targets"].items():
        layer = by_name[name].layer
        layers[layer] = layers.get(layer, 0) + row["self_ns"]
    return layers


def missing_spans(summary: dict, workload: str) -> List[str]:
    """Targets declared for ``workload`` that never fired."""
    fired = summary["targets"]
    return [
        target.name
        for target in TARGETS
        if workload in target.workloads and not fired.get(target.name, {}).get("calls")
    ]


def write_chrome_trace(spans: Sequence[tuple], path: str) -> None:
    """Write ``spans`` as chrome://tracing JSON (complete "X" events)."""
    base = min((span[START] for span in spans), default=0)
    pid = os.getpid()
    events = []
    for span in spans:
        target = TARGETS[span[TARGET]]
        events.append(
            {
                "name": target.name.split(":", 1)[1],
                "cat": target.layer,
                "ph": "X",
                "pid": pid,
                # Async spans overlap freely; give them their own track.
                "tid": f"async-{span[THREAD]}" if span[ASYNC] else span[THREAD],
                "ts": (span[START] - base) / 1e3,
                "dur": (span[END] - span[START]) / 1e3,
                "args": {"rid": span[RID]} if span[RID] else {},
            }
        )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
