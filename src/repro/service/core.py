"""Execution layer shared by the CLI and the planning server.

:class:`PlanningCore` is the one place a plan request becomes a plan:
``repro plan`` calls it inline, the asyncio server calls it from
executor threads.  Both paths run the identical
:class:`~repro.core.espresso.Espresso` invocation, which is what makes
the service's non-degraded responses bit-identical to the CLI on the
same inputs (the load harness asserts exactly this).

:class:`StrategyCache` memoizes finished plans by canonical job
fingerprint (exact hits, served as non-degraded ``cache`` responses)
and keeps a per-(model, GC)-family index so the circuit breaker's
degradation ladder can serve a *stale* plan — same model and
compressor, decided under different cluster conditions — when the real
planner is unavailable.

:func:`heuristic_plan` is the ladder's last plan-shaped rung: an
alpha-beta greedy built on :func:`~repro.core.fusion.estimate_alpha_beta`'s
link fit.  It compresses exactly the tensors whose bandwidth saving
clearly clears the extra launch cost, prices the result with one F(S)
call, and never returns anything worse than FP32.

The ``run_systems`` / ``validate_suite`` helpers used by ``repro
compare`` and ``repro validate`` live here too (moved from ``cli.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.config import JobConfig
from repro.core import Espresso
from repro.core.fusion import estimate_alpha_beta
from repro.core.options import Device
from repro.core.presets import inter_allgather_option
from repro.core.strategy import (
    CompressionStrategy,
    StrategyEvaluator,
    baseline_strategy,
)
from repro.core.conformance import validate_strategy
from repro.service.api import (
    FleetRequest,
    PlanRequest,
    family_key,
    job_fingerprint,
    strategy_digest,
)


@dataclass
class CacheEntry:
    """One finished plan, in both in-process and wire-safe forms.

    ``strategy`` is the live object (reusable inside this process);
    ``options_text`` / ``digest`` are the ``describe()``-based forms
    that survive the wire (see :func:`repro.service.api.strategy_digest`).
    """

    fingerprint: str
    family: str
    model_name: str
    strategy: CompressionStrategy
    digest: str
    options_text: Tuple[str, ...]
    iteration_time: float
    baseline_iteration_time: float
    hits: int = 0

    @property
    def num_tensors(self) -> int:
        return len(self.strategy)

    @property
    def compressed_tensors(self) -> int:
        return len(self.strategy.compressed_indices)


def make_entry(
    job: JobConfig,
    strategy: CompressionStrategy,
    iteration_time: float,
    baseline_iteration_time: float,
    fingerprint: Optional[str] = None,
    family: Optional[str] = None,
) -> CacheEntry:
    """Package a finished plan for the cache and the wire."""
    return CacheEntry(
        fingerprint=(
            fingerprint if fingerprint is not None else job_fingerprint(job)
        ),
        family=family if family is not None else family_key(job),
        model_name=job.model.name,
        strategy=strategy,
        digest=strategy_digest(strategy),
        options_text=tuple(o.describe() for o in strategy.options),
        iteration_time=iteration_time,
        baseline_iteration_time=baseline_iteration_time,
    )


class StrategyCache:
    """LRU plan cache with a stale-serving family index.

    Exact lookups key on the canonical job fingerprint and are *not*
    degradation — the cached plan is the plan a fresh run would select
    (planning is deterministic).  ``get_stale`` is the degraded path:
    it returns the most recently cached plan for the same
    (model, GC) family regardless of cluster, for the breaker-open
    window where a structurally-sensible plan now beats an optimal
    plan later.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._family: "OrderedDict[str, str]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale_hits = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        """Membership without touching the hit/miss accounting."""
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> Optional[CacheEntry]:
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        entry.hits += 1
        self.hits += 1
        return entry

    def get_stale(self, family: str) -> Optional[CacheEntry]:
        """The newest cached plan for this (model, GC) family, if any.

        Does not touch hit/miss accounting for exact lookups; stale
        serves are counted separately because they are degraded.
        """
        fingerprint = self._family.get(family)
        if fingerprint is None:
            return None
        entry = self._entries.get(fingerprint)
        if entry is None:
            # The member this family pointed at was evicted.
            del self._family[family]
            return None
        self.stale_hits += 1
        return entry

    def put(self, entry: CacheEntry) -> None:
        self._entries[entry.fingerprint] = entry
        self._entries.move_to_end(entry.fingerprint)
        self._family[entry.family] = entry.fingerprint
        while len(self._entries) > self.max_entries:
            evicted_fp, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            if self._family.get(evicted.family) == evicted_fp:
                del self._family[evicted.family]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "stale_hits": self.stale_hits,
            "evictions": self.evictions,
        }


class PlanningCore:
    """The one door to the planner for every entry point.

    ``check`` mirrors the CLI flag; a server and a CLI invocation
    configured the same way run byte-for-byte the same selection.
    """

    def __init__(
        self,
        check: bool = False,
        ratios: Optional[Sequence[float]] = None,
        error_budget: Optional[float] = None,
    ) -> None:
        self.check = check
        #: Default ratio-ladder knobs applied to every plan; a wire
        #: request carrying its own values overrides them per call.
        self.ratios = tuple(ratios) if ratios else None
        self.error_budget = error_budget

    def plan_job_detailed(
        self,
        job: JobConfig,
        cancel_check: Optional[Callable[[], None]] = None,
        ratios: Optional[Sequence[float]] = None,
        error_budget: Optional[float] = None,
    ):
        """Run the full Espresso selection; return ``(planner, result)``.

        The CLI's ``--check`` path needs the planner back (its evaluator
        carries the timelines-checked counter and the warm memo cache
        the post-selection audit reuses); everything else should call
        :meth:`plan_job`.

        ``cancel_check`` (typically ``CancelToken.check``) is installed
        on the evaluator so deadline expiry aborts the selection from
        inside its innermost pricing loops.
        """
        planner = Espresso(
            job,
            check=self.check,
            ratios=self.ratios if ratios is None else tuple(ratios),
            error_budget=(
                self.error_budget if error_budget is None else error_budget
            ),
        )
        if cancel_check is not None:
            planner.evaluator.cancel_check = cancel_check
        return planner, planner.select_strategy()

    def plan_job(
        self,
        job: JobConfig,
        cancel_check: Optional[Callable[[], None]] = None,
        ratios: Optional[Sequence[float]] = None,
        error_budget: Optional[float] = None,
    ):
        """Run the full Espresso selection for ``job``."""
        return self.plan_job_detailed(
            job,
            cancel_check=cancel_check,
            ratios=ratios,
            error_budget=error_budget,
        )[1]

    def plan_request(
        self,
        request: PlanRequest,
        cancel_check: Optional[Callable[[], None]] = None,
    ) -> CacheEntry:
        """Fresh plan for a wire request, packaged for cache + response."""
        job = request.build_job()
        result = self.plan_job(
            job,
            cancel_check=cancel_check,
            ratios=tuple(request.ratios) if request.ratios else None,
            error_budget=request.error_budget,
        )
        return make_entry(
            job,
            result.strategy,
            result.iteration_time,
            result.baseline_iteration_time,
            fingerprint=request.fingerprint(job),
        )

    def plan_fleet_request(
        self,
        request: FleetRequest,
        cancel_check: Optional[Callable[[], None]] = None,
    ):
        """Full joint fleet plan for a wire request.

        Same configuration contract as :meth:`plan_job_detailed`: the
        server and ``repro fleet`` run the identical
        :func:`~repro.core.fleet.plan_fleet` invocation, with the
        cancel seam threaded into every planner and evaluator so the
        deadline fires inside the pricing loops.
        """
        from repro.core.fleet import plan_fleet

        return plan_fleet(
            request.build_fleet(),
            max_rounds=request.max_rounds,
            check=self.check,
            cancel_check=cancel_check,
        )


def heuristic_fleet(fleet):
    """Degraded fleet plan: one heuristic rung per tenant, fairly priced.

    The fleet analogue of :func:`heuristic_plan` for the server's
    degradation ladder: each tenant gets the alpha-beta greedy plan
    (milliseconds, no planner), and the assignment is then priced under
    its own contention by the same one-shot evaluation the joint
    planner uses — so the degraded response's numbers mean the same
    thing as a fresh one's, just for a worse assignment.

    Returns a :class:`~repro.core.fleet.FleetPlanResult` with
    ``mode="heuristic"``.
    """
    from repro.core.fleet import (
        FleetPlanResult,
        TenantPlan,
        evaluate_assignment,
    )

    jobs_by_name = fleet.jobs()
    strategies = {
        name: heuristic_plan(job)[0] for name, job in jobs_by_name.items()
    }
    evaluation = evaluate_assignment(fleet, strategies)
    tenants = tuple(
        TenantPlan(
            name=name,
            model=jobs_by_name[name].model.name,
            strategy=strategies[name],
            nominal_time=evaluation.nominal_times[name],
            contended_time=evaluation.contended_times[name],
            throughput=evaluation.throughputs[name],
            contention=evaluation.models[name],
            source="heuristic",
        )
        for name in sorted(jobs_by_name)
    )
    return FleetPlanResult(
        fleet=fleet,
        tenants=tenants,
        mode="heuristic",
        converged=False,
        oscillated=False,
        rounds=0,
        aggregate_throughput=evaluation.aggregate_throughput,
        selfish_aggregate_throughput=evaluation.aggregate_throughput,
        timelines_checked=evaluation.timelines_checked,
        plan_seconds=0.0,
    )


def heuristic_plan(
    job: JobConfig,
) -> Tuple[CompressionStrategy, float, float]:
    """Alpha-beta greedy fallback plan (degradation ladder, last rung).

    Fits the link's per-message cost ``alpha + beta * elements``
    (:func:`~repro.core.fusion.estimate_alpha_beta`), then compresses on
    the GPU exactly the tensors whose bandwidth saving
    ``beta * elements * (1 - kept_fraction)`` clears twice the launch
    overhead a compressed pipeline adds (its two-hop collective costs
    roughly two extra launches).  One F(S) call prices the result;
    whichever of {greedy, FP32} is faster is returned, so the fallback
    is never worse than not compressing.

    Returns ``(strategy, iteration_time, baseline_iteration_time)``.
    Cost: one alpha-beta fit plus at most two timeline evaluations —
    milliseconds, independent of the planner's search space.
    """
    baseline = baseline_strategy(job.model.num_tensors)
    evaluator = StrategyEvaluator(job)
    baseline_time = evaluator.iteration_time(baseline)
    alpha, beta = estimate_alpha_beta(job)
    if beta <= 0.0:
        # Single GPU (or a degenerate link fit): no collective runs, so
        # compression has nothing to save.
        return baseline, baseline_time, baseline_time
    compressor = job.build_compressor()
    option = inter_allgather_option(Device.GPU)
    strategy = baseline
    for index, tensor in enumerate(job.model.tensors):
        kept = compressor.compressed_nbytes(tensor.num_elements) / tensor.nbytes
        saved = beta * tensor.num_elements * max(0.0, 1.0 - kept)
        if saved > 2.0 * alpha:
            strategy = strategy.replace(index, option)
    if not strategy.compressed_indices:
        return baseline, baseline_time, baseline_time
    iteration_time = evaluator.iteration_time(strategy)
    if iteration_time >= baseline_time:
        return baseline, baseline_time, baseline_time
    return strategy, iteration_time, baseline_time


def run_systems(job: JobConfig, systems: Sequence) -> List:
    """Each system's BaselineResult, in ``systems`` order."""
    return [system_cls().run(job) for system_cls in systems]


def validate_suite(job: JobConfig, named: Sequence, oracle: bool) -> List:
    """Conformance reports for the ``named`` strategies, in order."""
    evaluator = StrategyEvaluator(job)
    return [
        validate_strategy(evaluator, strategy, name=name, oracle=oracle)
        for name, strategy in named
    ]


__all__ = [
    "CacheEntry",
    "PlanningCore",
    "StrategyCache",
    "heuristic_fleet",
    "heuristic_plan",
    "make_entry",
    "run_systems",
    "validate_suite",
]
