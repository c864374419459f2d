"""Planner-as-a-service layer (DESIGN.md §5.9).

The CLI's plan/compare/validate entry points and the ``repro serve``
asyncio server share one execution core, so a served plan and a
CLI-selected plan for the same job are the same plan, bit for bit.

Modules:

* :mod:`repro.service.api` — wire vocabulary: requests, responses,
  canonical job fingerprints, cross-process strategy digests.
* :mod:`repro.service.core` — the execution layer: PlanningCore,
  the LRU strategy cache with stale-family index, the alpha-beta
  heuristic fallback, and the compare/validate suite helpers.
* :mod:`repro.service.resilience` — deadlines, cancel tokens, retry
  backoff, the circuit breaker, and seeded chaos injection.
* :mod:`repro.service.server` — the asyncio JSON-lines server with
  admission control, retries, circuit-broken degradation, health
  introspection, and graceful drain.
"""

from repro.service.api import (
    PlanRequest,
    PlanResponse,
    RequestError,
    family_key,
    job_fingerprint,
    strategy_digest,
)
from repro.service.core import (
    CacheEntry,
    PlanningCore,
    StrategyCache,
    heuristic_plan,
    run_systems,
    validate_suite,
)
from repro.service.resilience import (
    CancelToken,
    ChaosSchedule,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    EvaluatorWorkerError,
    RetryPolicy,
)
from repro.service.server import PlanningServer, ServerConfig, serve

__all__ = [
    "CacheEntry",
    "CancelToken",
    "ChaosSchedule",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "EvaluatorWorkerError",
    "PlanningCore",
    "PlanningServer",
    "PlanRequest",
    "PlanResponse",
    "RequestError",
    "RetryPolicy",
    "ServerConfig",
    "StrategyCache",
    "family_key",
    "heuristic_plan",
    "job_fingerprint",
    "run_systems",
    "serve",
    "strategy_digest",
    "validate_suite",
]
