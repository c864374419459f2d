"""Planner-as-a-service layer (DESIGN.md §5.9).

``repro plan`` and the ``repro serve`` asyncio server share one
execution core, so a served plan and a CLI-selected plan for the same
job are the same plan, bit for bit.

Modules:

* :mod:`repro.service.api` — wire vocabulary: requests, responses,
  canonical job fingerprints, cross-process strategy digests.
* :mod:`repro.service.core` — the execution layer: PlanningCore,
  the LRU strategy cache with stale-family index, and the alpha-beta
  heuristic fallback.
* :mod:`repro.service.resilience` — deadlines (the planner's cancel
  seam), the circuit breaker, and seeded chaos injection.
* :mod:`repro.service.server` — the asyncio JSON-lines server with
  admission control, one deadline-bounded planning attempt per
  request, circuit-broken degradation, health introspection, and
  graceful drain.
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
)
from repro.service.resilience import (
    ChaosSchedule,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
)
from repro.service.server import PlanningServer, ServerConfig, serve

__all__ = [
    "CacheEntry",
    "ChaosSchedule",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "PlanningCore",
    "PlanningServer",
    "PlanRequest",
    "PlanResponse",
    "RequestError",
    "ServerConfig",
    "StrategyCache",
    "family_key",
    "heuristic_plan",
    "job_fingerprint",
    "serve",
    "strategy_digest",
]
