"""Exponential backoff: the one retry-delay formula the repo shares.

Two resilience layers retry with exponential backoff — the training
supervisor's per-tensor compress retries
(:class:`~repro.training.supervision.TrainingSupervisor`) and the
planning service's evaluator-failure retries
(:mod:`repro.service.resilience`).  They must agree on what "retry k
with base b" costs, both for the simulated time axis and for real
sleeps, so the formula lives here instead of being re-derived
(slightly differently) at each site.
"""

from __future__ import annotations

from typing import Optional


def backoff_delay(
    attempt: int, base: float, cap: Optional[float] = None
) -> float:
    """Delay in seconds before retry ``attempt`` (1-based).

    Retry ``k`` waits ``base * 2**(k-1)``, optionally clamped to
    ``cap``.  ``attempt`` counts *retries*, not calls: the first retry
    after a failure is attempt 1 and waits exactly ``base``.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    if base < 0:
        raise ValueError(f"base must be >= 0, got {base}")
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    delay = base * (2 ** (attempt - 1))
    if cap is not None:
        delay = min(delay, cap)
    return delay


def total_backoff(
    retries: int, base: float, cap: Optional[float] = None
) -> float:
    """Total delay spent across ``retries`` consecutive retries."""
    return sum(
        backoff_delay(attempt, base, cap)
        for attempt in range(1, retries + 1)
    )
