"""Failure-handling primitives for the planning service (DESIGN.md §5.9).

Three small, separately-testable pieces:

* :class:`Deadline` — cooperative cancellation.  The planner's inner
  pricing loops call ``deadline.check()`` (installed on
  :class:`~repro.core.strategy.StrategyEvaluator` as ``cancel_check``),
  which raises :class:`DeadlineExceeded` the moment the budget runs out,
  so a slow evaluation stops mid-sweep instead of burning the worker
  until it finishes.
* :class:`CircuitBreaker` — CLOSED / OPEN / HALF_OPEN.  After K
  *consecutive* deadline misses or unexpected planner errors the
  breaker opens and the server stops feeding the planner, serving
  degraded answers instead; after a cooldown it lets exactly one probe
  through (half-open) and closes again only if the probe succeeds.
* :class:`ChaosSchedule` — deterministic fault injection for the load
  harness: a seeded hash of the request id decides whether its
  evaluation is slowed, so a bench run is exactly reproducible from its
  seed regardless of server concurrency.

Everything takes an injectable ``clock`` so tests drive time by hand.
The breaker is only ever touched from the server's event loop (one
thread), so it carries no lock — noted here so nobody "fixes" that.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

#: Breaker states (also the wire spelling in health payloads).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class DeadlineExceeded(Exception):
    """A request ran past its deadline (one-line diagnostic)."""


class Deadline:
    """A monotonic-clock budget for one request.

    ``budget_s=None`` means unbounded — every query then reports
    infinite remaining time and ``check()`` never raises.
    """

    def __init__(
        self,
        budget_s: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if budget_s is not None and not (
            isinstance(budget_s, (int, float)) and budget_s > 0
        ):
            raise ValueError(f"deadline budget must be > 0, got {budget_s!r}")
        self.budget_s = budget_s
        self._clock = clock
        self.started = clock()

    def elapsed(self) -> float:
        return self._clock() - self.started

    def remaining(self) -> float:
        if self.budget_s is None:
            return float("inf")
        return self.budget_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:.3f}s exceeded "
                f"({self.elapsed():.3f}s elapsed)"
            )


class CircuitBreaker:
    """K-consecutive-failures breaker with half-open probing.

    State machine::

        CLOSED --(K consecutive failures)--> OPEN
        OPEN --(cooldown elapses; next allow())--> HALF_OPEN (one probe)
        HALF_OPEN --(probe succeeds)--> CLOSED
        HALF_OPEN --(probe fails)--> OPEN (cooldown restarts)

    ``allow()`` answers "may this request use the real planner?"; a
    refusal routes the request down the degradation ladder without
    touching breaker state.  Any success resets the consecutive-failure
    count, so only uninterrupted failure runs trip the breaker.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probe_inflight = False
        # Lifetime counters, surfaced via the health endpoint.
        self.opens = 0
        self.probes = 0
        self.failures = 0
        self.successes = 0

    def allow(self) -> bool:
        """May the caller attempt a real planner run right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            assert self.opened_at is not None
            if self._clock() - self.opened_at >= self.cooldown_s:
                self.state = HALF_OPEN
                self._probe_inflight = True
                self.probes += 1
                return True
            return False
        # HALF_OPEN: exactly one probe at a time.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        self.probes += 1
        return True

    def record_success(self) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        self._probe_inflight = False
        self.state = CLOSED
        self.opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # The probe failed: reopen and restart the cooldown.
            self._open()
        elif (
            self.state == CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._open()

    def _open(self) -> None:
        self.state = OPEN
        self.opened_at = self._clock()
        self._probe_inflight = False
        self.opens += 1

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "failure_threshold": self.failure_threshold,
            "cooldown_s": self.cooldown_s,
            "opens": self.opens,
            "probes": self.probes,
            "failures": self.failures,
            "successes": self.successes,
        }


@dataclass(frozen=True)
class ChaosSchedule:
    """Seeded, replayable fault injection for the load harness.

    Each request id hashes — via a string-seeded :class:`random.Random`,
    which CPython derives deterministically from the seed text — to
    whether its evaluation is slowed: a slowed evaluation sleeps
    ``slow_seconds`` first (in small chunks, checking its deadline),
    exercising deadline pressure.

    Keying on the *client-chosen request id* rather than a server-side
    sequence number makes a run reproducible from the seed alone, no
    matter how server workers interleave.
    """

    seed: int = 0
    slow_rate: float = 0.0
    slow_seconds: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.slow_rate <= 1.0:
            raise ValueError(
                f"slow_rate must be in [0, 1], got {self.slow_rate}"
            )

    @property
    def active(self) -> bool:
        return self.slow_rate > 0

    def slows(self, request_id: str) -> bool:
        """Whether this request's evaluation is slowed."""
        if not self.active:
            return False
        rng = random.Random(f"chaos:{self.seed}:{request_id}")
        return rng.random() < self.slow_rate

    def describe(self) -> str:
        return (
            f"seed={self.seed} slow_rate={self.slow_rate} "
            f"slow_seconds={self.slow_seconds}"
        )


__all__ = [
    "CLOSED",
    "ChaosSchedule",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "HALF_OPEN",
    "OPEN",
]
