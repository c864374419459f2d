"""Failure-handling primitives for the planning service (DESIGN.md §5.9).

Four small, separately-testable pieces:

* :class:`Deadline` / :class:`CancelToken` — cooperative cancellation.
  The planner's inner pricing loops call ``token.check()`` (installed on
  :class:`~repro.core.strategy.StrategyEvaluator` as ``cancel_check``),
  which raises :class:`DeadlineExceeded` the moment the budget runs out,
  so a slow evaluation stops mid-sweep instead of burning the worker
  until it finishes.
* :class:`RetryPolicy` — bounded retries with the repo-wide exponential
  backoff (:func:`repro.utils.backoff.backoff_delay`), shared with
  training supervision.
* :class:`CircuitBreaker` — CLOSED / OPEN / HALF_OPEN.  After K
  *consecutive* evaluator failures or deadline misses the breaker
  opens and the server stops feeding the planner, serving degraded
  answers instead; after a cooldown it lets exactly one probe through
  (half-open) and closes again only if the probe succeeds.
* :class:`ChaosSchedule` — deterministic fault injection for the load
  harness: a seeded hash of (request id, attempt) decides whether an
  evaluation is killed or slowed, so a bench run is exactly
  reproducible from its seed regardless of server concurrency.

Everything takes an injectable ``clock`` so tests drive time by hand.
The breaker is only ever touched from the server's event loop (one
thread), so it carries no lock — noted here so nobody "fixes" that.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.utils.backoff import backoff_delay

#: Breaker states (also the wire spelling in health payloads).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class DeadlineExceeded(Exception):
    """A request ran past its deadline (one-line diagnostic)."""


class RequestCancelled(Exception):
    """A request was cancelled for a reason other than its deadline
    (e.g. server drain)."""


class EvaluatorWorkerError(RuntimeError):
    """An evaluator worker died mid-request.

    The retriable failure class: the planning pipeline catches exactly
    this (chaos kills raise it) and retries with backoff while budget
    remains.
    """


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


class CancelToken:
    """Cooperative cancellation handle threaded into the evaluator.

    ``check()`` is the single call sites use: it raises
    :class:`RequestCancelled` after :meth:`cancel`, else defers to the
    deadline (if any).  The flag-set happens on the event-loop thread
    while ``check()`` runs on an executor thread; a plain bool is safe
    there (atomic store, no compound update) and the consumer only needs
    eventual visibility.
    """

    def __init__(self, deadline: Optional[Deadline] = None) -> None:
        self.deadline = deadline
        self.cancelled = False
        self.reason = ""

    def cancel(self, reason: str) -> None:
        self.cancelled = True
        self.reason = reason

    def check(self) -> None:
        if self.cancelled:
            raise RequestCancelled(self.reason or "request cancelled")
        if self.deadline is not None:
            self.deadline.check()


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a dead evaluator, and how long to wait.

    Delays follow the repo-wide doubling schedule: attempt 1 waits
    ``backoff_base``, attempt 2 twice that, ..., clamped to
    ``backoff_cap`` so a deep retry never sleeps past the cap.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based)."""
        return backoff_delay(attempt, self.backoff_base, cap=self.backoff_cap)


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


# Chaos actions returned by ChaosSchedule.action().
KILL = "kill"
SLOW = "slow"


@dataclass(frozen=True)
class ChaosSchedule:
    """Seeded, replayable fault injection for the load harness.

    Each (request id, attempt) pair hashes — via a string-seeded
    :class:`random.Random`, which CPython derives deterministically from
    the seed text — to at most one action:

    * ``"kill"``: the evaluation raises :class:`EvaluatorWorkerError`
      before doing any work, exercising the retry path.  Kills only
      fire on attempts below ``kill_attempts``, so a killed request
      heals on retry unless the schedule is configured to keep killing.
    * ``"slow"``: the evaluation sleeps ``slow_seconds`` first (in small
      chunks, checking its cancel token), exercising deadline pressure.

    Keying on the *client-chosen request id* rather than a server-side
    sequence number makes a run reproducible from the seed alone, no
    matter how server workers interleave.
    """

    seed: int = 0
    kill_rate: float = 0.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.25
    kill_attempts: int = 1

    def __post_init__(self) -> None:
        for name in ("kill_rate", "slow_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def active(self) -> bool:
        return self.kill_rate > 0 or self.slow_rate > 0

    def action(self, request_id: str, attempt: int) -> Optional[str]:
        """The injected fault for this (request, attempt), if any."""
        if not self.active:
            return None
        rng = random.Random(f"chaos:{self.seed}:{request_id}:{attempt}")
        roll = rng.random()
        if roll < self.kill_rate:
            return KILL if attempt < self.kill_attempts else None
        if roll < self.kill_rate + self.slow_rate:
            return SLOW
        return None

    def describe(self) -> str:
        return (
            f"seed={self.seed} kill_rate={self.kill_rate} "
            f"slow_rate={self.slow_rate} slow_seconds={self.slow_seconds} "
            f"kill_attempts={self.kill_attempts}"
        )


__all__ = [
    "CLOSED",
    "CancelToken",
    "ChaosSchedule",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "EvaluatorWorkerError",
    "HALF_OPEN",
    "KILL",
    "OPEN",
    "RequestCancelled",
    "RetryPolicy",
    "SLOW",
]
