"""Deadlines, the circuit breaker, chaos determinism."""

import pytest

from repro.service.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    ChaosSchedule,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- Deadline ---------------------------------------------------------------


def test_deadline_counts_down_and_raises():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    assert deadline.remaining() == pytest.approx(1.0)
    deadline.check()  # within budget: no raise
    clock.advance(0.5)
    assert not deadline.expired()
    clock.advance(0.6)
    assert deadline.expired()
    with pytest.raises(DeadlineExceeded, match="deadline of 1.000s exceeded"):
        deadline.check()


def test_unbounded_deadline_never_expires():
    clock = FakeClock()
    deadline = Deadline(None, clock=clock)
    clock.advance(1e9)
    assert deadline.remaining() == float("inf")
    deadline.check()


def test_deadline_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        Deadline(0.0)


# -- CircuitBreaker ---------------------------------------------------------


def make_breaker(clock, threshold=3, cooldown=2.0):
    return CircuitBreaker(
        failure_threshold=threshold, cooldown_s=cooldown, clock=clock
    )


def test_breaker_opens_after_k_consecutive_failures():
    clock = FakeClock()
    breaker = make_breaker(clock)
    for _ in range(2):
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == OPEN
    assert not breaker.allow()
    assert breaker.opens == 1


def test_success_resets_the_consecutive_count():
    clock = FakeClock()
    breaker = make_breaker(clock)
    for _ in range(10):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # never 3 in a row
    assert breaker.state == CLOSED


def test_breaker_half_open_single_probe_then_close():
    clock = FakeClock()
    breaker = make_breaker(clock)
    for _ in range(3):
        breaker.record_failure()
    assert not breaker.allow()  # still cooling down
    clock.advance(2.0)
    assert breaker.allow()  # the probe
    assert breaker.state == HALF_OPEN
    assert not breaker.allow()  # only ONE probe at a time
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allow()
    assert breaker.probes == 1


def test_breaker_probe_failure_reopens_and_restarts_cooldown():
    clock = FakeClock()
    breaker = make_breaker(clock)
    for _ in range(3):
        breaker.record_failure()
    clock.advance(2.0)
    assert breaker.allow()
    breaker.record_failure()  # probe fails
    assert breaker.state == OPEN
    assert breaker.opens == 2
    clock.advance(1.0)
    assert not breaker.allow()  # cooldown restarted at the probe failure
    clock.advance(1.0)
    assert breaker.allow()


def test_breaker_snapshot_fields():
    breaker = make_breaker(FakeClock())
    snap = breaker.snapshot()
    assert snap["state"] == CLOSED
    assert snap["failure_threshold"] == 3
    assert set(snap) >= {"opens", "probes", "failures", "successes"}


def test_breaker_validates_parameters():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(cooldown_s=-1.0)


# -- ChaosSchedule ----------------------------------------------------------


def test_chaos_is_deterministic_per_request_and_attempt():
    chaos = ChaosSchedule(seed=7, slow_rate=0.3)
    slowed = [chaos.slows(f"req-{i}") for i in range(200)]
    again = [chaos.slows(f"req-{i}") for i in range(200)]
    assert slowed == again
    assert True in slowed and False in slowed


def test_chaos_seed_changes_the_schedule():
    a = ChaosSchedule(seed=1, slow_rate=0.5)
    b = ChaosSchedule(seed=2, slow_rate=0.5)
    ids = [f"req-{i}" for i in range(100)]
    assert [a.slows(i) for i in ids] != [b.slows(i) for i in ids]


def test_chaos_inactive_when_rates_zero():
    chaos = ChaosSchedule(seed=0)
    assert not chaos.active
    assert not chaos.slows("x")


def test_chaos_validates_rates():
    with pytest.raises(ValueError):
        ChaosSchedule(slow_rate=1.5)
    with pytest.raises(ValueError):
        ChaosSchedule(slow_rate=-0.1)
