"""The asyncio planning server: admission, retries, breaker, drain.

Every test drives a real :class:`PlanningServer` inside ``asyncio.run``
on a small job (lstm on 2x2) so a fresh plan costs tens of
milliseconds.  Chaos injection is the failure source — deterministic
per (request id, attempt), so each scenario is scripted, not flaky.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.core import Espresso
from repro.core.options import DEFAULT_RATIO_LADDER
from repro.service.api import PlanRequest, strategy_digest
from repro.service.resilience import ChaosSchedule, OPEN, RetryPolicy
from repro.service.server import PlanningServer, ServerConfig


def make_server(**overrides) -> PlanningServer:
    fields = dict(workers=2, queue_limit=8, default_deadline_s=10.0)
    fields.update(overrides)
    return PlanningServer(ServerConfig(**fields))


def plan_msg(request_id: str, **overrides) -> dict:
    message = dict(op="plan", model="lstm", gc="dgc", ratio=0.01,
                   machines=2, gpus=2, request_id=request_id)
    message.update(overrides)
    return message


async def drain(server: PlanningServer) -> None:
    server.request_drain("test over")
    await server.wait_drained()


def test_fresh_then_cached_and_bit_identical():
    async def scenario():
        server = make_server()
        await server.start()
        first = await server.dispatch(plan_msg("a"))
        second = await server.dispatch(plan_msg("b"))
        await drain(server)
        return first, second

    first, second = asyncio.run(scenario())
    assert first["status"] == "ok" and first["source"] == "fresh"
    assert not first["degraded"]
    assert second["source"] == "cache" and not second["degraded"]
    assert second["strategy_digest"] == first["strategy_digest"]
    # The served plan IS the plan a direct planner run selects.
    request = PlanRequest.from_dict(plan_msg("x"))
    direct = Espresso(request.build_job()).select_strategy()
    assert first["strategy_digest"] == strategy_digest(direct.strategy)
    assert first["iteration_time"] == direct.iteration_time


def test_cache_keys_cover_the_ratio_ladder_and_error_budget():
    # lstm dgc on 2x2 is a job whose laddered plan differs from the
    # fixed-ratio one, so a key without the knobs serves a wrong plan.
    variants = [{}, {"ratios": list(DEFAULT_RATIO_LADDER)},
                {"error_budget": 0.5}]

    async def scenario():
        server = make_server()
        await server.start()
        first = [await server.dispatch(plan_msg(f"first-{i}", **knobs))
                 for i, knobs in enumerate(variants)]
        again = [await server.dispatch(plan_msg(f"again-{i}", **knobs))
                 for i, knobs in enumerate(variants)]
        await drain(server)
        return first, again

    first, again = asyncio.run(scenario())
    assert first[1]["strategy_digest"] != first[0]["strategy_digest"]
    job = PlanRequest.from_dict(plan_msg("x")).build_job()
    for knobs, fresh, hit in zip(variants, first, again):
        assert fresh["source"] == "fresh", knobs
        direct = Espresso(
            job,
            ratios=knobs.get("ratios"),
            error_budget=knobs.get("error_budget"),
        ).select_strategy()
        assert fresh["strategy_digest"] == strategy_digest(direct.strategy)
        assert fresh["iteration_time"] == direct.iteration_time
        assert fresh["fingerprint"] == PlanRequest.from_dict(
            plan_msg("x", **knobs)
        ).fingerprint()
        # Each repeat hits its own entry.
        assert hit["source"] == "cache", knobs
        assert hit["fingerprint"] == fresh["fingerprint"]
        assert hit["strategy_digest"] == fresh["strategy_digest"]


def test_cache_hit_is_answered_while_a_fresh_plan_runs():
    async def scenario():
        # One worker, every planner attempt stalled 0.5 s: a hit that
        # queued behind the fresh plan would wait for it.
        server = make_server(
            workers=1,
            chaos=ChaosSchedule(seed=0, slow_rate=1.0, slow_seconds=0.5),
        )
        await server.start()
        warm = await server.dispatch(plan_msg("a-warm"))
        fresh = asyncio.ensure_future(
            server.dispatch(plan_msg("b", gpus=4))
        )
        await asyncio.sleep(0.05)
        hit = await server.dispatch(plan_msg("a-again"))
        fresh_done_at_hit = fresh.done()
        fresh = await fresh
        await drain(server)
        return warm, hit, fresh_done_at_hit, fresh

    warm, hit, fresh_done_at_hit, fresh = asyncio.run(scenario())
    assert warm["source"] == "fresh"
    assert hit["source"] == "cache"
    assert hit["strategy_digest"] == warm["strategy_digest"]
    assert not fresh_done_at_hit
    assert fresh["source"] == "fresh"


def test_tcp_wire_end_to_end():
    async def scenario():
        server = make_server()
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        for message in (plan_msg("a"), {"op": "health"}, {"op": "drain"}):
            writer.write((json.dumps(message) + "\n").encode())
        await writer.drain()
        frames = [json.loads(await reader.readline()) for _ in range(3)]
        writer.close()
        await server.wait_drained()
        return frames

    frames = asyncio.run(scenario())
    by_kind = {f.get("op", "plan"): f for f in frames}
    assert by_kind["plan"]["status"] == "ok"
    assert by_kind["health"]["ready"] is True
    assert by_kind["drain"]["status"] == "draining"


def test_killed_evaluator_retries_with_backoff_and_heals():
    async def scenario():
        # kill_attempts=1: attempt 0 dies, the retry succeeds.
        server = make_server(
            chaos=ChaosSchedule(seed=0, kill_rate=1.0, kill_attempts=1),
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
        )
        await server.start()
        response = await server.dispatch(plan_msg("a"))
        stats = server.stats
        await drain(server)
        return response, stats

    response, stats = asyncio.run(scenario())
    assert response["status"] == "ok" and response["source"] == "fresh"
    assert not response["degraded"]
    assert response["attempts"] == 2
    assert stats.worker_failures == 1 and stats.retries == 1


def test_retries_exhausted_degrades_to_heuristic():
    async def scenario():
        # Kills never heal; the breaker threshold is high so this is
        # purely the retries-exhausted path.
        server = make_server(
            chaos=ChaosSchedule(seed=0, kill_rate=1.0, kill_attempts=99),
            retry=RetryPolicy(max_retries=2, backoff_base=0.01),
            breaker_threshold=10,
        )
        await server.start()
        response = await server.dispatch(plan_msg("a"))
        stats = server.stats
        await drain(server)
        return response, stats

    response, stats = asyncio.run(scenario())
    assert response["status"] == "ok"
    assert response["degraded"] is True
    assert response["source"] == "heuristic"
    assert "retries exhausted" in response["reason"]
    assert stats.worker_failures == 3  # initial + 2 retries
    assert stats.heuristic_serves == 1


def test_deadline_miss_degrades_within_budget():
    async def scenario():
        # Every evaluation stalls 5s against a 0.2s deadline: the
        # cancel seam must abort it and the ladder must answer.
        server = make_server(
            chaos=ChaosSchedule(seed=0, slow_rate=1.0, slow_seconds=5.0),
            default_deadline_s=0.2,
        )
        await server.start()
        response = await server.dispatch(plan_msg("a"))
        stats = server.stats
        await drain(server)
        return response, stats

    response, stats = asyncio.run(scenario())
    assert response["status"] == "ok" and response["degraded"] is True
    assert response["source"] == "heuristic"
    assert "deadline" in response["reason"]
    assert stats.deadline_misses == 1
    # Answered promptly after the miss, not after the 5s stall.
    assert response["elapsed_s"] < 2.0


def test_stale_cache_preferred_over_heuristic():
    async def scenario():
        server = make_server(default_deadline_s=10.0)
        await server.start()
        # Warm the family with a 2x2 plan...
        await server.dispatch(plan_msg("warm"))
        # ...then break planning and ask for the same family on a
        # different cluster: the stale plan must be served, degraded.
        server.config = dataclasses.replace(
            server.config,
            chaos=ChaosSchedule(seed=0, kill_rate=1.0, kill_attempts=99),
            retry=RetryPolicy(max_retries=0, backoff_base=0.01),
        )
        response = await server.dispatch(plan_msg("other", gpus=4))
        await drain(server)
        return response

    response = asyncio.run(scenario())
    assert response["status"] == "ok" and response["degraded"] is True
    assert response["source"] == "stale-cache"


def test_breaker_opens_then_probe_recovers():
    async def scenario():
        server = make_server(
            chaos=ChaosSchedule(seed=0, kill_rate=1.0, kill_attempts=99),
            retry=RetryPolicy(max_retries=0, backoff_base=0.01),
            breaker_threshold=2,
            breaker_cooldown_s=0.05,
        )
        await server.start()
        first = await server.dispatch(plan_msg("a"))
        second = await server.dispatch(plan_msg("b"))
        opened_state = server.breaker.state
        # While open (within cooldown) the planner is bypassed.
        third = await server.dispatch(plan_msg("c"))
        planned_before = server.stats.fresh
        # Heal the planner, wait out the cooldown: the next request is
        # the half-open probe and closes the breaker.
        server.config = dataclasses.replace(server.config, chaos=None)
        await asyncio.sleep(0.06)
        fourth = await server.dispatch(plan_msg("d"))
        closed_state = server.breaker.state
        await drain(server)
        return (first, second, opened_state, third, planned_before,
                fourth, closed_state, server.breaker.probes)

    (first, second, opened_state, third, planned_before,
     fourth, closed_state, probes) = asyncio.run(scenario())
    assert first["degraded"] and second["degraded"]
    assert opened_state == OPEN
    assert third["degraded"] and "circuit breaker open" in third["reason"]
    assert planned_before == 0
    assert fourth["status"] == "ok" and fourth["source"] == "fresh"
    assert not fourth["degraded"]
    assert closed_state == "closed"
    assert probes == 1


def test_unexpected_planner_error_does_not_wedge_the_breaker():
    async def scenario():
        server = make_server(
            chaos=ChaosSchedule(seed=0, kill_rate=1.0, kill_attempts=99),
            retry=RetryPolicy(max_retries=0, backoff_base=0.01),
            breaker_threshold=1,
            breaker_cooldown_s=0.0,
        )
        await server.start()
        opened = await server.dispatch(plan_msg("a"))
        opened_state = server.breaker.state
        # Heal the chaos, but make the half-open probe's planner call
        # raise something that is neither a worker death nor a deadline.
        server.config = dataclasses.replace(server.config, chaos=None)
        real = server.core.plan_request
        raised = []

        def plan_request(request, cancel_check=None):
            if not raised:
                raised.append(request.request_id)
                raise RuntimeError("planner bug")
            return real(request, cancel_check=cancel_check)

        server.core.plan_request = plan_request
        probe = await server.dispatch(plan_msg("b"))
        after = await server.dispatch(plan_msg("c", gpus=4))
        state = server.breaker.state
        await drain(server)
        return opened, opened_state, probe, raised, after, state

    opened, opened_state, probe, raised, after, state = asyncio.run(
        scenario()
    )
    assert opened["degraded"] and opened_state == OPEN
    assert raised == ["b"]
    assert probe["status"] == "error"
    assert "internal error: RuntimeError: planner bug" in probe["reason"]
    assert after["status"] == "ok" and after["source"] == "fresh"
    assert not after["degraded"]
    assert state == "closed"


def test_saturated_queue_fast_fails_with_diagnostic():
    async def scenario():
        # One worker stuck in a 0.5s stall, queue of 1: the burst's
        # tail must be refused immediately, not silently parked.
        server = make_server(
            workers=1,
            queue_limit=1,
            chaos=ChaosSchedule(seed=0, slow_rate=1.0, slow_seconds=0.5),
        )
        await server.start()
        tasks = [
            asyncio.ensure_future(server.dispatch(plan_msg(f"r{i}")))
            for i in range(5)
        ]
        responses = await asyncio.gather(*tasks)
        await drain(server)
        return responses

    responses = asyncio.run(scenario())
    rejected = [r for r in responses if r["status"] == "rejected"]
    assert rejected, "a 5-deep burst into worker+queue=2 must refuse some"
    assert all("queue saturated" in r["reason"] for r in rejected)
    assert all("retry later" in r["reason"] for r in rejected)
    answered = [r for r in responses if r["status"] == "ok"]
    assert len(answered) + len(rejected) == 5


def test_queue_expired_request_is_not_charged_to_the_breaker():
    async def scenario():
        # First request stalls the single worker past the second
        # request's whole 10ms budget; the second must be answered via
        # the ladder without blaming the evaluator.
        server = make_server(
            workers=1,
            chaos=ChaosSchedule(seed=0, slow_rate=1.0, slow_seconds=0.3),
        )
        await server.start()
        slow = asyncio.ensure_future(server.dispatch(plan_msg("slow")))
        await asyncio.sleep(0.02)
        # A *different* job (no exact cache hit possible) with a budget
        # the queue wait alone consumes.
        quick = await server.dispatch(
            plan_msg("quick", gpus=4, deadline_s=0.01)
        )
        await slow
        stats = server.stats
        failures = server.breaker.consecutive_failures
        await drain(server)
        return quick, stats, failures

    quick, stats, failures = asyncio.run(scenario())
    assert quick["status"] == "ok" and quick["degraded"] is True
    assert "in queue" in quick["reason"]
    assert stats.queue_expired == 1
    assert failures == 0


def test_drain_finishes_inflight_and_refuses_new():
    async def scenario():
        server = make_server(
            chaos=ChaosSchedule(seed=0, slow_rate=1.0, slow_seconds=0.2),
        )
        await server.start()
        inflight = asyncio.ensure_future(server.dispatch(plan_msg("a")))
        await asyncio.sleep(0.05)
        server.request_drain("SIGTERM test")
        not_ready = server.health()["ready"]
        late = await server.dispatch(plan_msg("b"))
        finished = await inflight
        await server.wait_drained()
        return finished, late, not_ready

    finished, late, not_ready = asyncio.run(scenario())
    assert finished["status"] == "ok"  # in-flight work completed
    assert late["status"] == "rejected"
    assert "draining" in late["reason"]
    assert not_ready is False  # a draining server reports unready


def test_malformed_requests_get_one_line_errors():
    async def scenario():
        server = make_server()
        await server.start()
        unknown_model = await server.dispatch(plan_msg("a", model="nosuch"))
        unknown_key = await server.dispatch(
            {"op": "plan", "request_id": "b", "modle": "lstm"}
        )
        unknown_op = await server.dispatch({"op": "explode"})
        garbage = await server.dispatch_line(b"{not json\n")
        await drain(server)
        return unknown_model, unknown_key, unknown_op, garbage

    unknown_model, unknown_key, unknown_op, garbage = asyncio.run(scenario())
    assert unknown_model["status"] == "error"
    assert "unknown model" in unknown_model["reason"]
    assert unknown_model["request_id"] == "a"
    assert unknown_key["status"] == "error"
    assert "unknown key" in unknown_key["reason"]
    assert unknown_op["status"] == "error"
    assert garbage["status"] == "error"
    for response in (unknown_model, unknown_key, unknown_op, garbage):
        assert "\n" not in response["reason"]


def test_non_numeric_deadline_gets_a_one_line_error():
    async def scenario():
        server = make_server()
        await server.start()
        response = await server.dispatch(plan_msg("a", deadline_s="soon"))
        await drain(server)
        return response

    response = asyncio.run(scenario())
    assert response["status"] == "error"
    assert response["request_id"] == "a"
    assert "deadline budget must be > 0, got 'soon'" in response["reason"]


def test_health_and_stats_report_the_pipeline():
    async def scenario():
        server = make_server()
        await server.start()
        await server.dispatch(plan_msg("a"))
        await server.dispatch(plan_msg("b"))
        health = server.health()
        stats = await server.dispatch({"op": "stats"})
        await drain(server)
        return health, stats

    health, stats = asyncio.run(scenario())
    assert health["status"] == "ok" and health["ready"]
    assert health["served"] == 2
    assert health["breaker"]["state"] == "closed"
    assert stats["fresh"] == 1 and stats["cache_hits"] == 1
    assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
    assert stats["received"] == 2
