"""The service's ``op: "fleet"`` path: same deadline/breaker machinery
as single-job plans, with the per-tenant heuristic fleet as the
degraded rung."""

import asyncio

import pytest

from repro.core.fleet import plan_fleet
from repro.service.api import FleetRequest, FleetResponse, strategy_digest
from repro.service.server import PlanningServer, ServerConfig


def make_server(**overrides) -> PlanningServer:
    fields = dict(workers=2, queue_limit=8, default_deadline_s=30.0)
    fields.update(overrides)
    return PlanningServer(ServerConfig(**fields))


def fleet_msg(request_id: str, **overrides) -> dict:
    message = dict(
        op="fleet",
        tenants=[
            {"name": "a", "model": "lstm", "gc": "dgc", "ratio": 0.01},
            {"name": "b", "model": "lstm", "gc": "efsignsgd"},
        ],
        testbed="nvlink",
        machines=2,
        gpus=2,
        request_id=request_id,
    )
    message.update(overrides)
    return message


async def drain(server: PlanningServer) -> None:
    server.request_drain("test over")
    await server.wait_drained()


def test_fleet_fresh_matches_direct_joint_plan():
    async def scenario():
        server = make_server()
        await server.start()
        response = await server.dispatch(fleet_msg("a"))
        await drain(server)
        return response

    response = asyncio.run(scenario())
    assert response["status"] == "ok"
    assert response["source"] == "fresh"
    assert not response["degraded"]
    assert response["attempts"] == 1
    assert response["mode"] in ("joint", "selfish")
    assert (
        response["aggregate_throughput"]
        >= response["selfish_aggregate_throughput"]
    )
    assert response["worst_slowdown"] >= 1.0 - 1e-12

    # The served assignment IS the assignment a direct joint plan picks.
    request = FleetRequest.from_dict(fleet_msg("x"))
    direct = plan_fleet(request.build_fleet(), max_rounds=request.max_rounds)
    by_name = {t["name"]: t for t in response["tenants"]}
    assert set(by_name) == {"a", "b"}
    for plan in direct.tenants:
        served = by_name[plan.name]
        assert served["strategy_digest"] == strategy_digest(plan.strategy)
        assert served["iteration_time"] == pytest.approx(plan.contended_time)
        assert served["slowdown"] == pytest.approx(plan.slowdown)
        assert served["source"] == plan.source
    assert response["mode"] == direct.mode

    # The fingerprint is a pure function of the planning inputs.
    assert response["fingerprint"] == FleetRequest.from_dict(
        fleet_msg("other-id")
    ).fingerprint()


def test_fleet_malformed_requests_get_one_line_errors():
    async def scenario():
        server = make_server()
        await server.start()
        responses = {
            "unknown-key": await server.dispatch(
                fleet_msg("a", bogus=True)
            ),
            "empty-tenants": await server.dispatch(
                fleet_msg("b", tenants=[])
            ),
            "bad-testbed": await server.dispatch(
                fleet_msg("c", testbed="token-ring")
            ),
            "bad-rounds": await server.dispatch(
                fleet_msg("d", max_rounds=0)
            ),
            "bad-ratio": await server.dispatch(
                fleet_msg(
                    "e",
                    tenants=[
                        {"name": "a", "model": "lstm", "gc": "dgc",
                         "ratio": 7.0}
                    ],
                )
            ),
        }
        await drain(server)
        return responses

    responses = asyncio.run(scenario())
    for label, response in responses.items():
        assert response["status"] == "error", label
        assert response["reason"], label
        assert "\n" not in response["reason"], label
    assert "bogus" in responses["unknown-key"]["reason"]
    assert "tenants" in responses["empty-tenants"]["reason"]
    assert "token-ring" in responses["bad-testbed"]["reason"]
    assert "max_rounds" in responses["bad-rounds"]["reason"]


def test_fleet_queue_expired_deadline_degrades_without_breaker_charge():
    async def scenario():
        server = make_server()
        await server.start()
        response = await server.dispatch(
            fleet_msg("a", deadline_s=1e-6)
        )
        stats = server.stats
        failures = server.breaker.consecutive_failures
        await drain(server)
        return response, stats, failures

    response, stats, failures = asyncio.run(scenario())
    assert response["status"] == "ok"
    assert response["degraded"] is True
    assert response["source"] == "heuristic"
    assert response["mode"] == "heuristic"
    assert "in queue" in response["reason"]
    assert stats.queue_expired == 1
    assert stats.heuristic_serves == 1
    # Queue time is not an evaluator failure: breaker untouched.
    assert failures == 0
    # The degraded rung still prices tenants under their own contention.
    for tenant in response["tenants"]:
        assert tenant["source"] == "heuristic"
        assert tenant["slowdown"] >= 1.0 - 1e-12


def test_fleet_response_round_trip():
    response = FleetResponse(
        request_id="r",
        mode="joint",
        aggregate_throughput=10.0,
        tenants=({"name": "a"},),
    )
    data = response.to_dict()
    assert isinstance(data["tenants"], list)
    assert "reason" not in data  # None fields dropped on the wire
    rebuilt = FleetResponse.from_dict(data)
    assert rebuilt.tenants == ({"name": "a"},)
    assert rebuilt.ok
