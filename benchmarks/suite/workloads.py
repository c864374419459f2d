"""Committed inputs of the planner benchmark and the seeded streams over them.

Everything here is plain data or a pure function of ``seed``: the same
seed gives byte-identical schedules and event streams.  Job specs use
the service wire format, so every workload builds its jobs through
``PlanRequest.from_dict(spec).build_job()`` exactly as ``repro serve``
does.

Why these inputs (the README has the long form):

* ``ZOO_KINDS`` -- Table-5 zoo models (dgc 0.01, NVLink 8x8), where
  Algorithm 1 and the refinement sweeps dominate, plus one offload-bound
  shape (ugatit randomk on NVLink 6x2, ~70% of its time in Algorithm 2).
  bert-base (~4 s per plan) and vgg16 randomk on 6x8 (~9 s, ~96%
  Algorithm 2) are left out so that three or more rounds fit a run.
* ``PORTFOLIO_KINDS`` -- the ratio-ladder and fusion passes with the
  width-2 process pool, where Algorithm 2 does almost no work.
* ``HOT_SET`` / ``FRESH_POOL`` -- the service mix: cache hits on a small
  warmed set beside fresh plans drawn from a pool whose plan times
  vary little within a model, so the planner's background load is alike
  for every seed.  The two sets are disjoint (topk vs
  dgc/randomk/efsignsgd).
* ``churn_events`` -- fleet arrivals/departures on lstm tenants.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

NVLINK_8X8 = {"testbed": "nvlink", "machines": 8, "gpus": 8}

#: kind -> plan-request wire dict (zoo workload).
ZOO_KINDS: Dict[str, dict] = {
    **{
        model: {"model": model, "gc": "dgc", "ratio": 0.01, **NVLINK_8X8}
        for model in ("lstm", "vgg16", "resnet101", "ugatit", "gpt2")
    },
    "ugatit-randomk-6x2": {
        "model": "ugatit", "gc": "randomk", "ratio": 0.01,
        "testbed": "nvlink", "machines": 6, "gpus": 2,
    },
}

#: Models the portfolio workload runs both portfolio planners on.  With
#: lstm (~0.2 s per op) below vgg16 (~0.9 s) and gpt2 (1.5-4 s) above,
#: the median op is a vgg16 plan rather than the midpoint of the gap
#: between vgg16 and gpt2, which moved with each run's extremes.
PORTFOLIO_MODELS = ("lstm", "vgg16", "gpt2")
#: The two portfolio planners: Espresso with the ratio ladder, FusionPlanner.
PORTFOLIO_PLANNERS = ("ladder", "fusion")
#: Process-pool width of every portfolio planner call.
PORTFOLIO_JOBS = 2

#: kind -> (planner, wire dict) for the portfolio workload.
PORTFOLIO_KINDS: Dict[str, Tuple[str, dict]] = {
    f"{model}/{planner}": (
        planner,
        {"model": model, "gc": "dgc", "ratio": 0.01, **NVLINK_8X8},
    )
    for model in PORTFOLIO_MODELS
    for planner in PORTFOLIO_PLANNERS
}

SERVE_CLUSTERS = (
    ("nvlink", 2, 8),
    ("nvlink", 8, 8),
    ("pcie", 2, 8),
    ("pcie", 4, 4),
)
FRESH_MODELS = ("lstm", "vgg16", "resnet101", "gpt2")
FRESH_GCS = (("dgc", 0.01), ("randomk", 0.05), ("efsignsgd", None))
#: Fresh jobs all run on NVLink 2x8: there each model's three compressors
#: plan in about the same time (gpt2 ~0.3 s, resnet101 ~0.46 s), while
#: across the other clusters one model's plan time varies up to 9x.
FRESH_CLUSTER = ("nvlink", 2, 8)


def plan_spec(model: str, gc: str, ratio, testbed: str, machines: int, gpus: int) -> dict:
    spec = {"model": model, "gc": gc, "testbed": testbed,
            "machines": machines, "gpus": gpus}
    if ratio is not None:
        spec["ratio"] = ratio
    return spec


def spec_key(spec: dict) -> str:
    """Stable name of a wire spec (the key of ``expected_plans.json``)."""
    ratio = spec.get("ratio")
    return (
        f"{spec['model']}/{spec['gc']}"
        f"{'' if ratio is None else f'@{ratio}'}/"
        f"{spec['testbed']}-{spec['machines']}x{spec['gpus']}"
    )


#: The warmed cache-hit set of the serve-mix workload (8 jobs).
HOT_SET: List[dict] = [
    plan_spec(model, "topk", 0.01, *cluster)
    for model in ("lstm", "vgg16")
    for cluster in SERVE_CLUSTERS
]

#: Fresh-plan pool of the serve-mix workload (12 jobs), by model.
FRESH_POOL: Dict[str, List[dict]] = {
    model: [plan_spec(model, gc, ratio, *FRESH_CLUSTER) for gc, ratio in FRESH_GCS]
    for model in FRESH_MODELS
}

#: Open-loop request rate and fresh share of the serve-mix workload.
SERVE_RATE = 6.0
FRESH_SHARE = 0.06


def serve_schedule(seed: int, seconds: float) -> List[Tuple[float, dict]]:
    """The serve-mix request stream: ``(due_s, payload)`` in due order.

    ``round(SERVE_RATE * seconds)`` arrivals placed uniformly at random
    in the window -- a Poisson stream conditioned on its count, so every
    seed offers the same load.  A multiple of four of them (the share
    closest to ``FRESH_SHARE``, at most the pool's size) are fresh,
    spread evenly over the pool's four models so the planner's
    background load does not hinge on which models a seed happens to
    draw; each fresh job is used once.  The rest are hits on
    ``HOT_SET``.
    """
    rng = random.Random(seed)
    count = max(1, round(SERVE_RATE * seconds))
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    fresh_count = min(
        4 * round(FRESH_SHARE * count / 4), count, sum(map(len, FRESH_POOL.values()))
    )
    fresh_slots = set(rng.sample(range(count), fresh_count))
    models = [FRESH_MODELS[i % len(FRESH_MODELS)] for i in range(fresh_count)]
    rng.shuffle(models)
    remaining = {model: list(jobs) for model, jobs in FRESH_POOL.items()}
    schedule = []
    for index, due in enumerate(dues):
        if index in fresh_slots:
            pool = remaining[models.pop()]
            spec = pool.pop(rng.randrange(len(pool)))
        else:
            spec = rng.choice(HOT_SET)
        payload = {"op": "plan", "request_id": f"r{seed}-{index:05d}", **spec}
        schedule.append((due, payload))
    return schedule


#: Compressors the churn stream draws arrivals from (all on lstm, so an
#: admission -- four planner runs -- stays cheap).
ARRIVAL_POOL = (("dgc", 0.01), ("topk", 0.01), ("efsignsgd", None), ("fp16", None))
CHURN_EVENTS = 24
#: The fleet every churn round starts from (a key of ``example_mixes()``).
CHURN_MIX = "lstm-pair"


def churn_events(seed: int, round_index: int) -> List[dict]:
    """One round's arrive/depart stream as plain dicts.

    The shape is fixed -- three arrivals, then arrivals and departures
    alternate, so the fleet holds 4-5 tenants -- and the seed picks each
    arrival's compressor and which tenant departs.  A fixed shape keeps
    the replan work per event alike across seeds.
    """
    rng = random.Random(seed * 1_000_003 + round_index)
    present = ["a", "b"]
    events = []
    for index in range(CHURN_EVENTS):
        if index >= 3 and index % 2 == 1:
            name = rng.choice(sorted(present))
            present.remove(name)
            events.append({"kind": "depart", "name": name})
        else:
            gc, ratio = rng.choice(ARRIVAL_POOL)
            name = f"t{index}"
            present.append(name)
            tenant = {"name": name, "model": "lstm", "gc": gc}
            if ratio is not None:
                tenant["ratio"] = ratio
            events.append({"kind": "arrive", "tenant": tenant})
    return events


def shuffled_round(kinds, seed: int, round_index: int) -> List[str]:
    """The closed-loop order of ``kinds`` in one round (seeded)."""
    order = sorted(kinds)
    random.Random(seed * 1_000_003 + round_index).shuffle(order)
    return order
