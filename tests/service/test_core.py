"""PlanningCore, the strategy cache, the heuristic, the cancel seam."""

import pytest

from repro.core import Espresso
from repro.core.strategy import StrategyEvaluator
from repro.service.api import PlanRequest, strategy_digest
from repro.service.core import (
    PlanningCore,
    StrategyCache,
    heuristic_plan,
    make_entry,
)
from repro.service.resilience import Deadline, DeadlineExceeded


def small_request(**overrides):
    fields = dict(model="lstm", gc="dgc", ratio=0.01, machines=2, gpus=2)
    fields.update(overrides)
    return PlanRequest(**fields)


# -- PlanningCore -----------------------------------------------------------


def test_plan_request_matches_direct_espresso_bit_for_bit():
    request = small_request()
    entry = PlanningCore().plan_request(request)
    direct = Espresso(request.build_job()).select_strategy()
    assert entry.digest == strategy_digest(direct.strategy)
    assert entry.options_text == tuple(
        o.describe() for o in direct.strategy.options
    )
    assert entry.iteration_time == direct.iteration_time
    assert entry.baseline_iteration_time == direct.baseline_iteration_time


def test_cancel_seam_aborts_selection_from_inside_the_evaluator():
    # An already-expired deadline: the very first F(S) pricing call
    # must raise out of the planner instead of finishing the search.
    class Expired:
        def __call__(self):
            raise DeadlineExceeded("deadline of 0.001s exceeded")

    with pytest.raises(DeadlineExceeded):
        PlanningCore().plan_job_detailed(
            small_request().build_job(), cancel_check=Expired()
        )


def test_cancel_token_seam_with_fake_clock():
    # The request's Deadline.check is the cancel seam the server installs.
    clock_value = [0.0]
    deadline = Deadline(0.5, clock=lambda: clock_value[0])
    clock_value[0] = 1.0  # expire mid-flight
    with pytest.raises(DeadlineExceeded):
        PlanningCore().plan_job_detailed(
            small_request().build_job(), cancel_check=deadline.check
        )


# -- StrategyCache ----------------------------------------------------------


def entry_for(request):
    job = request.build_job()
    result = Espresso(job).select_strategy()
    return make_entry(
        job, result.strategy, result.iteration_time,
        result.baseline_iteration_time,
    )


def test_cache_exact_hit_and_miss_accounting():
    cache = StrategyCache()
    entry = entry_for(small_request())
    assert cache.get(entry.fingerprint) is None
    cache.put(entry)
    hit = cache.get(entry.fingerprint)
    assert hit is entry
    assert hit.hits == 1
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_stale_family_serves_other_cluster():
    cache = StrategyCache()
    cached = entry_for(small_request(machines=2, gpus=2))
    cache.put(cached)
    other = small_request(machines=4, gpus=2)
    assert cache.get(other.fingerprint()) is None
    stale = cache.get_stale(other.family())
    assert stale is cached
    assert cache.stale_hits == 1
    # A different (model, gc) family finds nothing.
    assert cache.get_stale(small_request(ratio=0.05).family()) is None


def test_cache_lru_eviction_cleans_family_index():
    cache = StrategyCache(max_entries=1)
    first = entry_for(small_request(machines=2, gpus=2))
    second = entry_for(small_request(machines=2, gpus=2, ratio=0.05))
    cache.put(first)
    cache.put(second)  # evicts first (capacity 1)
    assert len(cache) == 1
    assert cache.evictions == 1
    assert cache.get_stale(first.family) is None
    assert cache.get_stale(second.family) is second


def test_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        StrategyCache(max_entries=0)


# -- heuristic_plan ---------------------------------------------------------


def test_heuristic_never_worse_than_fp32_and_prices_honestly():
    job = small_request(machines=2, gpus=4).build_job()
    strategy, iteration_time, baseline_time = heuristic_plan(job)
    assert iteration_time <= baseline_time
    # The reported time is the evaluator's, not an estimate.
    assert iteration_time == pytest.approx(
        StrategyEvaluator(job).iteration_time(strategy)
    )


def test_heuristic_on_single_gpu_returns_baseline():
    job = small_request(machines=1, gpus=1).build_job()
    strategy, iteration_time, baseline_time = heuristic_plan(job)
    assert not strategy.compressed_indices
    assert iteration_time == baseline_time


def test_heuristic_is_deterministic():
    job = small_request(machines=2, gpus=4).build_job()
    first = heuristic_plan(job)
    second = heuristic_plan(job)
    assert strategy_digest(first[0]) == strategy_digest(second[0])
    assert first[1:] == second[1:]
