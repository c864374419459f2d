"""Algorithm 1 tests (GPU compression decision)."""

import pytest

from repro.core.algorithm import (
    IMPROVEMENT_EPSILON,
    best_priced,
    device_candidate_options,
    gpu_candidate_options,
    gpu_compression_decision,
    memoized_prefilter,
    prefilter_candidates,
    refinement_sweep,
    sorted_tensor_groups,
)
from repro.cluster import nvlink_100g_cluster
from repro.core.options import Device, canonical_key, no_compression_option
from repro.core.plan import PlanCompiler, clear_pricing_tables
from repro.models import get_model, synthetic_model
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.strategy import StrategyEvaluator
from repro.sim.stages import COMM
from repro.utils.units import MB, MS


def test_gpu_candidates_all_compress_on_gpu():
    for option in gpu_candidate_options():
        assert option.compresses
        assert all(d is Device.GPU for d in option.devices)


def test_device_candidates_include_both():
    candidates = device_candidate_options()
    assert any(o.uses_device(Device.GPU) for o in candidates)
    assert any(o.uses_device(Device.CPU) for o in candidates)


def test_device_candidates_fresh_list_per_call():
    """The set is enumerated once per process, but every caller gets a
    list of its own to mutate."""
    first = device_candidate_options()
    second = device_candidate_options()
    assert first == second
    first.clear()
    second.pop()
    assert device_candidate_options() == device_candidate_options()
    assert len(device_candidate_options()) == len(second) + 1
    assert len(device_candidate_options(include_rooted=True)) > len(second) + 1


def test_sorted_tensor_groups_order(small_cluster):
    """Property #2: descending size; within a group, closest-to-output
    (computed last) first."""
    model = synthetic_model(
        "g",
        [
            (1000, 1 * MS),
            (5000, 1 * MS),
            (1000, 1 * MS),
            (9000, 1 * MS),
        ],
    )
    job = JobConfig(
        model=model, gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=small_cluster),
    )
    groups = sorted_tensor_groups(StrategyEvaluator(job))
    assert [g[0] for g in groups[:2]] == [3, 1]  # largest sizes first
    # Size-1000 group: index 2 (distance 1) before index 0 (distance 3).
    assert groups[2] == [2, 0]


def test_prefilter_keeps_both_device_classes(medium_evaluator):
    candidates = device_candidate_options()
    kept = prefilter_candidates(
        medium_evaluator.compiler, candidates, int(8 * MB / 4), per_device=2
    )
    assert len(kept) < len(candidates)
    assert any(o.uses_device(Device.GPU) for o in kept)
    assert any(o.uses_device(Device.CPU) for o in kept)


def test_prefilter_disabled_returns_all(medium_evaluator):
    candidates = device_candidate_options()
    kept = prefilter_candidates(
        medium_evaluator.compiler, candidates, 1000, per_device=0
    )
    assert kept == candidates


def test_algorithm1_never_worse_than_fp32(medium_evaluator):
    fp32 = medium_evaluator.iteration_time(medium_evaluator.baseline())
    result = gpu_compression_decision(medium_evaluator)
    assert result.iteration_time <= fp32 + 1e-12
    assert result.evaluations > 0


def test_algorithm1_compresses_on_communication_bound_job(pcie_job):
    evaluator = StrategyEvaluator(pcie_job)
    result = gpu_compression_decision(evaluator)
    assert len(result.strategy.compressed_indices) > 0


def test_algorithm1_ruled_out_tensors_stay_uncompressed(medium_evaluator):
    result = gpu_compression_decision(medium_evaluator)
    for index in result.ruled_out:
        assert not result.strategy[index].compresses


def test_algorithm1_respects_candidate_restriction(medium_evaluator):
    from repro.core.presets import inter_allgather_option

    only = [inter_allgather_option(Device.GPU)]
    result = gpu_compression_decision(medium_evaluator, candidates=only)
    for index in result.strategy.compressed_indices:
        assert result.strategy[index] is only[0]


def test_refinement_sweep_never_regresses(medium_evaluator):
    result = gpu_compression_decision(medium_evaluator)
    swept, swept_time, improved = refinement_sweep(
        medium_evaluator, result.strategy, device_candidate_options()
    )
    assert swept_time <= result.iteration_time + 1e-12
    if not improved:
        assert swept_time == pytest.approx(result.iteration_time)


def test_refinement_sweep_compares_residents_by_value(medium_evaluator):
    """Regression: the sweep used to compare candidates to the resident
    option by identity (``option is best_option``), so a value-equal but
    distinct object — e.g. a fresh ``no_compression_option()`` vs the
    baseline's resident one — was re-priced for every tensor.  With the
    value (canonical key) comparison, a candidate set that only contains
    the resident option prices nothing at all."""
    base = medium_evaluator.baseline()
    before = medium_evaluator.evaluations
    swept, swept_time, improved = refinement_sweep(
        medium_evaluator, base, [no_compression_option()]
    )
    assert not improved
    assert swept.options == base.options
    # Exactly one F(S) call: the initial pricing of the base itself.
    # Under the identity bug this was 1 + 2 per tensor (the prefiltered
    # copy and the appended keep-plain both survived the filter).
    assert medium_evaluator.evaluations - before == 1


def test_best_priced_breaks_time_ties_by_canonical_key():
    """Exact time ties resolve by canonical option key, not input order."""
    from repro.core.presets import inter_allgather_option, inter_alltoall_option

    a = inter_allgather_option(Device.GPU)
    b = inter_alltoall_option(Device.GPU)
    priced = [(1.0, canonical_key(a), a), (1.0, canonical_key(b), b)]
    winner_key = min(canonical_key(a), canonical_key(b))
    assert best_priced(priced)[1] == winner_key
    assert best_priced(list(reversed(priced)))[1] == winner_key
    # A strictly better time always beats a smaller key.
    c = (0.5, max(canonical_key(a), canonical_key(b)), b)
    assert best_priced(priced + [c]) == c


def test_best_priced_total_order():
    plain = no_compression_option()
    entries = [
        (2.0, canonical_key(plain), plain),
        (1.0, 99, plain),
        (1.0, 7, plain),
    ]
    assert best_priced(entries) == (1.0, 7, plain)
    assert best_priced(list(reversed(entries))) == (1.0, 7, plain)


def test_tie_break_independent_of_candidate_order(medium_job, monkeypatch):
    """When every candidate prices identically, the sweep must pick the
    same option regardless of candidate enumeration order (regression:
    the serial loops used to keep the first enumerated improvement)."""
    candidates = device_candidate_options()
    outcomes = []
    for ordered in (candidates, list(reversed(candidates))):
        evaluator = StrategyEvaluator(medium_job)
        base = evaluator.baseline()
        tied_time = evaluator.iteration_time(base) - 1.0
        # Patch the pricing seam the decision loops consume (the batch
        # layer would otherwise simulate — and prune — for real).
        monkeypatch.setattr(
            evaluator,
            "price_options",
            lambda b, i, opts, bound=None, _t=tied_time: [_t] * len(opts),
        )
        swept, swept_time, improved = refinement_sweep(
            evaluator, base, ordered, prefilter_per_device=0
        )
        assert improved
        outcomes.append(tuple(canonical_key(o) for o in swept.options))
    assert outcomes[0] == outcomes[1]
    # And the winner is the canonical-key minimum of the tied field.
    chosen = [k for k in outcomes[0] if k != canonical_key(no_compression_option())]
    assert chosen
    assert chosen[0] == min(canonical_key(o) for o in candidates)


def test_sub_epsilon_improvement_is_rejected(medium_evaluator, monkeypatch):
    """Both decision loops share IMPROVEMENT_EPSILON: a move improving
    the incumbent by less than it never displaces the strategy."""
    base = medium_evaluator.baseline()
    best = medium_evaluator.iteration_time(base)
    monkeypatch.setattr(
        medium_evaluator,
        "price_options",
        lambda b, i, opts, bound=None: [best - IMPROVEMENT_EPSILON / 2]
        * len(opts),
    )
    swept, swept_time, improved = refinement_sweep(
        medium_evaluator, base, device_candidate_options()
    )
    assert not improved
    assert swept.options == base.options
    assert swept_time == best


def _reference_prefilter(compiler, candidates, num_elements, per_device=3):
    """The prefilter's ranking rule spelled out over compiled chains."""
    by_device = {}
    for option in candidates:
        stages = compiler.stages(option, num_elements)
        comm = sum(s.duration for s in stages if s.kind == COMM)
        total = sum(s.duration for s in stages)
        by_device.setdefault(option.uses_device(Device.CPU), []).append(
            (comm, total, option)
        )
    kept = []
    for entries in by_device.values():
        for key in (0, 1):
            for entry in sorted(entries, key=lambda e: e[key])[:per_device]:
                if entry[2] not in kept:
                    kept.append(entry[2])
    return kept


def test_prefilter_ranks_without_compiling_chains(monkeypatch):
    """Ranking a fleet tenant's candidates (lstm on NVLink 2x2) builds
    no stage chain, and keeps exactly what a ranking over compiled
    chains keeps."""

    def evaluator():
        return StrategyEvaluator(
            JobConfig(
                model=get_model("lstm"),
                gc=GCInfo("dgc", {"ratio": 0.01}),
                system=SystemInfo(
                    cluster=nvlink_100g_cluster(num_machines=2, gpus_per_machine=2)
                ),
            )
        )

    clear_pricing_tables()  # so that every size is really ranked here
    fresh = evaluator()
    candidates = device_candidate_options()
    sizes = sorted({tensor.num_elements for tensor in fresh.model.tensors})
    compiled = []
    real_stages = PlanCompiler.stages

    def counting_stages(self, option, num_elements):
        compiled.append((option, num_elements))
        return real_stages(self, option, num_elements)

    monkeypatch.setattr(PlanCompiler, "stages", counting_stages)
    options_for = memoized_prefilter(fresh.compiler, candidates)
    kept = {size: options_for(size) for size in sizes}
    assert compiled == []
    monkeypatch.undo()

    reference = evaluator().compiler
    for size in sizes:
        assert kept[size] == _reference_prefilter(reference, candidates, size)


def test_compute_bound_job_declines_compression(small_cluster):
    """A tiny model on a fast network: compression can only hurt."""
    model = synthetic_model("small", [(int(0.2 * MB / 4), 30 * MS)] * 3)
    job = JobConfig(
        model=model,
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=small_cluster),
    )
    evaluator = StrategyEvaluator(job)
    result = gpu_compression_decision(evaluator)
    fp32 = evaluator.iteration_time(evaluator.baseline())
    assert result.iteration_time <= fp32 + 1e-12
    # The FP32 timeline here is compute-bound; GC brings ~no gain.
    assert result.iteration_time >= fp32 * 0.95
