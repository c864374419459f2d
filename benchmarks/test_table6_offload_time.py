"""Table 6: time to find the best CPU offloading solution.

Paper: after Algorithm 1 the offloading candidates shrink to 5–54
tensors; Espresso's group-count enumeration (Theorem 1) finds the best
offloading in 1–44 ms, while the 2^n subset brute force takes hours to
> 24 h for the bigger models.  We report the same rows: candidate-tensor
count, Algorithm 2's combination count, the trials its branch and bound
priced (at most the combinations, DESIGN.md §5.1) and its wall-clock,
and the extrapolated brute-force time.
"""

import functools

from benchmarks.harness import emit, paper_scale
from repro.baselines.bruteforce import measure_evaluation_seconds
from repro.cluster import nvlink_100g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.algorithm import gpu_compression_decision
from repro.core.offload import cpu_offload_decision
from repro.core.strategy import StrategyEvaluator
from repro.models import available_models, get_model
from repro.utils import format_seconds, render_table

import time

PAPER = {  # (#tensors for offloading, Espresso time)
    "vgg16": (11, "1 ms"),
    "resnet101": (42, "30 ms"),
    "ugatit": (32, "12 ms"),
    "bert-base": (54, "44 ms"),
    "gpt2": (34, "18 ms"),
    "lstm": (5, "1 ms"),
}


def _models():
    if paper_scale():
        return list(available_models())
    return ["vgg16", "ugatit", "gpt2", "lstm"]


@functools.lru_cache(maxsize=1)
def compute_rows():
    gc = GCInfo("dgc", {"ratio": 0.01})
    cluster = nvlink_100g_cluster()
    rows = []
    for name in _models():
        job = JobConfig(model=get_model(name), gc=gc, system=SystemInfo(cluster=cluster))
        evaluator = StrategyEvaluator(job)
        decision = gpu_compression_decision(evaluator)
        start = time.perf_counter()
        offload = cpu_offload_decision(evaluator, decision.strategy)
        seconds = time.perf_counter() - start
        per_eval = measure_evaluation_seconds(evaluator, samples=5)
        candidates = sum(len(g) for g in offload.groups)
        brute = (2.0 ** candidates) * per_eval
        rows.append(
            (name, candidates, offload.combinations, offload.evaluations,
             seconds, brute)
        )
    return rows


def test_table6_offload_time(benchmark):
    rows = compute_rows()
    benchmark(compute_rows)

    table = render_table(
        [
            "Model",
            "#tensors",
            "combinations",
            "trials priced",
            "Espresso",
            "paper Espresso",
            "Brute force 2^n (extrapolated)",
        ],
        [
            (
                name,
                candidates,
                combos,
                trials,
                format_seconds(seconds),
                PAPER[name][1],
                "> 24h" if brute > 24 * 3600 else format_seconds(brute),
            )
            for name, candidates, combos, trials, seconds, brute in rows
        ],
        title="Table 6 — time to find the best CPU offloading",
    )
    emit("table6_offload_time", table)

    for name, candidates, combos, trials, seconds, brute in rows:
        # Theorem 1's point: the group-count enumeration is drastically
        # smaller than the subset space whenever sizes repeat.
        assert combos <= 2 ** max(candidates, 1), name
        assert trials <= combos, name
        assert seconds < 60, name
