"""Shared benchmark-harness utilities.

Every module in this directory regenerates one of the paper's tables or
figures: it computes the same rows/series the paper reports, prints them
(run pytest with ``-s`` to see the tables inline), writes them to
``benchmarks/results/``, and asserts the paper's qualitative *shape*
(who wins, roughly by how much, where the crossovers are).

Scale control: the full paper grid (8–64 GPUs, all 18 model x GC combos)
takes tens of minutes in pure Python.  By default the benches run a
representative subset; set ``REPRO_BENCH_SCALE=paper`` for the full grid.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.baselines import BaselineResult
from repro.cluster.topology import ClusterSpec
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.models import get_model

RESULTS_DIR = Path(__file__).parent / "results"


def paper_scale() -> bool:
    """True when the full paper grid was requested."""
    return os.environ.get("REPRO_BENCH_SCALE", "ci").lower() == "paper"


def machine_counts() -> Tuple[int, ...]:
    """The 8→64 GPU x-axis of Figs. 12/13 (8 GPUs per machine)."""
    return (1, 2, 4, 8) if paper_scale() else (1, 4, 8)


def job_for(model_name: str, gc: GCInfo, cluster: ClusterSpec) -> JobConfig:
    return JobConfig(model=get_model(model_name), gc=gc, system=SystemInfo(cluster=cluster))


@functools.lru_cache(maxsize=None)
def _system_cache() -> dict:
    return {}


def run_system_cached(system_cls, job_key: str, job: JobConfig) -> BaselineResult:
    """Run a baseline system once per (system, job) and cache the result.

    pytest-benchmark re-invokes the benched callable several times; the
    expensive experiments are computed once and the bench measures the
    (cheap, deterministic) result lookup plus table assembly.
    """
    cache = _system_cache()
    key = (system_cls.__name__, job_key)
    if key not in cache:
        cache[key] = system_cls().run(job)
    return cache[key]


def run_case(
    system_cls, model_name: str, gc: GCInfo, cluster: ClusterSpec
) -> BaselineResult:
    """Cached end-to-end run of one system on one (model, GC, cluster)."""
    key = (
        f"{model_name}|{gc.algorithm}|{sorted(gc.params.items())}|"
        f"{cluster.interconnect}|{cluster.num_machines}x{cluster.gpus_per_machine}"
    )
    return run_system_cached(system_cls, key, job_for(model_name, gc, cluster))


def merge_bench_json(path: Path, updates: Dict) -> Dict:
    """Merge ``updates`` into a BENCH_*.json file, keeping other keys.

    Several bench functions contribute sections to the same trajectory
    file (``test_perf_planner`` writes the per-model records, the fusion
    and ratio benches their own sections); a plain ``write_text`` from
    either would clobber the other's section.
    """
    existing: Dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(updates)
    path.write_text(json.dumps(existing, indent=2) + "\n")
    return existing


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


#: The Figs. 12/13 model x GC pairings, exactly as captioned.
FIG12_CASES = (
    ("bert-base", GCInfo("randomk", {"ratio": 0.01})),
    ("gpt2", GCInfo("efsignsgd")),
    ("ugatit", GCInfo("dgc", {"ratio": 0.01})),
)
FIG13_CASES = (
    ("vgg16", GCInfo("randomk", {"ratio": 0.01})),
    ("lstm", GCInfo("efsignsgd")),
    ("resnet101", GCInfo("dgc", {"ratio": 0.01})),
)
