#!/usr/bin/env python
"""cProfile the planner's selection hot path over a zoo model.

Perf PRs should start from data, not guesses: this prints the top-N
functions by cumulative and by self time for one full
``Espresso.select_strategy()`` run, plus the evaluator's own counters
(simulations, batch prunes, dedup hits, memo hits) so algorithmic wins
and constant-factor wins can be told apart.

Usage::

    PYTHONPATH=src python scripts/profile_planner.py [model] [--top N]
        [--fast/--no-fast] [--sort cumulative|tottime]

Defaults to bert-base (the slowest zoo selection) with the fast
incremental evaluation layer on — profile ``--no-fast`` to see what the
scalar from-scratch engine spends.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", nargs="?", default="bert-base")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument(
        "--sort",
        choices=("cumulative", "tottime"),
        default=None,
        help="print only one table, sorted this way (default: both)",
    )
    parser.add_argument(
        "--no-fast",
        dest="fast",
        action="store_false",
        help="profile the from-scratch scalar engine instead",
    )
    args = parser.parse_args(argv)

    from repro.cluster import nvlink_100g_cluster
    from repro.config import GCInfo, JobConfig, SystemInfo
    from repro.core import Espresso
    from repro.models import available_models, get_model

    if args.model not in available_models():
        parser.error(
            f"unknown model {args.model!r}; "
            f"choose from {', '.join(available_models())}"
        )

    job = JobConfig(
        model=get_model(args.model),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=nvlink_100g_cluster()),
    )

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = Espresso(job, fast_eval=args.fast).select_strategy()
    profiler.disable()
    elapsed_ms = (time.perf_counter() - start) * 1e3

    stats = result.stats
    print(
        f"{args.model}: selection {elapsed_ms:.1f} ms, "
        f"iteration_time {result.iteration_time * 1e3:.3f} ms, "
        f"fast_eval={args.fast}"
    )
    print(
        f"evaluations {stats.fs_calls}, incremental sims "
        f"{stats.incremental_sims}, memo hits {stats.cache_hits}, "
        f"batch: {stats.batch_candidates} candidates / "
        f"{stats.batch_dedup_hits} dedup / {stats.batch_pruned} pruned"
    )

    sorts = (args.sort,) if args.sort else ("cumulative", "tottime")
    for sort in sorts:
        buffer = io.StringIO()
        table = pstats.Stats(profiler, stream=buffer)
        table.strip_dirs().sort_stats(sort).print_stats(args.top)
        print(f"\n== top {args.top} by {sort} ==")
        # Drop pstats' preamble; keep the column header and rows.
        lines = buffer.getvalue().splitlines()
        header = next(
            i for i, line in enumerate(lines) if "ncalls" in line
        )
        print("\n".join(lines[header:]).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
