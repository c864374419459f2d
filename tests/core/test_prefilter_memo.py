"""The process-wide pricing tables (``repro.core.plan.PricingTable``).

Every compiler in a process with one pricing context shares one table:
the flattened stage chains and the candidate rankings that context has
priced.  These tests pin what that sharing must never change: a warm
process plans exactly like a cold one, evaluators of one context share
entries and price like an evaluator on a cleared table, no entry is
served under another key, two threads planning in one context get the
single-thread plans and one chain key per chain, the number of tables
stays at its bound, and an evaluator without a context shares nothing.
"""

import json
import os
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import pytest

from repro.cluster import nvlink_100g_cluster, pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso, plan, upper_bound_evaluator
from repro.core.algorithm import (
    device_candidate_options,
    memoized_prefilter,
    prefilter_candidates,
)
from repro.core.options import DEFAULT_RATIO_LADDER, ladder_options
from repro.core.plan import PRICING_TABLES, PlanCompiler, clear_pricing_tables
from repro.core.presets import uniform_strategies
from repro.core.strategy import StrategyEvaluator
from repro.models import get_model, synthetic_model
from repro.service.api import strategy_digest
from repro.sim.stages import RESOURCES, compute_stage
from repro.utils.units import MB, MS

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The benchmark's zoo kinds (dgc 0.01 on NVLink 8x8, and ugatit randomk
#: on 6x2) and its ladder and fusion kinds on lstm and vgg16.
KINDS = (
    "lstm",
    "vgg16",
    "resnet101",
    "ugatit",
    "gpt2",
    "ugatit-randomk-6x2",
    "lstm/ladder",
    "lstm/fusion",
    "vgg16/ladder",
    "vgg16/fusion",
)

#: Plans each kind named on the command line and prints one JSON line
#: per kind: the plan's digest, its iteration time and the work counts
#: of every Espresso run it took.  ``--twice`` plans every kind once
#: first and prints the second round, each kind planned after all the
#: others.
#:
#: Both processes first key every option the kinds can reach, in one
#: order.  Exact F(S) ties break by canonical key, which numbers options
#: in the order a process first sees them, so without this the other
#: kinds alone change vgg16/fusion's search: two of its fusion
#: candidates price 645 and 364 F(S) in a fresh process but 629 and 364
#: -- with other replay counts -- after the other kinds, tables or not.
PLAN_SCRIPT = """
import json, sys
from repro.cluster import nvlink_100g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core import Espresso, FusionPlanner
from repro.core.algorithm import device_candidate_options
from repro.core.options import (DEFAULT_RATIO_LADDER, Device, canonical_key,
                                ladder_options, no_compression_option)
from repro.core.presets import uniform_strategies
from repro.models import get_model
from repro.service.api import strategy_digest

reachable = ladder_options(device_candidate_options(), DEFAULT_RATIO_LADDER)
reachable += [no_compression_option()]
reachable += [strategy.options[0] for _, strategy in uniform_strategies(1)]
for option in reachable + [o.with_device(d) for o in reachable for d in Device]:
    canonical_key(option)

COUNTS = ("fs_calls", "incremental_sims", "events_replayed",
          "batch_pruned", "offload_trials")

def job(model, gc="dgc", machines=8, gpus=8):
    return JobConfig(model=get_model(model), gc=GCInfo(gc, {"ratio": 0.01}),
                     system=SystemInfo(cluster=nvlink_100g_cluster(machines, gpus)))

def counts(result):
    return [getattr(result.stats, name) for name in COUNTS]

def plan(kind):
    model, _, planner = kind.partition("/")
    if model == "ugatit-randomk-6x2":
        result = Espresso(job("ugatit", "randomk", 6, 2)).select_strategy()
    elif planner == "fusion":
        result = FusionPlanner(job(model)).select_strategy()
        return [result.fused.describe(), result.iteration_time,
                [counts(c.result) for c in result.candidates]]
    else:
        ratios = DEFAULT_RATIO_LADDER if planner == "ladder" else None
        result = Espresso(job(model), ratios=ratios).select_strategy()
    return [strategy_digest(result.strategy), result.iteration_time,
            [counts(result)]]

kinds = [kind for kind in sys.argv[1:] if kind != "--twice"]
if "--twice" in sys.argv:
    for kind in kinds:
        plan(kind)
for kind in kinds:
    print(json.dumps({kind: plan(kind)}))
"""


def _plan_in_subprocess(*args: str) -> dict:
    result = subprocess.run(
        [sys.executable, "-c", PLAN_SCRIPT, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    plans = {}
    for line in result.stdout.splitlines():
        plans.update(json.loads(line))
    return plans


@pytest.fixture(scope="module")
def warm_plans():
    """Every kind planned in one process after all the others were."""
    return _plan_in_subprocess("--twice", *KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_warm_process_plans_like_a_cold_one(kind, warm_plans):
    """A kind planned first in a fresh process and the same kind planned
    after every other kind (tables warm) agree on the digest, the
    iteration time to the bit, and every work count (fs_calls,
    incremental_sims, events_replayed, batch_pruned, offload_trials)."""
    cold = _plan_in_subprocess(kind)
    assert warm_plans[kind] == cold[kind]


def _job(cluster=None, ratio=0.01, model="vgg16") -> JobConfig:
    return JobConfig(
        model=get_model(model),
        gc=GCInfo("dgc", {"ratio": ratio}),
        system=SystemInfo(cluster=cluster or nvlink_100g_cluster(2, 4)),
    )


def _flat(compiler, tensor, option):
    """A chain compiled by ``compiler`` alone, flattened like a table
    entry."""
    stages = [compute_stage(tensor.compute_time)]
    stages += compiler.stages(option, tensor.num_elements)
    return (
        tuple(RESOURCES.index(stage.resource) for stage in stages),
        tuple(stage.duration for stage in stages),
    )


def test_memo_never_serves_an_entry_across_keys():
    """Rank a base job warm, then jobs that differ from it in one key
    part at a time: each gets exactly what a cold ``prefilter_candidates``
    returns, and each variant's cold ranking differs from the base's for
    some size, so serving the base's entry would fail here.  Every chain
    each job reads through its table is the one its own compiler
    compiles."""
    fixed = device_candidate_options()
    ladder = ladder_options(fixed, DEFAULT_RATIO_LADDER)
    pcie = pcie_25g_cluster(2, 4)
    base = (StrategyEvaluator, _job(), fixed, 3)
    variants = {
        "cluster": (StrategyEvaluator, _job(cluster=pcie), fixed, 3),
        "ratio": (StrategyEvaluator, _job(ratio=0.001), fixed, 3),
        "candidate set": (StrategyEvaluator, _job(), ladder, 3),
        "per_device": (StrategyEvaluator, _job(), fixed, 1),
        "upper bound": (upper_bound_evaluator, _job(), fixed, 3),
    }
    sizes = sorted({t.num_elements for t in _job().model.tensors})

    def served(case):
        make, job, candidates, per_device = case
        evaluator = make(job)
        options_for = memoized_prefilter(evaluator.compiler, candidates, per_device)
        for index, tensor in enumerate(job.model.tensors):
            for option in options_for(tensor.num_elements)[:4]:
                compiled = _flat(make(job).compiler, tensor, option)
                assert evaluator._flat_chain(index, option) == compiled
        return [options_for(size) for size in sizes]

    def cold(case):
        make, job, candidates, per_device = case
        compiler = make(job).compiler
        return [
            prefilter_candidates(compiler, candidates, size, per_device)
            for size in sizes
        ]

    clear_pricing_tables()
    assert served(base) == cold(base)
    for name, case in variants.items():
        assert served(case) == cold(case), name
        assert cold(case) != cold(base), f"{name} ranks like the base job"
    assert served(base) == cold(base)


def test_chains_are_keyed_by_size_and_compute_time():
    """Jobs of one context whose tensors share a size but not a compute
    time, or a compute time but not a size, read different chains."""
    system = SystemInfo(cluster=nvlink_100g_cluster(2, 4))
    gc = GCInfo("dgc", {"ratio": 0.01})
    shapes = [(int(8 * MB / 4), 3 * MS), (int(8 * MB / 4), 5 * MS),
              (int(4 * MB / 4), 3 * MS)]
    option = device_candidate_options()[-1]
    clear_pricing_tables()
    entries = []
    for shape in shapes:
        job = JobConfig(model=synthetic_model("one", [shape]), gc=gc, system=system)
        evaluator = StrategyEvaluator(job)
        entry = evaluator._chain_entry(0, option)
        assert entry[1:] == _flat(PlanCompiler(
            job.system.cluster, job.build_compressor(), system.gpu, system.cpu
        ), job.model.tensors[0], option)
        entries.append(entry)
    assert len({entry[1:] for entry in entries}) == len(shapes)
    assert len({entry[0] for entry in entries}) == len(shapes)


def test_evaluators_of_one_context_share_chain_entries(monkeypatch):
    """Evaluators of one pricing context -- the same job twice, and
    another model -- hold one table, and the second evaluator of a job
    reads every chain the first compiled without compiling any."""
    clear_pricing_tables()
    job = _job(model="lstm")
    first, second = StrategyEvaluator(job), StrategyEvaluator(job)
    other = StrategyEvaluator(_job(model="vgg16"))
    assert first.compiler.table is second.compiler.table is other.compiler.table
    pairs = [
        (index, option)
        for index in range(job.model.num_tensors)
        for option in device_candidate_options()
    ]
    entries = [first._chain_entry(index, option) for index, option in pairs]
    compiled = []
    real_stages = PlanCompiler.stages

    def counting_stages(self, option, num_elements):
        compiled.append((option, num_elements))
        return real_stages(self, option, num_elements)

    monkeypatch.setattr(PlanCompiler, "stages", counting_stages)
    shared = [second._chain_entry(index, option) for index, option in pairs]
    assert compiled == []
    assert all(a is b for a, b in zip(shared, entries))


def test_shared_entries_price_like_a_cleared_table():
    """F(S) read through a table that other evaluators of the context
    filled -- another model, a ratio-laddered plan, the same job --
    equals, bit for bit, F(S) of an evaluator on a cleared table, and
    so does every work count."""
    job = _job()
    n = job.model.num_tensors
    candidates = device_candidate_options()

    def price(evaluator):
        base = evaluator.baseline()
        times = [evaluator.price_options(base, i, candidates) for i in range(n)]
        times += [evaluator.iteration_time(s) for _, s in uniform_strategies(n)]
        return times, evaluator.stats

    clear_pricing_tables()
    cold = price(StrategyEvaluator(job))
    clear_pricing_tables()
    Espresso(_job(model="lstm")).select_strategy()
    Espresso(job, ratios=DEFAULT_RATIO_LADDER).select_strategy()
    price(StrategyEvaluator(job))
    assert price(StrategyEvaluator(job)) == cold


def test_two_threads_planning_in_one_context_match_single_thread_plans():
    """Two planners sharing a pricing context (lstm with and without the
    ratio ladder), run on two threads with a tiny switch interval from
    cleared tables, return the plans each makes alone, and the table
    they filled holds one chain key per chain."""
    job = _job(model="lstm")
    ratios = (DEFAULT_RATIO_LADDER, None)

    def describe(result):
        stats = result.stats
        return (
            strategy_digest(result.strategy),
            result.iteration_time,
            stats.fs_calls,
            stats.incremental_sims,
            stats.events_replayed,
        )

    def plan_one(ladder):
        return describe(Espresso(job, ratios=ladder).select_strategy())

    alone = []
    for ladder in ratios:
        clear_pricing_tables()
        alone.append(plan_one(ladder))

    clear_pricing_tables()
    together = [None, None]

    def run(slot):
        together[slot] = plan_one(ratios[slot])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert together == alone
    keys = defaultdict(set)
    for entry in StrategyEvaluator(job).compiler.table.chains.values():
        keys[entry[1:]].add(entry[0])
    assert keys and all(len(chain_keys) == 1 for chain_keys in keys.values())


class _YieldingDuration(float):
    """A stage duration whose hash lets the other thread run, so an
    unlocked check-then-insert on its chain's signature interleaves."""

    def __hash__(self):
        time.sleep(0)
        return super().__hash__()


def test_two_threads_interning_one_chain_get_one_chain_key():
    """Two threads interning the same 1,000 new chains into one table,
    under different keys, give each chain one chain key.  Unlocked, both
    threads could miss a chain and mint a key each."""
    table = plan.pricing_table(None)
    chains = [
        [compute_stage(_YieldingDuration(1e-3 + i * 1e-9))] for i in range(1000)
    ]
    keys = [None, None]
    start = threading.Barrier(2)

    def intern(thread):
        start.wait()
        keys[thread] = [
            table.intern((thread, i, 0.0), stages)[0]
            for i, stages in enumerate(chains)
        ]

    threads = [threading.Thread(target=intern, args=(t,)) for t in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert keys[0] == keys[1]
    assert len(set(keys[0])) == len(chains)


def test_table_count_stays_at_the_bound(monkeypatch):
    """Only the ``PRICING_TABLES`` most recently resolved contexts keep
    chains and at most ``RANKED_CONTEXTS`` keep rankings; a context past
    the first bound keeps its rankings in a chainless table while the
    evaluators holding its old table keep it, and a full table is
    replaced for the next evaluator of its context."""
    monkeypatch.setattr(plan, "RANKED_CONTEXTS", PRICING_TABLES + 2)
    clear_pricing_tables()
    jobs = [_job(ratio=0.001 * (k + 1)) for k in range(PRICING_TABLES + 3)]
    option = device_candidate_options()[-1]
    sizes = sorted({tensor.num_elements for tensor in jobs[0].model.tensors})
    tables = []
    for job in jobs:
        evaluator = StrategyEvaluator(job)
        evaluator._chain_entry(0, option)
        memoized_prefilter(evaluator.compiler, [option])(sizes[0])
        tables.append(evaluator.compiler.table)
    assert len(set(map(id, tables))) == len(jobs)
    assert len(plan._TABLES) == PRICING_TABLES + 2
    assert [t for t in plan._TABLES.values() if t.chains] == tables[3:]
    assert all(len(table.chains) == 1 for table in tables)

    assert StrategyEvaluator(jobs[-1]).compiler.table is tables[-1]
    again = StrategyEvaluator(jobs[1]).compiler.table
    assert again is not tables[1] and not again.chains
    assert again.rankings is tables[1].rankings
    chained = [t for t in plan._TABLES.values() if t.chains]
    assert chained == tables[4:]
    assert StrategyEvaluator(jobs[0]).compiler.table.rankings == {}
    assert len(plan._TABLES) == PRICING_TABLES + 2
    chained = [t for t in plan._TABLES.values() if t.chains]
    assert chained == tables[5:]

    monkeypatch.setattr(plan, "TABLE_CHAINS", 2)
    holder = StrategyEvaluator(jobs[-1])
    for other in device_candidate_options()[:3]:
        holder._chain_entry(0, other)
    assert holder.compiler.table is tables[-1]
    assert len(tables[-1].chains) == 4
    assert StrategyEvaluator(jobs[-1]).compiler.table is not tables[-1]
    ranker = StrategyEvaluator(jobs[-2])
    memoized_prefilter(ranker.compiler, [option])(sizes[1])
    assert StrategyEvaluator(jobs[-2]).compiler.table is not tables[-2]


def test_an_evaluator_without_a_context_shares_nothing():
    """The Upper Bound evaluator's keyless compiler gets a private table:
    two of them share nothing with each other, nor with the job's table,
    which their free-compression chains would corrupt."""
    clear_pricing_tables()
    job = _job(model="lstm")
    plain = StrategyEvaluator(job)
    free = [upper_bound_evaluator(job), upper_bound_evaluator(job)]
    table = plain.compiler.table
    assert free[0].compiler.table is not free[1].compiler.table
    assert table not in (free[0].compiler.table, free[1].compiler.table)
    assert list(plan._TABLES.values()) == [table]
    options = device_candidate_options()
    entries = [plain._chain_entry(0, option) for option in options]
    free_entries = [free[0]._chain_entry(0, option) for option in options]
    assert free[1].compiler.table.chains == {}
    assert set(table.chains.values()) == set(entries)
    assert any(a[1:] != b[1:] for a, b in zip(entries, free_entries))
