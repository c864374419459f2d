"""Command-line interface: plan a compression strategy from the shell.

Examples::

    python -m repro plan --model gpt2 --gc dgc --ratio 0.01 \\
        --testbed nvlink --machines 8
    python -m repro plan --model vgg16 --robust --objective worst
    python -m repro compare --model lstm --gc efsignsgd --testbed pcie
    python -m repro faults --model bert-base --gc dgc --ratio 0.01
    python -m repro fleet --mix pcie-trio --check
    python -m repro fleet --tenant a:lstm:dgc:0.01 --tenant b:vgg16:topk:0.01
    python -m repro models
    python -m repro options --mode uniform
    python -m repro serve --workers 2 --queue-limit 16 --deadline 5

``plan`` also accepts the paper's three config files instead of names::

    python -m repro plan --model-config model.json --gc-config gc.json \\
        --system-config system.json

Config-file errors (missing file, malformed JSON, missing fields) exit
with code 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, List, Optional

from repro.baselines import ALL_SYSTEMS, FP32, HiPress, UpperBound
from repro.cluster import nvlink_100g_cluster
from repro.cluster.tenancy import FleetSpec, TenantSpec, load_fleet
from repro.config import (
    GCInfo,
    JobConfig,
    SystemInfo,
    load_cluster,
    load_gc,
    load_model,
)
from repro.core import Espresso
from repro.core.conformance import (
    conformance_strategies,
    validate_strategy,
)
from repro.core.fleet import example_mixes, plan_fleet
from repro.core.fusion import (
    FusionPlanner,
    PlanArtifact,
    StalePlanError,
    fused_job,
    load_plan,
    save_plan,
)
from repro.core.options import DEFAULT_RATIO_LADDER, Device
from repro.core.robust import (
    OBJECTIVES,
    DegradationTable,
    robust_select,
    sensitivity_sweep,
)
from repro.core.strategy import StrategyEvaluator, baseline_strategy
from repro.core.tree import search_space_size
from repro.service.api import RequestError, preset_cluster
from repro.service.core import PlanningCore, run_systems, validate_suite
from repro.service.resilience import ChaosSchedule, RetryPolicy
from repro.service.server import ServerConfig, serve
from repro.sim.faults import ensemble_by_name
from repro.sim.trace import write_chrome_trace
from repro.sim.validate import ConformanceError
from repro.models import available_models, get_model
from repro.training.chaos import (
    TrainingJobSpec,
    corruption_drill,
    run_inprocess,
    run_sigkill,
    run_uninterrupted,
    sample_crash_steps,
)
from repro.training.checkpoint import (
    CheckpointError,
    checkpoint_step,
    list_checkpoints,
)
from repro.training.elastic import ElasticController, MembershipEvent
from repro.utils import format_bytes, render_table

#: Exit code for unusable command-line inputs (bad config files), the
#: same convention argparse uses for unparseable arguments.
EXIT_USAGE = 2

#: Help text of ``--jobs N``.  The flag is accepted so that scripts and
#: stored invocations that pass it keep working; N > 1 prints this as a
#: note.
JOBS_HELP = "accepted for compatibility; planning runs in one process"


class CLIConfigError(Exception):
    """A command-line input cannot be used: a bad flag value, or a config
    or output path that cannot be read or written (exit code 2)."""


def _load_config(loader: Callable, path: str, what: str):
    """Run a config ``loader``, translating failures to one-line errors."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise CLIConfigError(f"{what} config not found: {path}") from None
    except IsADirectoryError:
        raise CLIConfigError(f"{what} config is a directory: {path}") from None
    except json.JSONDecodeError as error:
        raise CLIConfigError(
            f"{what} config {path}: malformed JSON ({error})"
        ) from None
    except (KeyError, TypeError, ValueError) as error:
        raise CLIConfigError(f"{what} config {path}: {error}") from None


def _build_job(args: argparse.Namespace) -> JobConfig:
    if args.model_config:
        model = _load_config(load_model, args.model_config, "model")
    else:
        model = get_model(args.model)
    if args.gc_config:
        gc = _load_config(load_gc, args.gc_config, "GC")
    else:
        params = {}
        if args.ratio is not None:
            params["ratio"] = args.ratio
        gc = GCInfo(args.gc, params)
    if args.system_config:
        cluster = _load_config(load_cluster, args.system_config, "system")
    else:
        try:
            cluster = preset_cluster(args.testbed, args.machines, args.gpus)
        except RequestError as error:
            raise CLIConfigError(str(error)) from None
    job = JobConfig(model=model, gc=gc, system=SystemInfo(cluster=cluster))
    # Instantiate the compressor eagerly: a typo'd GC parameter or an
    # out-of-range ratio surfaces here as a one-line exit-2 diagnostic
    # instead of a traceback from deep inside the planner.
    try:
        job.build_compressor()
    except ValueError as error:
        raise CLIConfigError(str(error)) from None
    return job


def _check_cvar_alpha(alpha: float) -> None:
    """Reject a ``--cvar-alpha`` outside (0, 1] before any planning."""
    if not 0.0 < alpha <= 1.0:
        raise CLIConfigError(f"--cvar-alpha must be in (0, 1], got {alpha}")


def _write_output(write: Callable[[str], None], path: str) -> None:
    """Run ``write(path)``, translating OS failures to one-line errors."""
    try:
        write(path)
    except OSError as error:
        raise CLIConfigError(
            f"cannot write {path}: {error.strerror or error}"
        ) from None


def _parse_ratios(value: Optional[str]):
    """``--ratios`` parser: None, 'default', or a comma list of floats."""
    if value is None:
        return None
    if value == "default":
        return DEFAULT_RATIO_LADDER
    try:
        ratios = tuple(
            float(part) for part in value.split(",") if part.strip()
        )
    except ValueError:
        raise CLIConfigError(
            f"--ratios wants a comma-separated list of floats, got {value!r}"
        ) from None
    if not ratios:
        raise CLIConfigError("--ratios got an empty list")
    for ratio in ratios:
        if not 0.0 < ratio <= 1.0:
            raise CLIConfigError(
                f"--ratios entries must be in (0, 1], got {ratio}"
            )
    return ratios


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help=JOBS_HELP)


def _add_job_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="gpt2", choices=available_models())
    parser.add_argument("--gc", default="dgc", help="compression algorithm name")
    parser.add_argument("--ratio", type=float, default=None,
                        help="sparsification ratio (for randomk/topk/dgc)")
    parser.add_argument("--testbed", default="nvlink", choices=("nvlink", "pcie"))
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument("--gpus", type=int, default=8, help="GPUs per machine")
    parser.add_argument("--model-config", default=None,
                        help="model-information JSON (overrides --model)")
    parser.add_argument("--gc-config", default=None,
                        help="GC-information JSON (overrides --gc/--ratio)")
    parser.add_argument("--system-config", default=None,
                        help="system-information JSON (overrides --testbed)")
    _add_jobs_argument(parser)


def _print_stats(result) -> None:
    stats = result.stats
    print("Fast evaluation layer:")
    rows = [
        ("F(S) calls", f"{stats.fs_calls:,}"),
        ("answered without simulation", f"{stats.cache_hit_rate:.1%} "
                                        f"(memo + dedup + pruned)"),
        ("memo cache hits", f"{stats.cache_hits:,} "
                            f"({stats.memo_hit_rate:.1%})"),
        ("full simulations", f"{stats.full_sims:,}"),
        ("incremental simulations", f"{stats.incremental_sims:,}"),
        ("base rebuilds", f"{stats.rebases:,}"),
        ("events simulated", f"{stats.events_full + stats.events_replayed:,}"),
        ("events reused via prefix", f"{stats.events_reused:,} "
                                     f"({stats.prefix_reuse_fraction:.1%})"),
    ]
    print(render_table(["counter", "value"], rows))
    print()
    if stats.batch_calls:
        batch_rows = [
            ("pricing calls", f"{stats.batch_calls:,}"),
            ("candidates priced", f"{stats.batch_candidates:,}"),
            ("pruned by lower bound", f"{stats.batch_pruned:,} "
                                      f"({stats.batch_prune_rate:.1%})"),
            ("answered by dedup", f"{stats.batch_dedup_hits:,}"),
        ]
        print(render_table(["batch pricing", "value"], batch_rows))
        print()
    if stats.offload_passes:
        offload_rows = [
            ("passes", f"{stats.offload_passes:,}"),
            ("by coordinate descent", f"{stats.offload_descent_passes:,}"),
            ("Theorem 1 combinations", f"{stats.offload_combinations:,}"),
            ("trials priced", f"{stats.offload_trials:,}"),
        ]
        print(render_table(["Algorithm 2", "value"], offload_rows))
        print()
    phases = [
        ("Algorithm 1 (GPU decision)", result.gpu_selection_seconds),
        ("Algorithm 2 (CPU offload)", result.offload_selection_seconds),
        (f"refinement ({result.refinement_sweeps_run} sweeps)",
         result.refinement_seconds),
        ("total selection", result.selection_seconds),
    ]
    print(render_table(
        ["phase", "seconds"],
        [(name, f"{seconds:.3f}") for name, seconds in phases],
    ))


def _print_strategy_table(job: JobConfig, strategy) -> None:
    rows = []
    pinned = any(
        strategy[index].ratio is not None
        for index in strategy.compressed_indices
    )
    for index in strategy.compressed_indices:
        tensor = job.model.tensors[index]
        option = strategy[index]
        device = "CPU" if option.uses_device(Device.CPU) else "GPU"
        scope = "intra+inter" if option.compresses_intra else (
            "inter" if option.compresses_inter else "intra"
        )
        row = (tensor.name, format_bytes(tensor.nbytes), device, scope)
        if pinned:
            ratio = option.ratio
            row += (f"{ratio:g}" if ratio is not None else "default",)
        rows.append(row)
    if rows:
        headers = ["tensor", "size", "device", "scope"]
        if pinned:
            headers.append("ratio")
        print(render_table(headers, rows, title="Compressed tensors:"))
    else:
        print("No tensor benefits from compression on this job.")


def cmd_plan_robust(args: argparse.Namespace) -> int:
    job = _build_job(args)
    ensemble = ensemble_by_name(args.ensemble)
    result = robust_select(
        job,
        ensemble=ensemble,
        objective=args.objective,
        cvar_alpha=args.cvar_alpha,
        check=args.check,
    )
    print(result.summary())
    print()
    rows = [
        (name, f"{seconds * 1e3:.2f} ms")
        for name, seconds in result.per_fault_times
    ]
    print(render_table(
        ["fault", "iteration"], rows,
        title=f"Selected strategy across the {args.ensemble!r} ensemble:",
    ))
    print()
    _print_strategy_table(job, result.strategy)
    return 0


def _print_fusion_stats(result) -> None:
    rows = [
        (
            candidate.name,
            f"{candidate.plan.num_groups}",
            f"{candidate.iteration_time * 1e3:.3f} ms",
            "<-- selected" if candidate.plan is result.plan else "",
        )
        for candidate in result.candidates
    ]
    print(render_table(
        ["plan", "groups", "iteration", ""], rows,
        title="Fusion candidate plans (each fully planned by Espresso):",
    ))
    print(
        f"boundary refinement: {result.sweep_trials} trial move(s), "
        f"{result.sweep_accepts} accepted"
    )
    print()


def cmd_plan_fusion(
    args: argparse.Namespace, job: JobConfig, ratios=None
) -> int:
    plan = None
    if args.load:
        artifact = load_plan(args.load)
        artifact.check_against(job.model)  # StalePlanError -> exit 2
        plan = artifact.plan()
    planner = FusionPlanner(
        job,
        check=args.check,
        plan=plan,
        ratios=ratios,
        error_budget=args.error_budget,
    )
    try:
        result = planner.select_strategy()
    except ConformanceError as error:
        print(f"CONFORMANCE FAILURE during planning:\n{error}")
        return 1
    print(result.summary())
    print(result.result.summary())
    print()
    fjob = fused_job(job, result.plan)
    if args.check:
        # Every timeline the candidate planners materialized was checked
        # in-line; finish by auditing the selected *fused* strategy end
        # to end (invariants + oracle + incremental exactness) on the
        # fused job — the battery runs unchanged, a fused group simply
        # is a tensor to it.
        report = validate_strategy(
            StrategyEvaluator(fjob), result.strategy, name="selected"
        )
        if not report.ok:
            print("conformance: FAILED on the selected fused strategy")
            for violation in report.violations:
                print(f"  {violation}")
            if not report.oracle_exact:
                print("  [oracle] engine timeline != reference simulation")
            if not report.incremental_exact:
                print("  [incremental] swap path != from-scratch makespan")
            return 1
        print("conformance: selected fused timeline checked, 0 violations")
        print()
    if args.stats:
        _print_fusion_stats(result)
        _print_stats(result.result)
        print()
    if args.save:
        artifact = PlanArtifact.from_result(job, result)
        _write_output(lambda path: save_plan(path, artifact), args.save)
        print(f"fusion plan saved to {args.save}")
        print()
    _print_strategy_table(fjob, result.strategy)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    _check_cvar_alpha(args.cvar_alpha)
    if args.robust:
        return cmd_plan_robust(args)
    job = _build_job(args)
    if args.save and not (args.fusion or args.load):
        raise CLIConfigError("--save requires --fusion")
    ratios = _parse_ratios(args.ratios)
    if args.error_budget is not None and not 0.0 <= args.error_budget <= 1.0:
        raise CLIConfigError(
            f"--error-budget must be in [0, 1], got {args.error_budget}"
        )
    if args.fusion or args.load:
        return cmd_plan_fusion(args, job, ratios=ratios)
    core = PlanningCore(
        check=args.check,
        ratios=ratios,
        error_budget=args.error_budget,
    )
    try:
        planner, result = core.plan_job_detailed(job)
    except ConformanceError as error:
        print(f"CONFORMANCE FAILURE during planning:\n{error}")
        return 1
    print(result.summary())
    if result.ratio_laddered:
        fixed = result.fixed_ratio_iteration_time
        print(
            f"ratio ladder: fixed-ratio baseline "
            f"{fixed * 1e3:.2f} ms -> laddered "
            f"{result.iteration_time * 1e3:.2f} ms "
            f"({(fixed / result.iteration_time - 1) * 100:+.1f}%)"
        )
    if result.error_budget is not None:
        print(
            f"error budget: {result.strategy_error:.4f} of "
            f"{result.error_budget:g} spent "
            f"({result.error_budget_utilization:.1%} utilization)"
        )
    print()
    if args.check:
        # Every timeline the planner materialized was checked in-line;
        # finish by auditing the *selected* strategy end to end
        # (invariants + oracle + incremental exactness).
        report = validate_strategy(
            planner.evaluator, result.strategy, name="selected"
        )
        checked = planner.evaluator.timelines_checked + 1
        if not report.ok:
            print(f"conformance: FAILED on the selected strategy")
            for violation in report.violations:
                print(f"  {violation}")
            if not report.oracle_exact:
                print("  [oracle] engine timeline != reference simulation")
            if not report.incremental_exact:
                print("  [incremental] swap path != from-scratch makespan")
            return 1
        print(f"conformance: {checked} timelines checked, 0 violations")
        print()
    if args.stats:
        _print_stats(result)
        print()
    _print_strategy_table(job, result.strategy)
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    job = _build_job(args)
    ensemble = ensemble_by_name(args.ensemble)
    espresso = Espresso(job).select_strategy().strategy
    strategies = [
        ("espresso", espresso),
        ("fp32", baseline_strategy(job.model.num_tensors)),
    ]
    for system_cls in (HiPress,):
        baseline = system_cls().run(job)
        strategies.append((baseline.name.lower(), baseline.strategy))
    report = sensitivity_sweep(
        job, strategies, ensemble=ensemble, check=args.check
    )
    headers = ["fault"] + [name for name, _ in strategies]
    rows = []
    for fault_name in report.fault_names:
        row = [fault_name]
        for entry in report.strategies:
            value = entry.time_under(fault_name)
            row.append(
                f"{value * 1e3:.2f} ms ({entry.overhead_under(fault_name):+.1%})"
            )
        rows.append(tuple(row))
    print(render_table(
        headers, rows,
        title=f"Fault sensitivity: {job.model.name} + {job.gc.algorithm}, "
              f"{job.system.cluster.total_gpus} GPUs "
              f"({job.system.cluster.interconnect}) — "
              f"iteration time (overhead vs own nominal)",
    ))
    print()
    for entry in report.strategies:
        print(
            f"{entry.name}: worst case {entry.worst_time * 1e3:.2f} ms "
            f"under {entry.worst_fault!r} "
            f"({entry.overhead_under(entry.worst_fault):+.1%} vs nominal)"
        )
    if args.check:
        print()
        print(
            f"conformance: {report.timelines_checked} faulted timelines "
            f"checked, 0 violations"
        )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    job = _build_job(args)
    rows = []
    systems = list(ALL_SYSTEMS)
    if args.upper_bound:
        systems.append(UpperBound)
    checker = StrategyEvaluator(job, check=True) if args.check else None
    checked = 0
    results = run_systems(job, systems)
    for result in results:
        if checker is not None:
            try:
                checker.timeline(result.strategy)
            except ConformanceError as error:
                print(f"CONFORMANCE FAILURE on {result.name}:\n{error}")
                return 1
            checked += 1
        rows.append(
            (
                result.name,
                f"{result.throughput:,.0f} {job.model.sample_unit}/s",
                f"{result.scaling_factor:.2f}",
            )
        )
    print(render_table(["system", "throughput", "scaling factor"], rows,
                       title=f"{job.model.name} + {job.gc.algorithm}, "
                             f"{job.system.cluster.total_gpus} GPUs"))
    if checker is not None:
        print(f"conformance: {checked} system timelines checked, 0 violations")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    job = _build_job(args)
    oracle = not args.skip_oracle
    if args.strategy == "espresso":
        selected = Espresso(job).select_strategy().strategy
        named = [("espresso", selected)]
    elif args.strategy == "all":
        named = conformance_strategies(job.model.num_tensors)
    else:
        suite = dict(conformance_strategies(job.model.num_tensors))
        named = [(args.strategy, suite[args.strategy])]
    reports = validate_suite(job, named, oracle)

    rows = []
    failures = 0
    for report in reports:
        if not report.ok:
            failures += 1
        rows.append(
            (
                report.name,
                f"{report.num_stages}",
                f"{report.makespan * 1e3:.2f} ms",
                "ok" if not report.violations else f"{len(report.violations)} violations",
                ("exact" if report.oracle_exact else "MISMATCH") if oracle else "skipped",
                "exact" if report.incremental_exact else "MISMATCH",
            )
        )
    print(render_table(
        ["strategy", "stages", "makespan", "invariants", "oracle", "incremental"],
        rows,
        title=f"Simulator conformance: {job.model.name} on "
              f"{job.system.cluster.total_gpus} GPUs "
              f"({job.system.cluster.interconnect})",
    ))
    for report in reports:
        for violation in report.violations:
            print(f"  {report.name}: {violation}")
    if args.trace:
        timeline = reports[-1].timeline
        _write_output(
            lambda path: write_chrome_trace(timeline, path), args.trace
        )
        print(f"Chrome trace of {reports[-1].name!r} written to {args.trace} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    if failures:
        print(f"FAILED: {failures}/{len(reports)} strategies non-conformant")
        return 1
    print(f"All {len(reports)} strategies conformant "
          f"(invariants, oracle, incremental all exact).")
    return 0


def _parse_tenant(value: str, index: int) -> TenantSpec:
    """``--tenant NAME:MODEL:GC[:RATIO]`` parser."""
    parts = value.split(":")
    if len(parts) not in (3, 4):
        raise CLIConfigError(
            f"--tenant wants NAME:MODEL:GC[:RATIO], got {value!r}"
        )
    ratio = None
    if len(parts) == 4:
        try:
            ratio = float(parts[3])
        except ValueError:
            raise CLIConfigError(
                f"--tenant {value!r}: ratio must be a float, "
                f"got {parts[3]!r}"
            ) from None
    try:
        return TenantSpec(
            name=parts[0], model=parts[1], gc=parts[2], ratio=ratio
        )
    except ValueError as error:
        raise CLIConfigError(f"tenant #{index}: {error}") from None


def _build_fleet(args: argparse.Namespace) -> FleetSpec:
    given = sum(
        1 for flag in (args.config, args.mix, args.tenant) if flag
    )
    if given > 1:
        raise CLIConfigError(
            "give exactly one of --config, --mix, or --tenant ... "
            "(they are alternative fleet sources)"
        )
    if args.config:
        return _load_config(load_fleet, args.config, "fleet")
    if args.mix:
        return example_mixes()[args.mix]
    if not args.tenant:
        raise CLIConfigError(
            "a fleet needs --config PATH, --mix NAME, or at least one "
            "--tenant NAME:MODEL:GC[:RATIO]"
        )
    tenants = tuple(
        _parse_tenant(value, index)
        for index, value in enumerate(args.tenant)
    )
    try:
        cluster = preset_cluster(args.testbed, args.machines, args.gpus)
        fleet = FleetSpec(cluster=cluster, tenants=tenants)
        for tenant in fleet.tenants:
            tenant.job(cluster)  # surfaces bad GC params as exit 2
    except (RequestError, ValueError) as error:
        raise CLIConfigError(str(error)) from None
    return fleet


def cmd_fleet(args: argparse.Namespace) -> int:
    fleet = _build_fleet(args)
    if args.max_rounds < 1:
        raise CLIConfigError(
            f"--max-rounds must be >= 1, got {args.max_rounds}"
        )
    _check_cvar_alpha(args.cvar_alpha)
    result = plan_fleet(
        fleet,
        max_rounds=args.max_rounds,
        cvar_alpha=args.cvar_alpha,
        check=args.check,
    )
    rows = []
    for plan in result.tenants:
        tenant = fleet.tenant(plan.name)
        rows.append(
            (
                plan.name,
                plan.model,
                tenant.gc,
                f"{plan.contended_time * 1e3:.2f} ms",
                f"{plan.nominal_time * 1e3:.2f} ms",
                f"{plan.slowdown:.2f}x",
                f"{plan.throughput:,.0f}/s",
                plan.source,
            )
        )
    print(render_table(
        ["tenant", "model", "gc", "contended", "alone", "slowdown",
         "throughput", "source"],
        rows,
        title=f"Fleet plan: {len(result.tenants)} tenants sharing "
              f"{fleet.cluster.total_gpus} GPUs "
              f"({fleet.cluster.interconnect}) — mode {result.mode}",
    ))
    print()
    for plan in result.tenants:
        print(f"{plan.name}: contention {plan.contention.describe()}")
    delta = (
        result.aggregate_throughput / result.selfish_aggregate_throughput
        - 1.0
        if result.selfish_aggregate_throughput
        else 0.0
    )
    print(
        f"aggregate throughput: {result.aggregate_throughput:,.0f} "
        f"samples/s vs selfish {result.selfish_aggregate_throughput:,.0f} "
        f"({delta:+.1%}); worst tenant slowdown {result.worst_slowdown:.2f}x"
    )
    print(result.summary())
    if args.check:
        print()
        print(
            f"conformance: {result.timelines_checked} contended timelines "
            f"checked, 0 violations"
        )
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    rows = []
    for name in available_models():
        model = get_model(name)
        rows.append(
            (
                name,
                model.num_tensors,
                format_bytes(model.total_bytes),
                f"{model.batch_size} {model.sample_unit}",
                model.dataset,
            )
        )
    print(render_table(["model", "#tensors", "size", "batch", "dataset"], rows))
    return 0


def cmd_options(args: argparse.Namespace) -> int:
    size = search_space_size(args.mode)
    print(f"|C| = {size} compression options (mode={args.mode})")
    return 0


def _training_spec(args: argparse.Namespace) -> TrainingJobSpec:
    try:
        return TrainingJobSpec(
            gc=args.gc,
            ratio=args.ratio if args.ratio is not None else 0.05,
            workers=args.workers,
            steps=args.steps,
            eval_every=args.eval_every,
            checkpoint_every=max(args.checkpoint_every, 1),
            seed=args.seed,
        )
    except (KeyError, ValueError) as error:
        raise CLIConfigError(f"training job: {error}") from None


def _parse_resize(values) -> List[MembershipEvent]:
    events = []
    for value in values or ():
        try:
            step_text, workers_text = value.split(":", 1)
            events.append(
                MembershipEvent(int(step_text), int(workers_text))
            )
        except ValueError as error:
            raise CLIConfigError(
                f"--resize wants STEP:WORKERS, got {value!r} ({error})"
            ) from None
    return events


def cmd_train(args: argparse.Namespace) -> int:
    spec = _training_spec(args)
    try:
        trainer = spec.build_trainer()
    except (KeyError, ValueError) as error:
        raise CLIConfigError(f"training job: {error}") from None
    if args.resume:
        if not args.checkpoint_dir:
            raise CLIConfigError("--resume requires --checkpoint-dir")
        restored = trainer.resume_from(args.checkpoint_dir)
        if restored is not None:
            print(f"resumed at step {trainer.step} from {restored}")
        else:
            print("no checkpoints found, starting fresh")
    remaining = spec.steps - trainer.step
    if remaining <= 0:
        print(f"nothing to do: trainer is at step {trainer.step} "
              f"of {spec.steps}")
        return 0

    events = _parse_resize(args.resize)
    table = None
    if events and args.replan_model:
        params = {}
        if args.ratio is not None:
            params["ratio"] = args.ratio
        job = JobConfig(
            model=get_model(args.replan_model),
            gc=GCInfo(args.gc, params),
            system=SystemInfo(
                cluster=nvlink_100g_cluster(
                    num_machines=max(spec.workers, 1), gpus_per_machine=1
                )
            ),
        )
        print(f"building degradation table for {args.replan_model} "
              f"(one planner run per ensemble member)...")
        table = DegradationTable.build(job)
    checkpoint_every = args.checkpoint_every if args.checkpoint_dir else 0
    if events:
        controller = ElasticController(events, table=table)
        controller.run(
            trainer,
            remaining,
            eval_every=spec.eval_every,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
        print("membership changes:")
        for record in controller.log:
            print(f"  {record.summary()}")
    else:
        trainer.train(
            remaining,
            eval_every=spec.eval_every,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=checkpoint_every,
        )
    curve = trainer.curve
    print(f"trained to step {trainer.step}: "
          f"loss {curve.train_loss[-1]:.4f}, "
          f"accuracy {curve.final_accuracy:.1%}")
    if trainer.degraded_tensors:
        print(f"degraded tensors: {sorted(trainer.degraded_tensors)}")
    if args.checkpoint_dir and checkpoint_every:
        checkpoints = list_checkpoints(args.checkpoint_dir)
        if checkpoints:
            print(f"{len(checkpoints)} checkpoints in {args.checkpoint_dir} "
                  f"(newest: step {checkpoint_step(checkpoints[0])})")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    spec = _training_spec(args)
    directory = Path(
        args.dir
        if args.dir
        else tempfile.mkdtemp(prefix="repro-chaos-")
    )
    directory.mkdir(parents=True, exist_ok=True)
    print(f"chaos drill: {spec.gc} x {spec.workers} workers, "
          f"{spec.steps} steps, artifacts in {directory}")
    baseline = run_uninterrupted(spec)
    crashes = sample_crash_steps(spec.steps, args.kills, args.seed)
    print(f"scripted kills at steps {list(crashes)}")
    results = []
    if args.mode in ("both", "inprocess"):
        results.append(
            run_inprocess(spec, crashes, directory / "inprocess", baseline)
        )
    if args.mode in ("both", "sigkill"):
        results.append(
            run_sigkill(spec, crashes, directory / "sigkill", baseline)
        )
    if args.corrupt_newest:
        results.append(
            corruption_drill(spec, directory / "corruption", baseline)
        )
    for result in results:
        print(result.summary())
    report = {
        "spec": json.loads(spec.to_json()),
        "crash_steps": list(crashes),
        "results": [
            {
                "mode": result.mode,
                "crash_steps": list(result.crash_steps),
                "recoveries": [
                    {
                        "crash_step": r.crash_step,
                        "restored_step": r.restored_step,
                        "recomputed_steps": r.recomputed_steps,
                    }
                    for r in result.recoveries
                ],
                "mismatched_keys": result.mismatched_keys,
                "equivalent": result.equivalent,
            }
            for result in results
        ],
        "equivalent": all(result.equivalent for result in results),
    }
    report_path = directory / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(f"report written to {report_path}")
    if not report["equivalent"]:
        print("CHAOS FAILURE: recovery is not bit-identical")
        return 1
    print(f"all {len(results)} drills recovered bit-identical state")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    chaos = None
    if args.chaos_kill_rate > 0 or args.chaos_slow_rate > 0:
        try:
            chaos = ChaosSchedule(
                seed=args.chaos_seed,
                kill_rate=args.chaos_kill_rate,
                slow_rate=args.chaos_slow_rate,
                slow_seconds=args.chaos_slow_seconds,
                kill_attempts=args.chaos_kill_attempts,
            )
        except ValueError as error:
            raise CLIConfigError(str(error)) from None
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_limit=args.queue_limit,
            default_deadline_s=args.deadline if args.deadline > 0 else None,
            check=args.check,
            cache_entries=args.cache_entries,
            retry=RetryPolicy(
                max_retries=args.retries,
                backoff_base=args.retry_backoff,
            ),
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            chaos=chaos,
        )
    except ValueError as error:
        raise CLIConfigError(str(error)) from None
    return serve(config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Espresso (EuroSys'23) reproduction: near-optimal "
        "gradient-compression usage strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="select a compression strategy")
    _add_job_arguments(plan)
    plan.add_argument("--stats", action="store_true",
                      help="report fast-evaluation-layer counters and "
                           "per-phase selection times")
    plan.add_argument("--check", action="store_true",
                      help="run the simulator conformance invariant checker "
                           "on every timeline the planner materializes")
    plan.add_argument("--fusion", action="store_true",
                      help="search fusion-group (bucket) boundaries jointly "
                           "with per-bucket compression options; the "
                           "no-fusion plan is always in the portfolio")
    plan.add_argument("--save", default=None, metavar="PATH",
                      help="write the selected fusion plan artifact to PATH "
                           "(with --fusion)")
    plan.add_argument("--load", default=None, metavar="PATH",
                      help="pin the fusion-group boundaries from a saved "
                           "plan artifact (implies --fusion; a plan whose "
                           "boundaries no longer match the model trace is "
                           "refused with exit 2)")
    plan.add_argument("--ratios", nargs="?", const="default", default=None,
                      metavar="R1,R2,...",
                      help="search a per-tensor compression-ratio ladder "
                           "jointly with the pipeline decisions; omit the "
                           "value for the default ladder "
                           "(0.001,0.005,0.01,0.05,0.1).  The result is "
                           "never worse than the fixed-ratio plan")
    plan.add_argument("--error-budget", type=float, default=None, metavar="B",
                      help="global compression-error budget in [0,1]: the "
                           "element-weighted average discarded-energy "
                           "fraction the plan may spend")
    plan.add_argument("--robust", action="store_true",
                      help="select by a robust objective over the fault "
                           "perturbation ensemble instead of the nominal "
                           "iteration time")
    plan.add_argument("--objective", default="worst", choices=OBJECTIVES,
                      help="robust objective: worst-case or CVaR makespan "
                           "over the ensemble (with --robust)")
    plan.add_argument("--cvar-alpha", type=float, default=0.25,
                      help="tail fraction for the cvar objective")
    plan.add_argument("--ensemble", default="default", choices=("default",),
                      help="named perturbation ensemble (with --robust)")
    plan.set_defaults(func=cmd_plan)

    faults = sub.add_parser(
        "faults",
        help="sweep a perturbation ensemble and report per-fault-class "
             "sensitivity of the selected strategy vs FP32 and a baseline",
    )
    _add_job_arguments(faults)
    faults.add_argument("--ensemble", default="default", choices=("default",),
                        help="named perturbation ensemble to sweep")
    faults.add_argument("--check", action="store_true",
                        help="run the full invariant battery on every "
                             "faulted timeline")
    faults.set_defaults(func=cmd_faults)

    compare = sub.add_parser("compare", help="compare all systems on a job")
    _add_job_arguments(compare)
    compare.add_argument("--upper-bound", action="store_true",
                         help="also compute the free-compression bound")
    compare.add_argument("--check", action="store_true",
                         help="run the invariant checker on every system's "
                              "selected-strategy timeline")
    compare.set_defaults(func=cmd_compare)

    validate = sub.add_parser(
        "validate",
        help="conformance-check the simulator: invariants + differential "
             "oracle + incremental exactness",
    )
    _add_job_arguments(validate)
    validate.add_argument(
        "--strategy", default="all",
        choices=("all", "espresso", "baseline", "baseline-flat",
                 "allgather-gpu", "allgather-cpu", "alltoall-gpu",
                 "alltoall-cpu", "double-gpu", "double-cpu"),
        help="which strategy to audit (default: the whole uniform suite)")
    validate.add_argument(
        "--skip-oracle", action="store_true",
        help="skip the O(n^2) reference-simulator comparison")
    validate.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a chrome://tracing JSON of the last audited timeline")
    validate.set_defaults(func=cmd_validate)

    fleet = sub.add_parser(
        "fleet",
        help="jointly plan a multi-tenant job mix sharing one cluster's "
             "inter-machine links (fixed point + CVaR fallback; never "
             "worse than selfish planning on aggregate throughput)",
    )
    fleet.add_argument("--config", default=None, metavar="PATH",
                       help="fleet JSON: tenants + cluster "
                            "(see cluster/tenancy.py)")
    fleet.add_argument("--mix", default=None,
                       choices=tuple(sorted(example_mixes())),
                       help="one of the shipped example job mixes")
    fleet.add_argument("--tenant", action="append", default=None,
                       metavar="NAME:MODEL:GC[:RATIO]",
                       help="inline tenant (repeatable); pairs with "
                            "--testbed/--machines/--gpus for the shared "
                            "cluster")
    fleet.add_argument("--testbed", default="nvlink",
                       choices=("nvlink", "pcie"))
    fleet.add_argument("--machines", type=int, default=2)
    fleet.add_argument("--gpus", type=int, default=2,
                       help="GPUs per machine")
    fleet.add_argument("--max-rounds", type=int, default=6,
                       help="fixed-point iterations before the CVaR "
                            "fallback against the observed contention "
                            "envelope")
    fleet.add_argument("--cvar-alpha", type=float, default=0.25,
                       help="tail fraction for the CVaR fallback")
    _add_jobs_argument(fleet)
    fleet.add_argument("--check", action="store_true",
                       help="run the full invariant battery on every "
                            "tenant's contended timeline")
    fleet.set_defaults(func=cmd_fleet)

    srv = sub.add_parser(
        "serve",
        help="run the resilient planning service: deadlines, retries, "
             "circuit-broken degradation, graceful drain",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 = pick a free one; printed at start)")
    srv.add_argument("--workers", type=int, default=2,
                     help="concurrent planning slots")
    srv.add_argument("--queue-limit", type=int, default=16,
                     help="bounded admission queue; a full queue fast-fails "
                          "new requests with a one-line diagnostic")
    srv.add_argument("--deadline", type=float, default=30.0,
                     help="default per-request deadline in seconds for "
                          "requests that carry none (0 = unbounded)")
    _add_jobs_argument(srv)
    srv.add_argument("--check", action="store_true",
                     help="run the conformance invariant checker on every "
                          "timeline the planner materializes")
    srv.add_argument("--cache-entries", type=int, default=256,
                     help="strategy-cache capacity (LRU)")
    srv.add_argument("--retries", type=int, default=2,
                     help="retries after an evaluator worker death")
    srv.add_argument("--retry-backoff", type=float, default=0.05,
                     help="base of the exponential retry backoff (seconds)")
    srv.add_argument("--breaker-threshold", type=int, default=3,
                     help="consecutive failures/deadline misses that open "
                          "the circuit breaker")
    srv.add_argument("--breaker-cooldown", type=float, default=2.0,
                     help="seconds the breaker stays open before a "
                          "half-open probe")
    srv.add_argument("--chaos-seed", type=int, default=0,
                     help="seed for deterministic fault injection")
    srv.add_argument("--chaos-kill-rate", type=float, default=0.0,
                     help="per-attempt probability of an injected "
                          "evaluator kill")
    srv.add_argument("--chaos-slow-rate", type=float, default=0.0,
                     help="per-attempt probability of an injected slow "
                          "evaluation")
    srv.add_argument("--chaos-slow-seconds", type=float, default=0.25,
                     help="duration of an injected slow evaluation")
    srv.add_argument("--chaos-kill-attempts", type=int, default=1,
                     help="attempts (per request) the kill injection may "
                          "hit; 1 means a retry always heals a kill")
    srv.set_defaults(func=cmd_serve)

    models = sub.add_parser("models", help="list the benchmark models")
    models.set_defaults(func=cmd_models)

    options = sub.add_parser("options", help="report the search-space size")
    options.add_argument("--mode", default="independent",
                         choices=("uniform", "independent", "gpu", "cpu"))
    options.set_defaults(func=cmd_options)

    def add_training_arguments(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument("--gc", default="dgc",
                                help="compression algorithm name")
        sub_parser.add_argument("--ratio", type=float, default=None,
                                help="sparsification ratio "
                                     "(for randomk/topk/dgc)")
        sub_parser.add_argument("--workers", type=int, default=2,
                                help="simulated data-parallel workers")
        sub_parser.add_argument("--steps", type=int, default=24,
                                help="training steps (absolute target)")
        sub_parser.add_argument("--eval-every", type=int, default=6,
                                help="evaluate every N steps")
        sub_parser.add_argument("--checkpoint-every", type=int, default=4,
                                help="checkpoint every N steps")
        sub_parser.add_argument("--seed", type=int, default=0,
                                help="model/batch sampling seed")

    train = sub.add_parser(
        "train",
        help="run the data-parallel training engine with checkpointing "
             "and elastic membership",
    )
    add_training_arguments(train)
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="write atomic checkpoints into DIR")
    train.add_argument("--resume", action="store_true",
                       help="restore from the newest valid checkpoint in "
                            "--checkpoint-dir before training (corrupt "
                            "files are skipped; if none validate, exit 2)")
    train.add_argument("--resize", action="append", metavar="STEP:WORKERS",
                       help="membership change at a step boundary "
                            "(repeatable, strictly increasing steps)")
    train.add_argument("--replan-model", default=None,
                       choices=available_models(), metavar="MODEL",
                       help="build a degradation table for MODEL and "
                            "replan the compression strategy at every "
                            "--resize within its time budget")
    train.set_defaults(func=cmd_train)

    chaos = sub.add_parser(
        "chaos",
        help="chaos-replay drill: kill the trainer at random steps, "
             "restart from checkpoints, demand bit-identical recovery",
    )
    add_training_arguments(chaos)
    chaos.add_argument("--kills", type=int, default=2,
                       help="number of scripted crashes")
    chaos.add_argument("--mode", default="both",
                       choices=("both", "inprocess", "sigkill"),
                       help="in-process SimulatedCrash, subprocess "
                            "SIGKILL, or both")
    chaos.add_argument("--corrupt-newest", action="store_true",
                       help="also run the corruption drill: bit-flip the "
                            "newest checkpoint and demand fallback to the "
                            "newest valid one")
    chaos.add_argument("--dir", default=None, metavar="DIR",
                       help="artifact directory for checkpoints and "
                            "report.json (default: a fresh temp dir)")
    chaos.set_defaults(func=cmd_chaos)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) > 1:
        print(f"note: --jobs {args.jobs} is {JOBS_HELP}")
    try:
        return args.func(args)
    except CLIConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except CheckpointError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except StalePlanError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ConformanceError as error:
        print(f"CONFORMANCE FAILURE:\n{error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
