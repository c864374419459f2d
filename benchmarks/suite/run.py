"""One-command benchmark of the Espresso planner.

Runs one workload (or all four) in its own child process, checks every
plan against ``expected_plans.json``, prints every metric by name with
its unit, and ends with one JSON line::

    {"correct": true, "attempted": 14, "failed": 0, "metrics": {...}}

Untraced runs (``--trace 0``) report the end-to-end metrics.  Traced
runs (``--trace 1``) measure the workload both without and with span
wrappers around the planner's layers, report the per-layer metrics of
the traced part and the trace overhead, and write the spans as
chrome://tracing JSON when ``--out DIR`` is given.  The exit code is 0
only when every output was correct.

Usage, from the repository root::

    python3 benchmarks/suite/run.py --workload zoo --seed 0 --seconds 24 --trace 0
    python3 -m benchmarks.suite run --seed 0          # all four workloads
    python3 -m benchmarks.suite trace --seed 0 --workload serve-mix
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    sys.path.insert(0, str(ROOT))

from benchmarks.suite import checks, child, metrics, servemix, spans  # noqa: E402

WORKLOADS = spans.WORKLOADS
DEFAULT_SECONDS = 24
#: Working files of a run (inside the checkout, ignored by git).
WORK_DIR = ROOT / ".bench_out"
#: Idle set-ups an untraced run times before and after the measured one
#: (its own); ``setup_s`` is the median of all of them.  Timing them on
#: both sides of the run samples the host's speed at two times.
SETUPS_BEFORE = 3
SETUPS_AFTER = 4
#: Wall-clock limit of one workload run, set-up included.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong plan)."""


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv, marker: str):
    """Start a child and time it until it prints ``marker``."""
    start = time.perf_counter()
    process = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    while True:
        line = process.stdout.readline()
        if not line:
            process.wait()
            raise BenchError(
                f"{' '.join(argv[1:4])} exited with code {process.returncode} "
                f"before it was ready"
            )
        if marker in line:
            return process, time.perf_counter() - start, line


def finish(process, timeout: float) -> str:
    try:
        out, _ = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchError(f"child did not finish within {timeout:.0f} s") from None
    if process.returncode != 0:
        raise BenchError(f"child exited with code {process.returncode}")
    return out


def time_setup(workload: str) -> float:
    """Start an idle planning process, time it until ready, stop it."""
    if workload == "serve-mix":
        process, setup_s, _ = spawn(servemix.server_argv(None), servemix.BANNER)
        process.terminate()  # SIGTERM drains the idle server
    else:
        argv = [sys.executable, "-m", "benchmarks.suite.child",
                "--workload", workload, "--setup-only"]
        process, setup_s, _ = spawn(argv, child.READY)
    finish(process, 60)
    return setup_s


def closed_run(workload, seed, seconds, trace, out, limit_s) -> tuple:
    """Run a closed-loop workload's child; returns ``(data, setup_s)``."""
    argv = [sys.executable, "-m", "benchmarks.suite.child", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace and out:
        argv += ["--out", out]
    process, setup_s, _ = spawn(argv, child.READY)
    data = json.loads(finish(process, limit_s).strip().splitlines()[-1])
    data["window_s"] = data["wall_s"]
    return data, setup_s


def serve_run(seed, seconds, spans_out: Optional[str]) -> tuple:
    """Start a server (traced when ``spans_out`` is given), drive it and
    let it drain; returns ``(data, setup_s)``."""
    process, setup_s, line = spawn(servemix.server_argv(spans_out), servemix.BANNER)
    try:
        data = servemix.drive(
            servemix.banner_port(line), seed, seconds, traced=spans_out is not None
        )
        finish(process, 60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    return data, setup_s


def traced_serve_run(seed, seconds, out: Optional[str]) -> tuple:
    """The schedule against an untraced server, then against a traced one.

    The traced pass feeds the per-layer metrics; the two passes together
    the trace overhead.  Both passes' ops are checked.
    """
    untraced, _ = serve_run(seed, seconds, None)
    # The traced server hands its spans over through this file.
    os.makedirs(WORK_DIR, exist_ok=True)
    spans_out = str(WORK_DIR / f"server-spans-{os.getpid()}.json")
    data, setup_s = serve_run(seed, seconds, spans_out)
    exported, unresolved = servemix.load_spans(spans_out)
    data["trace"] = servemix.server_summary(exported, unresolved, data["ops"])
    data["service_lines"] = servemix.service_lines(
        data["trace"], data["ops"], data["window_s"]
    )
    if out:
        os.makedirs(out, exist_ok=True)
        spans.write_chrome_trace(exported, os.path.join(out, f"trace-serve-mix-{seed}.json"))
    data["ops"] = untraced["ops"] + data["ops"]
    data["warm_ops"] += untraced["warm_ops"]
    data["lag_p99_ms"] = max(data["lag_p99_ms"], untraced["lag_p99_ms"])
    return data, setup_s


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, out: Optional[str]
) -> dict:
    """Run the workload once and time its set-up.

    An untraced run also times ``SETUPS_BEFORE`` idle set-ups before the
    run and ``SETUPS_AFTER`` after it.
    """
    started = time.perf_counter()
    setups = [] if trace else [time_setup(workload) for _ in range(SETUPS_BEFORE)]
    if workload != "serve-mix":
        data, setup_s = closed_run(
            workload, seed, seconds, trace, out,
            RUN_LIMIT_S - (time.perf_counter() - started),
        )
    elif trace:
        data, setup_s = traced_serve_run(seed, seconds, out)
    else:
        data, setup_s = serve_run(seed, seconds, None)
    setups.append(setup_s)
    if not trace:
        setups += [time_setup(workload) for _ in range(SETUPS_AFTER)]
    # Every child has been waited for, so this is the largest peak RSS of
    # any of them -- the process that ran the workload.
    data["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    data["setups_s"] = setups
    return data


def evaluate(workload: str, data: dict, trace: int):
    """Check the run and compute its metrics.

    Returns ``(result line dict, printed report lines)``.
    """
    ops = data["ops"]
    expected = checks.load_expected()
    for op in ops:
        failure = checks.op_failure(workload, op, expected)
        if failure:
            op["failure"] = failure
    data["warm_failures"] = [
        f"{op['key']}: {failure}"
        for op in data.get("warm_ops", [])
        if (failure := checks.op_failure(workload, op, expected))
    ]
    gates = checks.run_failures(workload, data)
    failed = sum(1 for op in ops if op.get("failure"))
    answered = [op["latency_s"] for op in ops if "error" not in op]
    traced = [op for op in ops if op["traced"]]
    lines = [f"== {workload}: {len(ops)} ops ({len(traced)} traced) =="]
    values = {}
    if answered and not trace:
        e2e = metrics.end_to_end(
            answered, data["window_s"], data["setups_s"], data["peak_rss_mb"]
        )
        lines.append(f"end-to-end ({data['window_s']:.1f} s measured):")
        for name, unit in metrics.END_TO_END:
            lines.append(f"{name:<22}{e2e[name]:.4f} {unit}")
        lines.append("  setups_s " + " ".join(f"{s:.3f}" for s in data["setups_s"]))
        lines.extend(metrics.extra_end_to_end(workload, ops, data))
        values = {name: {"value": e2e[name], "unit": unit}
                  for name, unit in metrics.END_TO_END}
    if answered and trace:
        layer = metrics.per_layer(data["trace"], ops, workload)
        lines.append("per-layer:")
        for name, unit in metrics.PER_LAYER:
            lines.append(f"{name:<22}{layer[name]:.4f} {unit}")
        lines.extend(metrics.layer_report(workload, data["trace"], traced, data))
        values = {name: {"value": layer[name], "unit": unit}
                  for name, unit in metrics.PER_LAYER}
    for op in ops:
        if op.get("failure"):
            lines.append(f"FAILED {op['kind']}: {op['failure']}")
    for gate in gates:
        lines.append(f"INVALID: {gate}")
    result = {
        "correct": failed == 0 and not gates and bool(answered),
        "attempted": len(ops),
        "failed": failed,
        "metrics": values,
    }
    return result, lines


def run_all(args) -> int:
    """Every workload, each through its own run of this script."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit code {done.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="traced runs write their spans here as "
                             "chrome://tracing JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    try:
        data = run_workload(args.workload, args.seed, args.seconds, args.trace, args.out)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    result, lines = evaluate(args.workload, data, args.trace)
    print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
