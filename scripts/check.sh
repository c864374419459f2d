#!/usr/bin/env bash
# Full correctness gate: tier-1 tests, the slow differential-oracle
# sweeps, the simulator conformance battery over the model zoo on both
# testbeds, and the fault-injection sensitivity sweeps.  Run from the
# repository root:
#
#   bash scripts/check.sh
#
# CI should treat any non-zero exit as a failure.
#
# Hang-detection net: every phase runs under a hard timeout (override
# with PHASE_TIMEOUT, seconds).  On timeout the process receives SIGABRT
# — with PYTHONFAULTHANDLER=1 that dumps every thread's traceback — so a
# stuck conformance sweep fails loudly with a stack instead of wedging
# CI.  pytest additionally arms faulthandler_timeout (pyproject.toml)
# for per-test dumps.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src
export PYTHONFAULTHANDLER=1
PHASE_TIMEOUT="${PHASE_TIMEOUT:-900}"

run_phase() {
    # SIGABRT first (faulthandler dump), SIGKILL 15s later if wedged hard.
    local status=0
    timeout --signal=ABRT --kill-after=15 "$PHASE_TIMEOUT" "$@" || status=$?
    if [ "$status" -ne 0 ]; then
        if [ "$status" -ge 124 ]; then
            echo "HANG: phase exceeded ${PHASE_TIMEOUT}s and was aborted: $*" >&2
        fi
        exit "$status"
    fi
}

echo "== tier-1 test suite =="
run_phase python -m pytest -x -q

echo
echo "== benchmark self-tests: tracer targets, workloads, correctness gates =="
# benchmarks/suite sits outside pytest's testpaths; a src/ change that
# breaks the benchmark's tracer (a renamed target or stats field) fails
# here instead of at the next benchmark run.
run_phase python -m pytest benchmarks/suite -q -p no:cacheprovider
# One traced portfolio round: the tracer reads Espresso._run_pipeline's
# candidate list to tell ladder passes from fixed ones, and no
# self-test traces that workload.
run_phase python3 benchmarks/suite/run.py --workload portfolio --seed 0 \
    --seconds 1 --trace 1

echo
echo "== slow suite (O(n^2) oracle sweeps over the zoo) =="
run_phase python -m pytest -q -m slow

echo
echo "== simulator conformance: zoo x uniform suite x testbeds =="
for model in vgg16 resnet101 ugatit bert-base gpt2 lstm; do
    for testbed in nvlink pcie; do
        echo "-- ${model} / ${testbed}"
        run_phase python -m repro validate --model "$model" --testbed "$testbed" \
            --machines 2 --gpus 4
    done
done

echo
echo "== planner conformance: plan --check over the zoo =="
for model in vgg16 resnet101 ugatit bert-base gpt2 lstm; do
    echo "-- ${model}"
    run_phase python -m repro plan --model "$model" --gc dgc --ratio 0.01 \
        --machines 2 --gpus 4 --check | grep "conformance:"
done

echo
echo "== fault injection: ensemble sensitivity + invariants over faulted timelines =="
for model in vgg16 bert-base lstm; do
    echo "-- ${model}"
    run_phase python -m repro faults --model "$model" --gc dgc --ratio 0.01 \
        --machines 2 --gpus 4 --check | grep "conformance:"
done

echo
echo "== robust planning: plan --robust on a preset =="
run_phase python -m repro plan --model vgg16 --gc dgc --ratio 0.01 \
    --machines 2 --gpus 4 --robust | grep "Robust selection"

echo
echo "== fusion equivalence: fused plans bit-identical + conformant =="
# Fused vs unfused single-tensor-group plans are bit-identical, fused
# timelines pass the unmodified invariant battery + differential
# oracle, the laddered fusion search never loses to the fixed-ratio
# one, and stale plan artifacts are refused with exit 2.
run_phase python -m pytest -q tests/core/test_fusion.py -m ''

echo
echo "== fusion planner: plan --fusion --check smoke =="
run_phase python -m repro plan --model vgg16 --gc dgc --ratio 0.01 \
    --machines 2 --gpus 4 --fusion --check | grep "conformance:"

echo
echo "== ratio equivalence: laddered plans vs fixed ratio (portfolio + battery) =="
# The ratio ladder never loses to the fixed-ratio planner on any zoo
# model, laddered timelines pass the unmodified invariant battery +
# differential oracle, the adaptive controller replans within budget,
# and plan --ratios --check stays conformant.
run_phase python -m pytest -q -m '' tests/core/test_ratio.py \
    tests/training/test_adaptive.py
run_phase python -m repro plan --model vgg16 --gc dgc --ratio 0.01 \
    --machines 2 --gpus 4 --ratios --error-budget 0.9 --check \
    | grep "conformance:"

echo
echo "== planner perf: selection trajectory + regression gate =="
# Rewrites BENCH_planner.json (the perf-trajectory seed) and fails if
# bert-base selection regressed >25% vs the committed baseline.  On
# hosts too noisy for wall-clock gates: -m 'not bench_regression'.
run_phase python -m pytest -q -p no:cacheprovider \
    benchmarks/test_perf_planner.py

echo
echo "== planner profile: where selection time goes (perf PRs start here) =="
run_phase python scripts/profile_planner.py resnet101 --top 10 --sort tottime

echo
echo "== service: chaos load against repro serve, zero dropped requests =="
# Spawns the planning server, replays a seeded request mix with
# injected evaluator stalls and deadline pressure, shuts down via
# SIGTERM drain, and exits non-zero on any dropped request, wire error,
# or bit-identity mismatch.  Writes BENCH_service.json.
run_phase python scripts/service_bench.py --requests 60 --workers 2 \
    --conns 4 --verify-plans 2 --sigterm

echo
echo "== fleet: joint planning portfolio guarantee + seeded churn drill =="
# Every shipped job mix plans jointly with the invariant battery armed
# (joint >= selfish aggregate throughput, always), then a seeded churn
# stream replans through the degradation tables against one cumulative
# ledger: every replan within budget or explicitly degraded, zero
# crashes.  Writes BENCH_fleet.json.
run_phase python -m pytest -q tests/cluster/test_tenancy.py \
    tests/core/test_fleet.py
run_phase python scripts/fleet_bench.py --quick
run_phase python -m repro fleet --mix lstm-pair --check \
    | grep "conformance:"

echo
echo "== chaos replay: crash/SIGKILL/corruption recovery is bit-identical =="
# Bounded by run_phase's PHASE_TIMEOUT like every other phase; artifacts
# (checkpoints + report.json) land in CHAOS_ARTIFACTS so CI can upload
# them when a drill fails.
CHAOS_DIR="${CHAOS_ARTIFACTS:-$(mktemp -d -t chaos-XXXXXX)}"
run_phase python -m pytest -q -m '' tests/training/test_chaos.py
run_phase python -m repro chaos --gc dgc --workers 2 --steps 16 \
    --eval-every 4 --checkpoint-every 3 --kills 2 --corrupt-newest \
    --dir "$CHAOS_DIR"

echo
echo "All checks passed."
