"""Job-level conformance runs: invariants + differential oracle.

This is the driver behind ``python -m repro validate``: for a training
job and a set of strategies it compares each strategy's from-scratch run
(:func:`repro.sim.engine.simulate`) with the naive O(n²) oracle
(:func:`repro.sim.oracle.simulate_reference`), plus the swap path with
the from-scratch run: every chain swapped into an :class:`~repro.sim.
incremental.IncrementalSimulator` built on a different FP32 base, the
path almost every planner F(S) takes.  It checks the timeline against
the scheduler invariants (:mod:`repro.sim.validate`) and audits every
distinct option's payload algebra.  Zero violations and zero exact-
equality mismatches is the conformance bar every future perf refactor
of ``sim/`` must clear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import JobConfig
from repro.core.options import Device, canonical_key
from repro.core.presets import (
    double_compression_option,
    inter_allgather_option,
    inter_alltoall_option,
)
from repro.core.strategy import (
    CompressionStrategy,
    StrategyEvaluator,
    baseline_strategy,
)
from repro.sim.engine import Timeline, simulate
from repro.sim.incremental import IncrementalSimulator
from repro.sim.oracle import simulate_reference
from repro.sim.validate import Violation, check_option_conservation, check_timeline


@dataclass(frozen=True)
class StrategyConformance:
    """Conformance outcome for one strategy on one job."""

    name: str
    makespan: float
    num_stages: int
    violations: Tuple[Violation, ...]
    oracle_exact: bool
    incremental_exact: bool
    timeline: Timeline

    @property
    def ok(self) -> bool:
        return not self.violations and self.oracle_exact and self.incremental_exact


#: Uniform strategy builders exercised by the default conformance suite:
#: the FP32 baselines plus the six uniform preset pipelines (the
#: portfolio strategies the planner itself evaluates).
def conformance_strategies(
    num_tensors: int,
) -> List[Tuple[str, CompressionStrategy]]:
    """The default (name, strategy) suite for a ``num_tensors`` model."""
    suite: List[Tuple[str, CompressionStrategy]] = [
        ("baseline", baseline_strategy(num_tensors)),
        ("baseline-flat", baseline_strategy(num_tensors, flat=True)),
    ]
    builders = (
        ("allgather", inter_allgather_option),
        ("alltoall", inter_alltoall_option),
        ("double", double_compression_option),
    )
    for label, builder in builders:
        for device in (Device.GPU, Device.CPU):
            suite.append(
                (
                    f"{label}-{device.value}",
                    CompressionStrategy(options=(builder(device),) * num_tensors),
                )
            )
    return suite


def validate_strategy(
    evaluator: StrategyEvaluator,
    strategy: CompressionStrategy,
    name: str = "strategy",
    oracle: bool = True,
) -> StrategyConformance:
    """Run the full conformance battery on one strategy."""
    chains = evaluator.chains(strategy)
    cpu_capacity = evaluator.job.system.cpu.parallel_workers
    timeline = simulate(chains, cpu_capacity=cpu_capacity)

    violations = check_timeline(
        timeline, chains=chains, cpu_capacity=cpu_capacity
    )
    seen_options = set()
    for index, option in enumerate(strategy.options):
        key = (canonical_key(option), evaluator.model.tensors[index].num_elements)
        if key in seen_options:
            continue
        seen_options.add(key)
        violations.extend(
            check_option_conservation(
                option, evaluator.model.tensors[index].num_elements,
                evaluator.cluster,
            )
        )

    oracle_exact = True
    if oracle:
        reference = simulate_reference(chains, cpu_capacity=cpu_capacity)
        oracle_exact = reference == timeline

    # The swap path: the hierarchical FP32 base, or the flat one when
    # the audited strategy compiles to the hierarchical chains.
    base = evaluator.chains(evaluator.baseline())
    if base == chains:
        base = evaluator.chains(evaluator.baseline(flat=True))
    incremental = IncrementalSimulator(base, cpu_capacity=cpu_capacity)
    incremental_exact = incremental.swap_chains(
        list(enumerate(chain.stages for chain in chains))
    ) == timeline.makespan

    return StrategyConformance(
        name=name,
        makespan=timeline.makespan,
        num_stages=len(timeline.stages),
        violations=tuple(violations),
        oracle_exact=oracle_exact,
        incremental_exact=incremental_exact,
        timeline=timeline,
    )


def validate_job(
    job: JobConfig,
    strategies: Optional[Sequence[Tuple[str, CompressionStrategy]]] = None,
    oracle: bool = True,
) -> List[StrategyConformance]:
    """Conformance-check a job across ``strategies`` (default suite)."""
    evaluator = StrategyEvaluator(job)
    if strategies is None:
        strategies = conformance_strategies(job.model.num_tensors)
    return [
        validate_strategy(evaluator, strategy, name=name, oracle=oracle)
        for name, strategy in strategies
    ]


def validate_under_faults(
    job: JobConfig,
    ensemble: Optional[Sequence["FaultModel"]] = None,
    strategies: Optional[Sequence[Tuple[str, CompressionStrategy]]] = None,
    oracle: bool = False,
) -> List[Tuple[str, List[StrategyConformance]]]:
    """Run the conformance battery on every perturbed variant of ``job``.

    Faults perturb job inputs, never the engine (:mod:`repro.sim.
    faults`), so a faulted timeline must clear exactly the same
    invariant bar as a nominal one — this is the check ``repro faults
    --check`` and the fault tests in ``tests/sim`` rely on.  Returns
    ``[(fault name, conformance reports)]`` in ensemble order.
    """
    from repro.sim.faults import default_ensemble

    if ensemble is None:
        ensemble = default_ensemble()
    return [
        (
            fault_model.name,
            validate_job(
                fault_model.apply_to_job(job),
                strategies=strategies,
                oracle=oracle,
            ),
        )
        for fault_model in ensemble
    ]
