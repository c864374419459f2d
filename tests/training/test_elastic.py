"""Elastic membership tests: re-shard, residual conservation, replan."""

import numpy as np
import pytest

from repro.cluster import pcie_25g_cluster
from repro.config import GCInfo, JobConfig, SystemInfo
from repro.core.robust import DegradationTable
from repro.models import get_model
from repro.training.chaos import (
    TrainingJobSpec,
    diff_fingerprints,
    fingerprint,
)
from repro.training.checkpoint import (
    latest_valid_checkpoint,
    list_checkpoints,
    load_checkpoint,
)
from repro.training.elastic import (
    ElasticController,
    MembershipEvent,
    MembershipFault,
    membership_model,
)

SPEC = TrainingJobSpec(
    gc="topk", ratio=0.2, workers=3, steps=12, eval_every=4,
    checkpoint_every=2, samples=150, features=8, classes=2, informative=4,
    hidden=8,
)


def test_event_validation():
    with pytest.raises(ValueError):
        MembershipEvent(step=-1, workers=2)
    with pytest.raises(ValueError):
        MembershipEvent(step=4, workers=0)


def test_controller_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        ElasticController([MembershipEvent(4, 2), MembershipEvent(4, 3)])
    with pytest.raises(ValueError, match="budget_seconds"):
        ElasticController([MembershipEvent(4, 2)], budget_seconds=0.0)


def test_membership_fault_perturbs_cluster_only():
    job = JobConfig(
        model=get_model("lstm"),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=pcie_25g_cluster(4, 2)),
    )
    fault = MembershipFault(num_machines=2)
    perturbed = fault.apply(job)
    assert perturbed.system.cluster.num_machines == 2
    assert job.system.cluster.num_machines == 4  # original untouched
    assert perturbed.model is job.model
    assert "2 machines" in fault.describe()
    with pytest.raises(ValueError):
        MembershipFault(num_machines=0)
    model = membership_model(5)
    assert model.name == "membership-5"
    assert model.faults[0].num_machines == 5


def test_set_membership_reshards_and_conserves_residual_mass():
    trainer = SPEC.build_trainer()
    trainer.train(4, eval_every=4)
    totals_before = trainer.residual_totals()
    assert any(np.any(v) for v in totals_before.values())  # top-k left mass
    trainer.set_membership(5)
    assert trainer.workers == 5
    assert len(trainer.shard_sizes) == 5
    assert sum(trainer.shard_sizes) == trainer.dataset.train_x.shape[0]
    totals_after = trainer.residual_totals()
    assert set(totals_after) == set(totals_before)
    for key, before in totals_before.items():
        np.testing.assert_allclose(
            totals_after[key], before, rtol=0, atol=1e-5
        )


def test_set_membership_same_count_is_noop():
    trainer = SPEC.build_trainer()
    trainer.train(2, eval_every=2)
    feedback = trainer._feedback
    trainer.set_membership(SPEC.workers)
    assert trainer._feedback is feedback  # untouched, not rebuilt


def test_controller_applies_events_and_logs():
    trainer = SPEC.build_trainer()
    controller = ElasticController(
        [MembershipEvent(4, 5), MembershipEvent(8, 2)]
    )
    curve = controller.run(trainer, SPEC.steps, eval_every=SPEC.eval_every)
    assert trainer.step == SPEC.steps
    assert trainer.workers == 2
    assert curve.steps[-1] == SPEC.steps
    assert len(controller.log) == 2
    first, second = controller.log
    assert (first.step, first.old_workers, first.new_workers) == (4, 3, 5)
    assert (second.step, second.old_workers, second.new_workers) == (8, 5, 2)
    assert first.shard_sizes == (23, 23, 22, 22, 22)
    assert first.residual_mass_error < 1e-5
    assert first.within_budget is None  # no table configured
    assert "3 -> 5 workers" in first.summary()
    assert "workers" in controller.log.summary()
    assert len(ElasticController([]).log) == 0
    assert ElasticController([]).log.summary() == "no membership changes"


def test_elastic_run_is_deterministic():
    def run():
        trainer = SPEC.build_trainer()
        ElasticController(
            [MembershipEvent(3, 1), MembershipEvent(7, 4)]
        ).run(trainer, SPEC.steps, eval_every=SPEC.eval_every)
        return fingerprint(trainer)

    assert diff_fingerprints(run(), run()) == []


def test_past_events_skipped_on_resume():
    trainer = SPEC.build_trainer()
    trainer.train(6, eval_every=3)
    controller = ElasticController(
        [MembershipEvent(2, 5), MembershipEvent(9, 4)]
    )
    controller.run(trainer, SPEC.steps - 6, eval_every=SPEC.eval_every)
    # The step-2 event is history (a restored run already reflects it);
    # only the step-9 change applies.
    assert [record.step for record in controller.log] == [9]
    assert trainer.workers == 4


def test_boundary_event_applied_only_when_not_reflected():
    trainer = SPEC.build_trainer()
    trainer.train(4, eval_every=4)
    controller = ElasticController([MembershipEvent(4, 5)])
    controller.run(trainer, 2, eval_every=2)
    assert trainer.workers == 5
    # Re-running the same controller state (a torn-checkpoint restore
    # that already has 5 workers) must not re-apply the event.
    again = ElasticController([MembershipEvent(4, 5)])
    resumed = SPEC.build_trainer()
    resumed.train(4, eval_every=4)
    resumed.set_membership(5)
    again.run(resumed, 2, eval_every=2)
    assert len(again.log) == 0


def test_boundary_checkpoint_republished_with_new_membership(tmp_path):
    trainer = SPEC.build_trainer()
    controller = ElasticController([MembershipEvent(4, 5)])
    controller.run(
        trainer,
        6,
        eval_every=SPEC.eval_every,
        checkpoint_dir=tmp_path,
        checkpoint_every=2,
    )
    # The step-4 checkpoint was overwritten after the change: a crash
    # right after the event cannot resurrect the 3-worker state.
    assert latest_valid_checkpoint(tmp_path) is not None
    boundary = [
        state
        for state in map(load_checkpoint, list_checkpoints(tmp_path))
        if state["step"] == 4
    ]
    assert boundary and boundary[0]["workers"] == 5


def test_replan_within_budget_via_degradation_table(planner_clock):
    """The default budget (twice the table's worst plan time) fits one
    full replan.  Every planner run costs one fixed clock step, so that
    holds however fast this host plans."""
    job = JobConfig(
        model=get_model("lstm"),
        gc=GCInfo("dgc", {"ratio": 0.01}),
        system=SystemInfo(cluster=pcie_25g_cluster(3, 2)),
    )
    table = DegradationTable.build(job, planner_factory=planner_clock.planner_factory)
    trainer = SPEC.build_trainer()
    controller = ElasticController([MembershipEvent(3, 2)], table=table)
    controller.run(trainer, 5, eval_every=5)
    (record,) = controller.log
    assert record.replan is not None
    assert record.replan.budget_seconds == controller._replan_budget()
    assert record.within_budget is True
    assert record.replan.seconds <= record.replan.budget_seconds
    assert "replanned via" in record.summary()
    # An explicit budget is honoured verbatim.
    explicit = ElasticController(
        [MembershipEvent(3, 2)], table=table, budget_seconds=30.0
    )
    assert explicit._replan_budget() == 30.0
