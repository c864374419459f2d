"""Multi-tenant fleets: co-scheduled jobs on one shared cluster.

The planner prices every job as if it owned the network, but the
ROADMAP's heavy-traffic scenario is N concurrent training jobs sharing
the same inter-machine links — each job's gradient traffic is every
other job's fault injection.  This module supplies the vocabulary and
the projection:

* :class:`TenantSpec` / :class:`FleetSpec` — a named job mix on one
  :class:`~repro.cluster.topology.ClusterSpec`, with the same JSON
  round-trip + unknown-key-rejection discipline as the single-job
  config files (a typo'd fleet config is an exit-2 one-liner, never a
  silently defaulted plan input).
* :func:`link_load` — one tenant's offered load, read off its simulated
  timeline: the inter-machine link's busy fraction times the effective
  link bandwidth is exactly the bytes/second the job puts on the wire.
* :func:`contention_models` — the projection of everyone else's offered
  load onto each tenant, expressed as ordinary
  :class:`~repro.sim.faults.DegradedLink` / CPUContention perturbations.

Design rule (inherited from :mod:`repro.sim.faults`): **contention
perturbs inputs, never the engine.**  A tenant under fleet contention is
a perfectly ordinary job with a scaled-down NIC, so its timeline is
produced by the unmodified simulator and passes the unmodified
invariant battery.  The projection is deterministic and order-free:
cross-traffic is summed with :func:`math.fsum` over tenants sorted by
name, so any permutation of the job list yields bit-identical
bandwidth scales — the fleet fixed-point iteration in
:mod:`repro.core.fleet` depends on that for reproducibility.

Mass conservation: for tenant ``i`` with unclamped bandwidth scale
``s_i``, the bandwidth taken away, ``(1 - s_i) * inter_bw``, equals the
sum of the other tenants' offered bytes/second exactly (one fsum, one
division, one multiplication of rounding).  The hypothesis property
tests in ``tests/cluster/test_tenancy.py`` pin this down.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.topology import (
    ClusterSpec,
    nvlink_100g_cluster,
    pcie_25g_cluster,
)
from repro.config import (
    GCInfo,
    JobConfig,
    SystemInfo,
    _check_known_keys,
    cluster_from_dict,
    cluster_to_dict,
)
from repro.models import available_models, get_model
from repro.models.base import ModelProfile
from repro.sim.engine import Timeline
from repro.sim.faults import (
    CPUContention,
    DegradedLink,
    Fault,
    FaultModel,
    INTER_SCOPE,
)
from repro.sim.metrics import iteration_time as timeline_iteration_time
from repro.sim.stages import CPU as CPU_RESOURCE
from repro.sim.stages import INTER as INTER_RESOURCE

#: Floor on the bandwidth share a tenant keeps no matter how loaded the
#: link is.  ``DegradedLink`` requires a scale in (0, 1], and a real
#: transport never starves a flow to zero; 5% is the conventional
#: minimum fair share.
MIN_BANDWIDTH_SHARE = 0.05

_TENANT_KEYS = frozenset(("name", "model", "gc", "ratio", "gc_params"))
_FLEET_KEYS = frozenset(
    ("tenants", "cluster", "testbed", "machines", "gpus")
)


@dataclass(frozen=True)
class TenantSpec:
    """One co-scheduled training job: a zoo model plus its compressor."""

    name: str
    model: str
    gc: str = "dgc"
    ratio: Optional[float] = None
    gc_params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("tenant name must be a non-empty string")
        if self.model not in available_models():
            raise ValueError(
                f"tenant {self.name!r}: unknown model {self.model!r}; "
                f"available: {', '.join(available_models())}"
            )
        if self.ratio is not None and not 0.0 < self.ratio <= 1.0:
            raise ValueError(
                f"tenant {self.name!r}: ratio must be in (0, 1], "
                f"got {self.ratio}"
            )

    def gc_info(self) -> GCInfo:
        params = dict(self.gc_params)
        if self.ratio is not None:
            params["ratio"] = float(self.ratio)
        return GCInfo(self.gc, params)

    def job(self, cluster: ClusterSpec) -> JobConfig:
        """The ordinary :class:`JobConfig` this tenant runs on ``cluster``."""
        job = JobConfig(
            model=get_model(self.model),
            gc=self.gc_info(),
            system=SystemInfo(cluster=cluster),
        )
        # Surface a typo'd GC parameter at fleet-load time, not from
        # deep inside the joint planner.
        job.build_compressor()
        return job

    def to_dict(self) -> dict:
        data = {"name": self.name, "model": self.model, "gc": self.gc}
        if self.ratio is not None:
            data["ratio"] = self.ratio
        if self.gc_params:
            data["gc_params"] = dict(self.gc_params)
        return data

    @classmethod
    def from_dict(cls, data: dict, index: int = 0) -> "TenantSpec":
        _check_known_keys(data, _TENANT_KEYS, f"fleet tenant #{index}")
        if "name" not in data or "model" not in data:
            raise ValueError(
                f"fleet tenant #{index} needs 'name' and 'model' keys"
            )
        return cls(
            name=str(data["name"]),
            model=str(data["model"]),
            gc=str(data.get("gc", "dgc")),
            ratio=(
                float(data["ratio"]) if data.get("ratio") is not None else None
            ),
            gc_params=dict(data.get("gc_params", {})),
        )


@dataclass(frozen=True)
class FleetSpec:
    """N tenants co-scheduled on one shared cluster."""

    cluster: ClusterSpec
    tenants: Tuple[TenantSpec, ...]

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a fleet needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        duplicates = sorted(
            {name for name in names if names.count(name) > 1}
        )
        if duplicates:
            raise ValueError(
                f"tenant names must be unique, duplicated: "
                f"{', '.join(map(repr, duplicates))}"
            )

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(tenant.name for tenant in self.tenants)

    def tenant(self, name: str) -> TenantSpec:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(
            f"no tenant {name!r}; fleet has: {', '.join(self.names)}"
        )

    def jobs(self) -> Dict[str, JobConfig]:
        """Per-tenant unperturbed jobs on the shared cluster."""
        return {
            tenant.name: tenant.job(self.cluster) for tenant in self.tenants
        }

    def to_dict(self) -> dict:
        return {
            "cluster": cluster_to_dict(self.cluster),
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSpec":
        _check_known_keys(data, _FLEET_KEYS, "fleet config")
        if "cluster" in data and "testbed" in data:
            raise ValueError(
                "fleet config: give either 'cluster' or 'testbed', not both"
            )
        if "cluster" in data:
            cluster = cluster_from_dict(data["cluster"])
        else:
            testbed = data.get("testbed", "nvlink")
            if testbed not in ("nvlink", "pcie"):
                raise ValueError(
                    f"fleet config: unknown testbed {testbed!r}; "
                    f"expected 'nvlink' or 'pcie'"
                )
            factory = (
                nvlink_100g_cluster if testbed == "nvlink" else pcie_25g_cluster
            )
            cluster = factory(
                num_machines=int(data.get("machines", 8)),
                gpus_per_machine=int(data.get("gpus", 8)),
            )
        tenants_data = data.get("tenants")
        if not isinstance(tenants_data, list) or not tenants_data:
            raise ValueError(
                "fleet config: 'tenants' must be a non-empty list"
            )
        return cls(
            cluster=cluster,
            tenants=tuple(
                TenantSpec.from_dict(entry, index)
                for index, entry in enumerate(tenants_data)
            ),
        )


def save_fleet(fleet: FleetSpec, path: Path) -> None:
    """Write a fleet config file."""
    Path(path).write_text(json.dumps(fleet.to_dict(), indent=2))


def load_fleet(path: Path) -> FleetSpec:
    """Read a fleet config file (unknown keys rejected)."""
    return FleetSpec.from_dict(json.loads(Path(path).read_text()))


# -- contention projection -------------------------------------------------


@dataclass(frozen=True)
class LinkLoad:
    """One tenant's offered load, read off its simulated timeline.

    ``inter_rate`` is the job's actual wire traffic in bytes/second:
    the inter-machine link is a capacity-1 resource, so its busy
    fraction of the iteration times the *effective* bandwidth of the
    cluster the timeline was simulated against (possibly already
    contention-scaled) is exactly the data it moves per unit time.
    ``cpu_utilization`` is the analogous busy fraction of the host
    compression CPU.
    """

    tenant: str
    inter_utilization: float
    inter_rate: float
    cpu_utilization: float


def link_load(tenant: str, job: JobConfig, timeline: Timeline) -> LinkLoad:
    """Project one tenant's timeline onto the shared resources.

    ``job`` must be the job the timeline was simulated from (perturbed
    or not) — its cluster carries the effective bandwidth that converts
    the busy fraction into bytes/second.
    """
    iteration = timeline_iteration_time(timeline, job.model)
    if iteration <= 0.0:
        raise ValueError(f"tenant {tenant!r}: non-positive iteration time")
    inter_busy = math.fsum(
        stage.duration
        for stage in timeline.stages
        if stage.resource == INTER_RESOURCE
    )
    cpu_busy = math.fsum(
        stage.duration
        for stage in timeline.stages
        if stage.resource == CPU_RESOURCE
    )
    utilization = min(1.0, inter_busy / iteration)
    return LinkLoad(
        tenant=tenant,
        inter_utilization=utilization,
        inter_rate=utilization * job.system.cluster.inter_bw,
        cpu_utilization=min(1.0, cpu_busy / iteration),
    )


def contention_models(
    loads: Sequence[LinkLoad],
    cluster: ClusterSpec,
    min_share: float = MIN_BANDWIDTH_SHARE,
) -> Dict[str, FaultModel]:
    """Each tenant's view of everyone else's traffic, as a fault model.

    For tenant ``i`` the other tenants' offered bytes/second are summed
    (``fsum`` over name-sorted loads — deterministic for any input
    ordering) and subtracted from the shared link's nominal bandwidth:
    ``scale_i = 1 - cross_rate / inter_bw``, clamped to
    ``[min_share, 1]``.  CPU contention steals whole workers: the floor
    of the other tenants' summed CPU busy fractions.

    The result reuses :mod:`repro.sim.faults` unchanged — a contended
    tenant is an ordinary perturbed job, checkable by the unmodified
    invariant battery.
    """
    if not 0.0 < min_share <= 1.0:
        raise ValueError(f"min_share must be in (0, 1], got {min_share}")
    ordered = sorted(loads, key=lambda load: load.tenant)
    names = [load.tenant for load in ordered]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenants in loads: {names}")
    models: Dict[str, FaultModel] = {}
    for load in ordered:
        cross_rate = math.fsum(
            other.inter_rate for other in ordered if other.tenant != load.tenant
        )
        scale = 1.0 - cross_rate / cluster.inter_bw
        scale = min(1.0, max(min_share, scale))
        stolen = int(
            math.fsum(
                other.cpu_utilization
                for other in ordered
                if other.tenant != load.tenant
            )
        )
        faults: Tuple[Fault, ...] = ()
        if scale < 1.0:
            faults += (DegradedLink(INTER_SCOPE, bandwidth_scale=scale),)
        if stolen >= 1:
            faults += (CPUContention(slowdown=1.0, stolen_workers=stolen),)
        models[load.tenant] = FaultModel(
            name=f"fleet:{load.tenant}", faults=faults
        )
    return models


__all__ = [
    "FleetSpec",
    "LinkLoad",
    "MIN_BANDWIDTH_SHARE",
    "TenantSpec",
    "contention_models",
    "link_load",
    "load_fleet",
    "save_fleet",
]
