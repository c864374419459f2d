"""Planning-service request/response vocabulary (DESIGN.md §5.9).

One :class:`PlanRequest` names everything a plan decision depends on —
the model (zoo name or inline trace), the GC configuration, and the
cluster — plus the per-request deadline.  Two requests that describe
the same job produce the same :func:`PlanRequest.fingerprint` no matter
how they were spelled (zoo name vs the identical inline trace, default
vs explicit parameters), because the fingerprint hashes the *canonical
serialized job* (the same ``model_to_dict``/``gc_to_dict``/
``cluster_to_dict`` forms the config files use), not the request's
surface fields.  The strategy cache and the request deduplication both
key on it.

Strategies cross the wire as their per-tensor ``describe()`` strings
plus a :func:`strategy_digest` over them.  ``describe()`` spells out the
full option value (mode, every action with phase/routine/device), so
digest equality is value equality — unlike
:func:`~repro.core.options.canonical_key`, whose small ints are
process-local interning artifacts and must never leave the process.
The load harness uses the digest to prove that a served non-degraded
plan is bit-identical to ``repro plan`` on the same inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.cluster import ClusterSpec, nvlink_100g_cluster, pcie_25g_cluster
from repro.config import (
    GCInfo,
    JobConfig,
    SystemInfo,
    cluster_from_dict,
    cluster_to_dict,
    gc_to_dict,
    model_from_dict,
    model_to_dict,
)
from repro.core.strategy import CompressionStrategy
from repro.models import available_models, get_model

#: Testbed names accepted by :class:`PlanRequest` (the two paper setups).
TESTBEDS = ("nvlink", "pcie")

#: Where a response's strategy came from, worst-first on the
#: degradation ladder (DESIGN.md §5.9): a fresh planner run, an exact
#: strategy-cache hit, a stale cached plan for the same model+GC family
#: decided under different conditions, or the alpha-beta heuristic.
SOURCE_FRESH = "fresh"
SOURCE_CACHE = "cache"
SOURCE_STALE_CACHE = "stale-cache"
SOURCE_HEURISTIC = "heuristic"


class RequestError(Exception):
    """A plan request cannot be used (one-line diagnostic).

    The server maps it to a ``status: "error"`` response; the CLI maps
    it to the usual one-line exit-2 diagnostic.
    """


def preset_cluster(testbed: str, machines: int, gpus: int) -> ClusterSpec:
    """The preset ``testbed`` cluster of ``machines`` x ``gpus`` GPUs.

    Shared by the wire requests and the CLI flags; an unknown testbed
    or a non-positive dimension raises :class:`RequestError`.
    """
    if testbed not in TESTBEDS:
        raise RequestError(
            f"unknown testbed {testbed!r}; expected one of {TESTBEDS}"
        )
    if machines < 1 or gpus < 1:
        raise RequestError(
            f"machines/gpus must be >= 1, got {machines}/{gpus}"
        )
    factory = nvlink_100g_cluster if testbed == "nvlink" else pcie_25g_cluster
    return factory(num_machines=int(machines), gpus_per_machine=int(gpus))


def _from_wire(cls, data: dict):
    """``from_dict`` of both request classes: parse a wire dict into
    ``cls``, rejecting unknown keys, with every failure a one-line
    :class:`RequestError`."""
    if not isinstance(data, dict):
        raise RequestError(
            f"{cls.NOUN} request must be a JSON object, "
            f"got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known - {"op"})
    if unknown:
        raise RequestError(
            f"{cls.NOUN} request has unknown key(s) "
            f"{', '.join(map(repr, unknown))}"
        )
    kwargs = {k: v for k, v in data.items() if k in known}
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise RequestError(f"bad {cls.NOUN} request: {error}") from None


@dataclass(frozen=True)
class PlanRequest:
    """Everything one plan decision depends on, as wire-able data.

    Attributes:
        model: zoo model name (ignored when ``model_config`` is given).
        model_config: inline model trace (``model_to_dict`` form).
        gc: compression algorithm name.
        ratio: sparsification ratio shorthand (merged into ``gc_params``).
        gc_params: extra compressor constructor parameters.
        testbed: ``"nvlink"`` or ``"pcie"`` preset cluster family.
        machines / gpus: preset cluster dimensions.
        system_config: inline cluster (``cluster_to_dict`` form),
            overriding the preset fields.
        deadline_s: per-request deadline in seconds; ``None`` means the
            server default applies.
        request_id: caller-chosen correlation id, echoed verbatim.
        ratios: per-tensor compression-ratio ladder the planner should
            search (``plan --ratios``); ``None`` plans at the fixed
            configured ratio.
        error_budget: global compression-error budget in ``[0, 1]``
            (``plan --error-budget``).
    """

    model: str = "gpt2"
    model_config: Optional[dict] = None
    gc: str = "dgc"
    ratio: Optional[float] = None
    gc_params: Dict[str, object] = field(default_factory=dict)
    testbed: str = "nvlink"
    machines: int = 8
    gpus: int = 8
    system_config: Optional[dict] = None
    deadline_s: Optional[float] = None
    request_id: str = ""
    ratios: Optional[List[float]] = None
    error_budget: Optional[float] = None

    #: The request's name in one-line diagnostics.
    NOUN: ClassVar[str] = "plan"

    def build_job(self) -> JobConfig:
        """The :class:`~repro.config.JobConfig` this request describes.

        Every invalid field — unknown model or testbed, malformed
        inline config, non-positive cluster dimensions — raises
        :class:`RequestError` with a one-line message.
        """
        try:
            if self.model_config is not None:
                model = model_from_dict(self.model_config)
            else:
                if self.model not in available_models():
                    raise RequestError(
                        f"unknown model {self.model!r}; available: "
                        f"{', '.join(available_models())}"
                    )
                model = get_model(self.model)
            params = dict(self.gc_params)
            if self.ratio is not None:
                params["ratio"] = float(self.ratio)
            gc = GCInfo(str(self.gc), params)
            if self.system_config is not None:
                cluster = cluster_from_dict(self.system_config)
            else:
                cluster = preset_cluster(
                    self.testbed, self.machines, self.gpus
                )
            if self.ratios is not None:
                for entry in self.ratios:
                    if not 0.0 < float(entry) <= 1.0:
                        raise RequestError(
                            f"ratios entries must be in (0, 1], got {entry}"
                        )
            if self.error_budget is not None and not (
                0.0 <= float(self.error_budget) <= 1.0
            ):
                raise RequestError(
                    f"error_budget must be in [0, 1], got {self.error_budget}"
                )
            job = JobConfig(model=model, gc=gc, system=SystemInfo(cluster=cluster))
            # Validate compressor kwargs eagerly so a typo'd or
            # out-of-range parameter is a RequestError at admission,
            # not a traceback inside the planner thread.
            job.build_compressor()
            return job
        except RequestError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise RequestError(f"bad {self.NOUN} request: {error}") from None

    def fingerprint(self, job: Optional[JobConfig] = None) -> str:
        """Canonical job fingerprint (cache/dedup key).

        Hashes the serialized job, so spelling differences that describe
        the same job collapse to one key.  The ratio-ladder knobs join
        the key when set: a laddered plan must never be served from a
        fixed-ratio cache entry or vice versa.  ``job`` is this
        request's :meth:`build_job` result when the caller has it.
        """
        return job_fingerprint(
            self.build_job() if job is None else job,
            ratios=self.ratios,
            error_budget=self.error_budget,
        )

    def family(self) -> str:
        """The (model, GC) family key used for stale-cache fallback."""
        return family_key(self.build_job())

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        return {k: v for k, v in data.items() if v not in (None, {}, "")}

    from_dict = classmethod(_from_wire)


def _digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class FleetRequest:
    """Everything one *fleet* plan decision depends on, as wire data.

    The fleet analogue of :class:`PlanRequest` (``op: "fleet"``): a
    tenant list plus one shared cluster.  Tenant entries use the same
    dict form as fleet config files
    (:meth:`repro.cluster.tenancy.TenantSpec.to_dict`).

    Attributes:
        tenants: list of tenant dicts (name, model, gc, ratio, gc_params).
        testbed / machines / gpus: preset shared-cluster family and
            dimensions, as in :class:`PlanRequest`.
        system_config: inline cluster (``cluster_to_dict`` form),
            overriding the preset fields.
        max_rounds: fixed-point iteration cap before the CVaR fallback.
        deadline_s: per-request deadline in seconds; ``None`` means the
            server default applies.
        request_id: caller-chosen correlation id, echoed verbatim.
    """

    tenants: List[dict] = field(default_factory=list)
    testbed: str = "nvlink"
    machines: int = 8
    gpus: int = 8
    system_config: Optional[dict] = None
    max_rounds: int = 6
    deadline_s: Optional[float] = None
    request_id: str = ""

    NOUN: ClassVar[str] = "fleet"

    def build_fleet(self):
        """The :class:`~repro.cluster.tenancy.FleetSpec` this describes.

        Every invalid field raises :class:`RequestError` with a one-line
        message (the server's ``status: "error"``, the CLI's exit 2).
        """
        from repro.cluster.tenancy import FleetSpec, TenantSpec

        try:
            if self.system_config is not None:
                cluster = cluster_from_dict(self.system_config)
            else:
                cluster = preset_cluster(
                    self.testbed, self.machines, self.gpus
                )
            if not isinstance(self.tenants, list) or not self.tenants:
                raise RequestError(
                    "fleet request needs a non-empty 'tenants' list"
                )
            if self.max_rounds < 1:
                raise RequestError(
                    f"max_rounds must be >= 1, got {self.max_rounds}"
                )
            tenants = tuple(
                TenantSpec.from_dict(entry, index=index)
                for index, entry in enumerate(self.tenants)
            )
            fleet = FleetSpec(cluster=cluster, tenants=tenants)
            for tenant in fleet.tenants:
                # Validate compressor kwargs eagerly, as build_job does.
                tenant.job(cluster)
            return fleet
        except RequestError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise RequestError(f"bad {self.NOUN} request: {error}") from None

    def fingerprint(self, fleet=None) -> str:
        """Canonical fingerprint over every tenant job + the cluster;
        ``fleet`` is this request's :meth:`build_fleet` result when the
        caller has it."""
        fleet = self.build_fleet() if fleet is None else fleet
        return _digest(
            {
                "cluster": cluster_to_dict(fleet.cluster),
                "tenants": {
                    name: job_fingerprint(job)
                    for name, job in fleet.jobs().items()
                },
                "max_rounds": self.max_rounds,
            }
        )

    from_dict = classmethod(_from_wire)


@dataclass(frozen=True)
class FleetResponse:
    """The service's answer to one :class:`FleetRequest`.

    Same status vocabulary as :class:`PlanResponse`.  An ``"ok"``
    response carries ``mode`` (``"joint"`` / ``"selfish"`` for the
    portfolio fallback / ``"heuristic"`` for the degraded rung), the
    fixed-point diagnostics, the aggregate throughputs of both the
    shipped and the selfish assignment, and one dict per tenant
    (name, model, source, contended/nominal iteration times, slowdown,
    throughput, strategy digest, contention description).
    """

    request_id: str = ""
    status: str = "ok"
    reason: Optional[str] = None
    source: Optional[str] = None
    degraded: bool = False
    fingerprint: Optional[str] = None
    mode: Optional[str] = None
    converged: bool = False
    oscillated: bool = False
    rounds: int = 0
    aggregate_throughput: Optional[float] = None
    selfish_aggregate_throughput: Optional[float] = None
    worst_slowdown: Optional[float] = None
    tenants: Tuple[dict, ...] = ()
    timelines_checked: int = 0
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["tenants"] = list(self.tenants)
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "FleetResponse":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        if "tenants" in kwargs:
            kwargs["tenants"] = tuple(kwargs["tenants"])
        return cls(**kwargs)


def job_fingerprint(
    job: JobConfig,
    ratios: Optional[Sequence[float]] = None,
    error_budget: Optional[float] = None,
) -> str:
    """Canonical fingerprint of a job's planning inputs.

    Serializes the model trace, GC configuration, and cluster through
    the same dict forms the config files round-trip through, then
    hashes the canonical JSON.  Device profiles are part of
    ``SystemInfo`` but not of the wire vocabulary; requests always carry
    the default profiles, so they contribute nothing distinguishing.
    ``ratios`` / ``error_budget`` (the ratio-ladder planner knobs) are
    part of the decision and therefore of the key when present.
    """
    payload = {
        "model": model_to_dict(job.model),
        "gc": gc_to_dict(job.gc),
        "cluster": cluster_to_dict(job.system.cluster),
    }
    # Planner knobs join the fingerprint only when set, so every digest
    # minted before the ratio dimension existed stays valid.
    if ratios:
        payload["ratios"] = [float(ratio) for ratio in ratios]
    if error_budget is not None:
        payload["error_budget"] = float(error_budget)
    return _digest(payload)


def family_key(job: JobConfig) -> str:
    """The (model, GC) family a job belongs to — the stale-cache index.

    Two jobs share a family when they train the same model with the
    same compressor configuration; only the cluster differs.  A cached
    plan from the same family is structurally sensible on the new
    cluster even if no longer optimal, which is what the degradation
    ladder wants from a stale serve.
    """
    return _digest({"model": model_to_dict(job.model), "gc": gc_to_dict(job.gc)})


def strategy_digest(strategy: CompressionStrategy) -> str:
    """Cross-process-stable value digest of a strategy.

    Built from the per-option ``describe()`` strings (the complete
    option value), so two digests are equal iff the strategies assign
    value-equal options tensor by tensor — the wire-safe stand-in for
    comparing ``strategy.fingerprint()`` tuples, whose canonical keys
    are process-local.
    """
    text = "\n".join(option.describe() for option in strategy.options)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class PlanResponse:
    """The service's answer to one :class:`PlanRequest`.

    ``status`` is ``"ok"`` (a plan is attached), ``"rejected"``
    (admission control or drain refused the request — ``reason`` says
    why in one line), or ``"error"`` (the request itself is unusable).
    An ``"ok"`` response carries the plan's provenance: ``source`` (one
    of the ``SOURCE_*`` constants) and ``degraded`` (True for
    stale-cache and heuristic plans served while the circuit breaker
    shields the planner).
    """

    request_id: str = ""
    status: str = "ok"
    reason: Optional[str] = None
    source: Optional[str] = None
    degraded: bool = False
    fingerprint: Optional[str] = None
    model: Optional[str] = None
    iteration_time: Optional[float] = None
    baseline_iteration_time: Optional[float] = None
    strategy_digest: Optional[str] = None
    options: Tuple[str, ...] = ()
    compressed_tensors: Optional[int] = None
    num_tensors: Optional[int] = None
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def speedup_over_fp32(self) -> Optional[float]:
        if not self.iteration_time or not self.baseline_iteration_time:
            return None
        return self.baseline_iteration_time / self.iteration_time

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["options"] = list(self.options)
        return {k: v for k, v in data.items() if v is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "PlanResponse":
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        if "options" in kwargs:
            kwargs["options"] = tuple(kwargs["options"])
        return cls(**kwargs)


def encode_message(payload: dict) -> bytes:
    """One wire frame: compact JSON + newline (the protocol is
    newline-delimited JSON over a stream)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    ) + b"\n"


def decode_message(line: bytes) -> dict:
    """Parse one wire frame, raising :class:`RequestError` on garbage."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RequestError(f"undecodable frame: {error}") from None
    if not isinstance(payload, dict):
        raise RequestError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


__all__ = [
    "FleetRequest",
    "FleetResponse",
    "PlanRequest",
    "PlanResponse",
    "RequestError",
    "SOURCE_CACHE",
    "SOURCE_FRESH",
    "SOURCE_HEURISTIC",
    "SOURCE_STALE_CACHE",
    "TESTBEDS",
    "decode_message",
    "encode_message",
    "family_key",
    "job_fingerprint",
    "preset_cluster",
    "strategy_digest",
]
