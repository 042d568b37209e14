"""Campaign specifications for the fleet batch-evaluation service.

A *campaign* is the unit of batch work: a set of servers crossed with a
set of workload configurations (optionally the paper's ten-state
evaluation matrix), all under one seed.  Campaign specs are plain JSON —
writable by hand, version-controllable, and loadable through
:mod:`repro.io` — so a measurement campaign can be described once and
executed on any machine.

Workload configurations are serialised to small tagged dicts (the
``"type"`` field discriminates) rather than pickled objects, which keeps
campaign files readable and the worker protocol independent of Python
class layout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.demand import ResourceDemand
from repro.errors import ConfigurationError, WorkloadError
from repro.hardware.specs import BUILTIN_SERVERS, ServerSpec, get_server
from repro.workloads.base import Workload
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload
from repro.workloads.specpower import SpecPowerLevel, SpecPowerWorkload

__all__ = [
    "CAMPAIGN_KIND",
    "CAMPAIGN_SCHEMA_VERSION",
    "FleetJob",
    "CampaignSpec",
    "workload_to_dict",
    "workload_from_dict",
    "workload_label",
    "make_job",
    "bind_jobs",
    "campaign_to_dict",
    "campaign_from_dict",
    "demo_campaign",
    "evaluation_campaign",
]

CAMPAIGN_KIND = "fleet_campaign"
CAMPAIGN_SCHEMA_VERSION = 1


def workload_to_dict(workload: "Workload | ResourceDemand") -> dict[str, Any]:
    """Serialise one workload configuration to a tagged JSON dict.

    Supports the three concrete workload families the paper runs (NPB,
    HPL, SPECpower) plus bare :class:`~repro.demand.ResourceDemand`
    objects (the idle state and custom demands).
    """
    if isinstance(workload, ResourceDemand):
        if workload.is_idle:
            return {"type": "idle", "duration_s": workload.duration_s}
        return {
            "type": "demand",
            "program": workload.program,
            "nprocs": workload.nprocs,
            "duration_s": workload.duration_s,
            "gflops": workload.gflops,
            "memory_mb": workload.memory_mb,
            "cpu_util": workload.cpu_util,
            "ipc": workload.ipc,
            "fp_intensity": workload.fp_intensity,
            "mem_intensity": workload.mem_intensity,
            "comm_intensity": workload.comm_intensity,
            "l1_locality": workload.l1_locality,
            "l2_locality": workload.l2_locality,
            "l3_locality": workload.l3_locality,
            "read_fraction": workload.read_fraction,
        }
    if isinstance(workload, NpbWorkload):
        return {
            "type": "npb",
            "program": workload.program,
            "class": workload.klass.value,
            "nprocs": workload.nprocs,
        }
    if isinstance(workload, HplWorkload):
        config = workload.config
        return {
            "type": "hpl",
            "nprocs": config.nprocs,
            "memory_fraction": config.memory_fraction,
            "nb": config.nb,
            "p": config.p,
            "q": config.q,
        }
    if isinstance(workload, SpecPowerWorkload):
        return {
            "type": "specpower",
            "level": workload.level.name,
            "load": workload.level.load,
        }
    raise ConfigurationError(
        f"cannot serialise workload of type {type(workload).__name__}"
    )


def workload_from_dict(data: dict[str, Any]) -> "Workload | ResourceDemand":
    """Inverse of :func:`workload_to_dict`."""
    kind = data.get("type")
    if kind == "idle":
        return ResourceDemand.idle(float(data["duration_s"]))
    if kind == "demand":
        fields = {k: v for k, v in data.items() if k != "type"}
        fields["nprocs"] = int(fields["nprocs"])
        return ResourceDemand(**fields)
    if kind == "npb":
        return NpbWorkload(data["program"], data["class"], int(data["nprocs"]))
    if kind == "hpl":
        return HplWorkload(
            HplConfig(
                nprocs=int(data["nprocs"]),
                memory_fraction=float(data["memory_fraction"]),
                nb=int(data.get("nb", 200)),
                p=data.get("p"),
                q=data.get("q"),
            )
        )
    if kind == "specpower":
        return SpecPowerWorkload(
            SpecPowerLevel(data["level"], float(data["load"]))
        )
    raise ConfigurationError(f"unknown workload type {kind!r}")


def workload_label(workload: "Workload | ResourceDemand") -> str:
    """The display/table label of a workload (``"ep.C.4"``, ``"Idle"``...)."""
    if isinstance(workload, ResourceDemand):
        return workload.program
    label = getattr(workload, "label", None)
    if label is not None:
        return label
    return workload.program


@dataclass(frozen=True)
class FleetJob:
    """One unit of fleet work: run one workload on one server.

    The workload is carried in its serialised form so jobs are cheap to
    pickle to workers and to hash into cache keys.
    """

    server: ServerSpec
    workload: dict[str, Any]
    label: str
    seed: int = 0
    placement: str = "compact"

    @property
    def job_id(self) -> str:
        """Content-based identifier: equal ids mean equal work.

        Labels alone are ambiguous — e.g. every HPL memory fraction at
        or below 0.7 prints as ``"HPL P<n> Mh"`` — so the id includes a
        digest of the workload configuration.
        """
        blob = json.dumps(
            self.workload, sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()[:8]
        return f"{self.server.name}/{self.label}/s{self.seed}/{digest}"


def make_job(
    server: ServerSpec,
    workload: "Workload | ResourceDemand",
    seed: int = 0,
    placement: str = "compact",
) -> FleetJob:
    """Build a :class:`FleetJob` from a live workload object."""
    return FleetJob(
        server=server,
        workload=workload_to_dict(workload),
        label=workload_label(workload),
        seed=seed,
        placement=placement,
    )


def bind_jobs(
    server: ServerSpec,
    workloads: "list[Workload | ResourceDemand]",
    seed: int,
    placement: str,
) -> "list[FleetJob | WorkloadError]":
    """One entry per workload, in order: its :class:`FleetJob`, or the
    :class:`~repro.errors.WorkloadError` its ``bind`` raised on
    ``server`` (e.g. a configuration larger than the server's memory)."""
    out: "list[FleetJob | WorkloadError]" = []
    for workload in workloads:
        if isinstance(workload, Workload):
            try:
                workload.bind(server)
            except WorkloadError as exc:
                out.append(exc)
                continue
        out.append(make_job(server, workload, seed, placement))
    return out


@dataclass(frozen=True)
class CampaignSpec:
    """A batch of (server x workload) evaluation jobs under one seed.

    ``evaluation_matrix=True`` adds the paper's full ten-state matrix
    (idle + EP/HPL states, Tables IV-VI) for every server, in table
    order, ahead of any explicit ``workloads``.
    """

    name: str
    servers: tuple[ServerSpec, ...]
    workloads: tuple[dict[str, Any], ...] = ()
    evaluation_matrix: bool = False
    seed: int = 0
    placement: str = "compact"

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigurationError("a campaign needs at least one server")
        if not self.workloads and not self.evaluation_matrix:
            raise ConfigurationError(
                "a campaign needs workloads or evaluation_matrix=True"
            )

    def jobs(self) -> tuple[FleetJob, ...]:
        """Expand the spec into the concrete job list, in stable order."""
        # Late import: core.evaluation imports the engine, not fleet, but
        # importing it lazily keeps fleet.spec importable from anywhere.
        from repro.core.evaluation import state_workload
        from repro.core.states import evaluation_states

        out: list[FleetJob] = []
        for server in self.servers:
            if self.evaluation_matrix:
                # Workload labels coincide with the table labels
                # ("ep.C.4", "HPL P4 Mf"), so rows keep their names.
                for state in evaluation_states(server):
                    workload = state_workload(state)
                    out.append(make_job(server, workload, self.seed, self.placement))
            for data in self.workloads:
                workload = workload_from_dict(data)
                out.append(
                    make_job(server, workload, self.seed, self.placement)
                )
        seen: set[str] = set()
        for job in out:
            if job.job_id in seen:
                raise ConfigurationError(
                    f"duplicate job in campaign: {job.job_id}"
                )
            seen.add(job.job_id)
        return tuple(out)


def _server_ref(server: ServerSpec) -> "str | dict[str, Any]":
    """Builtin servers serialise by name; custom ones embed their spec."""
    from repro import io as repro_io

    builtin = BUILTIN_SERVERS.get(server.name)
    if builtin is not None and builtin == server:
        return server.name
    return repro_io.server_to_dict(server)


def _resolve_server(ref: "str | dict[str, Any]") -> ServerSpec:
    from repro import io as repro_io

    if isinstance(ref, str):
        return get_server(ref)
    return repro_io.server_from_dict(ref)


def campaign_to_dict(spec: CampaignSpec) -> dict[str, Any]:
    """Serialise a :class:`CampaignSpec` to its JSON document."""
    return {
        "kind": CAMPAIGN_KIND,
        "schema_version": CAMPAIGN_SCHEMA_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "placement": spec.placement,
        "evaluation_matrix": spec.evaluation_matrix,
        "servers": [_server_ref(s) for s in spec.servers],
        "workloads": [dict(w) for w in spec.workloads],
    }


def campaign_from_dict(data: dict[str, Any]) -> CampaignSpec:
    """Inverse of :func:`campaign_to_dict`."""
    kind = data.get("kind")
    if kind != CAMPAIGN_KIND:
        raise ConfigurationError(
            f"expected a {CAMPAIGN_KIND!r} document, found {kind!r}"
        )
    version = data.get("schema_version")
    if version != CAMPAIGN_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported campaign schema version {version!r} "
            f"(this build reads version {CAMPAIGN_SCHEMA_VERSION})"
        )
    workloads = tuple(dict(w) for w in data.get("workloads", ()))
    for w in workloads:
        workload_from_dict(w)  # validate eagerly, fail at load time
    return CampaignSpec(
        name=data["name"],
        servers=tuple(_resolve_server(r) for r in data["servers"]),
        workloads=workloads,
        evaluation_matrix=bool(data.get("evaluation_matrix", False)),
        seed=int(data.get("seed", 0)),
        placement=data.get("placement", "compact"),
    )


def demo_campaign() -> CampaignSpec:
    """The ``examples/campaign_pipeline.py`` workload list as a campaign.

    EP class C at 1/2/4 processes plus HPL at half and full memory on the
    Xeon-E5462, seed 2015 — the paper's Section V-C2 walkthrough.
    """
    workloads = (
        NpbWorkload("ep", "C", 1),
        NpbWorkload("ep", "C", 2),
        NpbWorkload("ep", "C", 4),
        HplWorkload(HplConfig(nprocs=4, memory_fraction=0.5)),
        HplWorkload(HplConfig(nprocs=4, memory_fraction=0.95)),
    )
    return CampaignSpec(
        name="demo-e5462",
        servers=(get_server("Xeon-E5462"),),
        workloads=tuple(workload_to_dict(w) for w in workloads),
        seed=2015,
    )


def evaluation_campaign(
    servers: "tuple[ServerSpec, ...] | None" = None, seed: int = 0
) -> CampaignSpec:
    """The full Tables IV-VI matrix: ten states on every (builtin) server."""
    if servers is None:
        servers = tuple(BUILTIN_SERVERS.values())
    return CampaignSpec(
        name="evaluation-matrix",
        servers=servers,
        evaluation_matrix=True,
        seed=seed,
    )
