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
from dataclasses import asdict, dataclass
from typing import Any

from repro import io as repro_io
from repro.demand import ResourceDemand
from repro.errors import ConfigurationError, ReproError, WorkloadError
from repro.hardware.specs import BUILTIN_SERVERS, ServerSpec, get_server
from repro.hardware.topology import PROCESS_PLACEMENTS
from repro.workloads.base import Workload
from repro.workloads.hpcc import HpccWorkload
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

    Supports the four concrete workload families the paper runs (NPB,
    HPL, SPECpower, and the HPCC training components) plus bare
    :class:`~repro.demand.ResourceDemand` objects (the idle state and
    custom demands, written field for field).
    """
    if isinstance(workload, ResourceDemand):
        if workload.is_idle:
            return {"type": "idle", "duration_s": workload.duration_s}
        return {"type": "demand", **asdict(workload)}
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
    if isinstance(workload, HpccWorkload):
        return {
            "type": "hpcc",
            "component": workload.component.name,
            "nprocs": workload.nprocs,
        }
    raise ConfigurationError(
        f"cannot serialise workload of type {type(workload).__name__}"
    )


def workload_from_dict(data: dict[str, Any]) -> "Workload | ResourceDemand":
    """Inverse of :func:`workload_to_dict`.

    Campaign documents are outside input: a missing field or a bad
    value raises :class:`ConfigurationError` naming the workload, like
    an unknown type.
    """
    kind = data.get("type")
    try:
        if kind == "idle":
            return ResourceDemand.idle(float(data["duration_s"]))
        if kind == "demand":
            fields = {k: v for k, v in data.items() if k != "type"}
            fields["nprocs"] = int(fields["nprocs"])
            return ResourceDemand(**fields)
        if kind == "npb":
            return NpbWorkload(
                data["program"], data["class"], int(data["nprocs"])
            )
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
        if kind == "hpcc":
            return HpccWorkload(str(data["component"]), int(data["nprocs"]))
    except ReproError:
        raise
    except KeyError as exc:
        raise ConfigurationError(
            f"workload {data} has no field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"workload {data} has a bad value: {exc}"
        ) from None
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
        if self.placement not in PROCESS_PLACEMENTS:
            raise ConfigurationError(
                f"campaign field 'placement' must be one of "
                f"{PROCESS_PLACEMENTS}, got {self.placement!r}"
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


def campaign_to_dict(spec: CampaignSpec) -> dict[str, Any]:
    """Serialise a :class:`CampaignSpec` to its JSON document."""
    return {
        "kind": CAMPAIGN_KIND,
        "schema_version": CAMPAIGN_SCHEMA_VERSION,
        "name": spec.name,
        "seed": spec.seed,
        "placement": spec.placement,
        "evaluation_matrix": spec.evaluation_matrix,
        "servers": [repro_io.server_ref(s) for s in spec.servers],
        "workloads": [dict(w) for w in spec.workloads],
    }


def campaign_from_dict(data: dict[str, Any]) -> CampaignSpec:
    """Inverse of :func:`campaign_to_dict`.

    Campaign documents are outside input: a missing ``name`` or
    ``servers``, a ``servers`` or ``workloads`` value that is not a
    list, a workload that is not an object, a ``seed`` that is not an
    integer, an ``evaluation_matrix`` that is not a bool or a
    ``placement`` :func:`~repro.hardware.topology.place_processes` does
    not accept raises :class:`ConfigurationError` naming the field.
    """
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
    for required in ("name", "servers"):
        if required not in data:
            raise ConfigurationError(f"campaign has no field {required!r}")
    for listed in ("servers", "workloads"):
        if not isinstance(data.get(listed, []), list):
            raise ConfigurationError(f"campaign field {listed!r} must be a list")
    if not all(isinstance(w, dict) for w in data.get("workloads", [])):
        raise ConfigurationError(
            "campaign field 'workloads' must hold workload objects"
        )
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigurationError(
            f"campaign field 'seed' must be an integer, got {seed!r}"
        )
    matrix = data.get("evaluation_matrix", False)
    if not isinstance(matrix, bool):
        raise ConfigurationError(
            "campaign field 'evaluation_matrix' must be a bool, "
            f"got {matrix!r}"
        )
    workloads = tuple(dict(w) for w in data.get("workloads", ()))
    for w in workloads:
        workload_from_dict(w)  # validate eagerly, fail at load time
    return CampaignSpec(
        name=data["name"],
        servers=tuple(repro_io.server_from_ref(r) for r in data["servers"]),
        workloads=workloads,
        evaluation_matrix=matrix,
        seed=seed,
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
