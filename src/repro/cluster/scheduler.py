"""Deterministic event-driven job scheduler: FCFS + EASY backfill.

Jobs arrive in submit order and are started first-come-first-served; a
job that cannot start immediately gets a *reservation* at the earliest
instant enough of its group's nodes free up (the shadow time), and later
jobs may backfill around it only if they cannot delay that reservation —
either they run in a different node group, or they finish before the
shadow time (conservative EASY backfill).

Everything is deterministic: the queue order is ``(submit_s, position)``,
node selection is a pure function of the free set and the placement
policy, and the ``random`` policy derives its stream from ``(seed, job
name)`` exactly the way the simulator seeds runs — scheduling the same
job mix twice yields the identical schedule, byte for byte.

Time is discretised to whole seconds (the simulator's 1 Hz metering
grid): submit times round up, run lengths are the bound demand's trace
length, so every start/end lands on the grid the power timeline uses.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.cluster.machine import ClusterSpec, cluster_from_dict, cluster_to_dict
from repro.demand import ResourceDemand
from repro.errors import ConfigurationError
from repro.fleet.spec import workload_from_dict, workload_to_dict

__all__ = [
    "CAMPAIGN_KIND",
    "CAMPAIGN_SCHEMA_VERSION",
    "PLACEMENT_POLICIES",
    "ClusterJob",
    "ScheduledJob",
    "Schedule",
    "ClusterCampaign",
    "schedule_jobs",
    "synthetic_jobmix",
    "evaluation_jobmix",
    "campaign_to_dict",
    "campaign_from_dict",
]

CAMPAIGN_KIND = "cluster_campaign"
CAMPAIGN_SCHEMA_VERSION = 1

#: Cluster-level node-selection policies (distinct from the node-internal
#: chip placement of :func:`repro.hardware.topology.place_processes`).
PLACEMENT_POLICIES: tuple[str, ...] = ("compact", "scatter", "random")


@dataclass(frozen=True)
class ClusterJob:
    """One submitted job: ``n_nodes`` nodes each running ``workload``.

    ``workload`` is the tagged dict form of :func:`repro.fleet.spec.
    workload_to_dict` — the per-node workload, identical on every node
    (SPMD).  ``server`` optionally pins the job to node groups of that
    server model; ``None`` takes the first group with enough capacity.
    """

    name: str
    workload: dict[str, Any]
    n_nodes: int = 1
    submit_s: float = 0.0
    server: "str | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("cluster job name must not be empty")
        if self.n_nodes < 1:
            raise ConfigurationError(
                f"{self.name}: n_nodes must be >= 1, got {self.n_nodes}"
            )
        if self.submit_s < 0:
            raise ConfigurationError(
                f"{self.name}: submit_s must be >= 0, got {self.submit_s}"
            )
        if "type" not in self.workload:
            raise ConfigurationError(
                f"{self.name}: workload dict needs a 'type' tag"
            )


@dataclass(frozen=True)
class ScheduledJob:
    """One placed job: where and when it ran.

    ``duration_s`` is the bound demand's nominal runtime; ``end_s -
    start_s`` is its 1 Hz trace length (``ceil(duration_s)``), which is
    what the power timeline and the backfill reservations use.
    """

    job: ClusterJob
    group_index: int
    server: str
    node_ids: tuple[int, ...]
    start_s: int
    end_s: int
    label: str
    duration_s: float

    @property
    def n_seconds(self) -> int:
        """Length of the job's slot on the 1 Hz grid."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class Schedule:
    """Outcome of scheduling one job mix on one cluster."""

    cluster: str
    placement: str
    seed: int
    jobs: tuple[ScheduledJob, ...]

    @property
    def makespan_s(self) -> int:
        """Time the last job ends (0 for an empty mix)."""
        return max((sj.end_s for sj in self.jobs), default=0)

    @property
    def node_seconds(self) -> int:
        """Busy node-seconds across the schedule."""
        return sum(len(sj.node_ids) * sj.n_seconds for sj in self.jobs)


def _job_rng(seed: int, name: str) -> np.random.Generator:
    """Per-job RNG from ``(seed, job name)`` — mirrors the simulator."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _pick_group(cluster: ClusterSpec, job: ClusterJob) -> int:
    """First group that satisfies the job's server pin and capacity."""
    for idx, group in enumerate(cluster.groups):
        if job.server is not None and group.server.name != job.server:
            continue
        if group.count >= job.n_nodes:
            return idx
    constraint = f" on server {job.server!r}" if job.server else ""
    raise ConfigurationError(
        f"job {job.name!r} needs {job.n_nodes} nodes{constraint}; "
        f"no group of {cluster.name!r} is large enough"
    )


def _select_nodes(
    cluster: ClusterSpec,
    free: "set[int]",
    n: int,
    policy: str,
    rng_factory,
) -> tuple[int, ...]:
    """Choose ``n`` nodes from ``free`` under a placement policy.

    ``compact`` fills the lowest node ids (dense racks, shared switches);
    ``scatter`` round-robins across racks (one node per rack before a
    second in any); ``random`` samples from the job's own seeded stream.
    """
    ordered = sorted(free)
    if policy == "compact":
        chosen = ordered[:n]
    elif policy == "scatter":
        width = cluster.nodes_per_rack
        chosen = sorted(
            ordered, key=lambda i: (i % width, i // width)
        )[:n]
    elif policy == "random":
        rng = rng_factory()
        idx = rng.choice(len(ordered), size=n, replace=False)
        chosen = [ordered[int(i)] for i in sorted(idx)]
    else:
        raise ConfigurationError(
            f"unknown placement policy {policy!r} "
            f"(choose from {', '.join(PLACEMENT_POLICIES)})"
        )
    return tuple(sorted(chosen))


@dataclass
class _Prepared:
    """A job bound to its group and demand, awaiting a slot."""

    position: int
    job: ClusterJob
    group_index: int
    demand: ResourceDemand
    n_seconds: int

    @property
    def submit(self) -> int:
        return int(math.ceil(self.job.submit_s))


def _prepare(cluster: ClusterSpec, jobs: "list[ClusterJob]") -> "list[_Prepared]":
    """Bind every job: pick its group, bind its workload, fix its length."""
    prepared = []
    for position, job in enumerate(jobs):
        group_index = _pick_group(cluster, job)
        server = cluster.groups[group_index].server
        workload = workload_from_dict(job.workload)
        demand = (
            workload
            if isinstance(workload, ResourceDemand)
            else workload.bind(server)
        )
        prepared.append(
            _Prepared(
                position=position,
                job=job,
                group_index=group_index,
                demand=demand,
                n_seconds=max(int(math.ceil(demand.duration_s)), 1),
            )
        )
    return prepared


def schedule_jobs(
    cluster: ClusterSpec,
    jobs: "list[ClusterJob]",
    placement: str = "compact",
    seed: int = 0,
) -> Schedule:
    """Schedule a job mix with FCFS + conservative EASY backfill.

    Returns the jobs in *start order* (ties broken by queue position).
    Raises :class:`~repro.errors.ConfigurationError` when a job cannot
    fit any group or its workload does not bind on the group's server.
    """
    if placement not in PLACEMENT_POLICIES:
        raise ConfigurationError(
            f"unknown placement policy {placement!r} "
            f"(choose from {', '.join(PLACEMENT_POLICIES)})"
        )
    if not jobs:
        raise ConfigurationError("cluster job mix is empty")

    prepared = _prepare(cluster, list(jobs))
    queue = deque(sorted(prepared, key=lambda p: (p.submit, p.position)))
    free: "list[set[int]]" = [
        set(range(lo, hi)) for lo, hi in cluster.group_bounds()
    ]
    # Completion events: (end_s, sequence, group_index, node_ids).
    completions: "list[tuple[int, int, int, tuple[int, ...]]]" = []
    seq = 0
    scheduled: "list[ScheduledJob]" = []
    t = 0

    def release(until: int) -> None:
        while completions and completions[0][0] <= until:
            _, _, g, ids = heapq.heappop(completions)
            free[g].update(ids)

    def start(p: _Prepared, at: int) -> None:
        nonlocal seq
        node_ids = _select_nodes(
            cluster,
            free[p.group_index],
            p.job.n_nodes,
            placement,
            lambda: _job_rng(seed, p.job.name),
        )
        free[p.group_index].difference_update(node_ids)
        end = at + p.n_seconds
        heapq.heappush(completions, (end, seq, p.group_index, node_ids))
        seq += 1
        scheduled.append(
            ScheduledJob(
                job=p.job,
                group_index=p.group_index,
                server=cluster.groups[p.group_index].server.name,
                node_ids=node_ids,
                start_s=at,
                end_s=end,
                label=p.demand.program,
                duration_s=p.demand.duration_s,
            )
        )

    while queue:
        head = queue[0]
        t = max(t, head.submit)
        release(t)
        if len(free[head.group_index]) >= head.job.n_nodes:
            start(head, t)
            queue.popleft()
            continue

        # Shadow time: when the head's reservation can be honoured.
        avail = len(free[head.group_index])
        shadow = None
        for end, _, g, ids in sorted(completions):
            if g == head.group_index:
                avail += len(ids)
            if avail >= head.job.n_nodes:
                shadow = end
                break
        if shadow is None:  # pragma: no cover - _pick_group guarantees fit
            raise ConfigurationError(
                f"job {head.job.name!r} can never acquire "
                f"{head.job.n_nodes} nodes"
            )

        # Conservative EASY backfill: a later, already-submitted job may
        # jump the queue only if it cannot delay the head's reservation.
        backfilled = False
        for p in list(queue)[1:]:
            if p.submit > t:
                break  # queue is submit-ordered; nothing later is here yet
            if len(free[p.group_index]) < p.job.n_nodes:
                continue
            if p.group_index == head.group_index and t + p.n_seconds > shadow:
                continue
            start(p, t)
            queue.remove(p)
            backfilled = True
        if backfilled:
            continue

        # Nothing can run: advance to the next completion.
        t = completions[0][0]
        release(t)

    scheduled.sort(key=lambda sj: (sj.start_s, sj.job.name))
    return Schedule(
        cluster=cluster.name,
        placement=placement,
        seed=seed,
        jobs=tuple(scheduled),
    )


def synthetic_jobmix(
    cluster: ClusterSpec, n_jobs: int = 24, seed: int = 0
) -> "list[ClusterJob]":
    """A seeded mixed job stream: EP and HPL jobs of varying width.

    Arrival times follow a seeded exponential process; widths are biased
    small (most HPC jobs are), capped by the target group's size.  The
    same ``(cluster, n_jobs, seed)`` always yields the identical mix.
    """
    from repro.workloads.hpl import HplConfig, HplWorkload
    from repro.workloads.npb import NpbWorkload

    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be >= 1, got {n_jobs}")
    rng = _job_rng(seed, "jobmix")
    jobs: "list[ClusterJob]" = []
    arrival = 0.0
    for i in range(n_jobs):
        arrival += float(rng.exponential(15.0))
        group = cluster.groups[int(rng.integers(len(cluster.groups)))]
        server = group.server
        width = int(min(2 ** int(rng.integers(0, 4)), group.count))
        one, half, full = 1, server.half_cores(), server.total_cores
        kind = int(rng.integers(3))
        if kind == 0:
            workload: Any = NpbWorkload(
                "ep", "C", [one, half, full][int(rng.integers(3))]
            )
        elif kind == 1:
            workload = HplWorkload(
                HplConfig(nprocs=full, memory_fraction=0.5)
            )
        else:
            workload = HplWorkload(
                HplConfig(nprocs=full, memory_fraction=0.95)
            )
        jobs.append(
            ClusterJob(
                name=f"job-{i:03d}",
                workload=workload_to_dict(workload),
                n_nodes=width,
                submit_s=round(arrival),
                server=server.name,
            )
        )
    return jobs


def evaluation_jobmix(server_name: str) -> "list[ClusterJob]":
    """The paper's ten evaluation states as single-node cluster jobs.

    Run on a 1-node cluster of the same server this reproduces
    :func:`repro.core.evaluation.evaluate_server` job for job — the
    differential suite asserts digest equality.
    """
    from repro.core.evaluation import state_workload
    from repro.core.states import evaluation_states
    from repro.hardware.specs import get_server

    server = get_server(server_name)
    return [
        ClusterJob(
            name=state.label,
            workload=workload_to_dict(state_workload(state)),
            n_nodes=1,
            submit_s=0.0,
            server=server.name,
        )
        for state in evaluation_states(server)
    ]


@dataclass(frozen=True)
class ClusterCampaign:
    """A complete runnable description: cluster + job mix + knobs."""

    name: str
    cluster: ClusterSpec
    jobs: tuple[ClusterJob, ...]
    seed: int = 0
    placement: str = "compact"

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ConfigurationError("a cluster campaign needs jobs")
        if self.placement not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r} "
                f"(choose from {', '.join(PLACEMENT_POLICIES)})"
            )


def campaign_to_dict(campaign: ClusterCampaign) -> dict[str, Any]:
    """Serialise a :class:`ClusterCampaign` to its JSON document."""
    return {
        "kind": CAMPAIGN_KIND,
        "schema_version": CAMPAIGN_SCHEMA_VERSION,
        "name": campaign.name,
        "seed": campaign.seed,
        "placement": campaign.placement,
        "cluster": cluster_to_dict(campaign.cluster),
        "jobs": [
            {
                "name": job.name,
                "workload": dict(job.workload),
                "n_nodes": job.n_nodes,
                "submit_s": job.submit_s,
                "server": job.server,
            }
            for job in campaign.jobs
        ],
    }


def campaign_from_dict(data: dict[str, Any]) -> ClusterCampaign:
    """Inverse of :func:`campaign_to_dict` (validates workloads eagerly)."""
    kind = data.get("kind")
    if kind != CAMPAIGN_KIND:
        raise ConfigurationError(
            f"expected a {CAMPAIGN_KIND!r} document, found {kind!r}"
        )
    version = data.get("schema_version")
    if version != CAMPAIGN_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported cluster campaign schema version {version!r} "
            f"(this build reads version {CAMPAIGN_SCHEMA_VERSION})"
        )
    jobs = []
    for j in data["jobs"]:
        workload_from_dict(j["workload"])  # validate at load time
        jobs.append(
            ClusterJob(
                name=j["name"],
                workload=dict(j["workload"]),
                n_nodes=int(j.get("n_nodes", 1)),
                submit_s=float(j.get("submit_s", 0.0)),
                server=j.get("server"),
            )
        )
    return ClusterCampaign(
        name=data["name"],
        cluster=cluster_from_dict(data["cluster"]),
        jobs=tuple(jobs),
        seed=int(data.get("seed", 0)),
        placement=data.get("placement", "compact"),
    )
