"""Whole-machine power simulation over a schedule.

The key to simulating a 10k-node machine on a laptop is that node power
is *content-addressed*: two nodes running the same workload on the same
server model under the same seed draw identical traces (the simulator
seeds every run from ``(seed, program label)``, never from node
identity).  So the timestep loop never simulates per node — it

1. deduplicates the schedule into unique ``(server, workload)`` pairs,
2. evaluates each unique pair once, locally through
   :func:`~repro.engine.batch.run_batch` (or the fleet backend's chunked
   dispatch, for process parallelism),
3. builds the 1 Hz machine timeline *additively*: start from the
   all-idle baseline (every node at its calibrated idle watts, plus the
   interconnect's idle and switch terms), then for each scheduled job
   add ``n_nodes x (trace - idle)`` over its slot.

Cost is ``O(unique workloads + total job trace seconds + makespan)`` —
independent of the node count except for the baseline sum, which is why
``benchmarks/bench_cluster_scaling.py`` can gate sub-linear wall-clock
growth per node.

Modelling compromises, stated plainly: every node of a job contributes
the *same* trace (no per-node idiosyncrasy), and the interconnect's
active power scales with the job's ``comm_intensity`` and width but not
with topological distance between its nodes.  Placement still matters to
node power (chip-level compact-vs-scatter inside each node) and to the
rack-spread statistics the report prints.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro import obs
from repro.cluster.machine import ClusterSpec
from repro.cluster.report import ClusterJobRow, ClusterResult
from repro.cluster.scheduler import (
    ClusterJob,
    Schedule,
    ScheduledJob,
    schedule_jobs,
)
from repro.demand import ResourceDemand
from repro.engine.batch import run_batch
from repro.engine.simulator import Simulator
from repro.engine.trace import RunResult
from repro.errors import ConfigurationError
from repro.fleet.events import EventLog
from repro.fleet.spec import workload_from_dict
from repro.hardware.specs import ServerSpec
from repro.metering.analysis import DEFAULT_TRIM

__all__ = ["simulate_cluster", "simulate_campaign"]


def _workload_key(workload: dict[str, Any]) -> str:
    """Content key for deduplicating identical per-node workloads."""
    return json.dumps(workload, sort_keys=True, separators=(",", ":"))


def _unique_runs(
    schedule: Schedule,
    servers: "dict[str, ServerSpec]",
    simulators: "dict[str, Simulator]",
    backend,
) -> "dict[tuple[str, str], RunResult]":
    """Evaluate each unique (server, workload) pair exactly once."""
    per_server: "dict[str, list[str]]" = {}
    for sj in schedule.jobs:
        keys = per_server.setdefault(sj.server, [])
        key = _workload_key(sj.job.workload)
        if key not in keys:
            keys.append(key)

    results: "dict[tuple[str, str], RunResult]" = {}
    for server_name, keys in per_server.items():
        simulator = simulators[server_name]
        items = [workload_from_dict(json.loads(key)) for key in keys]
        if backend is not None:
            runs = backend.map_runs(simulator, items)
        else:
            runs = run_batch(simulator, items)
        for key, run in zip(keys, runs):
            if isinstance(run, Exception):
                raise run
            results[(server_name, key)] = run
    return results


def _comm_watts_per_node(
    simulator: Simulator, demand: ResourceDemand
) -> float:
    """Node-side Section VI-C communication watts for one bound demand."""
    if demand.is_idle:
        return 0.0
    simulator._cpu.bind(demand)
    return simulator.power_model.comm_power_watts(
        demand, simulator._cpu.activity()
    )


def simulate_cluster(
    cluster: ClusterSpec,
    jobs: "list[ClusterJob]",
    placement: str = "compact",
    seed: int = 0,
    backend=None,
    events: "EventLog | None" = None,
    trim: float = DEFAULT_TRIM,
    name: "str | None" = None,
) -> ClusterResult:
    """Schedule ``jobs`` on ``cluster`` and simulate machine power.

    ``backend`` routes the unique per-node runs through a
    :class:`repro.fleet.FleetRunner` (process pool + cache); otherwise
    they run locally through :func:`~repro.engine.batch.run_batch`.  Both
    paths produce bit-identical per-job rows — the differential suite compares a
    1-node run against :func:`repro.core.evaluation.evaluate_server`
    digest for digest.

    ``interconnect.absorb_node_comm=True`` is incompatible with a fleet
    backend: workers reconstruct simulators with the default knob and
    would silently re-include the node-side communication term.
    """
    absorb = cluster.interconnect.absorb_node_comm
    if absorb and backend is not None:
        raise ConfigurationError(
            "absorb_node_comm clusters cannot use a fleet backend: "
            "workers rebuild simulators with externalize_comm=False"
        )
    campaign = name or cluster.name
    with obs.timed(
        "cluster.simulate",
        cluster=cluster.name,
        nodes=cluster.n_nodes,
        jobs=len(jobs),
        placement=placement,
    ):
        schedule = schedule_jobs(cluster, jobs, placement=placement, seed=seed)

        servers = {g.server.name: g.server for g in cluster.groups}
        simulators = {
            n: Simulator(s, seed=seed, externalize_comm=absorb)
            for n, s in servers.items()
        }
        idle_watts = {
            n: sim.power_model.coefficients.p_idle
            for n, sim in simulators.items()
        }

        if events is not None:
            events.emit(
                "cluster_start",
                campaign=campaign,
                cluster=cluster.name,
                nodes=cluster.n_nodes,
                racks=cluster.n_racks,
                jobs=len(jobs),
                placement=placement,
                seed=seed,
            )

        runs = _unique_runs(schedule, servers, simulators, backend)

        ic = cluster.interconnect
        baseline = (
            sum(g.count * idle_watts[g.server.name] for g in cluster.groups)
            + cluster.n_nodes * ic.idle_watts_per_node
            + cluster.n_racks * ic.switch_watts_per_rack
        )
        n_t = max(schedule.makespan_s, 1)
        watts = np.full(n_t, baseline)

        rows = []
        for sj in schedule.jobs:
            run = runs[(sj.server, _workload_key(sj.job.workload))]
            n_nodes = len(sj.node_ids)
            node_delta = run.measured_watts - idle_watts[sj.server]
            watts[sj.start_s : sj.end_s] += n_nodes * node_delta
            net_watts = (
                ic.active_watts_per_node
                * run.demand.comm_intensity
                * n_nodes
            )
            if absorb:
                net_watts += n_nodes * _comm_watts_per_node(
                    simulators[sj.server], run.demand
                )
            watts[sj.start_s : sj.end_s] += net_watts
            rows.append(_job_row(cluster, sj, run, trim))
            if events is not None:
                events.emit(
                    "cluster_job",
                    campaign=campaign,
                    job=sj.job.name,
                    label=sj.label,
                    server=sj.server,
                    nodes=n_nodes,
                    racks=rows[-1].n_racks,
                    start_s=sj.start_s,
                    end_s=sj.end_s,
                    watts=rows[-1].watts,
                )

        result = ClusterResult(
            cluster=cluster.name,
            n_nodes=cluster.n_nodes,
            n_racks=cluster.n_racks,
            seed=seed,
            placement=placement,
            rows=tuple(rows),
            times_s=np.arange(n_t, dtype=float),
            watts=watts,
            idle_watts=float(baseline),
            makespan_s=schedule.makespan_s,
            node_seconds=schedule.node_seconds,
        )
        if events is not None:
            events.emit(
                "cluster_finish",
                campaign=campaign,
                jobs=len(rows),
                makespan_s=result.makespan_s,
                energy_kj=result.energy_kj,
                average_watts=result.average_watts,
                peak_watts=result.peak_watts,
                ppw=result.ppw,
            )
    obs.inc("cluster.jobs", float(len(rows)))
    obs.inc("cluster.node_seconds", float(schedule.node_seconds))
    obs.set_gauge("cluster.nodes", float(cluster.n_nodes))
    return result


def _job_row(
    cluster: ClusterSpec, sj: ScheduledJob, run: RunResult, trim: float
) -> ClusterJobRow:
    racks = {cluster.rack_of_node(i) for i in sj.node_ids}
    n_nodes = len(sj.node_ids)
    return ClusterJobRow(
        name=sj.job.name,
        label=sj.label,
        server=sj.server,
        n_nodes=n_nodes,
        n_racks=len(racks),
        start_s=sj.start_s,
        end_s=sj.end_s,
        duration_s=run.duration_s,
        gflops=run.demand.gflops,
        watts=run.average_power_watts(trim),
        memory_mb=run.average_memory_mb(trim),
        energy_kj=run.energy_kilojoules(trim) * n_nodes,
    )


def simulate_campaign(
    campaign,
    placement: "str | None" = None,
    backend=None,
    events: "EventLog | None" = None,
) -> ClusterResult:
    """Run a :class:`~repro.cluster.scheduler.ClusterCampaign` document."""
    return simulate_cluster(
        campaign.cluster,
        list(campaign.jobs),
        placement=placement or campaign.placement,
        seed=campaign.seed,
        backend=backend,
        events=events,
        name=campaign.name,
    )
