"""Fleet execution backend for the core run loops.

:func:`repro.core.evaluation.evaluate_server` and every sweep in
:mod:`repro.core.sweeps` accept an optional ``backend`` object; this
module provides the fleet implementation.  The contract is one method::

    map_runs(simulator, workloads) -> list[RunResult | WorkloadError]

where ``workloads`` mixes :class:`~repro.workloads.base.Workload` and
bare :class:`~repro.demand.ResourceDemand` items, and the returned list
is positionally aligned with the input.  Configurations that cannot run
on the server (e.g. CG class C on 8 GB, the paper's empty Table II
cells) come back as the :class:`~repro.errors.WorkloadError` instance
instead of a result, exactly as the serial loops would have caught it.

Because the simulator seeds every run from ``(seed, program label)``,
routing a loop through the fleet — any worker count, cached or not —
returns bit-identical ``RunResult`` objects to calling
``simulator.run`` inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.demand import ResourceDemand
from repro.engine.simulator import Simulator
from repro.engine.trace import RunResult
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.fleet.cache import ResultCache
from repro.fleet.events import EventLog
from repro.fleet.runner import FleetRunner, RetryPolicy
from repro.fleet.spec import FleetJob, make_job
from repro.fleet.worker import FaultInjection
from repro.metering.meter import WT210
from repro.workloads.base import Workload

__all__ = ["FleetBackend"]


@dataclass
class FleetBackend:
    """Runs core evaluation/sweep loops through the fleet worker pool.

    Construct once and pass to ``evaluate_server(..., backend=...)`` or
    any ``repro.core.sweeps`` function.  Jobs are deduplicated by
    content, so a sweep that revisits a configuration costs one run.
    Workers receive *chunks* of jobs by default (see
    :attr:`FleetRunner.chunk_size`), bit-identical to per-job dispatch;
    set ``chunk_size=1`` for one job per dispatch.
    """

    workers: "int | None" = None
    cache: "ResultCache | None" = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    events: "EventLog | None" = None
    fault: "FaultInjection | None" = None
    chunk_size: "int | None" = None
    timeout_s: "float | None" = None
    #: ``True`` (default): any permanently failed job aborts ``map_runs``
    #: with :class:`~repro.errors.SimulationError`.  ``False``: failed
    #: slots come back as the error instance, positionally — what
    #: ``evaluate_server(..., allow_partial=True)`` needs to degrade
    #: gracefully instead of aborting.
    strict: bool = True
    #: Optional observer called with each :class:`FleetOutcome` this
    #: backend produces — the submission-accounting hook the serve
    #: daemon uses to count cache-dedup hits per request without
    #: changing what ``map_runs`` returns.
    on_outcome: "object | None" = None
    #: Campaign name recorded in the event log; defaults to
    #: ``backend:<server>``.  The serve daemon sets this to the serve
    #: campaign id so ``GET /v1/campaigns/<id>/events`` can tail the
    #: shared journal filtered to one submission.
    name: "str | None" = None

    def _runner(self) -> FleetRunner:
        return FleetRunner(
            workers=self.workers,
            cache=self.cache,
            retry=self.retry,
            events=self.events,
            fault=self.fault,
            chunk_size=self.chunk_size,
            timeout_s=self.timeout_s,
        )

    def map_runs(
        self,
        simulator: Simulator,
        workloads: "list[Workload | ResourceDemand]",
    ) -> "list[RunResult | WorkloadError]":
        """Execute each workload on ``simulator``'s server via the fleet."""
        if simulator.meter_spec != WT210:
            raise ConfigurationError(
                "the fleet backend reconstructs simulators in worker "
                "processes and supports only the default WT210 meter"
            )
        placement = simulator.placement_policy
        results: "list[RunResult | WorkloadError | None]" = [None] * len(
            workloads
        )
        jobs: dict[str, FleetJob] = {}
        slot_job: "list[str | None]" = [None] * len(workloads)
        for i, workload in enumerate(workloads):
            if isinstance(workload, Workload):
                try:
                    workload.bind(simulator.server)
                except WorkloadError as exc:
                    results[i] = exc
                    continue
            job = make_job(
                simulator.server, workload, simulator.seed, placement
            )
            jobs.setdefault(job.job_id, job)
            slot_job[i] = job.job_id
        if jobs:
            outcome = self._runner().run_jobs(
                tuple(jobs.values()),
                name=self.name or f"backend:{simulator.server.name}",
            )
            if self.on_outcome is not None:
                self.on_outcome(outcome)
            if not outcome.ok and self.strict:
                failed = ", ".join(f.job_id for f in outcome.failures)
                raise SimulationError(
                    f"fleet backend could not complete: {failed}"
                )
            by_id = outcome.results()
            errors = {
                f.job_id: SimulationError(
                    f"fleet job {f.job_id} failed after {f.attempts} "
                    f"attempts: {f.error}"
                )
                for f in outcome.failures
            }
            for i, job_id in enumerate(slot_job):
                if job_id is not None:
                    results[i] = by_id.get(job_id) or errors[job_id]
        return results  # type: ignore[return-value]
