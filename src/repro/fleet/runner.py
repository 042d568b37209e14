"""The fleet runner: parallel, cached, fault-tolerant campaign execution.

Jobs fan out over a ``ProcessPoolExecutor`` (fork start method where the
platform has it, so workers inherit the imported simulator), or, with
one worker, run inline in this process.  Both go through one dispatch
loop; only the executor differs.  Before a job is submitted its
content-addressed cache key is consulted; hits are returned without
touching the executor, which is what makes repeated sweeps and
benchmarks near-free.  Failed attempts are retried with exponential
backoff up to the retry policy's budget; jobs that exhaust it are
recorded in the outcome's failure report while the rest of the campaign
completes — a campaign never aborts because one point misbehaved.  A
deterministic error (a :class:`~repro.errors.ConfigurationError` or
:class:`~repro.errors.WorkloadError`: the job itself is invalid) fails
its job on the first attempt, since every retry would fail the same way.

Determinism: the simulator derives every random stream from ``(seed,
program label)``, so fleet execution order, worker count, and cache hits
cannot change results — a 2-worker run is bit-identical to a serial one
(see ``tests/fleet/test_determinism.py``).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro import obs
from repro.demand import ResourceDemand
from repro.engine.simulator import Simulator
from repro.engine.trace import RunResult
from repro.errors import (
    ConfigurationError,
    JobTimeoutError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.fleet.cache import ResultCache, canonical_digest, job_cache_key
from repro.fleet.events import EventLog
from repro.fleet.spec import CampaignSpec, FleetJob, bind_jobs
from repro.fleet.worker import (
    FaultInjection,
    execute_chunk,
    execute_job,
    job_payload,
)
from repro.metering.meter import WT210
from repro.workloads.base import Workload

__all__ = [
    "DETERMINISTIC_ERRORS",
    "RetryPolicy",
    "JobFailure",
    "JobRecord",
    "FleetOutcome",
    "FleetRunner",
    "default_workers",
    "auto_chunk_size",
]

#: Watchdog poll floor, seconds — how stale a deadline check may go.
_WATCHDOG_TICK_S = 0.05

#: How many times a campaign may rebuild its pool after crashes or hangs
#: before the remaining jobs are failed outright.  Bounds the worst case
#: when every worker hangs persistently.
_MAX_POOL_REPLACEMENTS = 3

#: Errors a retry cannot cure: the job's own spec is invalid (a bad
#: process count, a footprint larger than the server's memory), so every
#: attempt fails the same way.
DETERMINISTIC_ERRORS = (ConfigurationError, WorkloadError)


def default_workers() -> int:
    """Default pool size: up to 4, bounded by the machine."""
    return max(1, min(4, os.cpu_count() or 1))


def auto_chunk_size(n_jobs: int, workers: int) -> int:
    """Chunk size balancing dispatch overhead against load balance.

    Aims for ~4 chunks per worker so a slow chunk cannot serialise the
    tail of the campaign, while still amortising pickle/IPC cost over
    multiple jobs.  Inline execution (``workers <= 1``) gets one big
    chunk: with no IPC to amortise, it only saves per-dispatch overhead.
    """
    if workers <= 1:
        return max(1, n_jobs)
    return max(1, -(-n_jobs // (workers * 4)))


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential-backoff retry budget for one job.

    The backoff is capped at ``max_backoff_s`` (an uncapped exponential
    turns a flaky job into a stalled campaign) and spread by ``jitter``
    — but *deterministically*: the jitter factor is a pure function of
    the job's seed and the attempt number, so retry timing is exactly
    reproducible across runs, which the rest of the fleet's
    bit-identical guarantee demands.

    Only transient failures are retried: :meth:`should_retry` refuses
    :data:`DETERMINISTIC_ERRORS` at any attempt.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0 or self.multiplier < 1.0:
            raise ConfigurationError(
                "backoff must be >= 0 s with multiplier >= 1"
            )
        if self.max_backoff_s <= 0:
            raise ConfigurationError(
                f"max_backoff_s must be positive, got {self.max_backoff_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def should_retry(self, attempt: int, exc: BaseException) -> bool:
        """Whether failed ``attempt`` (1-based) of a job earns another."""
        return attempt < self.max_attempts and not isinstance(
            exc, DETERMINISTIC_ERRORS
        )

    def delay_s(self, attempt: int, seed: "int | None" = None) -> float:
        """Sleep before re-submitting after failed ``attempt`` (1-based).

        With a ``seed`` the capped exponential is scaled by a factor in
        ``[1 - jitter, 1 + jitter)`` derived from ``(seed, attempt)``
        via SHA-256 — deterministic, but de-synchronised across jobs so
        a burst of same-attempt retries does not stampede.  Without a
        seed the bare capped exponential is returned.
        """
        base = min(
            self.backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        if seed is None or self.jitter == 0.0 or base == 0.0:
            return base
        digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * unit - 1.0))


@dataclass(frozen=True)
class JobFailure:
    """One job that exhausted its retry budget."""

    job_id: str
    label: str
    server: str
    attempts: int
    error: str


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job in a campaign.

    ``wall_s`` is the job's *execution* cost: the worker's measured wall
    time, or — for cache hits — the wall time recorded when the entry
    was first computed.  Summed over records it estimates the serial
    cost of the campaign.
    """

    job: FleetJob
    result: "RunResult | None"
    cached: bool
    attempts: int
    wall_s: float
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        """Whether the job produced a result."""
        return self.result is not None


@dataclass(frozen=True)
class FleetOutcome:
    """Everything a campaign produced, including partial results.

    ``metrics`` merges every worker's per-job metrics snapshot with the
    runner's job-lifecycle counters (``fleet.job.completed`` /
    ``.failures`` / ``.retries``, ``fleet.job.seconds``) when
    observability was enabled for the run; ``None`` otherwise.  See
    :meth:`repro.obs.MetricsRegistry.snapshot` for the shape.
    """

    campaign: str
    records: tuple[JobRecord, ...]
    wall_s: float
    workers: int
    metrics: "dict | None" = None

    @property
    def ok(self) -> bool:
        """True when every job delivered a result."""
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> tuple[JobFailure, ...]:
        """The failure report: jobs that exhausted their retries."""
        return tuple(
            JobFailure(
                job_id=r.job.job_id,
                label=r.job.label,
                server=r.job.server.name,
                attempts=r.attempts,
                error=r.error or "unknown error",
            )
            for r in self.records
            if not r.ok
        )

    @property
    def cache_hits(self) -> int:
        """Number of jobs served from the result cache."""
        return sum(1 for r in self.records if r.cached)

    def results(self) -> dict[str, RunResult]:
        """Successful results keyed by job id."""
        return {
            r.job.job_id: r.result for r in self.records if r.result is not None
        }

    def results_digest(self) -> str:
        """SHA-256 over the deterministic content of the outcome.

        Covers what the campaign *computed* — per-job demand, duration,
        power, energy — and deliberately excludes schedule-dependent
        bookkeeping (wall times, cache provenance, attempt counts).  Two
        runs of the same campaign must therefore produce the same
        digest whether they ran serial or parallel, cold or warm, in
        one piece or killed and resumed; the kill-and-resume CI test
        asserts exactly this.
        """
        rows: list[dict] = []
        for r in self.records:
            if r.result is None:
                rows.append({"job_id": r.job.job_id, "failed": True})
                continue
            run = r.result
            rows.append(
                {
                    "job_id": r.job.job_id,
                    "gflops": run.demand.gflops,
                    "duration_s": run.duration_s,
                    "watts": run.average_power_watts(),
                    "memory_mb": run.average_memory_mb(),
                    "energy_kj": run.energy_kilojoules(),
                }
            )
        return canonical_digest(rows)

    def map_runs(
        self,
        simulator: Simulator,
        workloads: "list[Workload | ResourceDemand]",
    ) -> "list[RunResult | ReproError]":
        """The backend contract over runs this outcome already holds.

        Returns what :meth:`FleetRunner.map_runs` would, without running
        anything: ``evaluate_server(server, simulator, backend=outcome)``
        scores a campaign that already ran.  A job the outcome does not
        hold (one the serve daemon shed) comes back as
        :class:`~repro.errors.SimulationError` ``"fleet job <id> did not
        run"``.
        """
        return _map_runs(simulator, workloads, lambda jobs: self)

    def run_for(self, server: str, label: str) -> RunResult:
        """Look up one run by server name and job label."""
        for r in self.records:
            if r.job.server.name == server and r.job.label == label:
                if r.result is None:
                    raise ConfigurationError(
                        f"job {r.job.job_id} failed: {r.error}"
                    )
                return r.result
        raise ConfigurationError(f"no job {label!r} on {server!r} in outcome")

    def report(self):
        """Aggregate :class:`~repro.fleet.report.FleetReport`."""
        from repro.fleet.report import FleetReport

        return FleetReport.from_outcome(self)


def _map_runs(simulator, workloads, outcome_for) -> list:
    """Bind ``workloads`` to jobs and look each one up in an outcome.

    The one mapping behind :meth:`FleetRunner.map_runs` and
    :meth:`FleetOutcome.map_runs`; ``outcome_for(jobs)`` supplies the
    :class:`FleetOutcome` holding the deduplicated ``jobs``.
    """
    if simulator.meter_spec != WT210:
        raise ConfigurationError(
            "the fleet backend reconstructs simulators in worker "
            "processes and supports only the default WT210 meter"
        )
    bound = bind_jobs(
        simulator.server, workloads, simulator.seed, simulator.placement_policy
    )
    # Equal ids mean equal work: a revisited configuration runs once.
    jobs = {e.job_id: e for e in bound if isinstance(e, FleetJob)}
    if not jobs:
        return bound
    records = {r.job.job_id: r for r in outcome_for(tuple(jobs.values())).records}

    def slot(job: FleetJob) -> "RunResult | SimulationError":
        record = records.get(job.job_id)
        if record is None:
            return SimulationError(f"fleet job {job.job_id} did not run")
        if record.result is None:
            return SimulationError(
                f"fleet job {job.job_id} failed after {record.attempts} "
                f"attempts: {record.error or 'unknown error'}"
            )
        return record.result

    return [slot(e) if isinstance(e, FleetJob) else e for e in bound]


class _InlineExecutor:
    """Runs each call in this process as it is submitted.

    ``submit`` returns a finished future: an ``Exception`` is set on it
    for the dispatch loop's fault barrier, as a pool worker's would be,
    while a ``BaseException`` such as ``KeyboardInterrupt`` propagates.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - the loop's fault barrier
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        """Nothing to release: no process ever started."""


def _executor(
    workers: int, timeout_s: "float | None"
) -> "ProcessPoolExecutor | _InlineExecutor":
    """A campaign's executor: inline for ``workers <= 1`` with no
    timeout, else a pool that forks where it can (cheap workers that
    inherit the imported simulator) and uses the platform default
    otherwise.  A timeout needs a process the watchdog can kill, so one
    worker with a timeout gets a one-process pool."""
    if workers <= 1 and timeout_s is None:
        return _InlineExecutor()
    fork = "fork" in multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork") if fork else None
    return ProcessPoolExecutor(max_workers=max(1, workers), mp_context=ctx)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-kill every worker process of a pool.

    ``ProcessPoolExecutor`` has no supported way to abort a *running*
    task, so hang recovery reaches for the private process table; the
    ``getattr`` guard keeps this a no-op if the attribute ever moves.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already-dead workers are fine
            pass


@dataclass
class FleetRunner:
    """Executes campaigns through a worker pool with cache and retries.

    Parameters
    ----------
    workers:
        Pool size; ``None`` for :func:`default_workers`.  ``1`` runs
        jobs inline, in this process and through the same dispatch loop
        (no pool) — the serial baseline — unless ``timeout_s`` is set.
    cache:
        Optional :class:`~repro.fleet.cache.ResultCache`; ``None``
        disables caching.
    retry:
        Per-job :class:`RetryPolicy`.
    events:
        Optional :class:`~repro.fleet.events.EventLog` sink.
    fault:
        Optional :class:`~repro.fleet.worker.FaultInjection` hook.
    chunk_size:
        Jobs per worker dispatch.  ``None`` (default) picks
        :func:`auto_chunk_size`; ``1`` sends one job per round-trip (the
        pre-chunking serial behaviour).  A chunk's jobs run one after
        another, each behind its own fault barrier, bit-identical to
        per-job execution; a job that fails inside a chunk is retried
        individually, so one bad point never costs its chunk-mates a
        retry.
    timeout_s:
        Per-job wall-clock budget for pooled execution, or ``None``
        (default) for no watchdog.  A chunk's budget scales with its
        length (members run serially in the worker).  On expiry the
        pool is killed and replaced, innocent in-flight work re-runs at
        the same attempt, and the overdue job is charged one attempt —
        so a hung worker costs seconds, not the campaign.  With
        ``workers=1`` a timeout runs the campaign in a one-process pool
        rather than inline: an in-process call cannot be interrupted.

    A runner holds per-run state, so it serves one thread at a time:
    :meth:`run_jobs` and :meth:`map_runs` must not overlap on one
    runner.
    """

    workers: "int | None" = None
    cache: "ResultCache | None" = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    events: "EventLog | None" = None
    fault: "FaultInjection | None" = None
    chunk_size: "int | None" = None
    timeout_s: "float | None" = None
    #: Per-campaign merge target for worker metrics snapshots; only set
    #: while a run is in flight with observability enabled.
    _worker_metrics: "obs.MetricsRegistry | None" = field(
        default=None, init=False, repr=False
    )

    def run(self, campaign: CampaignSpec) -> FleetOutcome:
        """Execute a campaign spec; never raises for per-job failures."""
        return self.run_jobs(campaign.jobs(), campaign.name)

    def map_runs(
        self,
        simulator: Simulator,
        workloads: "list[Workload | ResourceDemand]",
    ) -> "list[RunResult | ReproError]":
        """Run each workload on ``simulator``'s server through the fleet.

        The ``backend=`` contract of :func:`repro.core.evaluate_server`
        and every sweep: one entry per workload, in order — the run, the
        :class:`~repro.errors.WorkloadError` its bind raised (the
        paper's empty Table II cells), or, for a job that exhausted its
        retries, :class:`~repro.errors.SimulationError` ``"fleet job
        <id> failed after <n> attempts: <error>"``.  Whether an error
        slot aborts is the caller's choice (``allow_partial``).  Equal
        workloads run once, as one ``run_jobs`` campaign named
        ``backend:<server>``; results are bit-identical to
        ``simulator.run``, since every run is seeded from ``(seed,
        program label)``.
        """
        return _map_runs(
            simulator,
            workloads,
            lambda jobs: self.run_jobs(
                jobs, name=f"backend:{simulator.server.name}"
            ),
        )

    def run_jobs(
        self, jobs: "tuple[FleetJob, ...]", name: str = "ad-hoc"
    ) -> FleetOutcome:
        """Execute an explicit job list."""
        if not jobs:
            raise ConfigurationError("campaign expanded to zero jobs")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        workers = self.workers if self.workers is not None else default_workers()
        self._emit(
            "campaign_start", campaign=name, jobs=len(jobs), workers=workers
        )
        self._worker_metrics = obs.MetricsRegistry() if obs.enabled() else None
        t0 = time.perf_counter()

        with obs.span("fleet.campaign", campaign=name, workers=workers):
            records: dict[str, JobRecord] = {}
            pending: list[FleetJob] = []
            for job in jobs:
                hit = (
                    self.cache.get(job_cache_key(job))
                    if self.cache is not None
                    else None
                )
                if hit is not None:
                    self._emit(
                        "cache_hit",
                        campaign=name,
                        job_id=job.job_id,
                        label=job.label,
                        server=job.server.name,
                        wall_s=hit.wall_s,
                    )
                    records[job.job_id] = JobRecord(
                        job=job,
                        result=hit.result,
                        cached=True,
                        attempts=0,
                        wall_s=hit.wall_s,
                    )
                else:
                    pending.append(job)

            if pending:
                chunk_size = (
                    self.chunk_size
                    if self.chunk_size is not None
                    else auto_chunk_size(len(pending), workers)
                )
                self._dispatch(pending, name, workers, records, chunk_size)

        wall_s = time.perf_counter() - t0
        metrics = None
        if self._worker_metrics is not None:
            obs.set_gauge("fleet.workers", workers)
            obs.observe("fleet.campaign.seconds", wall_s)
            metrics = self._worker_metrics.snapshot()
            # The campaign's per-worker totals also roll up into this
            # process's registry, so a bench scenario sees one view.
            obs.get_registry().merge(metrics)
            self._worker_metrics = None
        outcome = FleetOutcome(
            campaign=name,
            records=tuple(records[j.job_id] for j in jobs),
            wall_s=wall_s,
            workers=workers,
            metrics=metrics,
        )
        self._emit(
            "campaign_finish",
            campaign=name,
            jobs=len(jobs),
            ok=sum(1 for r in outcome.records if r.ok),
            failed=len(outcome.failures),
            cache_hits=outcome.cache_hits,
            wall_s=wall_s,
        )
        return outcome

    # -- execution -----------------------------------------------------

    def _dispatch(
        self,
        pending: "list[FleetJob]",
        name: str,
        workers: int,
        records: "dict[str, JobRecord]",
        chunk_size: int,
    ) -> None:
        """The one dispatch loop: retries, watchdog, pool replacement.

        Units go to :func:`_executor`'s executor: a process pool, or for
        ``workers <= 1`` without a timeout an inline one that runs each
        unit in this process as it is submitted.  With ``chunk_size >
        1`` the first attempt of every job travels in a chunk (one
        pickle round-trip per ``chunk_size`` jobs); failed entries are
        resubmitted as single jobs so retries stay per-job.  Every
        failed attempt goes through ``charge``, the one place the retry
        policy is asked; a retried attempt queues behind the units
        already queued.

        A crashed worker (``BrokenProcessPool``) or an overdue job
        (``timeout_s``) kills and rebuilds the pool: the culprit unit is
        charged one attempt, innocent in-flight units re-run at the same
        attempt (safe — results are deterministic), and after
        :data:`_MAX_POOL_REPLACEMENTS` rebuilds whatever remains is failed
        rather than looping on a persistently broken fleet.  Neither can
        happen inline, which runs only without a timeout.
        """
        pool = _executor(workers, self.timeout_s)
        replacements = 0
        futures: dict[Future, dict] = {}
        # Our own dispatch queue (vs. the executor's): kept shallow so a
        # pool replacement only has to requeue ~2*workers in-flight units.
        # Inline keeps one unit in flight, so its events follow the queue.
        depth = 2 * workers if workers > 1 else 1
        queue: deque = deque()
        if chunk_size > 1:
            for i in range(0, len(pending), chunk_size):
                queue.append(
                    {"kind": "chunk", "chunk": pending[i : i + chunk_size]}
                )
        else:
            for job in pending:
                queue.append({"kind": "job", "job": job, "attempt": 1})

        def unit_jobs(unit: dict) -> "list[FleetJob]":
            return unit["chunk"] if unit["kind"] == "chunk" else [unit["job"]]

        def submit(unit: dict) -> None:
            attempt = unit.get("attempt", 1)
            for job in unit_jobs(unit):
                self._emit_start(name, job, attempt)
            if unit["kind"] == "chunk":
                future = pool.submit(
                    execute_chunk,
                    [job_payload(job, 1, self.fault) for job in unit["chunk"]],
                )
                scale = len(unit["chunk"])  # chunk members run serially
            else:
                future = pool.submit(
                    execute_job, job_payload(unit["job"], attempt, self.fault)
                )
                scale = 1
            unit["deadline"] = (
                None
                if self.timeout_s is None
                else time.monotonic() + self.timeout_s * scale
            )
            futures[future] = unit

        def charge(job: FleetJob, attempt: int, exc: BaseException) -> None:
            """Charge one failed attempt: requeue solo, or record failure."""
            if self.retry.should_retry(attempt, exc):
                self._emit_retry(name, job, attempt, exc)
                time.sleep(self.retry.delay_s(attempt, seed=job.seed))
                queue.append(
                    {"kind": "job", "job": job, "attempt": attempt + 1}
                )
            else:
                records[job.job_id] = self._failed(name, job, attempt, exc)

        def replace_pool(reason: str) -> bool:
            """Kill and rebuild the pool, requeueing in-flight work.

            The caller pops culprit units first; everything left in
            ``futures`` is innocent and goes back to the queue front at
            its current attempt.  Returns ``False`` once the replacement
            budget is spent — the caller then fails what remains.
            """
            nonlocal pool, replacements
            _kill_pool(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            for unit in futures.values():
                unit["deadline"] = None
                queue.appendleft(unit)
            futures.clear()
            replacements += 1
            if replacements > _MAX_POOL_REPLACEMENTS:
                return False
            self._campaign_inc("fleet.pool.replaced")
            self._emit(
                "pool_replaced", campaign=name, reason=reason, count=replacements
            )
            pool = _executor(workers, self.timeout_s)
            return True

        def settle(units: "list[dict]", reason: str, alive: bool) -> None:
            """Charge culprit units; with a dead pool, fail everything."""
            for unit in units:
                attempt = unit.get("attempt", 1)
                for job in unit_jobs(unit):
                    if alive:
                        charge(job, attempt, unit["error"])
                    else:
                        records[job.job_id] = self._failed(
                            name, job, attempt, unit["error"]
                        )
            if not alive:
                while queue:
                    unit = queue.popleft()
                    for job in unit_jobs(unit):
                        if job.job_id not in records:
                            records[job.job_id] = self._failed(
                                name,
                                job,
                                unit.get("attempt", 1),
                                ConfigurationError(
                                    f"pool replacement budget exhausted "
                                    f"({_MAX_POOL_REPLACEMENTS}) after "
                                    f"{reason}"
                                ),
                            )

        try:
            while queue or futures:
                submit_failed = False
                while queue and len(futures) < depth:
                    unit = queue.popleft()
                    try:
                        submit(unit)
                    except BrokenProcessPool:
                        # The pool died before accepting work; this unit
                        # is innocent.  In-flight futures now carry the
                        # break — fall through to done-processing.
                        queue.appendleft(unit)
                        submit_failed = True
                        break
                if submit_failed and not futures:
                    # Broken with nothing in flight: no culprit to charge,
                    # just rebuild (or give up) and go around again.
                    if not replace_pool("worker_crash"):
                        settle([], "worker_crash", alive=False)
                        return
                    continue

                timeout = None
                if self.timeout_s is not None and futures:
                    now = time.monotonic()
                    nearest = min(
                        u["deadline"]
                        for u in futures.values()
                        if u["deadline"] is not None
                    )
                    timeout = max(_WATCHDOG_TICK_S, nearest - now)
                done, _ = wait(
                    futures, timeout=timeout, return_when=FIRST_COMPLETED
                )

                broken: "list[dict]" = []
                for future in done:
                    unit = futures.pop(future)
                    try:
                        out = future.result()
                    except BrokenProcessPool as exc:
                        # Every in-flight future gets this when a worker
                        # dies; the culprit is unknowable, so each unit
                        # is charged one attempt (bounded by the retry
                        # budget — a persistent crasher still exhausts).
                        unit["error"] = exc
                        broken.append(unit)
                    except Exception as exc:  # noqa: BLE001 - fault barrier
                        attempt = unit.get("attempt", 1)
                        for job in unit_jobs(unit):
                            charge(job, attempt, exc)
                    else:
                        if unit["kind"] == "chunk":
                            for job, exc in self._absorb_chunk(
                                name, unit["chunk"], out, records
                            ):
                                charge(job, 1, exc)
                        else:
                            job = unit["job"]
                            records[job.job_id] = self._finished(
                                name, job, unit["attempt"], out
                            )
                            self._checkpoint(name, (job.job_id,))
                if broken:
                    alive = replace_pool("worker_crash")
                    settle(broken, "worker_crash", alive)
                    if not alive:
                        return

                if self.timeout_s is not None and futures:
                    now = time.monotonic()
                    overdue = [
                        (future, unit)
                        for future, unit in futures.items()
                        if unit["deadline"] is not None
                        and now >= unit["deadline"]
                    ]
                    if overdue:
                        hung: "list[dict]" = []
                        for future, unit in overdue:
                            futures.pop(future)
                            attempt = unit.get("attempt", 1)
                            budget = self.timeout_s * len(unit_jobs(unit))
                            unit["error"] = JobTimeoutError(
                                f"no result within {budget:.1f} s"
                            )
                            hung.append(unit)
                            for job in unit_jobs(unit):
                                self._campaign_inc("fleet.job.timeouts")
                                self._emit(
                                    "job_timeout",
                                    campaign=name,
                                    job_id=job.job_id,
                                    label=job.label,
                                    server=job.server.name,
                                    attempt=attempt,
                                    timeout_s=self.timeout_s,
                                )
                        alive = replace_pool("job_timeout")
                        settle(hung, "job_timeout", alive)
                        if not alive:
                            return
        finally:
            if futures:
                # Abnormal exit with work in flight: a hung worker would
                # stall a joining shutdown, so kill rather than wait.
                _kill_pool(pool)
            pool.shutdown(wait=False, cancel_futures=True)

    def _absorb_chunk(
        self,
        name: str,
        chunk: "list[FleetJob]",
        out: dict,
        records: "dict[str, JobRecord]",
    ) -> "list[tuple[FleetJob, BaseException]]":
        """Record a chunk's successes; return failed (job, error) pairs.

        The chunk's wall time is split evenly across its entries so
        summed record walls still estimate serial campaign cost; its
        metrics snapshot merges once (per-entry snapshots would double
        count).
        """
        snapshot = out.get("metrics")
        if snapshot and self._worker_metrics is not None:
            self._worker_metrics.merge(snapshot)
        share = out["wall_s"] / max(len(chunk), 1)
        by_id = {job.job_id: job for job in chunk}
        failed: "list[tuple[FleetJob, BaseException]]" = []
        succeeded: list[str] = []
        for entry in out["entries"]:
            job = by_id[entry["job_id"]]
            if entry["error"] is None:
                records[job.job_id] = self._finished(
                    name,
                    job,
                    1,
                    {
                        "result": entry["result"],
                        "wall_s": share,
                        "worker": out["worker"],
                        "metrics": None,
                    },
                )
                succeeded.append(job.job_id)
            else:
                failed.append((job, entry["error"]))
        self._checkpoint(name, succeeded)
        return failed

    # -- bookkeeping ----------------------------------------------------

    def _campaign_inc(self, metric: str) -> None:
        """Count a job-lifecycle event in the campaign registry.

        Landing these in ``_worker_metrics`` (not the process registry)
        means they ship with :attr:`FleetOutcome.metrics` and reach the
        process registry exactly once, via the end-of-run merge.
        """
        if self._worker_metrics is not None:
            self._worker_metrics.inc(metric)

    def _finished(
        self, name: str, job: FleetJob, attempt: int, out: dict
    ) -> JobRecord:
        result: RunResult = out["result"]
        snapshot = out.get("metrics")
        if snapshot and self._worker_metrics is not None:
            self._worker_metrics.merge(snapshot)
        self._campaign_inc("fleet.job.completed")
        if self._worker_metrics is not None:
            self._worker_metrics.observe("fleet.job.seconds", out["wall_s"])
        if self.cache is not None:
            self.cache.put(job_cache_key(job), result, out["wall_s"])
        self._emit(
            "job_finish",
            campaign=name,
            job_id=job.job_id,
            label=job.label,
            server=job.server.name,
            attempt=attempt,
            worker=out["worker"],
            wall_s=out["wall_s"],
        )
        return JobRecord(
            job=job,
            result=result,
            cached=False,
            attempts=attempt,
            wall_s=out["wall_s"],
        )

    def _failed(
        self, name: str, job: FleetJob, attempts: int, exc: BaseException
    ) -> JobRecord:
        self._campaign_inc("fleet.job.failures")
        self._emit(
            "job_failed",
            campaign=name,
            job_id=job.job_id,
            label=job.label,
            server=job.server.name,
            attempt=attempts,
            error=f"{type(exc).__name__}: {exc}",
        )
        return JobRecord(
            job=job,
            result=None,
            cached=False,
            attempts=attempts,
            wall_s=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )

    def _emit_start(self, name: str, job: FleetJob, attempt: int) -> None:
        self._emit(
            "job_start",
            campaign=name,
            job_id=job.job_id,
            label=job.label,
            server=job.server.name,
            attempt=attempt,
        )

    def _emit_retry(
        self, name: str, job: FleetJob, attempt: int, exc: BaseException
    ) -> None:
        self._campaign_inc("fleet.job.retries")
        self._emit(
            "job_retry",
            campaign=name,
            job_id=job.job_id,
            label=job.label,
            server=job.server.name,
            attempt=attempt,
            error=f"{type(exc).__name__}: {exc}",
            backoff_s=self.retry.delay_s(attempt, seed=job.seed),
        )

    def _checkpoint(self, name: str, job_ids) -> None:
        """Durably journal completed jobs — the ``--resume`` anchor.

        Unlike ordinary events, checkpoints are fsynced: after a
        SIGKILL, :func:`~repro.fleet.events.completed_job_ids` replays
        exactly the jobs whose results are safely on disk.
        """
        if self.events is not None and job_ids:
            self.events.emit(
                "checkpoint", _sync=True, campaign=name, job_ids=list(job_ids)
            )

    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)
