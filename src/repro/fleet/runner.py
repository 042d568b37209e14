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
from repro.fleet.worker import FaultInjection, execute_chunk, job_payload
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

#: The retry backoff's growth per failed attempt, its cap in seconds and
#: the half-width of its deterministic jitter (:meth:`RetryPolicy.delay_s`).
_BACKOFF_MULTIPLIER = 2.0
_MAX_BACKOFF_S = 5.0
_BACKOFF_JITTER = 0.1

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

    The backoff grows by ``_BACKOFF_MULTIPLIER`` per attempt, is capped
    at ``_MAX_BACKOFF_S`` (an uncapped exponential turns a flaky job into
    a stalled campaign) and spread by ``_BACKOFF_JITTER`` — but
    *deterministically*: the jitter factor is a pure function of the
    job's seed and the attempt number, so retry timing is exactly
    reproducible across runs, which the rest of the fleet's
    bit-identical guarantee demands.

    Only transient failures are retried: :meth:`should_retry` refuses
    :data:`DETERMINISTIC_ERRORS` at any attempt.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )

    def should_retry(self, attempt: int, exc: BaseException) -> bool:
        """Whether failed ``attempt`` (1-based) of a job earns another."""
        return attempt < self.max_attempts and not isinstance(
            exc, DETERMINISTIC_ERRORS
        )

    def delay_s(self, attempt: int, seed: "int | None" = None) -> float:
        """Sleep before re-submitting after failed ``attempt`` (1-based).

        With a ``seed`` the capped exponential is scaled by a factor in
        ``[1 - _BACKOFF_JITTER, 1 + _BACKOFF_JITTER)`` derived from
        ``(seed, attempt)`` via SHA-256 — deterministic, but
        de-synchronised across jobs so a burst of same-attempt retries
        does not stampede.  Without a seed the bare capped exponential
        is returned.
        """
        base = min(
            self.backoff_s * _BACKOFF_MULTIPLIER ** (attempt - 1),
            _MAX_BACKOFF_S,
        )
        if seed is None or base == 0.0:
            return base
        digest = hashlib.sha256(f"{seed}:{attempt}".encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + _BACKOFF_JITTER * (2.0 * unit - 1.0))


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


@dataclass
class _Unit:
    """One dispatch: jobs at one attempt, run in order by one worker call.

    ``deadline`` is the watchdog's ``time.monotonic()`` limit while the
    unit is in flight under a ``timeout_s``, else ``None``.
    """

    jobs: "list[FleetJob]"
    attempt: int
    deadline: "float | None" = None


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
                    self._emit_job("cache_hit", name, job, wall_s=hit.wall_s)
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
        unit in this process as it is submitted.  Every unit is a list of
        jobs at one attempt, sent to :func:`execute_chunk`: first attempts
        travel ``chunk_size`` to a unit (one pickle round-trip each), and
        a failed job is resubmitted as a unit of one, so retries stay
        per-job.  Every failed attempt goes through ``charge``, the one
        place the retry policy is asked; a retried attempt queues behind
        the units already queued.

        A crashed worker (``BrokenProcessPool``) or an overdue unit
        (``timeout_s``) goes through ``recover``, at most once per loop
        turn: it kills and rebuilds the pool, re-runs innocent in-flight
        units at the same attempt (safe — results are deterministic),
        charges each culprit unit's jobs one attempt, and after
        :data:`_MAX_POOL_REPLACEMENTS` rebuilds fails whatever remains
        rather than looping on a persistently broken fleet.  Neither can
        happen inline, which runs only without a timeout.
        """
        pool = _executor(workers, self.timeout_s)
        replacements = 0
        futures: "dict[Future, _Unit]" = {}
        # Our own dispatch queue (vs. the executor's): kept shallow so a
        # pool replacement only has to requeue ~2*workers in-flight units.
        # Inline keeps one unit in flight, so its events follow the queue.
        depth = 2 * workers if workers > 1 else 1
        queue: "deque[_Unit]" = deque(
            _Unit(pending[i : i + chunk_size], 1)
            for i in range(0, len(pending), chunk_size)
        )

        def submit(unit: _Unit) -> None:
            for job in unit.jobs:
                self._emit_job("job_start", name, job, attempt=unit.attempt)
            future = pool.submit(
                execute_chunk,
                [job_payload(job, unit.attempt, self.fault) for job in unit.jobs],
            )
            if self.timeout_s is not None:
                # A unit's jobs run one after another in the worker.
                unit.deadline = time.monotonic() + self.timeout_s * len(unit.jobs)
            futures[future] = unit

        def charge(job: FleetJob, attempt: int, exc: BaseException) -> None:
            """Charge one failed attempt: requeue alone, or record failure."""
            if self.retry.should_retry(attempt, exc):
                delay_s = self.retry.delay_s(attempt, seed=job.seed)
                self._campaign_inc("fleet.job.retries")
                self._emit_job(
                    "job_retry",
                    name,
                    job,
                    attempt=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                    backoff_s=delay_s,
                )
                time.sleep(delay_s)
                queue.append(_Unit([job], attempt + 1))
            else:
                records[job.job_id] = self._failed(name, job, attempt, exc)

        def overdue() -> "list[tuple[_Unit, BaseException]]":
            """Take the units past their deadline out of ``futures``."""
            now = time.monotonic()
            hung: "list[tuple[_Unit, BaseException]]" = []
            for future, unit in list(futures.items()):
                if now < unit.deadline:
                    continue
                del futures[future]
                budget = self.timeout_s * len(unit.jobs)
                hung.append(
                    (unit, JobTimeoutError(f"no result within {budget:.1f} s"))
                )
                for job in unit.jobs:
                    self._campaign_inc("fleet.job.timeouts")
                    self._emit_job(
                        "job_timeout",
                        name,
                        job,
                        attempt=unit.attempt,
                        timeout_s=self.timeout_s,
                    )
            return hung

        def recover(
            culprits: "list[tuple[_Unit, BaseException]]", reason: str
        ) -> bool:
            """Kill and rebuild the pool after a crash or a hang.

            ``culprits`` are units already taken out of ``futures``, each
            with the error to charge its jobs; every unit still in flight
            is innocent and goes back to the queue front at its attempt.
            Once the replacement budget is spent, the culprits and
            everything queued fail instead, and this returns ``False``.
            """
            nonlocal pool, replacements
            _kill_pool(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            for unit in futures.values():
                unit.deadline = None
                queue.appendleft(unit)
            futures.clear()
            replacements += 1
            if replacements <= _MAX_POOL_REPLACEMENTS:
                self._campaign_inc("fleet.pool.replaced")
                self._emit(
                    "pool_replaced", campaign=name, reason=reason, count=replacements
                )
                pool = _executor(workers, self.timeout_s)
                for unit, exc in culprits:
                    for job in unit.jobs:
                        charge(job, unit.attempt, exc)
                return True
            for unit, exc in culprits:
                for job in unit.jobs:
                    records[job.job_id] = self._failed(name, job, unit.attempt, exc)
            exhausted = ConfigurationError(
                f"pool replacement budget exhausted "
                f"({_MAX_POOL_REPLACEMENTS}) after {reason}"
            )
            while queue:
                unit = queue.popleft()
                for job in unit.jobs:
                    if job.job_id not in records:
                        records[job.job_id] = self._failed(
                            name, job, unit.attempt, exhausted
                        )
            return False

        try:
            while queue or futures:
                while queue and len(futures) < depth:
                    unit = queue.popleft()
                    try:
                        submit(unit)
                    except BrokenProcessPool:
                        # The pool died before accepting work; this unit
                        # is innocent.  In-flight futures now carry the
                        # break and report it below.
                        queue.appendleft(unit)
                        break

                # Nothing in flight means the pool refused a unit: recover
                # with no culprit to charge.
                culprits: "list[tuple[_Unit, BaseException]]" = []
                reason = "worker_crash"
                if futures:
                    timeout = None
                    if self.timeout_s is not None:
                        nearest = min(u.deadline for u in futures.values())
                        timeout = max(_WATCHDOG_TICK_S, nearest - time.monotonic())
                    done, _ = wait(
                        futures, timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        unit = futures.pop(future)
                        try:
                            out = future.result()
                        except BrokenProcessPool as exc:
                            # Every in-flight future gets this when a worker
                            # dies; the culprit is unknowable, so each unit
                            # is charged one attempt (bounded by the retry
                            # budget — a persistent crasher still exhausts).
                            culprits.append((unit, exc))
                        except Exception as exc:  # noqa: BLE001 - fault barrier
                            for job in unit.jobs:
                                charge(job, unit.attempt, exc)
                        else:
                            for job, exc in self._absorb(name, unit, out, records):
                                charge(job, unit.attempt, exc)
                    if not culprits and self.timeout_s is not None:
                        culprits, reason = overdue(), "job_timeout"
                    if not culprits:
                        continue
                if not recover(culprits, reason):
                    return
        finally:
            if futures:
                # Abnormal exit with work in flight: a hung worker would
                # stall a joining shutdown, so kill rather than wait.
                _kill_pool(pool)
            pool.shutdown(wait=False, cancel_futures=True)

    def _absorb(
        self,
        name: str,
        unit: "_Unit",
        out: dict,
        records: "dict[str, JobRecord]",
    ) -> "list[tuple[FleetJob, BaseException]]":
        """Record and checkpoint a unit's successes; return its failed
        (job, error) pairs.

        ``out["entries"]`` align with ``unit.jobs``.  The unit's wall time
        is split evenly across its jobs so summed record walls still
        estimate serial campaign cost; its metrics snapshot merges once
        (per-entry snapshots would double count).
        """
        if out["metrics"] and self._worker_metrics is not None:
            self._worker_metrics.merge(out["metrics"])
        share = out["wall_s"] / len(unit.jobs)
        failed: "list[tuple[FleetJob, BaseException]]" = []
        succeeded: list[str] = []
        for job, entry in zip(unit.jobs, out["entries"]):
            if entry["error"] is None:
                records[job.job_id] = self._finished(
                    name, job, unit.attempt, entry["result"], share, out["worker"]
                )
                succeeded.append(job.job_id)
            else:
                failed.append((job, entry["error"]))
        if self.events is not None and succeeded:
            # Unlike ordinary events, checkpoints are fsynced: after a
            # SIGKILL, completed_job_ids replays exactly the jobs whose
            # results are safely on disk.
            self.events.emit(
                "checkpoint", _sync=True, campaign=name, job_ids=succeeded
            )
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
        self,
        name: str,
        job: FleetJob,
        attempt: int,
        result: RunResult,
        wall_s: float,
        worker: int,
    ) -> JobRecord:
        self._campaign_inc("fleet.job.completed")
        if self._worker_metrics is not None:
            self._worker_metrics.observe("fleet.job.seconds", wall_s)
        if self.cache is not None:
            self.cache.put(job_cache_key(job), result, wall_s)
        self._emit_job(
            "job_finish", name, job, attempt=attempt, worker=worker, wall_s=wall_s
        )
        return JobRecord(
            job=job, result=result, cached=False, attempts=attempt, wall_s=wall_s
        )

    def _failed(
        self, name: str, job: FleetJob, attempts: int, exc: BaseException
    ) -> JobRecord:
        error = f"{type(exc).__name__}: {exc}"
        self._campaign_inc("fleet.job.failures")
        self._emit_job("job_failed", name, job, attempt=attempts, error=error)
        return JobRecord(
            job=job,
            result=None,
            cached=False,
            attempts=attempts,
            wall_s=0.0,
            error=error,
        )

    def _emit(self, kind: str, **fields) -> None:
        if self.events is not None:
            self.events.emit(kind, **fields)

    def _emit_job(self, kind: str, name: str, job: FleetJob, **fields) -> None:
        """Emit one of the per-job events, which all name their job alike."""
        if self.events is not None:
            self.events.emit(
                kind,
                campaign=name,
                job_id=job.job_id,
                label=job.label,
                server=job.server.name,
                **fields,
            )
