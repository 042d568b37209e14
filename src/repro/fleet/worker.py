"""The fleet worker: executes job payloads in a pool process or inline.

Everything here must be picklable and importable from a bare worker
process.  Jobs arrive as plain dicts (server spec JSON, tagged workload
dict, seed), the worker reconstructs the simulator — memoised per
process, since a campaign typically reuses a handful of servers — runs
the workload, and returns the full :class:`~repro.engine.trace.RunResult`
(small: a few KB of pickled arrays).

The runner sends every dispatch unit — the jobs of one first-attempt
chunk, or one job's retry — to :func:`execute_chunk`, whose entries come
back aligned with the unit's jobs.  :func:`execute_job` is its one-job
form, raising the job's error; both run one private body, so the
per-payload fault barrier, the timing and the per-call metrics registry
are written once.  An inline campaign (``workers=1``) calls the same
target in the runner's own process.

Fault injection for tests and chaos drills is deterministic: a
:class:`FaultInjection` names jobs by label substring and the number of
attempts to fail, and the *attempt index travels with the job*, so the
decision to fail does not depend on which worker process gets the retry.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro import obs
from repro.engine.simulator import Simulator
from repro.errors import SimulationError
from repro.fleet.spec import workload_from_dict

__all__ = [
    "FAULT_KINDS",
    "FaultInjection",
    "InjectedFaultError",
    "job_payload",
    "execute_job",
    "execute_chunk",
]


class InjectedFaultError(SimulationError):
    """Raised by the fault-injection hook; never by real simulation."""


#: Valid :attr:`FaultInjection.kind` values.
FAULT_KINDS = ("error", "crash", "hang", "slow")


@dataclass(frozen=True)
class FaultInjection:
    """Deterministically fail selected job attempts (test/chaos hook).

    Attempts ``1..fail_attempts`` of every job whose label contains
    ``label_substring`` misbehave according to ``kind``:

    * ``"error"`` — raise :class:`InjectedFaultError` (the default; an
      ordinary job exception the retry policy absorbs),
    * ``"crash"`` — hard-kill the worker process with ``os._exit``
      (a segfault/OOM stand-in; the runner must replace the pool),
    * ``"hang"`` — sleep ``delay_s`` seconds without producing a result
      (the runner's watchdog must time the job out and kill the pool),
    * ``"slow"`` — sleep ``delay_s`` seconds, then run normally (a
      straggler; must complete, not fail).

    With ``fail_attempts`` at least the retry policy's ``max_attempts``
    the job fails permanently and must surface in the failure report.
    The *attempt index travels with the job*, so the decision is the
    same whichever worker process receives the retry.
    """

    label_substring: str
    fail_attempts: int = 1
    kind: str = "error"
    delay_s: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.delay_s < 0:
            raise ValueError("fault delay must be non-negative")

    def should_fail(self, label: str, attempt: int) -> bool:
        """Whether this (job, attempt) pair is selected to fail."""
        return (
            self.label_substring in label and attempt <= self.fail_attempts
        )

    def trigger(self, job_id: str, attempt: int) -> None:
        """Enact the fault inside the worker (never returns for crash).

        For ``"slow"`` this sleeps and returns — the caller proceeds
        with normal execution.  For the failing kinds it raises (or
        exits) so the caller's fault barrier reports the attempt.
        """
        if self.kind == "slow":
            time.sleep(self.delay_s)
            return
        if self.kind == "crash":
            os._exit(13)
        if self.kind == "hang":
            # A stand-in for an infinite loop that stays interruptible
            # in inline runs; under a pool the watchdog kills us first.
            time.sleep(self.delay_s)
        raise InjectedFaultError(
            f"injected {self.kind}: {job_id} attempt {attempt}"
        )


@lru_cache(maxsize=32)
def _simulator_for(server_json: str, seed: int, placement: str) -> Simulator:
    """Per-process simulator cache (campaigns reuse few servers)."""
    from repro import io as repro_io

    server = repro_io.server_from_dict(json.loads(server_json))
    return Simulator(server, seed=seed, placement_policy=placement)


def job_payload(
    job: "Any", attempt: int, fault: "FaultInjection | None"
) -> dict[str, Any]:
    """Build the picklable payload for one job attempt.

    ``job`` is a :class:`~repro.fleet.spec.FleetJob`; typed loosely to
    keep this module import-light for worker processes.
    """
    from repro import io as repro_io
    from repro.fleet.cache import canonical_json

    return {
        "job_id": job.job_id,
        "label": job.label,
        "server_json": canonical_json(repro_io.server_to_dict(job.server)),
        "workload": job.workload,
        "seed": job.seed,
        "placement": job.placement,
        "attempt": attempt,
        "fault": fault,
        # Observability travels with the payload so spawn-context pools
        # (which inherit neither a programmatic enable() nor, possibly,
        # the environment) behave like fork pools.
        "obs": obs.enabled(),
    }


def execute_job(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one job attempt: :func:`execute_chunk` for one payload.

    Returns ``{"job_id", "result": RunResult, "wall_s", "worker",
    "metrics"}``.  The job's exception propagates to the caller; the
    runner itself dispatches only through :func:`execute_chunk`.
    """
    out = _execute([payload])
    (entry,) = out.pop("entries")
    if entry["error"] is not None:
        raise entry["error"]
    return {"job_id": entry["job_id"], "result": entry["result"], **out}


def execute_chunk(payloads: "list[dict[str, Any]]") -> dict[str, Any]:
    """Run a batch of job payloads in one worker round-trip.

    The runner's one target, for a chunk and a retry alike: the payloads
    run one after another, which is bit-identical to per-job execution
    while amortising the pickle/dispatch overhead.

    Returns ``{"entries", "wall_s", "worker", "metrics"}`` where each
    entry is ``{"job_id", "result": RunResult | None, "error":
    Exception | None}``, positionally aligned with ``payloads``.  Unlike
    :func:`execute_job`, per-job failures (injected faults, workload
    errors) never raise — they come back in the entry so the runner can
    retry just that job, not the whole chunk.
    """
    return _execute(payloads)


def _execute(payloads: "list[dict[str, Any]]") -> dict[str, Any]:
    """The one worker body: run payloads in order, timed, each behind
    its own fault barrier.

    ``metrics`` is a :meth:`~repro.obs.MetricsRegistry.snapshot` of the
    whole call when observability is on (the runner merges it into the
    campaign's registry), ``None`` otherwise.
    """
    collect = any(p.get("obs") for p in payloads)
    if collect:
        obs.enable()
    t0 = time.perf_counter()
    if collect:
        # An isolated registry keeps these jobs' metrics separable from
        # whatever else the process has counted; the snapshot rides home
        # with the result and merges exactly on the runner side.
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            entries = [_run_payload(p) for p in payloads]
        metrics = registry.snapshot()
    else:
        entries = [_run_payload(p) for p in payloads]
        metrics = None
    return {
        "entries": entries,
        "wall_s": time.perf_counter() - t0,
        "worker": os.getpid(),
        "metrics": metrics,
    }


def _run_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """One job's entry: its result, or the exception it raised."""
    entry = {"job_id": payload["job_id"], "result": None, "error": None}
    fault: "FaultInjection | None" = payload["fault"]
    try:
        if fault is not None and fault.should_fail(
            payload["label"], payload["attempt"]
        ):
            # crash exits here; hang sleeps here (a hung member hangs
            # its whole chunk, as it would in a real worker).
            fault.trigger(payload["job_id"], payload["attempt"])
        simulator = _simulator_for(
            payload["server_json"], payload["seed"], payload["placement"]
        )
        entry["result"] = simulator.run(workload_from_dict(payload["workload"]))
    except Exception as exc:  # noqa: BLE001 - fault barrier
        entry["error"] = exc
    return entry
