"""The chaos harness: a fault matrix the pipeline must survive.

Each *scenario* injects one fault class (via :mod:`repro.chaos.faults`
or the fleet's :class:`~repro.fleet.worker.FaultInjection`) into an
otherwise ordinary workload and checks the system's response against the
recovery contract:

* **recovered** — the final numbers are correct (bit-identical digest,
  or within the repair tolerance) and the fault left an audit trail;
* **degraded** — the result is partial but *flagged* (failure report,
  ``coverage < 1``, quarantine flag): nothing silently wrong;
* **failed** — the fault produced a hang, a crash, or a silently wrong
  number.  Any ``failed`` verdict fails the whole campaign.

Run it with ``python -m repro chaos`` (CI runs this under a tight
timeout: a hang *is* a failure).  Scenarios are deterministic in the
campaign seed, so a red run reproduces exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from repro.chaos import faults
from repro.errors import InvalidSampleError, ReproError
from repro.metering.analysis import repair_trace, trimmed_mean
from repro.metering.csvlog import read_power_csv_tolerant, write_power_csv

__all__ = [
    "OUTCOMES",
    "ScenarioVerdict",
    "ChaosReport",
    "available_scenarios",
    "run_chaos",
]

#: Verdict values, best to worst.
OUTCOMES = ("recovered", "degraded", "failed")

#: Relative error on a repaired trace's trimmed mean that still counts
#: as recovery (measurement noise on the injected samples is real).
_REPAIR_TOL = 0.01

#: Worker-pool size for the fleet scenarios.
_WORKERS = 2

#: Per-job watchdog budget for the fleet scenarios, seconds.
_TIMEOUT_S = 2.0

#: How long an injected hang sleeps — far past the watchdog budget.
_HANG_S = 30.0


@dataclass(frozen=True)
class ScenarioVerdict:
    """Outcome of one chaos scenario."""

    name: str
    layer: str
    outcome: str
    detail: str
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the contract held (recovered or flagged degradation)."""
        return self.outcome != "failed"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "outcome": self.outcome,
            "detail": self.detail,
            "wall_s": self.wall_s,
        }


@dataclass(frozen=True)
class ChaosReport:
    """Every verdict of one chaos campaign."""

    seed: int
    verdicts: tuple[ScenarioVerdict, ...]
    wall_s: float

    @property
    def ok(self) -> bool:
        """True when no scenario produced a silent failure or hang."""
        return all(v.ok for v in self.verdicts)

    def count(self, outcome: str) -> int:
        return sum(1 for v in self.verdicts if v.outcome == outcome)

    def format(self) -> str:
        lines = [
            f"chaos campaign (seed {self.seed}): "
            f"{len(self.verdicts)} scenarios, "
            f"{self.count('recovered')} recovered, "
            f"{self.count('degraded')} degraded, "
            f"{self.count('failed')} failed  [{self.wall_s:.1f} s]",
            f"{'scenario':<22} {'layer':<9} {'outcome':<10} detail",
        ]
        for v in self.verdicts:
            lines.append(
                f"{v.name:<22} {v.layer:<9} {v.outcome:<10} {v.detail}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "kind": "chaos_report",
            "schema_version": 1,
            "seed": self.seed,
            "ok": self.ok,
            "wall_s": self.wall_s,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


# -- shared fixtures ----------------------------------------------------


def _clean_trace(seed: int) -> "tuple[np.ndarray, np.ndarray]":
    """A genuine metered trace to damage (EP.C on the paper's Xeon)."""
    from repro.engine.simulator import Simulator
    from repro.hardware.specs import get_server
    from repro.workloads.npb import NpbWorkload

    run = Simulator(get_server("Xeon-E5462"), seed=seed).run(
        NpbWorkload("ep", "C", 4)
    )
    return run.times_s, run.measured_watts


def _repair_verdict(
    name: str,
    clean_watts: np.ndarray,
    damaged: "tuple[np.ndarray, np.ndarray]",
    expect_flags: "tuple[str, ...]",
) -> ScenarioVerdict:
    """Judge a meter scenario: repaired mean vs clean mean, flags present."""
    clean_mean = trimmed_mean(clean_watts)
    repaired = repair_trace(*damaged)
    quality = repaired.quality
    if quality.quarantined:
        return ScenarioVerdict(
            name,
            "meter",
            "degraded",
            f"quarantined ({', '.join(quality.flags)})",
        )
    missing = [f for f in expect_flags if f not in quality.flags]
    if missing:
        return ScenarioVerdict(
            name,
            "meter",
            "failed",
            f"fault left no audit trail: missing flags {missing}",
        )
    mean = trimmed_mean(repaired.watts)
    error = abs(mean - clean_mean) / clean_mean
    if error > _REPAIR_TOL:
        return ScenarioVerdict(
            name,
            "meter",
            "failed",
            f"repaired mean off by {error:.2%} (> {_REPAIR_TOL:.0%})",
        )
    return ScenarioVerdict(
        name,
        "meter",
        "recovered",
        f"mean within {error:.3%}, flags: {', '.join(quality.flags)}",
    )


def _demo_campaign():
    from repro.fleet import demo_campaign

    return demo_campaign()


def _baseline_digest(seed: int) -> str:
    """Digest of the undisturbed demo campaign (serial, no cache)."""
    from repro.fleet import FleetRunner

    del seed  # the campaign spec pins its own seed
    return FleetRunner(workers=1).run(_demo_campaign()).results_digest()


def _fleet_verdict(
    name: str,
    fault,
    seed: int,
    expect_ok: bool = True,
) -> ScenarioVerdict:
    """Judge a fleet scenario: recovery, digest integrity, no hang."""
    from repro.fleet import FleetRunner, RetryPolicy

    runner = FleetRunner(
        workers=_WORKERS,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.01),
        fault=fault,
        timeout_s=_TIMEOUT_S,
        chunk_size=1,
    )
    outcome = runner.run(_demo_campaign())
    if expect_ok:
        if not outcome.ok:
            return ScenarioVerdict(
                name,
                "fleet",
                "failed",
                f"jobs failed: {[f.job_id for f in outcome.failures]}",
            )
        digest = outcome.results_digest()
        baseline = _baseline_digest(seed)
        if digest != baseline:
            return ScenarioVerdict(
                name,
                "fleet",
                "failed",
                "silently wrong numbers: digest mismatch after recovery",
            )
        return ScenarioVerdict(
            name, "fleet", "recovered", f"digest intact ({digest[:12]})"
        )
    if outcome.ok:
        return ScenarioVerdict(
            name,
            "fleet",
            "failed",
            "permanent fault was silently swallowed (no failure report)",
        )
    failures = outcome.failures
    return ScenarioVerdict(
        name,
        "fleet",
        "degraded",
        f"{len(failures)} job(s) in the failure report after "
        f"{failures[0].attempts} attempts; campaign completed",
    )


# -- scenarios ----------------------------------------------------------


def _scenario_meter_dropout(seed: int) -> ScenarioVerdict:
    times, watts = _clean_trace(seed)
    rng = faults.fault_rng(seed, "meter-dropout")
    damaged = faults.inject_dropout(times, watts, rng, fraction=0.05)
    return _repair_verdict(
        "meter-dropout", watts, damaged, ("gaps_interpolated",)
    )


def _scenario_meter_spikes(seed: int) -> ScenarioVerdict:
    times, watts = _clean_trace(seed)
    rng = faults.fault_rng(seed, "meter-spikes")
    damaged = faults.inject_spikes(times, watts, rng, count=5)
    return _repair_verdict(
        "meter-spikes", watts, damaged, ("outliers_rejected",)
    )


def _scenario_meter_nan(seed: int) -> ScenarioVerdict:
    times, watts = _clean_trace(seed)
    rng = faults.fault_rng(seed, "meter-nan")
    damaged = faults.inject_nan(times, watts, rng, count=5)
    return _repair_verdict(
        "meter-nan", watts, damaged, ("nonfinite_rejected",)
    )


def _scenario_meter_clock_skew(seed: int) -> ScenarioVerdict:
    times, watts = _clean_trace(seed)
    damaged = faults.inject_clock_skew(times, watts, offset_s=0.3)
    verdict = _repair_verdict(
        "meter-clock-skew", watts, damaged, ("clock_skew_corrected",)
    )
    if verdict.outcome != "recovered":
        return verdict
    skew = repair_trace(*damaged).quality.clock_skew_s
    if abs(skew - 0.3) > 0.05:
        return ScenarioVerdict(
            "meter-clock-skew",
            "meter",
            "failed",
            f"estimated skew {skew:.3f} s, injected 0.300 s",
        )
    return ScenarioVerdict(
        "meter-clock-skew",
        "meter",
        "recovered",
        f"skew estimated at {skew:.3f} s and removed",
    )


def _scenario_meter_guard(seed: int) -> ScenarioVerdict:
    """The meter itself must refuse NaN/negative input, naming the index."""
    from repro.metering.meter import Wt210Meter

    times, watts = _clean_trace(seed)
    rng = faults.fault_rng(seed, "meter-guard")
    index = int(rng.integers(watts.size))
    for value, reason in ((np.nan, "NaN"), (-5.0, "negative")):
        damaged = watts.copy()
        damaged[index] = value
        try:
            Wt210Meter(seed=seed).sample_series(damaged)
        except InvalidSampleError as exc:
            if exc.index != index:
                return ScenarioVerdict(
                    "meter-guard",
                    "meter",
                    "failed",
                    f"{reason}: reported index {exc.index}, not {index}",
                )
        else:
            return ScenarioVerdict(
                "meter-guard",
                "meter",
                "failed",
                f"{reason} watts accepted without error",
            )
    return ScenarioVerdict(
        "meter-guard",
        "meter",
        "recovered",
        f"NaN and negative rejected with index {index}",
    )


def _csv_from_trace(seed: int, tmp: Path) -> "tuple[Path, np.ndarray]":
    times, watts = _clean_trace(seed)
    return write_power_csv(tmp / "trace.csv", times, watts), watts


def _scenario_csv_truncated(seed: int) -> ScenarioVerdict:
    with TemporaryDirectory() as tmp:
        path, watts = _csv_from_trace(seed, Path(tmp))
        faults.truncate_csv(path, keep_fraction=0.6)
        try:
            _times, watts2, report = read_power_csv_tolerant(path)
        except ReproError as exc:
            return ScenarioVerdict(
                "csv-truncated",
                "meter",
                "failed",
                f"tolerant reader raised: {exc}",
            )
    if report.n_bad != 1:
        return ScenarioVerdict(
            "csv-truncated",
            "meter",
            "failed",
            f"expected exactly the torn row flagged, got {report.n_bad}",
        )
    if not np.array_equal(watts2, watts[: watts2.size]):
        return ScenarioVerdict(
            "csv-truncated",
            "meter",
            "failed",
            "surviving rows differ from the original prefix",
        )
    return ScenarioVerdict(
        "csv-truncated",
        "meter",
        "recovered",
        f"torn row skipped; {watts2.size}/{watts.size} samples intact",
    )


def _scenario_csv_corrupt(seed: int) -> ScenarioVerdict:
    rng = faults.fault_rng(seed, "csv-corrupt")
    with TemporaryDirectory() as tmp:
        path, watts = _csv_from_trace(seed, Path(tmp))
        _, bad_lines = faults.corrupt_csv_rows(path, rng, count=5)
        times2, watts2, report = read_power_csv_tolerant(path)
    if sorted(report.bad_lines) != sorted(bad_lines):
        return ScenarioVerdict(
            "csv-corrupt",
            "meter",
            "failed",
            f"flagged lines {report.bad_lines} != damaged {bad_lines}",
        )
    repaired = repair_trace(times2, watts2)
    clean_mean = trimmed_mean(watts)
    error = abs(trimmed_mean(repaired.watts) - clean_mean) / clean_mean
    if error > _REPAIR_TOL:
        return ScenarioVerdict(
            "csv-corrupt",
            "meter",
            "failed",
            f"repaired mean off by {error:.2%}",
        )
    return ScenarioVerdict(
        "csv-corrupt",
        "meter",
        "recovered",
        f"{len(bad_lines)} rows skipped + interpolated, "
        f"mean within {error:.3%}",
    )


def _scenario_fleet_crash(seed: int) -> ScenarioVerdict:
    from repro.fleet import FaultInjection

    return _fleet_verdict(
        "fleet-crash",
        FaultInjection("ep.C.4", fail_attempts=1, kind="crash"),
        seed,
    )


def _scenario_fleet_hang(seed: int) -> ScenarioVerdict:
    from repro.fleet import FaultInjection

    return _fleet_verdict(
        "fleet-hang",
        FaultInjection("ep.C.4", fail_attempts=1, kind="hang", delay_s=_HANG_S),
        seed,
    )


def _scenario_fleet_slow(seed: int) -> ScenarioVerdict:
    from repro.fleet import FaultInjection

    return _fleet_verdict(
        "fleet-slow",
        FaultInjection("ep.C.4", fail_attempts=1, kind="slow", delay_s=0.2),
        seed,
    )


def _scenario_fleet_permafail(seed: int) -> ScenarioVerdict:
    from repro.fleet import FaultInjection

    return _fleet_verdict(
        "fleet-permafail",
        FaultInjection("ep.C.4", fail_attempts=99),
        seed,
        expect_ok=False,
    )


def _cache_verdict(name: str, damage, seed: int) -> ScenarioVerdict:
    """Warm a cache, damage it, re-run: digest intact + quarantine."""
    from repro.fleet import FleetRunner, ResultCache

    with TemporaryDirectory() as tmp:
        cache = ResultCache(Path(tmp) / "cache")
        campaign = _demo_campaign()
        cold = FleetRunner(workers=1, cache=cache).run(campaign)
        damage(cache.root, faults.fault_rng(seed, name))
        warm = FleetRunner(workers=1, cache=cache).run(campaign)
        if warm.results_digest() != cold.results_digest():
            return ScenarioVerdict(
                name,
                "cache",
                "failed",
                "silently wrong numbers: corrupted entry changed results",
            )
        if cache.stats.quarantined < 1:
            return ScenarioVerdict(
                name,
                "cache",
                "failed",
                "corruption served without quarantine",
            )
        quarantine = cache.root / "quarantine"
        n_corpses = len(list(quarantine.glob("*")))
    return ScenarioVerdict(
        name,
        "cache",
        "recovered",
        f"entry quarantined ({n_corpses} files), job recomputed, "
        "digest intact",
    )


def _scenario_cache_bitflip(seed: int) -> ScenarioVerdict:
    return _cache_verdict("cache-bitflip", faults.flip_cache_bit, seed)


def _scenario_cache_torn(seed: int) -> ScenarioVerdict:
    return _cache_verdict("cache-torn", faults.tear_cache_entry, seed)


def _scenario_campaign_resume(seed: int) -> ScenarioVerdict:
    """Kill a campaign after its first checkpoint; resume must agree."""
    from repro.fleet import (
        EventLog,
        FleetRunner,
        ResultCache,
        completed_job_ids,
        read_events,
    )

    with TemporaryDirectory() as tmp:
        campaign = _demo_campaign()
        baseline = FleetRunner(workers=1).run(campaign).results_digest()
        cache = ResultCache(Path(tmp) / "cache")
        events_path = Path(tmp) / "events.jsonl"
        with EventLog(events_path) as events:
            FleetRunner(workers=1, cache=cache, events=events).run(campaign)
        # Simulate the SIGKILL: keep the journal only up to the first
        # checkpoint record, as if the process died right after it.
        lines = events_path.read_text().splitlines(keepends=True)
        kept: list[str] = []
        for line in lines:
            kept.append(line)
            if '"kind": "checkpoint"' in line or '"checkpoint"' in line:
                break
        events_path.write_text("".join(kept))
        journaled = completed_job_ids(
            read_events(events_path), campaign=campaign.name
        )
        if not journaled:
            return ScenarioVerdict(
                "campaign-resume",
                "campaign",
                "failed",
                "no completed jobs replayable from the truncated journal",
            )
        resumed = FleetRunner(workers=1, cache=cache).run(campaign)
        if resumed.results_digest() != baseline:
            return ScenarioVerdict(
                "campaign-resume",
                "campaign",
                "failed",
                "resumed digest differs from uninterrupted run",
            )
        hits = resumed.cache_hits
    return ScenarioVerdict(
        "campaign-resume",
        "campaign",
        "recovered",
        f"{len(journaled)} job(s) journaled, {hits} served from cache, "
        "digest identical",
    )


def _scenario_partial_matrix(seed: int) -> ScenarioVerdict:
    """A dead state must degrade the evaluation, flagged — not abort it."""
    from repro.core.evaluation import evaluate_server
    from repro.fleet import FaultInjection, FleetRunner, RetryPolicy
    from repro.hardware.specs import get_server

    server = get_server("Xeon-E5462")
    backend = FleetRunner(
        workers=1,
        retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
        fault=FaultInjection("HPL P4", fail_attempts=99),
    )
    full = evaluate_server(server)
    partial = evaluate_server(server, backend=backend, allow_partial=True)
    if partial.complete or partial.coverage >= 1.0:
        return ScenarioVerdict(
            "partial-matrix",
            "campaign",
            "failed",
            "dead states not reflected in coverage",
        )
    full_rows = {r.label: r for r in full.rows}
    if any(r != full_rows[r.label] for r in partial.rows):
        return ScenarioVerdict(
            "partial-matrix",
            "campaign",
            "failed",
            "surviving rows differ from the complete evaluation",
        )
    return ScenarioVerdict(
        "partial-matrix",
        "campaign",
        "degraded",
        f"score over {len(partial.rows)}/10 states "
        f"(coverage {partial.coverage:.0%}), missing flagged: "
        f"{', '.join(partial.missing)}",
    )


def _scenario_disk_full(seed: int) -> ScenarioVerdict:
    """ENOSPC mid-campaign: writes shed, numbers intact, cache heals."""
    from repro.doctor import safewrite
    from repro.fleet import FleetRunner, ResultCache

    with TemporaryDirectory() as tmp:
        campaign = _demo_campaign()
        baseline = _baseline_digest(seed)
        cache = ResultCache(Path(tmp) / "cache")
        # One write token: the first cache entry lands, then the disk
        # is "full" for the rest of the campaign.
        safewrite.inject_disk_full(budget=1)
        try:
            outcome = FleetRunner(workers=1, cache=cache).run(campaign)
        finally:
            safewrite.clear_disk_fault()
        if outcome.results_digest() != baseline:
            return ScenarioVerdict(
                "disk-full",
                "cache",
                "failed",
                "digest changed under a full disk",
            )
        if len(cache) != 1:
            return ScenarioVerdict(
                "disk-full",
                "cache",
                "failed",
                f"{len(cache)} entries landed with one write token",
            )
        if cache.stats.degraded < 1:
            return ScenarioVerdict(
                "disk-full",
                "cache",
                "failed",
                "injected ENOSPC never reached a cache write",
            )
        degraded = cache.stats.degraded
        # Disk "recovers": a re-run backfills every shed entry.
        healed = FleetRunner(workers=1, cache=cache).run(campaign)
        if healed.results_digest() != baseline:
            return ScenarioVerdict(
                "disk-full",
                "cache",
                "failed",
                "re-run after recovery changed the digest",
            )
        if len(cache) < len(campaign.jobs()):
            return ScenarioVerdict(
                "disk-full",
                "cache",
                "failed",
                f"cache did not heal: {len(cache)} entries "
                f"for {len(campaign.jobs())} jobs",
            )
    return ScenarioVerdict(
        "disk-full",
        "cache",
        "recovered",
        f"{degraded} write(s) shed under ENOSPC, digest intact, "
        "cache backfilled after recovery",
    )


def _serve_submission(kind: str = "fleet") -> "object":
    from repro.fleet import campaign_to_dict
    from repro.serve.protocol import Submission

    if kind == "evaluate":
        # Deterministic document bytes (a fleet outcome embeds wall
        # times); this is the byte-identity fixture the SIGKILL chaos
        # test also uses.
        spec: dict = {"server": "Xeon-E5462", "seed": 7}
    else:
        spec = campaign_to_dict(_demo_campaign())
    return Submission(
        tenant="chaos", priority="normal", kind=kind, spec=spec
    )


def _await_status(scheduler, campaign_id: str, timeout_s: float = 60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = scheduler.status(campaign_id)
        if status and status["status"] in ("done", "failed", "degraded"):
            return status
        time.sleep(0.02)
    raise ReproError(f"campaign {campaign_id} never finished")


def _scenario_journal_bitflip(seed: int) -> ScenarioVerdict:
    """A flipped done-record: audit flags it, replay re-executes bit-
    identically (the warm cache makes the re-run nearly free)."""
    from repro.doctor import SUBMIT_JOURNAL_KINDS, JournalStore
    from repro.serve.scheduler import ServeScheduler
    from repro.serve.state import StateStore

    with TemporaryDirectory() as tmp:
        root = Path(tmp) / "state"
        scheduler = ServeScheduler(StateStore(root), slots=1)
        scheduler.start()
        outcome = scheduler.submit(_serve_submission("evaluate"))
        campaign_id = outcome.campaign.campaign_id
        status = _await_status(scheduler, campaign_id)
        scheduler.drain(timeout_s=10.0)
        if status["status"] != "done":
            return ScenarioVerdict(
                "journal-bitflip",
                "serve",
                "failed",
                f"fixture campaign ended {status['status']}",
            )
        state = StateStore(root)
        reference = state.result_path(campaign_id).read_bytes()
        state.close()
        journal = root / "journal.jsonl"
        faults.flip_journal_record(
            journal, faults.fault_rng(seed, "journal-bitflip"), kind="done"
        )
        report = JournalStore(
            journal, name="serve-journal", known_kinds=SUBMIT_JOURNAL_KINDS
        ).audit()
        flagged = [f for f in report if f.problem == "corrupt_record"]
        if not flagged:
            return ScenarioVerdict(
                "journal-bitflip",
                "serve",
                "failed",
                "doctor audit missed the corrupt record",
            )
        # Restart: the campaign has a submit but no parseable done, so
        # replay re-enqueues and re-executes it.
        scheduler = ServeScheduler(StateStore(root), slots=1)
        resumed = scheduler.start()
        status = _await_status(scheduler, campaign_id)
        replayed = StateStore(root).result_path(campaign_id).read_bytes()
        scheduler.drain(timeout_s=10.0)
        if resumed < 1:
            return ScenarioVerdict(
                "journal-bitflip",
                "serve",
                "failed",
                "corrupt done record did not re-pend the campaign",
            )
        if status["status"] != "done" or replayed != reference:
            return ScenarioVerdict(
                "journal-bitflip",
                "serve",
                "failed",
                "replayed result not byte-identical to the original",
            )
    return ScenarioVerdict(
        "journal-bitflip",
        "serve",
        "recovered",
        "audit flagged the record, replay re-executed, "
        "result byte-identical",
    )


def _scenario_evict_during_dedup(seed: int) -> ScenarioVerdict:
    """Capped eviction with a pending dedup pair: pinned entries
    survive, the resumed pair completes bit-identically from cache."""
    from repro.doctor import (
        EvictionPolicy,
        FleetCacheStore,
        evict_store,
        serve_pins,
    )
    from repro.engine.simulator import Simulator
    from repro.fleet import FleetRunner, ResultCache
    from repro.hardware.specs import get_server
    from repro.serve.scheduler import ServeScheduler
    from repro.serve.protocol import submission_content_key
    from repro.serve.state import StateStore
    from repro.workloads.npb import NpbWorkload

    with TemporaryDirectory() as tmp:
        root = Path(tmp) / "state"
        submission = _serve_submission()
        baseline = _baseline_digest(seed)
        # Journal a pending primary + follower (as a crash mid-flight
        # leaves them), with the campaign's job results already cached.
        state = StateStore(root)
        key = submission_content_key(submission)
        state.journal_submit("c-000001", submission, key)
        state.journal_submit(
            "c-000002", submission, key, dedup_of="c-000001"
        )
        state.close()
        cache = ResultCache(root / "cache")
        FleetRunner(workers=1, cache=cache).run(_demo_campaign())
        pinned_entries = len(cache)
        # Unrelated entries the cap should reclaim.
        filler = Simulator(get_server("Xeon-E5462"), seed=seed).run(
            NpbWorkload("ep", "A", 2)
        )
        for i in range(3):
            cache.put(f"{i:02d}" + "f" * 62, filler, wall_s=0.1)
        pins = serve_pins(root)
        report = evict_store(
            FleetCacheStore(root / "cache"),
            EvictionPolicy(max_entries=0),
            pins=pins.all,
        )
        if len(report.evicted) != 3 or report.pinned_kept < pinned_entries:
            return ScenarioVerdict(
                "evict-during-dedup",
                "serve",
                "failed",
                f"evicted {len(report.evicted)}/3 fillers, "
                f"kept {report.pinned_kept}/{pinned_entries} pinned",
            )
        # Resume: both campaigns must complete from the surviving
        # entries, byte-identical to each other and the baseline.
        scheduler = ServeScheduler(StateStore(root), slots=1)
        scheduler.start()
        primary = _await_status(scheduler, "c-000001")
        follower = _await_status(scheduler, "c-000002")
        state = StateStore(root)
        primary_bytes = state.result_path("c-000001").read_bytes()
        follower_bytes = state.result_path("c-000002").read_bytes()
        hits = scheduler.counters["deduped_jobs"]
        scheduler.drain(timeout_s=10.0)
        if primary["status"] != "done" or follower["status"] != "done":
            return ScenarioVerdict(
                "evict-during-dedup",
                "serve",
                "failed",
                "resumed dedup pair did not complete",
            )
        if primary_bytes != follower_bytes:
            return ScenarioVerdict(
                "evict-during-dedup",
                "serve",
                "failed",
                "follower result not byte-identical to primary",
            )
        if primary.get("digest", baseline) != baseline and hits == 0:
            return ScenarioVerdict(
                "evict-during-dedup",
                "serve",
                "failed",
                "resume recomputed from scratch: pins did not protect "
                "the in-flight entries",
            )
    return ScenarioVerdict(
        "evict-during-dedup",
        "serve",
        "recovered",
        f"3 unpinned entries reclaimed, {pinned_entries} pinned kept, "
        f"dedup pair resumed with {hits} cache hits",
    )


def _scenario_supervisor_crash_loop(seed: int) -> ScenarioVerdict:
    """The supervisor heals a flaky child and gives up on a hopeless
    one — breaker open, budget intact, all on a fake clock."""
    from repro.doctor import RestartPolicy, Supervisor

    del seed  # deterministic by construction
    policy = RestartPolicy(
        max_restarts=5,
        backoff_initial_s=0.5,
        backoff_cap_s=4.0,
        min_uptime_s=5.0,
        breaker_strikes=3,
    )
    timeline = {"now": 0.0}
    slept: "list[float]" = []

    def clock() -> float:
        return timeline["now"]

    def sleep(seconds: float) -> None:
        slept.append(seconds)
        timeline["now"] += seconds

    # Child A crashes twice quickly, then runs long and exits clean.
    exits = iter([(0.1, 1), (0.2, 1), (60.0, 0)])

    def flaky() -> int:
        uptime, code = next(exits)
        timeline["now"] += uptime
        return code

    audits: "list[int]" = []
    outcome = Supervisor(
        flaky,
        policy,
        audit=lambda: audits.append(1),
        sleep=sleep,
        clock=clock,
    ).run()
    if outcome.status != "clean" or outcome.restarts != 2:
        return ScenarioVerdict(
            "supervisor-crash-loop",
            "serve",
            "failed",
            f"flaky child: {outcome.status} after "
            f"{outcome.restarts} restarts (want clean after 2)",
        )
    if len(audits) != 2 or slept != [0.5, 1.0]:
        return ScenarioVerdict(
            "supervisor-crash-loop",
            "serve",
            "failed",
            f"expected 2 audits + backoff [0.5, 1.0], "
            f"got {len(audits)} audits, backoff {slept}",
        )

    # Child B can never boot: the breaker must open before the budget.
    def hopeless() -> int:
        timeline["now"] += 0.05
        return 1

    halted = Supervisor(hopeless, policy, sleep=sleep, clock=clock).run()
    if halted.status != "breaker_open":
        return ScenarioVerdict(
            "supervisor-crash-loop",
            "serve",
            "failed",
            f"hopeless child ended {halted.status}, breaker never opened",
        )
    if halted.restarts >= policy.max_restarts:
        return ScenarioVerdict(
            "supervisor-crash-loop",
            "serve",
            "failed",
            "breaker opened only after the restart budget burned out",
        )
    return ScenarioVerdict(
        "supervisor-crash-loop",
        "serve",
        "degraded",
        f"flaky child healed after 2 restarts (backoff {slept[:2]}); "
        f"crash loop tripped the breaker after {halted.restarts} "
        "restarts with budget to spare",
    )


#: name -> (layer, description, callable).  Order is the report order.
_SCENARIOS: "dict[str, tuple[str, str, object]]" = {
    "meter-dropout": (
        "meter",
        "logger drops 5% of samples; gaps interpolated",
        _scenario_meter_dropout,
    ),
    "meter-spikes": (
        "meter",
        "meter glitches 5 samples by 20x; outliers rejected",
        _scenario_meter_spikes,
    ),
    "meter-nan": (
        "meter",
        "5 NaN watts in the trace; rejected and refilled",
        _scenario_meter_nan,
    ),
    "meter-clock-skew": (
        "meter",
        "meter PC clock 0.3 s off; estimated and removed",
        _scenario_meter_clock_skew,
    ),
    "meter-guard": (
        "meter",
        "NaN/negative input to the meter raises a typed, indexed error",
        _scenario_meter_guard,
    ),
    "csv-truncated": (
        "meter",
        "power CSV torn mid-row; tolerant reader skips the stub",
        _scenario_csv_truncated,
    ),
    "csv-corrupt": (
        "meter",
        "5 CSV rows garbled; skipped, flagged, interpolated",
        _scenario_csv_corrupt,
    ),
    "fleet-crash": (
        "fleet",
        "worker hard-exits mid-job; pool replaced, job retried",
        _scenario_fleet_crash,
    ),
    "fleet-hang": (
        "fleet",
        "worker hangs past the watchdog; killed and retried",
        _scenario_fleet_hang,
    ),
    "fleet-slow": (
        "fleet",
        "straggler worker; completes without spurious retries",
        _scenario_fleet_slow,
    ),
    "fleet-permafail": (
        "fleet",
        "job fails every attempt; lands in the failure report",
        _scenario_fleet_permafail,
    ),
    "cache-bitflip": (
        "cache",
        "one bit flipped in a cache entry; quarantined, recomputed",
        _scenario_cache_bitflip,
    ),
    "cache-torn": (
        "cache",
        "cache entry truncated (torn write); quarantined, recomputed",
        _scenario_cache_torn,
    ),
    "campaign-resume": (
        "campaign",
        "journal truncated at first checkpoint; resume digest identical",
        _scenario_campaign_resume,
    ),
    "partial-matrix": (
        "campaign",
        "two states permanently dead; score degrades with coverage flag",
        _scenario_partial_matrix,
    ),
    "disk-full": (
        "cache",
        "ENOSPC mid-campaign; writes shed, digest intact, cache heals",
        _scenario_disk_full,
    ),
    "journal-bitflip": (
        "serve",
        "done-record bit flipped; audit flags it, replay bit-identical",
        _scenario_journal_bitflip,
    ),
    "evict-during-dedup": (
        "serve",
        "capped eviction with in-flight dedup; pins hold, resume exact",
        _scenario_evict_during_dedup,
    ),
    "supervisor-crash-loop": (
        "serve",
        "crash-looping daemon; backoff, auto-audit, breaker opens",
        _scenario_supervisor_crash_loop,
    ),
}


def available_scenarios() -> "list[tuple[str, str, str]]":
    """``(name, layer, description)`` for every registered scenario."""
    return [
        (name, layer, description)
        for name, (layer, description, _fn) in _SCENARIOS.items()
    ]


def run_chaos(
    seed: int = 2015,
    only: "list[str] | None" = None,
) -> ChaosReport:
    """Run the fault matrix and return the verdict report.

    ``only`` restricts to the named scenarios (unknown names raise).  A
    scenario that itself raises is reported as ``failed`` — the harness
    always returns a report rather than dying mid-campaign.
    """
    if only:
        unknown = [name for name in only if name not in _SCENARIOS]
        if unknown:
            raise ReproError(
                f"unknown scenario(s) {unknown}; "
                f"see 'python -m repro chaos --list'"
            )
    t0 = time.perf_counter()
    verdicts: list[ScenarioVerdict] = []
    for name, (layer, _description, fn) in _SCENARIOS.items():
        if only and name not in only:
            continue
        start = time.perf_counter()
        try:
            verdict = fn(seed)
        except Exception as exc:  # noqa: BLE001 - the harness must report
            verdict = ScenarioVerdict(
                name,
                layer,
                "failed",
                f"scenario raised {type(exc).__name__}: {exc}",
            )
        verdicts.append(
            ScenarioVerdict(
                verdict.name,
                verdict.layer,
                verdict.outcome,
                verdict.detail,
                wall_s=time.perf_counter() - start,
            )
        )
    return ChaosReport(
        seed=seed,
        verdicts=tuple(verdicts),
        wall_s=time.perf_counter() - t0,
    )
