"""The serve scheduler: slot threads over the tenant queue fabric.

One :class:`ServeScheduler` multiplexes every tenant's campaigns onto a
small pool of *slot threads*.  Each campaign runs through its own
:class:`~repro.fleet.FleetRunner` (runners keep per-run state and are
not shareable), but all slots share one content-addressed
:class:`~repro.fleet.ResultCache` and one (thread-safe)
:class:`~repro.fleet.EventLog` — which is where cross-tenant dedup
comes from: two tenants submitting the same work hit the same cache
keys, and the second execution is pure cache hits.

Two layers of dedup:

* **campaign-level** — a submission whose content key matches a
  queued/running campaign never enqueues; it *follows* the primary and
  receives a byte-identical copy of its result document.
* **job-level** — distinct campaigns sharing individual jobs dedup
  through the result cache (counted via ``FleetOutcome.cache_hits``).

Overload degrades, in order: soft admission shedding (429 for
``low``/``normal``, see :mod:`repro.serve.queues`), then *partial
execution* — once the backlog crosses the shed threshold, a dispatched
campaign runs only its cached jobs plus a bounded budget of uncached
ones, and the result document is flagged ``"partial": true``.  Nothing
admitted is ever silently dropped.

Durability: submissions are journaled (fsynced) before the 202 and a
``done`` record lands only after the result document is on disk, so
:meth:`ServeScheduler.start` can replay the journal and resume exactly
the campaigns a drain or crash left behind — bit-identically, because
job results live in the shared cache.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro import io as repro_io
from repro import obs
from repro.core.evaluation import evaluate_server
from repro.engine.simulator import Simulator
from repro.engine.trace import RunResult
from repro.errors import ReproError, StorageDegradedError
from repro.fleet.cache import ResultCache, canonical_digest, job_cache_key
from repro.fleet.events import EventLog
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import FleetJob
from repro.hardware.zoo import resolve_server
from repro.metering.analysis import DEFAULT_TRIM, extract_window, trimmed_stats
from repro.serve.protocol import (
    Submission,
    submission_content_key,
    submission_jobs,
)
from repro.serve.queues import QueuePolicy, TenantQueues
from repro.serve.state import StateStore

__all__ = ["CampaignState", "ServeScheduler", "SubmitOutcome"]

#: Done-campaign records retained in memory; older ones fall back to
#: the on-disk result store for status queries.
_DONE_RETENTION = 1024


class CampaignState:
    """In-memory lifecycle record of one accepted submission."""

    def __init__(
        self,
        campaign_id: str,
        submission: Submission,
        content_key: str,
        dedup_of: "str | None" = None,
    ):
        self.campaign_id = campaign_id
        self.submission = submission
        self.content_key = content_key
        self.dedup_of = dedup_of
        # queued | running | done | failed | degraded.  ``degraded`` is
        # terminal *for this process only*: a storage write died before
        # the result/`done` record could persist, the submission stays
        # pending in the journal, and a restarted daemon re-executes it
        # — clients seeing ``degraded`` may yet get a result.
        self.status = "queued"
        self.partial = False
        self.digest: "str | None" = None
        self.error: "str | None" = None
        self.followers: "list[str]" = []
        self.created_ts = time.time()
        self.started_ts: "float | None" = None
        self.finished_ts: "float | None" = None

    def to_dict(self) -> dict[str, Any]:
        document: dict[str, Any] = {
            "id": self.campaign_id,
            "tenant": self.submission.tenant,
            "priority": self.submission.priority,
            "kind": self.submission.kind,
            "status": self.status,
            "partial": self.partial,
            "created_ts": self.created_ts,
        }
        if self.dedup_of:
            document["dedup_of"] = self.dedup_of
        if self.digest:
            document["digest"] = self.digest
        if self.error:
            document["error"] = self.error
        if self.started_ts:
            document["started_ts"] = self.started_ts
        if self.finished_ts:
            document["finished_ts"] = self.finished_ts
        return document


class SubmitOutcome:
    """What :meth:`ServeScheduler.submit` decided."""

    def __init__(
        self,
        accepted: bool,
        campaign: "CampaignState | None" = None,
        reason: str = "",
        retry_after_s: int = 0,
    ):
        self.accepted = accepted
        self.campaign = campaign
        self.reason = reason
        self.retry_after_s = retry_after_s


class ServeScheduler:
    """Admission, fair dispatch, execution, durability — one object.

    Thread-safe: the HTTP layer calls :meth:`submit` / :meth:`status` /
    :meth:`stats` from the event loop's executor threads while slot
    threads execute campaigns.
    """

    def __init__(
        self,
        state: StateStore,
        policy: "QueuePolicy | None" = None,
        slots: int = 2,
        fleet_workers: int = 1,
        shed_job_budget: int = 2,
    ):
        if slots < 1:
            raise ReproError(f"slots must be >= 1, got {slots}")
        if shed_job_budget < 1:
            raise ReproError(
                f"shed_job_budget must be >= 1, got {shed_job_budget}"
            )
        self.state = state
        self.slots = slots
        self.fleet_workers = fleet_workers
        self.shed_job_budget = shed_job_budget
        self.queues = TenantQueues(policy)
        self.cache = ResultCache(state.cache_dir)
        self.events = EventLog(state.events_path)
        self._cond = threading.Condition()
        self._records: "dict[str, CampaignState]" = {}
        self._done_order: "list[str]" = []
        self._active_keys: "dict[str, str]" = {}  # content_key -> id
        self._next_id = 1
        self.draining = False
        self._threads: "list[threading.Thread]" = []
        self._running_ids: "set[str]" = set()
        self.counters = {
            "submitted": 0,
            "admitted": 0,
            "rejected": 0,
            "deduped_campaigns": 0,
            "deduped_jobs": 0,
            "shed_campaigns": 0,
            "completed": 0,
            "failed": 0,
            "resumed": 0,
            "storage_degraded": 0,
        }

    # -- lifecycle ------------------------------------------------------

    def start(self) -> int:
        """Replay the journal, re-enqueue pending work, start slots.

        Returns the number of resumed campaigns.
        """
        pending, next_id = self.state.replay()
        resumed = 0
        with self._cond:
            self._next_id = max(self._next_id, next_id)
            for item in pending:
                if item.campaign_id in self._records:
                    continue  # submitted in this process before start()
                record = CampaignState(
                    item.campaign_id,
                    item.submission,
                    item.content_key or submission_content_key(
                        item.submission
                    ),
                    dedup_of=item.dedup_of,
                )
                self._records[item.campaign_id] = record
                primary = self._active_keys.get(record.content_key)
                if item.dedup_of or primary is not None:
                    # A follower: re-attach to its (also pending)
                    # primary; if the primary finished between journal
                    # records, fall through to an independent enqueue —
                    # the warm cache makes that nearly free.
                    target = item.dedup_of or primary
                    head = self._records.get(target or "")
                    if head is not None and head.status in (
                        "queued",
                        "running",
                    ):
                        record.dedup_of = head.campaign_id
                        head.followers.append(record.campaign_id)
                        resumed += 1
                        continue
                self._active_keys[record.content_key] = record.campaign_id
                self.queues.push(
                    record.submission.tenant,
                    record.submission.priority,
                    record.campaign_id,
                )
                resumed += 1
            self.counters["resumed"] = resumed
            self._cond.notify_all()
        for i in range(self.slots):
            thread = threading.Thread(
                target=self._slot_loop, name=f"serve-slot-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        return resumed

    def drain(self, timeout_s: float = 30.0) -> "list[str]":
        """Graceful shutdown: stop admitting, let running slots finish.

        Queued campaigns stay journaled (never executed here — restart
        resumes them); running campaigns get ``timeout_s`` to complete.
        Returns the ids left pending for the next boot.
        """
        with self._cond:
            self.draining = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                thread.join(remaining)
        with self._cond:
            pending = sorted(
                record.campaign_id
                for record in self._records.values()
                if record.status in ("queued", "running")
            )
        self.state.journal_drain(pending)
        self.events.close()
        self.state.close()
        return pending

    # -- submission -----------------------------------------------------

    def submit(self, submission: Submission) -> SubmitOutcome:
        """Admission-control one submission; journal and enqueue it."""
        content_key = submission_content_key(submission)
        with self._cond:
            self.counters["submitted"] += 1
            if self.draining:
                # Same EWMA drain estimate the shed path sends: the
                # pending backlog will be resumed by the next boot, so
                # "come back after it would have drained" is the honest
                # Retry-After for a draining 503 too.
                return SubmitOutcome(
                    False,
                    reason="draining",
                    retry_after_s=self.queues.retry_after_s(self.slots),
                )
            primary_id = self._active_keys.get(content_key)
            primary = self._records.get(primary_id or "")
            if primary is not None and primary.status in (
                "queued",
                "running",
            ):
                # Campaign-level dedup: follow the in-flight primary.
                campaign_id = self._allocate_id()
                record = CampaignState(
                    campaign_id,
                    submission,
                    content_key,
                    dedup_of=primary.campaign_id,
                )
                self._records[campaign_id] = record
                primary.followers.append(campaign_id)
                self.counters["deduped_campaigns"] += 1
                try:
                    self.state.journal_submit(
                        campaign_id,
                        submission,
                        content_key,
                        dedup_of=primary.campaign_id,
                    )
                except StorageDegradedError:
                    # Roll back: an unjournaled follower would vanish
                    # on restart while the client holds its id.
                    del self._records[campaign_id]
                    primary.followers.remove(campaign_id)
                    self.counters["deduped_campaigns"] -= 1
                    return self._reject_degraded()
                self.events.emit(
                    "serve_submit",
                    campaign=campaign_id,
                    tenant=submission.tenant,
                    priority=submission.priority,
                    dedup_of=primary.campaign_id,
                )
                obs.inc("serve.campaigns.deduped")
                return SubmitOutcome(True, campaign=record)
            admission = self.queues.admit(
                submission.tenant, submission.priority, self.slots
            )
            if not admission.admitted:
                self.counters["rejected"] += 1
                obs.inc("serve.campaigns.rejected")
                return SubmitOutcome(
                    False,
                    reason=admission.reason,
                    retry_after_s=admission.retry_after_s,
                )
            campaign_id = self._allocate_id()
            record = CampaignState(campaign_id, submission, content_key)
            self._records[campaign_id] = record
            self._active_keys[content_key] = campaign_id
            try:
                self.state.journal_submit(
                    campaign_id, submission, content_key
                )
            except StorageDegradedError:
                del self._records[campaign_id]
                del self._active_keys[content_key]
                return self._reject_degraded()
            self.queues.push(
                submission.tenant, submission.priority, campaign_id
            )
            self.counters["admitted"] += 1
            self.events.emit(
                "serve_submit",
                campaign=campaign_id,
                tenant=submission.tenant,
                priority=submission.priority,
            )
            obs.inc("serve.campaigns.admitted")
            obs.set_gauge("serve.queue.depth", self.queues.pending)
            self._cond.notify()
            return SubmitOutcome(True, campaign=record)

    def _allocate_id(self) -> str:
        campaign_id = f"c-{self._next_id:06d}"
        self._next_id += 1
        return campaign_id

    def _reject_degraded(self) -> SubmitOutcome:
        """Shed an admission the journal could not durably record.

        Load-shedding, not failure: the client gets a 503 with the
        same drain-estimate Retry-After as overload shedding, and a
        ``storage_degraded`` event marks the episode for operators
        (best-effort — the event log itself may be on the full disk).
        """
        self.counters["rejected"] += 1
        self.counters["storage_degraded"] += 1
        obs.inc("serve.campaigns.rejected")
        obs.inc("serve.storage_degraded")
        self.events.emit("storage_degraded", where="journal_submit")
        return SubmitOutcome(
            False,
            reason="storage_degraded",
            retry_after_s=self.queues.retry_after_s(self.slots),
        )

    # -- queries --------------------------------------------------------

    def status(self, campaign_id: str) -> "dict[str, Any] | None":
        """Status document for one campaign; ``None`` if unknown."""
        with self._cond:
            record = self._records.get(campaign_id)
            if record is not None:
                return record.to_dict()
        # Evicted from memory — a result document on disk proves it
        # finished; report what the document itself records.
        document = self.state.load_result(campaign_id)
        if document is None:
            return None
        return {
            "id": campaign_id,
            "status": "done",
            "partial": bool(
                document.get("partial") or document.get("missing")
            ),
        }

    def result(self, campaign_id: str) -> "dict[str, Any] | None":
        return self.state.load_result(campaign_id)

    def stats(self) -> dict[str, Any]:
        with self._cond:
            return {
                "counters": dict(self.counters),
                "pending": self.queues.pending,
                "running": len(self._running_ids),
                "max_pending_seen": self.queues.max_pending_seen,
                "queue_depths": self.queues.depths(),
                "draining": self.draining,
                "slots": self.slots,
            }

    # -- execution ------------------------------------------------------

    def _slot_loop(self) -> None:
        while True:
            with self._cond:
                while not self.draining and self.queues.pending == 0:
                    self._cond.wait(timeout=0.5)
                if self.draining:
                    return
                entry = self.queues.pop()
                if entry is None:
                    continue
                _tenant, campaign_id = entry
                record = self._records[campaign_id]
                record.status = "running"
                record.started_ts = time.time()
                self._running_ids.add(campaign_id)
                shed = self._should_shed()
                obs.set_gauge("serve.queue.depth", self.queues.pending)
            t0 = time.perf_counter()
            self.events.emit(
                "serve_start",
                campaign=campaign_id,
                tenant=record.submission.tenant,
                shed=shed or None,
            )
            try:
                with obs.timed(
                    "serve.campaign",
                    campaign=campaign_id,
                    kind=record.submission.kind,
                ):
                    document, digest, partial = self._execute(record, shed)
                self._finish(record, document, digest, partial)
            except StorageDegradedError as exc:
                self._degrade(record, str(exc))
            except Exception as exc:  # noqa: BLE001 - slot must survive
                self._fail(record, f"{type(exc).__name__}: {exc}")
            finally:
                self.queues.record_service_s(time.perf_counter() - t0)

    def _should_shed(self) -> bool:
        """Degrade to partial execution once the backlog is deep.

        Called with the lock held, after the pop: sheds when the
        remaining backlog still exceeds the soft threshold.
        """
        policy = self.queues.policy
        soft = max(1, int(policy.max_pending * policy.shed_fraction))
        return self.queues.pending >= soft

    def _shed(
        self, jobs: "tuple[FleetJob, ...]"
    ) -> "tuple[tuple[FleetJob, ...], tuple[FleetJob, ...]]":
        """The one shed rule: which jobs a campaign runs under a backlog.

        Cached jobs are free and always kept; of the uncached ones, the
        first ``shed_job_budget`` in job order are kept and the rest are
        skipped.  Each job costs one ``ResultCache.get`` of its own key,
        never a scan of the cache.  Returns ``(kept, skipped)``.
        """
        kept: "list[FleetJob]" = []
        skipped: "list[FleetJob]" = []
        uncached = 0
        for job in jobs:
            if self.cache.get(job_cache_key(job)) is None:
                uncached += 1
                if uncached > self.shed_job_budget:
                    skipped.append(job)
                    continue
            kept.append(job)
        return tuple(kept), tuple(skipped)

    def _execute(
        self, record: CampaignState, shed: bool
    ) -> "tuple[dict[str, Any], str, bool]":
        """Run one campaign through one :class:`FleetRunner` campaign.

        Both kinds expand to their jobs (:func:`submission_jobs`), shed
        under a backlog, and run what is kept in one ``run_jobs`` call
        named after the serve campaign, through the shared cache.  An
        evaluate campaign is then scored from that outcome by
        :func:`evaluate_server`: shed, every state without a run lands
        in ``missing``, in state order; otherwise a failed job fails
        the campaign.
        """
        kind, spec = record.submission.kind, record.submission.spec
        jobs = submission_jobs(kind, spec)
        skipped: "tuple[FleetJob, ...]" = ()
        if shed:
            jobs, skipped = self._shed(jobs)
        outcome = FleetRunner(
            workers=self.fleet_workers,
            cache=self.cache,
            events=self.events,
        ).run_jobs(jobs, name=record.campaign_id)
        with self._cond:
            self.counters["deduped_jobs"] += outcome.cache_hits
        if kind == "evaluate":
            server = resolve_server(spec["server"])
            result = evaluate_server(
                server,
                Simulator(server, seed=int(spec.get("seed", 0))),
                backend=outcome,
                allow_partial=shed,
                on_run=lambda state, run: self._stream_window(
                    record, state, run
                ),
            )
            if result.missing:
                self.events.emit(
                    "serve_shed",
                    campaign=record.campaign_id,
                    missing=list(result.missing),
                )
            document = repro_io.evaluation_to_dict(result)
            return document, canonical_digest(document), bool(result.missing)
        if skipped:
            self.events.emit(
                "serve_shed",
                campaign=record.campaign_id,
                skipped=[job.job_id for job in skipped],
            )
        digest = outcome.results_digest()
        document: dict[str, Any] = {
            "kind": "fleet-outcome",
            "campaign": spec["name"],
            "digest": digest,
            "report": outcome.report().to_dict(),
            "failures": [f.job_id for f in outcome.failures],
        }
        if skipped:
            document["partial"] = True
            document["skipped"] = sorted(job.job_id for job in skipped)
        return document, digest, bool(skipped)

    def _stream_window(
        self, record: CampaignState, state: Any, run: RunResult
    ) -> None:
        """Publish one state's live window statistics over ``/events``.

        Each measured run's window goes through the batch
        :func:`~repro.metering.analysis.trimmed_stats` — the trim the
        result document reports — and lands in the shared journal as a
        ``serve_stream_window`` event, so ``GET
        /v1/campaigns/<id>/events`` tails per-window statistics while
        the campaign is still running.  Observability only: a failure
        here is counted, never allowed to fail the campaign.
        """
        try:
            stats = trimmed_stats(
                extract_window(
                    run.times_s, run.measured_watts, run.t_start_s, run.t_end_s
                ),
                DEFAULT_TRIM,
            )
            self.events.emit(
                "serve_stream_window",
                campaign=record.campaign_id,
                label=state.label,
                mean=stats.mean,
                std=stats.std,
                n_used=stats.n_used,
                n_total=stats.n_total,
                fallback=stats.fallback or None,
            )
        except Exception:  # noqa: BLE001 - observability must not kill work
            obs.inc("serve.stream.errors")

    # -- settling -------------------------------------------------------

    def _release(self, record: CampaignState) -> "list[str]":
        """Take a primary off the running set and the dedup index, so no
        new follower attaches; returns its followers (lock held)."""
        self._running_ids.discard(record.campaign_id)
        if self._active_keys.get(record.content_key) == record.campaign_id:
            del self._active_keys[record.content_key]
        return list(record.followers)

    def _retire(
        self, campaign_id: str, status: str, counter: str, **fields: Any
    ) -> None:
        """Give one campaign its terminal status and ``fields``, count
        ``counter``, and apply retention (lock held)."""
        record = self._records.get(campaign_id)
        if record is not None:
            record.status = status
            for name, value in fields.items():
                setattr(record, name, value)
            record.finished_ts = time.time()
        self.counters[counter] += 1
        self._retain_done(campaign_id)

    def _finish(
        self,
        record: CampaignState,
        document: dict[str, Any],
        digest: str,
        partial: bool,
    ) -> None:
        document_digest = canonical_digest(document)
        done = dict(digest=digest, partial=partial)
        self.state.save_result(record.campaign_id, document)
        self.state.journal_done(
            record.campaign_id, "done", document_digest=document_digest, **done
        )
        with self._cond:
            followers = self._release(record)
            self._retire(record.campaign_id, "done", "completed", **done)
            # Counted once per executed campaign: its followers count
            # as ``deduped_campaigns``.
            if partial:
                self.counters["shed_campaigns"] += 1
        # Followers receive a byte-identical copy of the result.
        for follower_id in followers:
            try:
                self.state.save_result(follower_id, document)
                self.state.journal_done(
                    follower_id, "done", document_digest=document_digest, **done
                )
            except StorageDegradedError as exc:
                # The primary is durable; this follower stays pending
                # in the journal and a restart re-serves it from the
                # warm cache.  Mark it degraded in memory only.
                with self._cond:
                    self._retire(
                        follower_id,
                        "degraded",
                        "storage_degraded",
                        error=f"storage_degraded: {exc}",
                    )
                continue
            with self._cond:
                self._retire(follower_id, "done", "completed", **done)
            self.events.emit(
                "serve_finish",
                campaign=follower_id,
                digest=digest,
                dedup_of=record.campaign_id,
            )
        self.events.emit(
            "serve_finish",
            campaign=record.campaign_id,
            digest=digest,
            partial=partial or None,
        )
        obs.inc("serve.campaigns.completed", 1 + len(followers))

    def _degrade(self, record: CampaignState, error: str) -> None:
        """A storage write died mid-campaign (ENOSPC/EIO).

        Deliberately writes **no** ``done`` record: the submission
        stays pending in the journal, so a restarted daemon re-executes
        it — bit-identically, because whatever job results did land
        live in the content-addressed cache.  In memory the campaign
        and its followers report ``degraded`` (not ``failed``) with a
        ``storage_degraded`` error, so live status queries can tell a
        retried-on-restart episode from a permanent failure.
        """
        detail = f"storage_degraded: {error}"
        with self._cond:
            followers = self._release(record)
            for campaign_id in (record.campaign_id, *followers):
                self._retire(
                    campaign_id, "degraded", "storage_degraded", error=detail
                )
        # Best-effort: the event log degrades independently when the
        # same disk is full.
        self.events.emit(
            "storage_degraded",
            campaign=record.campaign_id,
            where="campaign_finish",
            error=error,
        )
        obs.inc("serve.storage_degraded")
        obs.inc("serve.campaigns.degraded", 1 + len(followers))

    def _fail(self, record: CampaignState, error: str) -> None:
        try:
            self.state.journal_done(
                record.campaign_id, "failed", error=error
            )
        except StorageDegradedError:
            pass  # restart will re-execute; in-memory state still set
        with self._cond:
            followers = self._release(record)
            self._retire(record.campaign_id, "failed", "failed", error=error)
        for follower_id in followers:
            try:
                self.state.journal_done(follower_id, "failed", error=error)
            except StorageDegradedError:
                pass
            with self._cond:
                self._retire(follower_id, "failed", "failed", error=error)
        self.events.emit(
            "serve_finish",
            campaign=record.campaign_id,
            error=error,
        )
        obs.inc("serve.campaigns.failed", 1 + len(followers))

    def _retain_done(self, campaign_id: str) -> None:
        """Bound in-memory retention of terminal records (lock held)."""
        self._done_order.append(campaign_id)
        while len(self._done_order) > _DONE_RETENTION:
            evicted = self._done_order.pop(0)
            record = self._records.get(evicted)
            if record is not None and record.status in (
                "done",
                "failed",
                "degraded",
            ):
                del self._records[evicted]
