"""JSONL event log for fleet campaigns.

Every observable moment of a campaign — job start, finish, retry, cache
hit, failure — is appended as one JSON object per line, so a campaign
can be monitored while it runs (``python -m repro fleet status``) and
audited after it ends (``... fleet report``).  Events carry wall-clock
timestamps, the worker's process id, and per-job wall times.

Event schema (flat; absent fields are omitted)::

    {"ts": 1754390000.123, "kind": "job_finish", "campaign": "demo",
     "job_id": "Xeon-E5462/ep.C.4/s2015", "label": "ep.C.4",
     "server": "Xeon-E5462", "attempt": 1, "worker": 4242,
     "wall_s": 0.041}

Kinds: ``campaign_start``, ``campaign_resume``, ``cache_hit``,
``job_start``, ``job_finish``, ``job_retry``, ``job_failed``,
``job_timeout``, ``pool_replaced``, ``checkpoint``,
``campaign_finish``, plus the cluster layer's ``cluster_start``,
``cluster_job``, ``cluster_finish`` (one machine-level simulation and
its scheduled jobs share the fleet's JSONL schema and tooling), and
the serve daemon's campaign lifecycle (``serve_submit``,
``serve_start``, ``serve_shed``, ``serve_stream_window`` — one
per-window statistics record per measured state, computed by
``trimmed_stats`` as each run finishes — ``serve_finish``), and the storage
doctor's health records (``storage_degraded`` when a write path hit
ENOSPC/EIO and degraded instead of crashing, ``doctor_audit`` /
``doctor_repair`` / ``doctor_evict`` / ``doctor_gc`` for maintenance
passes, ``supervisor_restart`` / ``supervisor_halt`` from ``repro
serve --supervise``).

The log doubles as the campaign's *journal*: ``checkpoint`` records are
fsynced to disk, so after a SIGKILL the set of durably completed jobs
can be replayed (:func:`completed_job_ids`) and a campaign resumed from
where it died (``fleet run --resume``).

The log is written, read and tailed through :mod:`repro.doctor.jsonl`;
this module adds the event schema and drops (and counts) events on a
full disk.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any

from repro.doctor.jsonl import JsonlTail, JsonlWriter, read_records
from repro.errors import StorageDegradedError

__all__ = [
    "EVENT_KINDS",
    "EventLog",
    "EventTail",
    "read_events",
    "last_campaign_events",
    "completed_job_ids",
]

EVENT_KINDS = (
    "campaign_start",
    "campaign_resume",
    "cache_hit",
    "job_start",
    "job_finish",
    "job_retry",
    "job_failed",
    "job_timeout",
    "pool_replaced",
    "checkpoint",
    "campaign_finish",
    "cluster_start",
    "cluster_job",
    "cluster_finish",
    "serve_submit",
    "serve_start",
    "serve_shed",
    "serve_stream_window",
    "serve_finish",
    "storage_degraded",
    "doctor_audit",
    "doctor_repair",
    "doctor_evict",
    "doctor_gc",
    "supervisor_restart",
    "supervisor_halt",
)


class EventLog:
    """Append-only JSONL writer (one file may hold many campaigns).

    A single log may be shared by several runner threads (the serve
    daemon multiplexes every tenant's campaigns onto one journal); its
    :class:`~repro.doctor.jsonl.JsonlWriter` lands each ``emit`` as one
    contiguous line.
    """

    def __init__(self, path: "str | Path"):
        self.path = Path(path)
        self._writer = JsonlWriter(self.path)
        self._lock = threading.Lock()
        #: set when an append failed for capacity/media reasons; the
        #: log is telemetry, so a full disk drops events (counted in
        #: ``dropped``) instead of crashing the emitting thread.
        self.degraded = False
        self.dropped = 0

    def emit(
        self, kind: str, _sync: bool = False, **fields: Any
    ) -> dict[str, Any]:
        """Append one event; returns the record written.

        ``_sync=True`` additionally fsyncs the file — used for
        ``checkpoint`` records, whose durability the resume path depends
        on.  Ordinary events settle for the write (a crash may lose the
        tail of the log but never tears a line mid-record on replay,
        because :func:`read_events` skips partial lines).

        A capacity/media failure (ENOSPC, EIO) marks the log
        ``degraded`` and drops the event rather than raising; the
        writer has already truncated away any part of it that reached
        the file, so the next event starts on a clean line.  Every
        caller that durably *depends* on a record (the serve journal,
        cache entries) writes it through its own store — the event log
        is the audit trail, and losing audit lines must never take the
        campaign down with them.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        record = {"ts": time.time(), "kind": kind}
        record.update({k: v for k, v in fields.items() if v is not None})
        try:
            self._writer.append(record, fsync=_sync)
        except StorageDegradedError:
            with self._lock:
                self.degraded = True
                self.dropped += 1
        return record

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_events(path: "str | Path") -> list[dict[str, Any]]:
    """Read every event in a JSONL file, skipping malformed lines.

    Safe against a concurrent writer: a torn final line — a partial
    write caught mid-read, possibly splitting a multi-byte character —
    is skipped, never raised on.  A missing file has no events.
    """
    return [record for record in read_records(path) if "kind" in record]


class EventTail:
    """Incremental reader of a live JSONL event log.

    Unlike :func:`read_events` — which *skips* a torn final line, fine
    for a one-shot post-mortem read but lossy for a tailer that then
    advances past it — the tail keeps the partial line buffered and
    re-parses it once its newline arrives, so no event is ever lost to
    a read that raced the writer mid-append.  This is what the serve
    daemon's ``GET /v1/campaigns/<id>/events`` stream runs on.

    ``campaign`` optionally filters records to one campaign name.  A
    truncated or replaced file (size below the read offset, or a new
    inode at the path) resets the tail to the new beginning.
    """

    def __init__(
        self, path: "str | Path", campaign: "str | None" = None
    ):
        self.path = Path(path)
        self.campaign = campaign
        self._tail = JsonlTail(self.path)

    def poll(self) -> list[dict[str, Any]]:
        """Return every complete event appended since the last poll."""
        records = [r for r in self._tail.poll() if "kind" in r]
        if self.campaign is None:
            return records
        return [r for r in records if r.get("campaign") == self.campaign]


def last_campaign_events(path: "str | Path") -> list[dict[str, Any]]:
    """Events of the most recent campaign in a (possibly shared) log."""
    events = read_events(path)
    start = 0
    for i, record in enumerate(events):
        if record["kind"] == "campaign_start":
            start = i
    return events[start:]


def completed_job_ids(
    events: "list[dict[str, Any]]", campaign: "str | None" = None
) -> set[str]:
    """Job ids that durably completed, replayed from a journal.

    A job counts as complete when any ``job_finish``, ``cache_hit``, or
    ``checkpoint`` record names it — the union over every run of
    ``campaign`` in the log (or all campaigns when ``None``).  ``fleet
    run --resume`` prints how many jobs it holds; the resumed run itself
    re-runs the whole campaign, and the result cache decides what is
    recomputed.
    """
    done: set[str] = set()
    for record in events:
        if campaign is not None and record.get("campaign") != campaign:
            continue
        kind = record.get("kind")
        if kind in ("job_finish", "cache_hit"):
            job_id = record.get("job_id")
            if job_id:
                done.add(job_id)
        elif kind == "checkpoint":
            done.update(record.get("job_ids", ()))
    return done
