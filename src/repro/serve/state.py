"""Durable server state: the submission journal and the results store.

The daemon keeps everything it needs to survive a restart under one
state directory::

    <state_dir>/
      journal.jsonl     # fsynced submission/done/drain records
      events.jsonl      # the shared fleet EventLog (jobs, checkpoints)
      cache/            # the shared content-addressed ResultCache
      results/<id>.json # one result document per finished campaign

The journal is the serve-level analogue of the fleet's checkpoint
records: every accepted submission is fsynced *before* the client gets
its 202, and a ``done`` record is fsynced when its result document is
safely on disk.  Replaying the journal therefore yields exactly the
set of campaigns a restarted server must resume — and because job
results live in the content-addressed cache and the fleet journal, the
resumed execution is bit-identical to an uninterrupted one (the chaos
suite SIGKILLs a live daemon to prove it).

The journal is appended through :class:`~repro.doctor.jsonl.JsonlWriter`
and replayed by :func:`replay_journal`, which only reads, so the doctor
can replay a live daemon's journal.

Records::

    {"kind": "submit", "id": "c-000001", "submission": {...},
     "content_key": "...", "dedup_of": null, "ts": ...}
    {"kind": "done", "id": "c-000001", "status": "done",
     "digest": "...", "partial": false, "ts": ...}
    {"kind": "done", ..., "digest": "...",
     "document_digest": "...", ...}    # fleet: see journal_done
    {"kind": "drain", "pending": ["c-000002"], "ts": ...}
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from repro.doctor import safewrite
from repro.doctor.jsonl import JsonlWriter, read_records
from repro.serve.protocol import Submission

__all__ = ["PendingCampaign", "StateStore", "replay_journal"]


class PendingCampaign:
    """One journaled submission a restarted server must resume."""

    def __init__(
        self,
        campaign_id: str,
        submission: Submission,
        content_key: str,
        dedup_of: "str | None",
    ):
        self.campaign_id = campaign_id
        self.submission = submission
        self.content_key = content_key
        self.dedup_of = dedup_of


class StateStore:
    """Owns the state directory: journal writes, result documents."""

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "results").mkdir(exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        self.events_path = self.root / "events.jsonl"
        self.cache_dir = self.root / "cache"
        # Every record is fsynced, and a failed append raises
        # StorageDegradedError with no byte of it left behind: the
        # journal is the daemon's source of truth, so the caller rejects
        # the submission / skips the done record.  The writer's lock
        # stops `repro doctor evict/repair` compacting a live journal.
        self._journal = JsonlWriter(self.journal_path)

    # -- journal --------------------------------------------------------

    def journal_submit(
        self,
        campaign_id: str,
        submission: Submission,
        content_key: str,
        dedup_of: "str | None" = None,
    ) -> None:
        """Durably record an accepted submission (before the 202)."""
        self._journal.append(
            {
                "kind": "submit",
                "id": campaign_id,
                "submission": submission.to_dict(),
                "content_key": content_key,
                "dedup_of": dedup_of,
                "ts": time.time(),
            },
            fsync=True,
        )

    def journal_done(
        self,
        campaign_id: str,
        status: str,
        digest: "str | None" = None,
        partial: bool = False,
        error: "str | None" = None,
        document_digest: "str | None" = None,
    ) -> None:
        """Durably record a terminal state (after the result is saved).

        ``digest`` is the status digest clients see.  ``document_digest``
        is the canonical-JSON SHA-256 of the saved result document, which
        ``repro doctor audit`` checks; it is journaled only where it
        differs from ``digest`` (a fleet campaign's status digest is its
        results digest).
        """
        record: dict[str, Any] = {
            "kind": "done",
            "id": campaign_id,
            "status": status,
            "partial": partial,
            "ts": time.time(),
        }
        if digest:
            record["digest"] = digest
        if document_digest and document_digest != digest:
            record["document_digest"] = document_digest
        if error:
            record["error"] = error
        self._journal.append(record, fsync=True)

    def journal_drain(self, pending: "list[str]") -> None:
        """Record a graceful drain and the ids left for the next boot."""
        self._journal.append(
            {"kind": "drain", "pending": sorted(pending), "ts": time.time()},
            fsync=True,
        )

    def replay(self) -> "tuple[list[PendingCampaign], int]":
        """Load the journal: see :func:`replay_journal`."""
        return replay_journal(self.journal_path)

    # -- results --------------------------------------------------------

    def result_path(self, campaign_id: str) -> Path:
        return self.root / "results" / f"{campaign_id}.json"

    def save_result(
        self, campaign_id: str, document: "dict[str, Any]"
    ) -> Path:
        """Persist a result document (atomic: temp + fsync + rename).

        Raises :class:`~repro.errors.StorageDegradedError` when the
        disk is full — the scheduler then leaves the campaign without a
        ``done`` record so a restart re-derives the identical document
        from the cache instead of serving a missing file.
        """
        path = self.result_path(campaign_id)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        payload = (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        ).encode()
        safewrite.write_atomic(tmp, path, payload)
        return path

    def load_result(self, campaign_id: str) -> "dict[str, Any] | None":
        path = self.result_path(campaign_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def close(self) -> None:
        self._journal.close()


def replay_journal(
    path: "str | Path",
) -> "tuple[list[PendingCampaign], int]":
    """Replay a submit journal: pending campaigns and the next id counter.

    A campaign is *pending* when a ``submit`` record has no matching
    ``done`` — exactly the work a graceful drain left behind or a crash
    interrupted.  Torn and corrupt lines are skipped, and a missing
    journal is empty.  Read-only: it takes no lock and creates nothing,
    so the doctor can derive pins while a daemon owns the journal.
    """
    pending: "dict[str, PendingCampaign]" = {}
    max_counter = 0
    for record in read_records(path):
        kind = record.get("kind")
        campaign_id = record.get("id", "")
        if isinstance(campaign_id, str) and campaign_id.startswith("c-"):
            try:
                max_counter = max(max_counter, int(campaign_id[2:]))
            except ValueError:
                pass
        if kind == "submit":
            try:
                pending[campaign_id] = PendingCampaign(
                    campaign_id=campaign_id,
                    submission=Submission.from_dict(record["submission"]),
                    content_key=record.get("content_key", ""),
                    dedup_of=record.get("dedup_of"),
                )
            except (KeyError, TypeError):
                continue
        elif kind == "done":
            pending.pop(campaign_id, None)
    ordered = sorted(pending.values(), key=lambda p: p.campaign_id)
    return ordered, max_counter + 1
