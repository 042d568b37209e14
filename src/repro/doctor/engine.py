"""The doctor engine: audit, repair, capped eviction, and pins.

This is the policy layer over :mod:`repro.doctor.stores`.  Adapters
know how to enumerate and remove; the engine decides *what*:

* :func:`audit_stores` / :func:`repair_stores` — run every adapter and
  aggregate findings into one report (audit is read-only; repair
  quarantines or compacts the corrupt findings through each store's
  own machinery);
* :func:`evict_store` — size/TTL/LRU eviction under an
  :class:`EvictionPolicy`, refcount-aware through a *pin set*;
* :func:`serve_pins` — the pin set of a serve state directory: every
  cache key, result document, and journal record backing a campaign
  that is still pending (an in-flight primary, its dedup followers, or
  an unreplayed journal record) is pinned and survives any cap;
* :func:`gc_stores` — sweep temp-file debris and quarantine corpses.

Eviction order is deterministic: TTL expiry first, then
least-recently-used by mtime (ties broken by entry id) until the entry
and byte caps are met.  Pinned entries still *count* against the caps —
if pins alone exceed a cap the report says ``satisfied=False`` rather
than evicting live state to make a number.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro import obs
from repro.doctor.stores import Finding, StoreAdapter, StoreEntry

__all__ = [
    "AuditReport",
    "EvictionPolicy",
    "EvictionReport",
    "ServePins",
    "audit_stores",
    "evict_store",
    "gc_stores",
    "repair_stores",
    "serve_pins",
    "submission_cache_keys",
]


@dataclass
class AuditReport:
    """Aggregated findings of one audit/repair pass."""

    findings: list[Finding] = field(default_factory=list)
    scanned: dict[str, int] = field(default_factory=dict)
    repaired: bool = False

    @property
    def corrupt(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "corrupt"]

    @property
    def ok(self) -> bool:
        """Clean when nothing corrupt was found (warnings tolerated)."""
        return not self.corrupt

    def format(self) -> str:
        verb = "repair" if self.repaired else "audit"
        total = sum(self.scanned.values())
        lines = [
            f"doctor {verb}: {total} entries across "
            f"{len(self.scanned)} store(s), "
            f"{len(self.corrupt)} corrupt, "
            f"{len(self.findings) - len(self.corrupt)} warning(s)"
        ]
        for name in sorted(self.scanned):
            lines.append(f"  {name}: {self.scanned[name]} entries")
        for finding in self.findings:
            action = f" -> {finding.action}" if finding.action else ""
            lines.append(
                f"  [{finding.severity}] {finding.store} "
                f"{finding.entry_id}: {finding.problem}{action}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "doctor_report",
            "mode": "repair" if self.repaired else "audit",
            "ok": self.ok,
            "scanned": dict(self.scanned),
            "findings": [f.to_dict() for f in self.findings],
        }


@dataclass(frozen=True)
class EvictionPolicy:
    """Caps for one eviction pass; ``None`` disables that axis."""

    max_bytes: "int | None" = None
    max_entries: "int | None" = None
    ttl_s: "float | None" = None

    @property
    def bounded(self) -> bool:
        return any(
            cap is not None
            for cap in (self.max_bytes, self.max_entries, self.ttl_s)
        )


@dataclass
class EvictionReport:
    """What one eviction pass did (or would do, under ``dry_run``)."""

    store: str
    examined: int = 0
    evicted: list[str] = field(default_factory=list)
    freed_bytes: int = 0
    pinned_kept: int = 0
    satisfied: bool = True
    dry_run: bool = False
    #: non-empty when the store refused mutation (e.g. a journal with a
    #: live writer): nothing was evicted, and the caps were not applied.
    skipped: str = ""

    def format(self) -> str:
        if self.skipped:
            return (
                f"doctor evict [{self.store}]: SKIPPED ({self.skipped}); "
                f"{self.examined} entries untouched"
            )
        verb = "would evict" if self.dry_run else "evicted"
        line = (
            f"doctor evict [{self.store}]: {verb} "
            f"{len(self.evicted)}/{self.examined} entries "
            f"({self.freed_bytes} bytes), {self.pinned_kept} pinned kept"
        )
        if not self.satisfied:
            line += "  [caps NOT met: pinned entries exceed them]"
        return line

    def to_dict(self) -> dict[str, Any]:
        return {
            "store": self.store,
            "examined": self.examined,
            "evicted": sorted(self.evicted),
            "freed_bytes": self.freed_bytes,
            "pinned_kept": self.pinned_kept,
            "satisfied": self.satisfied,
            "dry_run": self.dry_run,
            "skipped": self.skipped,
        }


def audit_stores(stores: "Iterable[StoreAdapter]") -> AuditReport:
    """Read-only integrity scan across every adapter."""
    report = AuditReport()
    for store in stores:
        report.scanned[store.name] = len(store.entries())
        findings = store.audit()
        report.findings.extend(findings)
        obs.inc("doctor.audit.scanned", report.scanned[store.name])
        if findings:
            obs.inc("doctor.audit.findings", len(findings))
    return report


def repair_stores(stores: "Iterable[StoreAdapter]") -> AuditReport:
    """Audit + quarantine/compact corrupt findings, store by store."""
    report = AuditReport(repaired=True)
    for store in stores:
        report.scanned[store.name] = len(store.entries())
        findings = store.repair()
        report.findings.extend(findings)
        repaired = sum(1 for f in findings if f.action)
        if repaired:
            obs.inc("doctor.repaired", repaired)
    return report


def evict_store(
    store: StoreAdapter,
    policy: EvictionPolicy,
    pins: "frozenset[str] | set[str]" = frozenset(),
    now: "float | None" = None,
    dry_run: bool = False,
) -> EvictionReport:
    """Apply one eviction policy to one store, honouring pins.

    An entry is *pinned* when any of its pin keys is in ``pins`` or the
    store itself protects it (e.g. the latest version of a model).
    Pinned entries are never evicted — not for TTL, not for caps — so
    an entry backing an in-flight campaign or an unreplayed journal
    record survives even a ``max_entries=0`` sweep.
    """
    pins = frozenset(pins)
    entries = sorted(
        store.evictable(), key=lambda e: (e.mtime, e.entry_id)
    )
    report = EvictionReport(
        store=store.name, examined=len(entries), dry_run=dry_run
    )
    if not dry_run:
        reason = store.busy()
        if reason is not None:
            # The store vetoed mutation (a live daemon holds its
            # journal): skip it loudly rather than orphan live state.
            report.skipped = reason
            report.satisfied = not (
                policy.max_entries is not None
                and len(entries) > policy.max_entries
                or policy.max_bytes is not None
                and sum(e.size for e in entries) > policy.max_bytes
            )
            obs.inc("doctor.evict_skipped")
            return report
    now = time.time() if now is None else now

    def pinned(entry: StoreEntry) -> bool:
        return entry.pinned_by(pins) or store.protected(entry)

    victims: list[StoreEntry] = []
    survivors: list[StoreEntry] = []
    for entry in entries:
        expired = (
            policy.ttl_s is not None and now - entry.mtime > policy.ttl_s
        )
        if expired and not pinned(entry):
            victims.append(entry)
        else:
            survivors.append(entry)

    # LRU pass: oldest unpinned survivors go until both caps are met.
    def over_caps(items: "list[StoreEntry]") -> bool:
        if (
            policy.max_entries is not None
            and len(items) > policy.max_entries
        ):
            return True
        if (
            policy.max_bytes is not None
            and sum(e.size for e in items) > policy.max_bytes
        ):
            return True
        return False

    kept: list[StoreEntry] = []
    pool = list(survivors)
    while pool and over_caps(pool + []):
        candidate = None
        for entry in pool:  # mtime-ordered: first unpinned is the LRU
            if not pinned(entry):
                candidate = entry
                break
        if candidate is None:
            break  # only pinned entries remain above the caps
        pool.remove(candidate)
        victims.append(candidate)
    kept = pool
    report.satisfied = not over_caps(kept)
    report.pinned_kept = sum(1 for e in kept if pinned(e))

    for entry in victims:
        report.evicted.append(entry.entry_id)
        if dry_run:
            report.freed_bytes += entry.size
        else:
            report.freed_bytes += store.evict(entry)
    if not dry_run:
        store.commit()
        obs.inc("doctor.evicted", len(report.evicted))
        obs.inc("doctor.evicted_bytes", report.freed_bytes)
    return report


def gc_stores(
    stores: "Iterable[StoreAdapter]",
    quarantine_ttl_s: "float | None" = None,
) -> "dict[str, list[str]]":
    """Sweep temp files and stale quarantine corpses; returns removals."""
    removed: dict[str, list[str]] = {}
    for store in stores:
        paths = store.gc(quarantine_ttl_s=quarantine_ttl_s)
        removed[store.name] = [str(p) for p in paths]
        if paths:
            obs.inc("doctor.gc_removed", len(paths))
    return removed


# -- pins ---------------------------------------------------------------


@dataclass(frozen=True)
class ServePins:
    """Everything an in-flight serve state directory pins.

    ``cache_keys`` pin fleet-cache entries (the jobs a pending campaign
    will look up on resume), ``campaign_ids`` pin result documents and
    journal records.  Computed from the submit journal, which by the
    fsync-before-202 contract is a superset of the scheduler's
    in-memory queued/running set — so an out-of-process ``repro doctor
    evict`` sees every in-flight campaign and dedup follower a live
    daemon is holding.
    """

    cache_keys: frozenset[str] = frozenset()
    campaign_ids: frozenset[str] = frozenset()

    @property
    def all(self) -> frozenset[str]:
        return self.cache_keys | self.campaign_ids


def submission_cache_keys(
    kind: str, spec: "dict[str, Any]"
) -> "set[str]":
    """The fleet-cache keys one submission's execution will touch.

    The keys of :func:`repro.serve.protocol.submission_jobs`, the job
    list the scheduler itself runs, so a pin names precisely the
    entries a resumed campaign will ask the cache for.  An unknown kind
    raises :class:`~repro.errors.ConfigurationError`.
    """
    from repro.fleet.cache import job_cache_key
    from repro.serve.protocol import submission_jobs

    return {job_cache_key(job) for job in submission_jobs(kind, spec)}


def serve_pins(state_root: "str | Path") -> ServePins:
    """Pin set of one serve state directory (journal-derived).

    Replays the journal read-only: no lock is taken and nothing is
    created, so a daemon booting meanwhile still gets its writer lock.
    """
    from repro.errors import ReproError
    from repro.serve.state import replay_journal

    pending, _next_id = replay_journal(Path(state_root) / "journal.jsonl")
    cache_keys: set[str] = set()
    campaign_ids: set[str] = set()
    for item in pending:
        campaign_ids.add(item.campaign_id)
        if item.dedup_of:
            campaign_ids.add(item.dedup_of)
        try:
            cache_keys |= submission_cache_keys(
                item.submission.kind, item.submission.spec
            )
        except (ReproError, KeyError, TypeError, ValueError):
            # A malformed spec cannot name cache keys — its campaign id
            # still pins the journal record and result document.  Any
            # *other* exception is a pin-derivation regression and must
            # fail loudly: swallowing it would silently turn pins into
            # no-ops and let evict delete in-flight cache entries.
            continue
    return ServePins(
        cache_keys=frozenset(cache_keys),
        campaign_ids=frozenset(campaign_ids),
    )
