"""Store adapters: one audit/repair/evict interface over four stores.

The repo accumulates four long-lived on-disk stores:

* the fleet's content-addressed **result cache** (checksummed
  ``<key>.entry`` files under shard directories);
* the serve daemon's **results store** (``results/<id>.json`` result
  documents, digest-pinned by the submit journal's ``done`` records);
* the **model registry** (versioned, digest-checksummed artifacts);
* the JSONL **journals** — the serve submit journal and the shared
  event log that fleet checkpoints and cluster per-node traces ride on.
  Their adapter reads and compacts them through :mod:`repro.doctor.jsonl`,
  the same module their writers append through.

:class:`StoreAdapter` gives ``repro doctor`` one vocabulary over all of
them: :meth:`~StoreAdapter.entries` (what is on disk), :meth:`~
StoreAdapter.audit` (read-only integrity findings — auditing never
mutates the store), :meth:`~StoreAdapter.repair` (quarantine/compact
the corrupt findings, reusing each store's own machinery), :meth:`~
StoreAdapter.evict` + :meth:`~StoreAdapter.commit` (capped eviction),
and :meth:`~StoreAdapter.gc` (sweep temp files and stale quarantine
corpses).  The three stores whose entries are single files share
:class:`FileStore`.  The eviction *policy* — TTL, caps, LRU order,
pins — lives in :mod:`repro.doctor.engine`; adapters only know how to
enumerate and remove.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.doctor import safewrite
from repro.doctor.jsonl import (
    Line,
    compact,
    has_live_writer,
    read_lines,
    read_records,
)
from repro.errors import JournalBusyError, ModelIntegrityError
from repro.fleet.cache import (
    CacheEntryError,
    ResultCache,
    canonical_digest,
    read_entry,
)
from repro.fleet.events import EVENT_KINDS

__all__ = [
    "Finding",
    "StoreEntry",
    "StoreAdapter",
    "FileStore",
    "FleetCacheStore",
    "ServeResultsStore",
    "ModelRegistryStore",
    "JournalStore",
    "SUBMIT_JOURNAL_KINDS",
    "serve_state_stores",
    "verify_cache_entry",
    "verify_model_artifact",
]

#: Record kinds of the serve submit journal (its own schema, distinct
#: from the fleet/cluster event log's ``EVENT_KINDS``).
SUBMIT_JOURNAL_KINDS = ("submit", "done", "drain")


@dataclass(frozen=True)
class StoreEntry:
    """One evictable unit of a store (an entry, an artifact, a record)."""

    store: str
    entry_id: str
    paths: tuple[Path, ...]
    size: int
    mtime: float
    #: identifiers this entry is pinned under (checked against the
    #: engine's pin set); defaults to the entry id itself.
    pin_keys: tuple[str, ...] = ()

    def pinned_by(self, pins: "frozenset[str] | set[str]") -> bool:
        keys = self.pin_keys or (self.entry_id,)
        return any(key in pins for key in keys)


@dataclass
class Finding:
    """One integrity problem an audit surfaced."""

    store: str
    entry_id: str
    path: str
    problem: str
    #: ``corrupt`` findings fail an audit; ``warn`` findings (torn
    #: journal tails, results evicted out from under old ``done``
    #: records) are reported but expected operational residue.
    severity: str = "corrupt"
    #: filled by repair: what was done ("quarantined", "compacted").
    action: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "store": self.store,
            "entry": self.entry_id,
            "path": self.path,
            "problem": self.problem,
            "severity": self.severity,
            "action": self.action,
        }


class StoreAdapter:
    """Base interface ``repro doctor`` drives every store through."""

    name = "store"

    def entries(self) -> list[StoreEntry]:
        """Every live entry on disk (quarantine and temp files excluded)."""
        raise NotImplementedError

    def audit(self) -> list[Finding]:
        """Read-only integrity scan; never mutates the store."""
        raise NotImplementedError

    def repair(self) -> list[Finding]:
        """Audit, then quarantine/compact the corrupt findings."""
        raise NotImplementedError

    def evictable(self) -> list[StoreEntry]:
        """Entries the eviction policy may consider (default: all)."""
        return self.entries()

    def protected(self, entry: StoreEntry) -> bool:
        """Structural pins the store itself imposes (e.g. latest model)."""
        del entry
        return False

    def busy(self) -> "str | None":
        """Why the store cannot be mutated right now (``None`` = go).

        Eviction and repair check this before touching the store; a
        non-``None`` reason (e.g. a journal with a live writer) makes
        them skip the store loudly instead of mutating state a running
        daemon depends on.
        """
        return None

    def evict(self, entry: StoreEntry) -> int:
        """Remove one entry; returns bytes freed.  May defer to commit."""
        raise NotImplementedError

    def commit(self) -> None:
        """Flush deferred evictions (journal compaction); default no-op."""

    def gc(self, quarantine_ttl_s: "float | None" = None) -> list[Path]:
        """Remove temp-file debris and quarantine corpses past the TTL."""
        del quarantine_ttl_s
        return []


def _rm(path: Path) -> "int | None":
    """Best-effort unlink; returns the bytes freed, or ``None`` when the
    file could not be removed (an empty file frees 0 bytes)."""
    try:
        size = path.stat().st_size
        path.unlink()
    except OSError:
        return None
    return size


def _sweep_tmp(root: Path, pattern: str) -> list[Path]:
    removed = []
    for tmp in sorted(root.glob(pattern)):
        if _rm(tmp) is not None:
            removed.append(tmp)
    return removed


def _sweep_quarantine(
    qdir: Path, ttl_s: "float | None", now: float
) -> list[Path]:
    if not qdir.is_dir():
        return []
    removed = []
    for corpse in sorted(qdir.iterdir()):
        if not corpse.is_file():
            continue
        if ttl_s is not None:
            try:
                age = now - corpse.stat().st_mtime
            except OSError:
                continue
            if age < ttl_s:
                continue
        if _rm(corpse) is not None:
            removed.append(corpse)
    return removed


class FileStore(StoreAdapter):
    """A store whose entries are single files under ``root``.

    Subclasses supply the live files (:meth:`_paths`), an entry's id
    (:meth:`_entry_id`) and its integrity check (:meth:`_check`, or an
    :meth:`audit` of their own); this class lists, audits, evicts and
    garbage-collects them.  :meth:`gc` sweeps the ``tmp_glob`` temp
    files under ``root`` and the corpses under ``root/quarantine``.
    """

    tmp_glob = "*/*.tmp*"

    def __init__(self, root: "str | Path"):
        self.root = Path(root)

    def _paths(self) -> list[Path]:
        raise NotImplementedError

    def _entry_id(self, path: Path) -> str:
        return path.stem

    def _check(self, path: Path) -> "str | None":
        """The failed check's name, ``None`` for a sound entry."""
        raise NotImplementedError

    def entries(self) -> list[StoreEntry]:
        out = []
        for path in self._paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append(
                StoreEntry(
                    store=self.name,
                    entry_id=self._entry_id(path),
                    paths=(path,),
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                )
            )
        return out

    def audit(self) -> list[Finding]:
        findings = []
        for path in self._paths():
            problem = self._check(path)
            if problem is not None:
                findings.append(
                    Finding(self.name, self._entry_id(path), str(path), problem)
                )
        return findings

    def evict(self, entry: StoreEntry) -> int:
        return sum(_rm(p) or 0 for p in entry.paths)

    def gc(self, quarantine_ttl_s: "float | None" = None) -> list[Path]:
        return _sweep_tmp(self.root, self.tmp_glob) + _sweep_quarantine(
            self.root / "quarantine", quarantine_ttl_s, time.time()
        )


# -- fleet result cache -------------------------------------------------


def verify_cache_entry(path: Path) -> "str | None":
    """Integrity-check one cache entry without serving or mutating it.

    Runs :func:`repro.fleet.cache.read_entry`, the decoder behind
    :meth:`~repro.fleet.cache.ResultCache.get`, and returns the failed
    check's name (``None`` for a sound entry) instead of quarantining.
    """
    try:
        read_entry(path)
    except CacheEntryError as exc:
        return str(exc)
    return None


#: A file of the two-file entry layout older versions wrote:
#: ``<key>.json`` metadata or ``<key>.bin`` blob, in the key's shard.
_LEGACY_ENTRY = re.compile(r"[0-9a-f]{64}\.(json|bin)")


class FleetCacheStore(FileStore):
    """Adapter over one content-addressed result-cache directory.

    An entry is one ``<key>.entry`` file.  :meth:`gc` also removes the
    ``<key>.json``/``<key>.bin`` files of the older two-file layout,
    which no lookup reads.
    """

    name = "fleet-cache"

    def _paths(self) -> list[Path]:
        return ResultCache(self.root).paths()

    def _check(self, path: Path) -> "str | None":
        return verify_cache_entry(path)

    def repair(self) -> list[Finding]:
        """Quarantine corrupt entries via the cache's own machinery.

        A :meth:`ResultCache.get` on a damaged key runs the full
        checksum verification and moves the corpse under
        ``quarantine/`` — exactly the path a cache hit would take, so
        repair and serving can never disagree about what is corrupt.
        """
        findings = self.audit()
        cache = ResultCache(self.root)
        for finding in findings:
            cache.get(finding.entry_id)
            if not Path(finding.path).exists():
                finding.action = "quarantined"
        return findings

    def gc(self, quarantine_ttl_s: "float | None" = None) -> list[Path]:
        legacy = [
            path
            for path in sorted(self.root.glob("*/*"))
            if _LEGACY_ENTRY.fullmatch(path.name)
            and path.name[:2] == path.parent.name
        ]
        removed = [path for path in legacy if _rm(path) is not None]
        return super().gc(quarantine_ttl_s) + removed


# -- serve results store ------------------------------------------------


def _journal_done(journal_path: Path) -> dict[str, dict[str, Any]]:
    """``campaign id -> done record`` of the journal's digested ones."""
    return {
        str(record.get("id")): record
        for record in read_records(journal_path)
        if record.get("kind") == "done" and record.get("digest")
    }


class ServeResultsStore(FileStore):
    """Adapter over a serve state directory's ``results/`` documents.

    Result documents carry no embedded checksum; their digests live in
    the submit journal's ``done`` records (written only after the
    result is durably on disk).  The audit closes that loop: every
    result file is re-digested with the same canonical-JSON SHA-256 the
    scheduler recorded, so a flipped byte in a served result is caught
    exactly like a flipped byte in a cache blob.
    """

    name = "serve-results"
    tmp_glob = "results/*.tmp*"

    def __init__(self, state_root: "str | Path"):
        super().__init__(state_root)
        self.results_dir = self.root / "results"
        self.journal_path = self.root / "journal.jsonl"

    def _paths(self) -> list[Path]:
        return sorted(
            p
            for p in self.results_dir.glob("*.json")
            if ".tmp" not in p.name
        )

    def audit(self) -> list[Finding]:
        """Re-digest every result against the journal's ``done`` record."""
        findings = []
        done = _journal_done(self.journal_path)
        seen = set()
        for path in self._paths():
            campaign_id = path.stem
            seen.add(campaign_id)
            try:
                document = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                findings.append(
                    Finding(
                        self.name,
                        campaign_id,
                        str(path),
                        "unreadable_result",
                    )
                )
                continue
            record = done.get(campaign_id)
            if record is None:
                continue
            recorded = record.get("document_digest") or record["digest"]
            if canonical_digest(document) == recorded:
                continue
            # A fleet record journaled before ``document_digest`` existed
            # holds only the results digest its document embeds: such a
            # document cannot be verified, which does not make it corrupt.
            if (
                "document_digest" not in record
                and isinstance(document, dict)
                and document.get("kind") == "fleet-outcome"
                and document.get("digest") == record["digest"]
            ):
                problem, severity = "unverifiable_result", "warn"
            else:
                problem, severity = "digest_mismatch", "corrupt"
            findings.append(
                Finding(self.name, campaign_id, str(path), problem, severity)
            )
        for campaign_id in sorted(set(done) - seen):
            findings.append(
                Finding(
                    self.name,
                    campaign_id,
                    str(self.results_dir / f"{campaign_id}.json"),
                    "missing_result",
                    severity="warn",
                )
            )
        return findings

    def repair(self) -> list[Finding]:
        findings = self.audit()
        qdir = self.root / "quarantine"
        for finding in findings:
            victim = Path(finding.path)
            name = f"results-{victim.name}"
            if (
                finding.severity == "corrupt"
                and victim.exists()
                and safewrite.quarantine(qdir, name, victim)
            ):
                finding.action = "quarantined"
        return findings


# -- model registry -----------------------------------------------------


def verify_model_artifact(path: Path) -> "str | None":
    """Integrity-check one registry artifact without loading or moving it.

    Runs :func:`repro.model.registry.read_artifact`, the decoder behind
    :meth:`~repro.model.registry.ModelRegistry.get`, and returns the
    failed check's name (``None`` for a sound artifact) instead of
    quarantining.
    """
    from repro.model.registry import read_artifact

    try:
        read_artifact(path)
    except ModelIntegrityError as exc:
        return exc.problem
    return None


class ModelRegistryStore(FileStore):
    """Adapter over a model registry directory."""

    name = "model-registry"

    def _paths(self) -> list[Path]:
        from repro.model.registry import _VERSION_RE

        if not self.root.is_dir():
            return []
        out = []
        for directory in sorted(self.root.iterdir()):
            if not directory.is_dir() or directory.name == "quarantine":
                continue
            for path in sorted(directory.iterdir()):
                if _VERSION_RE.match(path.name):
                    out.append(path)
        return out

    def _entry_id(self, path: Path) -> str:
        return f"{path.parent.name}@{path.stem}"

    def _check(self, path: Path) -> "str | None":
        return verify_model_artifact(path)

    def entries(self) -> list[StoreEntry]:
        latest: dict[str, Path] = {}
        for path in self._paths():
            latest[path.parent.name] = path  # sorted: last wins
        self._latest = {self._entry_id(p) for p in latest.values()}
        return super().entries()

    def protected(self, entry: StoreEntry) -> bool:
        """The newest version of every model name is never evicted."""
        latest = getattr(self, "_latest", None)
        if latest is None:
            self.entries()
            latest = self._latest
        return entry.entry_id in latest

    def repair(self) -> list[Finding]:
        """Quarantine via the registry's own verification path."""
        from repro.model.registry import ModelRegistry

        findings = self.audit()
        if findings:
            ModelRegistry(self.root).verify_all()
        for finding in findings:
            if not Path(finding.path).exists():
                finding.action = "quarantined"
        return findings


# -- JSONL journals (serve submit journal, shared event log) -----------


class JournalStore(StoreAdapter):
    """Adapter over one JSONL journal (submit journal or event log).

    Entries are individual records (``entry_id`` is the 1-based line
    number).  Eviction is deferred: records are marked and the file is
    rewritten once, atomically, in :meth:`commit` — dropping a line in
    place would tear the very store the doctor is tending.  Records
    belonging to a campaign in the engine's pin set (pending serve
    work, unfinished fleet campaigns) expose that campaign as their pin
    key and therefore survive any cap.
    """

    name = "journal"

    def __init__(
        self,
        path: "str | Path",
        name: "str | None" = None,
        known_kinds: "tuple[str, ...] | None" = EVENT_KINDS,
    ):
        self.path = Path(path)
        if name:
            self.name = name
        self.known_kinds = known_kinds
        self._drop: set[int] = set()

    def _records(self) -> list[Line]:
        if not self.path.exists():
            return []
        return list(read_lines(self.path))

    def entries(self) -> list[StoreEntry]:
        file_mtime = 0.0
        try:
            file_mtime = self.path.stat().st_mtime
        except OSError:
            pass
        out = []
        for lineno, raw, record, _tail in self._records():
            if record is None:
                continue
            ts = record.get("ts")
            campaign = record.get("campaign") or record.get("id")
            out.append(
                StoreEntry(
                    store=self.name,
                    entry_id=str(lineno),
                    paths=(self.path,),
                    size=len(raw) + 1,
                    mtime=float(ts) if isinstance(ts, (int, float)) else (
                        file_mtime
                    ),
                    pin_keys=(
                        (str(lineno), str(campaign))
                        if campaign
                        else (str(lineno),)
                    ),
                )
            )
        return out

    def audit(self) -> list[Finding]:
        findings = []
        for lineno, _raw, record, tail in self._records():
            if record is None:
                findings.append(
                    Finding(
                        self.name,
                        str(lineno),
                        str(self.path),
                        "torn_tail" if tail else "corrupt_record",
                        severity="warn" if tail else "corrupt",
                    )
                )
            elif (
                self.known_kinds is not None
                and record.get("kind") not in self.known_kinds
            ):
                findings.append(
                    Finding(
                        self.name,
                        str(lineno),
                        str(self.path),
                        f"unknown_kind:{record.get('kind')!r}",
                        severity="warn",
                    )
                )
        return findings

    def busy(self) -> "str | None":
        """A journal with a live appender must never be rewritten.

        The serve daemon and every :class:`~repro.fleet.events.EventLog`
        hold an advisory writer lock on their journal; compacting the
        file behind that open handle would orphan the inode, and every
        subsequent fsynced append — submissions clients got 202s for —
        would silently vanish on restart.
        """
        if has_live_writer(self.path):
            return "live_writer"
        return None

    def repair(self) -> list[Finding]:
        """Compact the journal: keep every parseable record byte-for-byte,
        drop corrupt interior lines and the unparseable torn tail.

        Refused (findings returned un-actioned, plus a ``live_writer``
        warning) while a live daemon holds the journal's writer lock —
        see :meth:`busy`.
        """
        findings = self.audit()
        victims = {
            int(f.entry_id)
            for f in findings
            if f.problem in ("corrupt_record", "torn_tail")
        }
        if victims:
            self._drop |= victims
            try:
                self.commit()
            except JournalBusyError:
                self._drop -= victims
                findings.append(
                    Finding(
                        self.name,
                        "-",
                        str(self.path),
                        "live_writer",
                        severity="warn",
                        action="compaction refused",
                    )
                )
                return findings
            for finding in findings:
                if int(finding.entry_id) in victims:
                    finding.action = "compacted"
        return findings

    def evict(self, entry: StoreEntry) -> int:
        self._drop.add(int(entry.entry_id))
        return entry.size

    def commit(self) -> None:
        """Atomically rewrite the journal without the dropped records.

        See :func:`~repro.doctor.jsonl.compact`: surviving records are
        kept byte for byte, and :class:`~repro.errors.JournalBusyError`
        is raised instead of rewriting while a live writer holds the
        journal.
        """
        if self._drop:
            compact(self.path, self._drop)
        self._drop.clear()

    def gc(self, quarantine_ttl_s: "float | None" = None) -> list[Path]:
        del quarantine_ttl_s
        if not self.path.parent.is_dir():
            return []
        return _sweep_tmp(
            self.path.parent, f"{self.path.stem}.tmp*"
        )


def serve_state_stores(root: "str | Path") -> list[StoreAdapter]:
    """The four stores of one serve state directory: its fleet cache,
    result documents, submit journal and event journal."""
    root = Path(root)
    return [
        FleetCacheStore(root / "cache"),
        ServeResultsStore(root),
        JournalStore(
            root / "journal.jsonl",
            name="serve-journal",
            known_kinds=SUBMIT_JOURNAL_KINDS,
        ),
        JournalStore(root / "events.jsonl", name="serve-events"),
    ]
