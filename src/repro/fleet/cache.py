"""Content-addressed on-disk cache of fleet run results.

The simulator guarantees that a run is fully determined by ``(server,
workload configuration, seed, placement)`` — random streams derive from
``(seed, program label)`` and never from execution order (see
:mod:`repro.engine.simulator`).  That makes results content-addressable:
the cache key is the SHA-256 of the canonical JSON of exactly those
inputs plus a code-version salt, and a hit can be substituted for a run
bit-for-bit.

Each entry is one file, ``<root>/<key[:2]>/<key>.entry``.  Its first
line is the metadata: one canonical-JSON document holding the salt,
wall time, demand, array offsets, the blob's length and SHA-256, and
``meta_sha256``, the SHA-256 of the document itself.  After the newline
comes the blob: every sample array as raw little-endian float64, the
four traces, then the eight columns of ``RunResult.pmu``.  Power traces
can run to hundreds of thousands of 1 Hz samples (a full-memory HPL
run), and serving raw float64 as views of the bytes read is an order of
magnitude faster than parsing digits out of JSON.  A warm campaign is
still only about 2x faster than re-simulating it: every hit verifies its
entry's SHA-256, and for the 30-job Tables IV-VI matrix reading and
hashing its 12.6 MB of entries takes 13-17 ms of a 18-26 ms warm run
(2-CPU container), against 33-54 ms to recompute it.

Durability contract: an entry is written via one temp file + ``fsync``
+ ``os.replace``, so it is either absent or complete.  Every read goes
through :func:`read_entry`, the one decoder, which checks the metadata
against its own checksum, the blob against the recorded length and
checksum, and every array against the blob before a single float is
trusted.  An entry that fails — a bit flip, a torn write from a
pre-fsync crash, a foreign file — is *quarantined* by
:meth:`ResultCache.get` (moved under ``<root>/quarantine/``) rather than
served, so corruption costs one recomputation, never a wrong number.
``repro doctor audit`` runs the same decoder and only reports the
problem.  The chaos harness (``python -m repro chaos``) injects exactly
these damages to prove it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from operator import index
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.demand import ResourceDemand
from repro.doctor import safewrite
from repro.errors import ReproError, SimulationError, StorageDegradedError
from repro.engine.trace import PMU_COLUMNS, RunResult
from repro.fleet.spec import FleetJob
from repro.hardware.specs import ServerSpec

__all__ = [
    "CACHE_SALT",
    "CacheEntryError",
    "canonical_digest",
    "canonical_json",
    "job_cache_key",
    "read_entry",
    "ResultCache",
]

#: Versions results and keys: bump when a simulator or codec change
#: invalidates previously cached results.  v3: checksummed blobs
#: (``blob_sha256``/``blob_len`` are mandatory).  v4: checksummed
#: metadata (``meta_sha256``), so an entry whose metadata cannot be
#: verified is never served.  The file layout is versioned by
#: :data:`_SUFFIX` instead: the two-file ``.json``/``.bin`` entries of
#: older versions are never looked up.
CACHE_SALT = "repro-fleet-cache-v4"

_ENTRY_KIND = "fleet_cache_entry"

#: Suffix of an entry file: metadata line, newline, blob.
_SUFFIX = ".entry"


def _normalise(value: Any) -> Any:
    """Collapse representation differences between equal values.

    Python compares ``400 == 400.0`` but JSON spells them differently,
    so an integral float is folded to int; dict/list contents are
    normalised recursively.  Bools are left alone (``True`` is an int
    subclass but must stay ``true``).
    """
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalise(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


#: The encoder behind :func:`canonical_json`, built once: ``json.dumps``
#: with these arguments builds an equal one on every call.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_json(document: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, normalised numbers.

    Two structurally equal documents serialise identically regardless of
    the order their dicts were built in or whether a number arrived as
    ``400`` or ``400.0`` — the property the cache-key contract depends
    on.
    """
    return _CANONICAL.encode(_normalise(document))


def canonical_digest(document: Any) -> str:
    """SHA-256 (hex) of :func:`canonical_json` — the one content digest
    behind cache keys, results and document digests, and dedup keys."""
    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


@lru_cache(maxsize=32)
def _server_json(server: ServerSpec) -> str:
    """:func:`canonical_json` of a server's document, encoded once per
    server: a campaign runs many jobs on few servers, and both the cache
    key and the worker payload embed it."""
    from repro import io as repro_io

    return canonical_json(repro_io.server_to_dict(server))


_SALT_JSON = canonical_json(CACHE_SALT)


def job_cache_key(job: FleetJob) -> str:
    """SHA-256 cache key of one fleet job.

    The :func:`canonical_digest` of ``{salt, server, workload, seed,
    placement}``, written out in sorted key order so the server's part
    comes from :func:`_server_json`.
    """
    document = (
        f'{{"placement":{canonical_json(job.placement)},'
        f'"salt":{_SALT_JSON},'
        f'"seed":{canonical_json(job.seed)},'
        f'"server":{_server_json(job.server)},'
        f'"workload":{canonical_json(job.workload)}}}'
    )
    return hashlib.sha256(document.encode()).hexdigest()


#: Array layout of one result: the four trace arrays, then one column
#: per :data:`~repro.engine.trace.PMU_COLUMNS` field.
_TRACE_ARRAYS = ("times_s", "true_watts", "measured_watts", "memory_mb")


def _result_arrays(result: RunResult) -> "dict[str, np.ndarray]":
    """Every sample array of a result as little-endian float64."""
    arrays = {
        name: np.ascontiguousarray(getattr(result, name), dtype="<f8")
        for name in _TRACE_ARRAYS
    }
    pmu = np.asarray(result.pmu, dtype="<f8")
    for j, name in enumerate(PMU_COLUMNS):
        arrays[f"pmu.{name}"] = pmu[:, j]
    return arrays


#: A ``"<f8"`` view of the blob is a native float64 array only on a
#: little-endian host; elsewhere every trace is converted by a copy.
_LITTLE_ENDIAN = sys.byteorder == "little"


def _result_from_blob(
    meta: dict[str, Any],
    blob: np.ndarray,
    layout: "dict[str, tuple[int, int]]",
) -> RunResult:
    """Rebuild a result from its metadata and its verified blob.

    ``layout`` maps every array name to its bounds-checked ``(offset,
    count)`` in ``blob``.  A trace is a view of the blob when it is
    aligned and starts past the previous view, so views never overlap;
    any other trace is copied.  The PMU columns, back to back in
    :data:`PMU_COLUMNS` order as :meth:`ResultCache.put` writes them,
    become the C-ordered (windows, 8) array with one transposing copy;
    any other layout is stacked column by column into the same array.
    """
    traces, end = {}, 0
    for name in _TRACE_ARRAYS:
        offset, count = layout[name]
        values = np.frombuffer(blob, "<f8", count, offset)
        if _LITTLE_ENDIAN and values.flags.aligned and offset >= end:
            end = offset + values.nbytes
        else:
            values = values.astype(float)
        traces[name] = values
    columns = [layout[f"pmu.{name}"] for name in PMU_COLUMNS]
    start, windows = columns[0]
    width = len(columns)
    if columns == [(start + 8 * windows * j, windows) for j in range(width)]:
        block = np.frombuffer(blob, "<f8", width * windows, start)
        pmu = block.reshape(width, windows).T.copy()
    else:
        pmu = np.column_stack(
            [np.frombuffer(blob, "<f8", n, offset) for offset, n in columns]
        )
    return RunResult(
        demand=ResourceDemand(**meta["demand"]),
        t_start_s=float(meta["t_start_s"]),
        pmu=pmu,
        power_factor=float(meta["power_factor"]),
        **traces,
    )


def _result_meta(result: RunResult) -> dict[str, Any]:
    return {
        "demand": asdict(result.demand),
        "t_start_s": result.t_start_s,
        "power_factor": result.power_factor,
    }


def _entry_bytes(document: dict[str, Any]) -> bytes:
    """The canonical bytes of an entry document (sorted keys, fixed
    separators): every writer of one result writes the same file."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")).encode()


def _meta_sha256(document: dict[str, Any]) -> str:
    """SHA-256 of an entry document's bytes without ``meta_sha256``."""
    body = {k: v for k, v in document.items() if k != "meta_sha256"}
    return hashlib.sha256(_entry_bytes(body)).hexdigest()


def _signed(line: bytes, document: dict[str, Any]) -> bool:
    """Whether an entry's metadata line matches its ``meta_sha256``.

    :meth:`ResultCache.put` writes canonical bytes, so the line with its
    ``,"meta_sha256":"<hex>"`` member cut out is exactly what it hashed.
    A line that fails that check (another writer's spacing or key order)
    falls back to re-encoding the parsed document, the check
    :func:`_meta_sha256` defines.
    """
    digest = document.get("meta_sha256")
    if isinstance(digest, str) and digest.isascii():
        member = b',"meta_sha256":"' + digest.encode() + b'"'
        at = line.find(member)
        if at >= 0:
            sha256 = hashlib.sha256(line[:at])
            sha256.update(line[at + len(member) :])
            if sha256.hexdigest() == digest:
                return True
    return digest == _meta_sha256(document)


class CacheEntryError(ReproError):
    """A cache entry failed :func:`read_entry`; the message names the
    failed check."""


@dataclass
class CacheStats:
    """Counters for one cache handle's lifetime."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    quarantined: int = 0
    #: writes skipped because the disk degraded (ENOSPC/EIO) — the
    #: cache is an optimization, so a full disk costs recomputation on
    #: the next lookup, never a crash or a torn entry.
    degraded: int = 0


@dataclass
class CacheHit:
    """A cache lookup that found a usable entry."""

    result: RunResult
    wall_s: float  # original execution wall time, for speedup accounting


def read_entry(path: Path) -> CacheHit:
    """Read, verify and decode the entry file at ``path``.

    The one decoder behind :meth:`ResultCache.get` (which quarantines
    what it rejects) and ``repro doctor audit`` (which only reports it);
    it changes no file.  Raises :class:`CacheEntryError` naming the
    first check the entry fails, e.g. ``metadata_checksum_mismatch``.
    The blob is read once into a fresh buffer, hashed there, and a hit's
    traces are views of it (:func:`_result_from_blob`), so the hit keeps
    that buffer alive.
    """
    try:
        with open(path, "rb") as file:
            line = file.readline()
            size = os.fstat(file.fileno()).st_size - len(line)
            # One fresh buffer, so the arrays served from it are
            # writeable and those at a multiple of 8 bytes are aligned.
            blob = np.empty(max(size, 0), dtype=np.uint8)
            blob = blob[: file.readinto(blob)]
    except FileNotFoundError:
        raise CacheEntryError("missing_metadata") from None
    except OSError:
        raise CacheEntryError("unreadable_metadata") from None
    if line.endswith(b"\n"):
        line = line[:-1]
    try:
        data = json.loads(line)
    except ValueError:
        raise CacheEntryError("unreadable_metadata") from None
    if not isinstance(data, dict):
        raise CacheEntryError("malformed_metadata")
    if data.get("kind") != _ENTRY_KIND:
        raise CacheEntryError("wrong_kind")
    if data.get("salt") != CACHE_SALT:
        raise CacheEntryError("stale_salt")
    if not _signed(line, data):
        raise CacheEntryError("metadata_checksum_mismatch")
    try:
        if blob.size != data["blob_len"]:
            raise CacheEntryError("blob_length_mismatch")
        if hashlib.sha256(blob).hexdigest() != data["blob_sha256"]:
            raise CacheEntryError("blob_checksum_mismatch")
        layout: dict[str, tuple[int, int]] = {}
        for name, (offset, count) in data["result"]["arrays"].items():
            if offset < 0 or count < 0 or offset + count * 8 > blob.size:
                raise CacheEntryError(f"array_out_of_bounds:{name}")
            # Integers, as np.frombuffer needs: a fractional offset is
            # malformed before a later array's bounds are checked.
            layout[name] = (index(offset), index(count))
        return CacheHit(
            result=_result_from_blob(data["result"], blob, layout),
            wall_s=float(data.get("wall_s", 0.0)),
        )
    except (AttributeError, KeyError, TypeError, ValueError, SimulationError):
        raise CacheEntryError("malformed_metadata") from None


@dataclass
class ResultCache:
    """Content-addressed store of run results under one directory."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def paths(self) -> list[Path]:
        """The live entry files, sorted (quarantine excluded)."""
        return sorted(
            p
            for p in self.root.glob(f"*/*{_SUFFIX}")
            if p.parent.name != "quarantine"
        )

    def get(self, key: str) -> "CacheHit | None":
        """Look up a key; unverifiable entries are quarantined misses.

        Every hit passes :func:`read_entry`.  An entry that fails any of
        its checks moves to the quarantine directory and the lookup
        returns a miss, so the caller recomputes instead of consuming
        corruption; only a missing entry is a plain miss.
        """
        path = self._path(key)
        try:
            hit = read_entry(path)
        except CacheEntryError as exc:
            if str(exc) == "missing_metadata":
                self._miss()
            else:
                self._corrupt(path)
            return None
        self.stats.hits += 1
        obs.inc("fleet.cache.hit")
        # Touch the entry so eviction's LRU order reflects *use*,
        # not just write time (``repro doctor evict``).  Best-effort:
        # a read-only mount must not turn a hit into an error.
        try:
            os.utime(path)
        except OSError:
            pass
        return hit

    def _miss(self) -> None:
        self.stats.misses += 1
        obs.inc("fleet.cache.miss")

    def _corrupt(self, path: "Path | None" = None) -> None:
        self.stats.corrupt += 1
        obs.inc("fleet.cache.corrupt")
        if path is not None:
            self._quarantine(path)
        self._miss()

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry file out of the lookup path.

        Corpses land under ``<root>/quarantine/`` as
        ``<key>.q<seq>-<pid>.entry`` (:func:`repro.doctor.safewrite.
        quarantine`), so a same-key re-quarantine never overwrites an
        earlier corpse.  Failure to move (e.g. a permissions race) falls
        back to leaving the entry in place — it will simply keep
        counting as corrupt, never as a hit.
        """
        if safewrite.quarantine(self.root / "quarantine", path.stem, path):
            self.stats.quarantined += 1
            obs.inc("fleet.cache.quarantined")

    def put(
        self, key: str, result: RunResult, wall_s: float
    ) -> "Path | None":
        """Store a result atomically and return its entry path.

        The entry goes through one temp file + ``fsync`` +
        ``os.replace``: a kill at *any* instant leaves either the
        previous complete entry, no entry, or the new complete entry —
        never a half-written one.  The metadata records the blob's
        length and SHA-256, which :meth:`get` re-verifies, so even a
        torn write that slips past the rename discipline (e.g. a dying
        disk) is caught rather than served.

        A capacity/media failure (ENOSPC, EIO) *degrades*: the write is
        dropped (counted in ``stats.degraded``), the temp file removed,
        and ``None`` is returned — the cache is an optimization, and a
        full disk must cost a recomputation, not a crashed worker.
        """
        try:
            return self._put(key, result, wall_s)
        except StorageDegradedError:
            self.stats.degraded += 1
            obs.inc("fleet.cache.degraded")
            return None
        except OSError as exc:
            if not safewrite.is_degrading(exc):
                raise
            self.stats.degraded += 1
            obs.inc("fleet.cache.degraded")
            return None

    def _put(self, key: str, result: RunResult, wall_s: float) -> Path:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = _result_meta(result)
        offsets: dict[str, tuple[int, int]] = {}
        chunks = []
        blob_sha256 = hashlib.sha256()
        offset = 0
        for name, values in _result_arrays(result).items():
            raw = values.tobytes()
            offsets[name] = (offset, len(values))
            chunks.append(raw)
            blob_sha256.update(raw)
            offset += len(raw)
        meta["arrays"] = offsets
        document = {
            "kind": _ENTRY_KIND,
            "salt": CACHE_SALT,
            "key": key,
            "wall_s": wall_s,
            "blob_len": offset,
            "blob_sha256": blob_sha256.hexdigest(),
            "result": meta,
        }
        document["meta_sha256"] = _meta_sha256(document)
        safewrite.write_atomic(
            path.with_suffix(".tmp"),
            path,
            b"".join([_entry_bytes(document), b"\n", *chunks]),
        )
        self.stats.writes += 1
        obs.inc("fleet.cache.write")
        return path

    def __len__(self) -> int:
        """Number of live entries on disk (quarantine excluded)."""
        return len(self.paths())
