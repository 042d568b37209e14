"""Deterministic fault injectors for the chaos harness.

Every injector is a pure function of its inputs plus a seeded RNG from
:func:`fault_rng`, so a chaos campaign is exactly reproducible: the same
seed damages the same samples, rows, and bytes every run.  Injectors
cover the three layers the harness drills:

* **meter traces** — sample dropout, glitch spikes, NaN watts, clock
  skew (array in, array out);
* **CSV logs** — truncation mid-row and corrupted rows (file in place);
* **result cache** — a flipped bit and a torn (truncated) entry write
  (cache directory in place).

None of these functions is imported by any production path; they exist
to *attack* the pipeline, and the hardening they exercise lives in
:mod:`repro.metering.analysis`, :mod:`repro.metering.csvlog`,
:mod:`repro.fleet.cache`, and :mod:`repro.fleet.runner`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "fault_rng",
    "inject_dropout",
    "inject_spikes",
    "inject_nan",
    "inject_clock_skew",
    "truncate_csv",
    "corrupt_csv_rows",
    "flip_cache_bit",
    "tear_cache_entry",
    "flip_journal_record",
]


def fault_rng(seed: int, scenario: str) -> np.random.Generator:
    """A random stream derived from ``(seed, scenario name)``.

    Mirrors the simulator's stream discipline: every scenario gets its
    own independent, reproducible stream, so adding or reordering
    scenarios never changes another scenario's damage pattern.
    """
    digest = hashlib.sha256(f"{seed}:{scenario}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _as_pair(times_s, watts) -> "tuple[np.ndarray, np.ndarray]":
    times_s = np.asarray(times_s, dtype=float).copy()
    watts = np.asarray(watts, dtype=float).copy()
    if times_s.shape != watts.shape:
        raise ConfigurationError(
            f"times and watts must align: {times_s.shape} vs {watts.shape}"
        )
    return times_s, watts


def inject_dropout(
    times_s,
    watts,
    rng: np.random.Generator,
    fraction: float = 0.1,
) -> "tuple[np.ndarray, np.ndarray]":
    """Delete a random ``fraction`` of samples (logger dropouts)."""
    times_s, watts = _as_pair(times_s, watts)
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError(f"fraction must be in [0, 1), got {fraction}")
    n_drop = int(times_s.size * fraction)
    if n_drop == 0:
        return times_s, watts
    victims = rng.choice(times_s.size, size=n_drop, replace=False)
    keep = np.ones(times_s.size, dtype=bool)
    keep[victims] = False
    return times_s[keep], watts[keep]


def inject_spikes(
    times_s,
    watts,
    rng: np.random.Generator,
    count: int = 5,
    magnitude: float = 20.0,
) -> "tuple[np.ndarray, np.ndarray]":
    """Multiply ``count`` random samples by ``magnitude`` (meter glitches)."""
    times_s, watts = _as_pair(times_s, watts)
    count = min(count, watts.size)
    if count:
        victims = rng.choice(watts.size, size=count, replace=False)
        watts[victims] = watts[victims] * magnitude + magnitude
    return times_s, watts


def inject_nan(
    times_s,
    watts,
    rng: np.random.Generator,
    count: int = 5,
) -> "tuple[np.ndarray, np.ndarray]":
    """Replace ``count`` random samples with NaN (corrupt log values)."""
    times_s, watts = _as_pair(times_s, watts)
    count = min(count, watts.size)
    if count:
        victims = rng.choice(watts.size, size=count, replace=False)
        watts[victims] = np.nan
    return times_s, watts


def inject_clock_skew(
    times_s,
    watts,
    offset_s: float = 0.3,
) -> "tuple[np.ndarray, np.ndarray]":
    """Shift every timestamp by ``offset_s`` (meter-PC clock offset)."""
    times_s, watts = _as_pair(times_s, watts)
    return times_s + offset_s, watts


def truncate_csv(path: "str | Path", keep_fraction: float = 0.6) -> Path:
    """Truncate a CSV file mid-row, as a crash during logging would.

    Keeps roughly ``keep_fraction`` of the bytes and deliberately cuts
    *inside* a line, so the last surviving row is malformed.
    """
    path = Path(path)
    if not 0.0 < keep_fraction < 1.0:
        raise ConfigurationError(
            f"keep_fraction must be in (0, 1), got {keep_fraction}"
        )
    raw = path.read_bytes()
    cut = max(int(len(raw) * keep_fraction), 1)
    # Back off to just past the previous newline + 1 byte, guaranteeing
    # a torn final row rather than a clean boundary.
    newline = raw.rfind(b"\n", 0, cut)
    if newline > 0:
        cut = newline + 2
    path.write_bytes(raw[:cut])
    return path


def corrupt_csv_rows(
    path: "str | Path",
    rng: np.random.Generator,
    count: int = 5,
) -> "tuple[Path, list[int]]":
    """Garble ``count`` random data rows of a CSV in place.

    Rows become non-numeric junk (``@@corrupt@@``), the kind of damage a
    flaky disk or an interrupted append leaves.  Returns the path and
    the 1-based line numbers that were damaged (header excluded).
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    data_rows = list(range(1, len(lines)))  # 0 is the header
    if not data_rows:
        return path, []
    count = min(count, len(data_rows))
    victims = sorted(
        int(i) for i in rng.choice(data_rows, size=count, replace=False)
    )
    for i in victims:
        lines[i] = "@@corrupt@@,not-a-number"
    path.write_text("\n".join(lines) + "\n")
    return path, [i + 1 for i in victims]


def _cache_entry(
    cache_root: "str | Path", rng: np.random.Generator
) -> Path:
    """One live entry file of a result cache, picked by ``rng``."""
    from repro.fleet.cache import ResultCache

    entries = ResultCache(cache_root).paths()
    if not entries:
        raise ConfigurationError(f"no cache entries under {cache_root}")
    return entries[int(rng.integers(len(entries)))]


def flip_cache_bit(
    cache_root: "str | Path", rng: np.random.Generator
) -> Path:
    """Flip one bit in one cache entry (silent media corruption).

    The bit lands in the metadata line or in the blob; both carry a
    checksum, so either is caught.
    """
    victim = _cache_entry(cache_root, rng)
    raw = bytearray(victim.read_bytes())
    if not raw:
        raise ConfigurationError(f"cache entry {victim} is empty")
    offset = int(rng.integers(len(raw)))
    raw[offset] ^= 1 << int(rng.integers(8))
    victim.write_bytes(bytes(raw))
    return victim


def flip_journal_record(
    path: "str | Path",
    rng: np.random.Generator,
    kind: "str | None" = None,
) -> "tuple[Path, int]":
    """Corrupt one record of a JSONL journal in place (media bitflip).

    Picks a random line — optionally restricted to records of one
    ``kind`` — and flips the low bit of its opening brace, so the line
    is no longer parseable JSON but stays one line (the damage a flaky
    sector leaves, not a torn write).  Returns the path and the 0-based
    line number damaged.
    """
    from repro.doctor.jsonl import read_lines

    path = Path(path)
    candidates = [
        line.lineno - 1
        for line in read_lines(path)
        if kind is None or (line.record or {}).get("kind") == kind
    ]
    if not candidates:
        raise ConfigurationError(
            f"no record of kind {kind!r} to damage in {path}"
        )
    lineno = candidates[int(rng.integers(len(candidates)))]
    lines = path.read_bytes().split(b"\n")
    raw = bytearray(lines[lineno])
    brace = raw.index(b"{")
    raw[brace] ^= 1
    lines[lineno] = bytes(raw)
    path.write_bytes(b"\n".join(lines))
    return path, lineno


def tear_cache_entry(
    cache_root: "str | Path", rng: np.random.Generator
) -> Path:
    """Truncate one cache entry to half (a torn, pre-fsync write)."""
    victim = _cache_entry(cache_root, rng)
    raw = victim.read_bytes()
    victim.write_bytes(raw[: len(raw) // 2])
    return victim
