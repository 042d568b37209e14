"""WTViewer-style CSV logging.

The paper's procedure (Section V-C2) shares a directory from the metering
PC, copies the WTViewer CSV files to the server after the run, and merges
them into one file before extracting per-program windows.  These helpers
reproduce that file format and the merge step.

Format: a header line, then ``timestamp_s,watts`` rows.  Timestamps are
seconds relative to the campaign epoch (the paper synchronises server and
PC clocks first; :mod:`repro.engine.experiment` models the residual
offset).  Every row this module writes is *canonical*:
``[0-9]+\\.[0-9]{3},[0-9]+\\.[0-9]{2}\\r\\n``, the bytes
``f"{t:.3f},{w:.2f}\\r\\n"`` gives.

The three row loops run on numpy arrays, one chunk of at most
:data:`DEFAULT_CHUNK_SIZE` rows at a time, and give the bytes and values
the per-row code gives:

* the writer rounds a chunk to integers (``10**3 * t``, ``10**2 * w``)
  and lays the digits out in one byte matrix; a value whose scaled
  product lands exactly on a half takes its integer from
  :func:`format`, and a chunk holding a negative, ``-0.0``, non-finite
  or huge value is formatted per row;
* the reader parses a chunk of canonical rows as integers divided by
  ``10**3`` / ``10**2`` (the correctly rounded quotient is
  ``float(text)``); any other chunk, and every row after it, goes
  through the per-row ``csv.reader`` + ``float()`` parser, which alone
  defines what a reader accepts: the strict reader fails on the first
  malformed row, the tolerant one records its line and goes on;
* the merge cuts every file's current chunk at the smallest last
  timestamp among them and stable-sorts the pieces in argument order.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import MeterError

__all__ = [
    "write_power_csv",
    "read_power_csv",
    "read_power_csv_tolerant",
    "iter_power_csv",
    "merge_power_csvs",
    "keep_first",
    "CsvReadReport",
    "PowerCsvWriter",
    "HEADER",
    "DEFAULT_CHUNK_SIZE",
]

HEADER: tuple[str, str] = ("time_s", "power_w")

#: Format specs every row goes through: the logged values are these
#: roundings, and the analysis reads them back from the file.
TIME_FORMAT = ".3f"
POWER_FORMAT = ".2f"

#: Rows per chunk :func:`iter_power_csv` yields, and per piece the
#: writer formats.
DEFAULT_CHUNK_SIZE = 4096

_HEADER_LINE = (",".join(HEADER) + "\r\n").encode()
#: Decimals of the time and power columns (TIME_FORMAT, POWER_FORMAT).
_TIME_DIGITS, _POWER_DIGITS = 3, 2
#: The array paths keep every scaled value below 2**53, where integers
#: are exact in a float64 and in an int64: the writer checks the bound,
#: the reader takes at most 15 digits.
_EXACT = 2.0**53
_MAX_DIGITS = 15
_POWERS = 10 ** np.arange(1, 19, dtype=np.int64)


def _row(t: float, w: float) -> str:
    """One CSV row, the per-row definition of the format."""
    return f"{t:{TIME_FORMAT}},{w:{POWER_FORMAT}}\r\n"


def _fixed_point(x: np.ndarray, digits: int) -> "np.ndarray | None":
    """``x * 10**digits`` rounded the way ``format(x, f".{digits}f")`` does.

    ``None`` when a value is negative, ``-0.0``, non-finite or scales to
    2**53 or more: the caller formats that chunk per row.
    """
    y = x * float(10**digits)
    if not np.all(y < _EXACT) or np.signbit(x).any():
        return None
    q = np.rint(y).astype(np.int64)
    # Rounding to nearest is monotonic and every k + 0.5 below 2**52 is a
    # float, so the rounded product y never crosses a half: rint(y) is
    # the exact product rounded, unless y sits on a half, where the
    # exact product may lie either side of it; format decides those.
    # (From 2**52 on, y is an integer the product already rounded to,
    # half to even, as format rounds.)
    for i in np.flatnonzero(y - np.floor(y) == 0.5):
        q[i] = int(format(x[i], f".{digits}f").replace(".", ""))
    return q


def _int_digits(q: np.ndarray, digits: int) -> np.ndarray:
    """Digits before the point of each ``q / 10**digits`` (at least 1)."""
    return np.searchsorted(_POWERS, q // 10**digits, side="right") + 1


def _put_fixed(field: np.ndarray, q: np.ndarray, digits: int) -> None:
    """Write ``q / 10**digits`` right-aligned into the byte columns of
    ``field``, zero-padded on the left."""
    point = field.shape[1] - 1 - digits
    field[:, point] = ord(".")
    for col in range(field.shape[1] - 1, -1, -1):
        if col != point:
            rest = q // 10
            field[:, col] = q - rest * 10 + ord("0")
            q = rest


def _format_rows(times: np.ndarray, watts: np.ndarray) -> bytes:
    """The bytes ``_row`` gives for every row of one chunk."""
    q_t = _fixed_point(times, _TIME_DIGITS)
    q_w = _fixed_point(watts, _POWER_DIGITS)
    if q_t is None or q_w is None:
        return "".join(map(_row, times.tolist(), watts.tolist())).encode()
    n_t = _int_digits(q_t, _TIME_DIGITS)
    n_w = _int_digits(q_w, _POWER_DIGITS)
    w_at = int(n_t.max()) + 1 + _TIME_DIGITS + 1  # the power field's column
    w_width = int(n_w.max()) + 1 + _POWER_DIGITS
    rows = np.empty((times.size, w_at + w_width + 2), np.uint8)
    _put_fixed(rows[:, : w_at - 1], q_t, _TIME_DIGITS)
    rows[:, w_at - 1] = ord(",")
    _put_fixed(rows[:, w_at:-2], q_w, _POWER_DIGITS)
    rows[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    # Drop each row's leading zero columns.
    t_drop = int(n_t.max()) - n_t
    w_drop = int(n_w.max()) - n_w
    if not (t_drop.any() or w_drop.any()):
        return rows.tobytes()
    cols = np.arange(rows.shape[1])
    keep = (cols >= t_drop[:, None]) & (
        (cols < w_at) | (cols >= (w_at + w_drop)[:, None])
    )
    return rows[keep].tobytes()


class PowerCsvWriter:
    """Incremental WTViewer-style CSV writer (context manager).

    Writes the header on open and rows on :meth:`write` (one row) or
    :meth:`write_many` (a chunk, formatted as arrays), producing
    byte-identical files to :func:`write_power_csv` without ever holding
    the trace — the streaming merge and campaign paths append one
    chunk at a time.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self._fh = self.path.open("wb")
        self._fh.write(_HEADER_LINE)

    def write(self, t: float, w: float) -> None:
        """Append one row."""
        self._fh.write(_row(t, w).encode())

    def write_many(self, times_s: np.ndarray, watts: np.ndarray) -> None:
        """Append a chunk of rows, formatted in pieces of
        :data:`DEFAULT_CHUNK_SIZE` rows."""
        times_s, watts = _aligned(times_s, watts)
        for i in range(0, times_s.size, DEFAULT_CHUNK_SIZE):
            piece = slice(i, i + DEFAULT_CHUNK_SIZE)
            self._fh.write(_format_rows(times_s[piece], watts[piece]))

    def close(self) -> Path:
        """Flush and close; returns the path."""
        if not self._fh.closed:
            self._fh.close()
        return self.path

    def __enter__(self) -> "PowerCsvWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _aligned(
    times_s: np.ndarray, watts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Both columns as float arrays; :class:`MeterError` unless they are
    1-D and of one length."""
    times_s = np.asarray(times_s, dtype=float)
    watts = np.asarray(watts, dtype=float)
    if times_s.shape != watts.shape or times_s.ndim != 1:
        raise MeterError(
            f"times and watts must align: {times_s.shape} vs {watts.shape}"
        )
    return times_s, watts


def write_power_csv(
    path: "str | Path", times_s: np.ndarray, watts: np.ndarray
) -> Path:
    """Write one WTViewer-style CSV; returns the path."""
    times_s, watts = _aligned(times_s, watts)  # before the file is opened
    with PowerCsvWriter(path) as writer:
        writer.write_many(times_s, watts)
    return writer.path


def read_power_csv(path: "str | Path") -> tuple[np.ndarray, np.ndarray]:
    """Read one CSV; returns (times_s, watts) arrays.

    The concatenation of the :func:`iter_power_csv` chunks; a
    header-only file gives two empty arrays.
    """
    return _concatenated(iter_power_csv(path))


def _concatenated(
    chunks: "Iterator[tuple[np.ndarray, np.ndarray]]",
) -> tuple[np.ndarray, np.ndarray]:
    chunks = list(chunks)
    if not chunks:
        return np.empty(0), np.empty(0)
    times, watts = zip(*chunks)
    return np.concatenate(times), np.concatenate(watts)


@dataclass(frozen=True)
class CsvReadReport:
    """What the tolerant reader skipped in one file."""

    n_rows: int
    n_bad: int
    bad_lines: tuple[int, ...]

    @property
    def ok(self) -> bool:
        """Whether every row parsed cleanly."""
        return self.n_bad == 0


def read_power_csv_tolerant(
    path: "str | Path",
) -> tuple[np.ndarray, np.ndarray, CsvReadReport]:
    """Read a possibly damaged CSV, salvaging every parseable row.

    Truncated files (a logger killed mid-write) and corrupt rows (disk
    or transfer damage) are the two failure modes the paper's shared-
    directory copy step can produce.  Unlike :func:`read_power_csv`,
    which fails fast, this reader skips malformed rows and reports their
    line numbers so the repair stage (:func:`repro.metering.analysis.
    repair_trace`) can treat them as dropouts.  A missing or wrong
    header still raises — that is a different file, not a damaged one.
    It shares the strict reader's parser: canonical chunks as arrays,
    then the per-row loop, which decodes with ``errors="replace"``.
    """
    bad: list[int] = []
    times, watts = _concatenated(
        _iter_chunks(Path(path), DEFAULT_CHUNK_SIZE, bad)
    )
    report = CsvReadReport(
        n_rows=times.size + len(bad), n_bad=len(bad), bad_lines=tuple(bad)
    )
    return times, watts, report


def iter_power_csv(
    path: "str | Path", chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Read one CSV in bounded chunks of ``(times_s, watts)`` arrays.

    The strict reader: a wrong header, a row without exactly two
    columns or an unparseable value raises :class:`MeterError` naming
    the file and line.  Peak memory is O(``chunk_size``);
    :func:`read_power_csv` concatenates the chunks.

    Chunks of canonical rows (what :class:`PowerCsvWriter` writes) are
    parsed as arrays.  From the first chunk holding any other line on,
    the per-row parser takes over, so values, errors and line numbers
    are always that parser's.  (A non-UTF-8 byte is reported by it too,
    with the same text, but canonical chunks before it may already have
    been yielded.)
    """
    if chunk_size < 1:
        raise MeterError(f"chunk_size must be >= 1, got {chunk_size}")
    yield from _iter_chunks(Path(path), chunk_size)


def _iter_chunks(
    path: Path, chunk_size: int, bad: "list[int] | None" = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Canonical chunks as arrays, then :func:`_iter_rows` from the first
    other chunk to the end of the file (csv quoting can join lines, so a
    later chunk cannot be re-entered).  Strict unless ``bad`` is given."""
    parsed = 0
    with path.open("rb") as fh:
        if fh.readline() == _HEADER_LINE:
            while lines := list(itertools.islice(fh, chunk_size)):
                chunk = _parse_canonical(b"".join(lines), len(lines))
                if chunk is None:
                    break
                yield chunk
                parsed += len(lines)
            else:
                return  # end of file, every row canonical
    yield from _iter_rows(path, chunk_size, parsed, bad)


def _parse_canonical(
    blob: bytes, n: int
) -> "tuple[np.ndarray, np.ndarray] | None":
    """``(times, watts)`` of ``n`` whole lines, or ``None`` unless every
    line is canonical with at most ``_MAX_DIGITS`` digits per value."""
    a = np.frombuffer(blob, np.uint8)
    if a[-1] != ord("\n"):
        return None  # a torn final line
    ends = np.flatnonzero(a == ord("\n"))  # one per line
    commas = np.flatnonzero(a == ord(","))
    if commas.size != n:
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    # One comma per line, a value on each side of it, then check the
    # five fixed bytes; the rest must all be digits.
    if (
        np.any(commas - starts < _TIME_DIGITS + 2)
        or np.any(ends - commas < _POWER_DIGITS + 4)
        or np.any(a[commas - _TIME_DIGITS - 1] != ord("."))
        or np.any(a[ends - _POWER_DIGITS - 2] != ord("."))
        or np.any(a[ends - 1] != ord("\r"))
        or np.count_nonzero(a - np.uint8(ord("0")) < 10) != a.size - 5 * n
    ):
        return None
    values = []
    for first, end, digits in (
        (starts, commas, _TIME_DIGITS),
        (commas + 1, ends - 1, _POWER_DIGITS),
    ):
        width = int((end - first).max()) - 1  # digits in the widest value
        if width > _MAX_DIGITS:
            return None
        # One row per digit, 10**k's first: byte offsets back from the
        # field's end, skipping the point.
        back = np.delete(np.arange(1, width + 2), digits)
        at = end - back[:, None]
        numeral = a[np.maximum(at, 0)] - 48.0
        numeral[at < first] = 0.0
        values.append(10.0 ** np.arange(width) @ numeral / 10.0**digits)
    return values[0], values[1]


def _iter_rows(
    path: Path, chunk_size: int, skip: int, bad: "list[int] | None"
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one per-row parser, from data row ``skip`` on (the rows before
    it were read as canonical chunks).

    Strict when ``bad`` is ``None``: a malformed row raises
    :class:`MeterError` naming the file and line.  Tolerant otherwise:
    the file decodes with ``errors="replace"`` and each malformed row's
    line number goes into ``bad``.  A wrong header raises either way.
    """
    times: list[float] = []
    watts: list[float] = []
    errors = "strict" if bad is None else "replace"
    try:
        with path.open(newline="", errors=errors) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != HEADER:
                raise MeterError(
                    f"{path}: not a power CSV (header {header!r})"
                )
            rows = itertools.islice(reader, skip, None)
            for lineno, row in enumerate(rows, start=2 + skip):
                try:
                    if len(row) != 2:
                        raise ValueError("expected 2 columns")
                    t, w = float(row[0]), float(row[1])
                except ValueError as exc:
                    if bad is None:
                        raise MeterError(f"{path}:{lineno}: {exc}") from exc
                    bad.append(lineno)
                    continue
                times.append(t)
                watts.append(w)
                if len(times) >= chunk_size:
                    yield np.asarray(times), np.asarray(watts)
                    times, watts = [], []
    except UnicodeDecodeError as exc:
        raise MeterError(f"{path}: not a text CSV file ({exc})") from exc
    if times:
        yield np.asarray(times), np.asarray(watts)


def keep_first(times: np.ndarray, last: float) -> "tuple[np.ndarray, float]":
    """The merge's keep-first rule over one run of rows.

    A row is kept only when its timestamp is after every timestamp
    before it, ``last`` (the latest one already kept) included, so a
    duplicate timestamp keeps its first row.  Returns the mask of kept
    rows and the new ``last``.  Timestamps must be finite.
    """
    peak = np.maximum.accumulate(np.concatenate(([last], times)))
    return times > peak[:-1], float(peak[-1])


class _UnsortedFile(Exception):
    """Internal: a file fed to the streaming merge was out of order."""


def _require_finite(path: Path, times: np.ndarray, first_line: int) -> None:
    """Reject a non-finite timestamp: no merge order is defined for it."""
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise MeterError(
            f"{path}:{first_line + bad[0]}: non-finite timestamp "
            f"{times[bad[0]]}; the merge cannot order it"
        )


def _sorted_chunks(
    path: Path, chunk_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield one file's chunks, proving finite, non-decreasing stamps."""
    line, last = 2, -math.inf
    for times, watts in iter_power_csv(path, chunk_size):
        _require_finite(path, times, line)
        if times[0] < last or np.any(times[1:] < times[:-1]):
            raise _UnsortedFile(str(path))
        line += times.size
        last = times[-1]
        yield times, watts


def merge_power_csvs(
    paths: "list[str | Path]",
    out_path: "str | Path",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Path:
    """Merge several CSVs into one, sorted by timestamp.

    Duplicate timestamps (overlapping logger files) keep the first
    occurrence — first in *argument order* for cross-file ties, first in
    file order within a file — matching WTViewer's merge behaviour
    (:func:`keep_first`).  A non-finite timestamp raises
    :class:`MeterError` naming its file and line.

    Sorted inputs (every file a campaign writes) are merged a chunk at a
    time: each round cuts every file's current chunk at the smallest
    last timestamp among them and stable-sorts the pieces in argument
    order, so peak memory is O(files x chunk), not O(trace), and the
    output is byte-identical to a stable sort of the concatenation.  A
    file discovered out of order mid-stream falls back to materialising
    everything, preserving the historical behaviour for arbitrary
    inputs.  The merge lands via a temp file + rename, so a bad input
    never leaves a partial merge behind.
    """
    if not paths:
        raise MeterError("no CSV files to merge")
    out_path = Path(out_path)
    tmp_path = out_path.with_name(out_path.name + ".merge-tmp")
    streams = [_sorted_chunks(Path(p), chunk_size) for p in paths]
    try:
        with PowerCsvWriter(tmp_path) as writer:
            heads = [next(s, None) for s in streams]
            last = -math.inf
            while live := [i for i, h in enumerate(heads) if h is not None]:
                cut = min(heads[i][0][-1] for i in live)
                pieces = []
                for i in live:
                    times, watts = heads[i]
                    k = int(np.searchsorted(times, cut, side="right"))
                    pieces.append((times[:k], watts[:k]))
                    heads[i] = (
                        (times[k:], watts[k:])
                        if k < times.size
                        else next(streams[i], None)
                    )
                times, watts = map(np.concatenate, zip(*pieces))
                order = np.argsort(times, kind="stable")
                keep, last = keep_first(times[order], last)
                writer.write_many(times[order][keep], watts[order][keep])
    except _UnsortedFile:
        tmp_path.unlink(missing_ok=True)
        return _merge_materialized(paths, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    finally:
        for stream in streams:
            stream.close()
    tmp_path.replace(out_path)
    return out_path


def _merge_materialized(
    paths: "list[str | Path]", out_path: "str | Path"
) -> Path:
    """The historical O(trace) merge, kept for unsorted inputs."""
    all_times: list[np.ndarray] = []
    all_watts: list[np.ndarray] = []
    for path in paths:
        t, w = read_power_csv(path)
        _require_finite(Path(path), t, 2)
        all_times.append(t)
        all_watts.append(w)
    times = np.concatenate(all_times)
    watts = np.concatenate(all_watts)
    order = np.argsort(times, kind="stable")
    keep, _ = keep_first(times[order], -math.inf)
    return write_power_csv(out_path, times[order][keep], watts[order][keep])
