"""Property-based tests (hypothesis): the array CSV round trip against
per-row references.

The writer, the strict and tolerant readers and the merge in
:mod:`repro.metering.csvlog` work on numpy chunks.  Each property here
checks one of them against the per-row code it replaced, kept below as
the reference: an f-string per row, ``csv.reader`` + ``float()`` per
row (failing on a bad row, or skipping it), and a ``heapq.merge`` of
row streams.
"""

from __future__ import annotations

import csv
import heapq
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MeterError
from repro.metering import csvlog
from repro.metering.csvlog import (
    PowerCsvWriter,
    iter_power_csv,
    CsvReadReport,
    merge_power_csvs,
    read_power_csv,
    read_power_csv_tolerant,
    write_power_csv,
)

HEADER_LINE = b"time_s,power_w\r\n"

SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


# -- per-row references --------------------------------------------------


def reference_bytes(times, watts) -> bytes:
    """What the per-row writer puts in a file."""
    rows = "".join(f"{t:.3f},{w:.2f}\r\n" for t, w in zip(times, watts))
    return HEADER_LINE + rows.encode()


def reference_read(path: Path) -> "tuple[list[float], list[float]]":
    """The per-row strict parser: ``csv.reader`` + ``float()``."""
    times: list[float] = []
    watts: list[float] = []
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != csvlog.HEADER:
                raise MeterError(
                    f"{path}: not a power CSV (header {header!r})"
                )
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 2:
                    raise MeterError(f"{path}:{lineno}: expected 2 columns")
                try:
                    times.append(float(row[0]))
                    watts.append(float(row[1]))
                except ValueError as exc:
                    raise MeterError(f"{path}:{lineno}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MeterError(f"{path}: not a text CSV file ({exc})") from exc
    return times, watts


def reference_read_tolerant(path: Path):
    """The per-row tolerant parser: skip and report every bad row."""
    times: list[float] = []
    watts: list[float] = []
    bad: list[int] = []
    n_rows = 0
    with path.open(newline="", errors="replace") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != csvlog.HEADER:
            raise MeterError(f"{path}: not a power CSV (header {header!r})")
        for lineno, row in enumerate(reader, start=2):
            n_rows += 1
            if len(row) != 2:
                bad.append(lineno)
                continue
            try:
                t, w = float(row[0]), float(row[1])
            except ValueError:
                bad.append(lineno)
                continue
            times.append(t)
            watts.append(w)
    return (
        np.asarray(times),
        np.asarray(watts),
        CsvReadReport(n_rows=n_rows, n_bad=len(bad), bad_lines=tuple(bad)),
    )


def reference_merge(paths: "list[Path]") -> bytes:
    """The merge as a ``heapq.merge`` of row streams, keeping the first
    row of a timestamp; unsorted inputs take the stable-sort merge."""
    files = [reference_read(p) for p in paths]
    if any(np.any(np.diff(t) < 0) for t, _ in files):
        times = np.concatenate([t for t, _ in files])
        watts = np.concatenate([w for _, w in files])
        order = np.argsort(times, kind="stable")
        times, watts = times[order], watts[order]
        keep = np.ones(times.size, dtype=bool)
        keep[1:] = np.diff(times) > 0
        return reference_bytes(times[keep], watts[keep])
    rows = []
    last = None
    streams = [list(zip(t, w)) for t, w in files]
    for t, w in heapq.merge(*streams, key=lambda row: row[0]):
        if last is not None and t <= last:
            continue
        rows.append((t, w))
        last = t
    return reference_bytes([t for t, _ in rows], [w for _, w in rows])


def outcome(read, path):
    """``("ok", times, watts)`` or ``("error", message)``."""
    try:
        times, watts = read(path)
    except MeterError as exc:
        return ("error", str(exc))
    return ("ok", np.asarray(times, float), np.asarray(watts, float))


def same(a, b) -> bool:
    if a[0] != b[0]:
        return False
    if a[0] == "error":
        return a[1] == b[1]
    return np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])


# -- writer ---------------------------------------------------------------


def _nudged(values):
    """A value, or one of its neighbours up to two ulps away."""
    return st.tuples(values, st.integers(-2, 2)).map(
        lambda pair: _step(pair[0], pair[1])
    )


def _step(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.inf if ulps > 0 else -math.inf))
    return x


def _fixed_point_values(digits: int):
    """Non-negative finite values, weighted towards rounding ties."""
    # Exact binary halves: x * 10**digits ends in .5 exactly.
    exact_half = st.integers(0, 2**40).map(
        lambda k: (2 * k + 1) / (16 if digits == 3 else 8)
    )
    # Decimal halves, off the tie by their binary rounding.
    decimal_half = st.integers(0, 10**12).map(
        lambda k: (k + 0.5) / 10**digits
    )
    # Around the edge of exact integers once scaled.
    edge = st.tuples(
        st.sampled_from([2.0**52, 2.0**53]), st.integers(-40, 40)
    ).map(lambda pair: pair[0] / 10**digits + pair[1])
    return st.one_of(
        st.floats(0.0, 1e4),
        st.floats(0.0, 1e12),
        _nudged(exact_half),
        _nudged(decimal_half),
        _nudged(edge),
        st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
    )


SPECIALS = st.sampled_from(
    [-0.0, -1e-9, -0.0004, -0.0005, -1.5, -1e300, math.nan, math.inf, -math.inf]
)


@st.composite
def writes(draw):
    """Aligned (times, watts) and a plan of how to write them."""
    n = draw(st.integers(0, 40))
    times = draw(st.lists(_fixed_point_values(3), min_size=n, max_size=n))
    watts = draw(st.lists(_fixed_point_values(2), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        column = draw(st.sampled_from([times, watts]))
        column[draw(st.integers(0, n - 1))] = draw(SPECIALS)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    singles = draw(st.booleans())
    chunk = draw(st.sampled_from([1, 2, 3, 7, 4096]))
    return times, watts, cuts, singles, chunk


@SETTINGS
@given(case=writes())
def test_writer_bytes_equal_per_row_fstrings(tmp_path, case):
    times, watts, cuts, singles, chunk = case
    path = tmp_path / "w.csv"
    bounds = [0, *cuts, len(times)]
    with mock.patch.object(csvlog, "DEFAULT_CHUNK_SIZE", chunk):
        with PowerCsvWriter(path) as writer:
            for lo, hi in zip(bounds, bounds[1:]):
                if singles and hi - lo == 1:
                    writer.write(times[lo], watts[lo])
                else:
                    writer.write_many(times[lo:hi], watts[lo:hi])
    assert path.read_bytes() == reference_bytes(times, watts)


@pytest.mark.parametrize("digits", [3, 2])
def test_every_exact_half_rounds_like_format(digits):
    # The first 2**16 exact ties x * 10**digits = k + 0.5, through the
    # array path: they all take their integer from format().
    step = 1 / 16 if digits == 3 else 1 / 8
    x = (2 * np.arange(2**16) + 1) * step
    q = csvlog._fixed_point(x, digits)
    expected = [int(format(v, f".{digits}f").replace(".", "")) for v in x]
    assert q.tolist() == expected


# -- strict reader --------------------------------------------------------

_digits = st.text(alphabet="0123456789", min_size=1, max_size=18)


@st.composite
def canonical_rows(draw):
    """Canonical rows, some with leading zeros or too many digits."""
    n = draw(st.integers(0, 30))
    rows = []
    for _ in range(n):
        t_int = draw(st.one_of(_digits, st.integers(0, 10**6).map(str)))
        w_int = draw(st.one_of(_digits, st.integers(0, 999).map(str)))
        t_frac = draw(st.integers(0, 999))
        w_frac = draw(st.integers(0, 99))
        rows.append(f"{t_int}.{t_frac:03d},{w_int}.{w_frac:02d}\r\n".encode())
    return rows


MUTATIONS = (
    "lf",
    "cr",
    "quote",
    "blank",
    "space",
    "exponent",
    "underscore",
    "minus",
    "extra_decimal",
    "missing_decimal",
    "torn",
    "not_utf8",
    "header_lf",
    "junk_before_lf",
)


def _mutate(rows: "list[bytes]", kind: str, i: int, cut: int) -> bytes:
    rows = list(rows)
    header = HEADER_LINE
    if rows:
        row = rows[i % len(rows)]
        body = row[:-2]
        j = cut % max(1, len(body))
        if kind == "lf":
            row = body + b"\n"
        elif kind == "cr":
            row = body + b"\r"
        elif kind == "quote":
            row = b'"' + body.replace(b",", b'",', 1) + b"\r\n"
        elif kind == "space":
            row = body[:j] + b" " + body[j:] + b"\r\n"
        elif kind == "exponent":
            row = b"1e3," + body.split(b",")[1] + b"\r\n"
        elif kind == "underscore":
            row = b"1_0.000," + body.split(b",")[1] + b"\r\n"
        elif kind == "minus":
            row = b"-" + row
        elif kind == "extra_decimal":
            row = body + b"5\r\n"
        elif kind == "missing_decimal":
            row = body[:-1] + b"\r\n"
        elif kind == "junk_before_lf":
            row = body + b'a" \t.,'[j % 6 : j % 6 + 1] + b"\n"
        elif kind == "not_utf8":
            row = body[:j] + b"\xff" + body[j:] + b"\r\n"
        rows[i % len(rows)] = row
    if kind == "blank":
        rows.insert(i % (len(rows) + 1), b"\r\n")
    if kind == "header_lf":
        header = b"time_s,power_w\n"
    data = header + b"".join(rows)
    if kind == "torn":
        data = data[: len(header) + cut % (len(data) - len(header) + 1)]
    return data


def _chunked_read(chunk_size):
    def read(path):
        chunks = list(iter_power_csv(path, chunk_size))
        assert all(0 < t.size <= chunk_size for t, _ in chunks)
        if not chunks:
            return [], []
        return (
            np.concatenate([t for t, _ in chunks]),
            np.concatenate([w for _, w in chunks]),
        )

    return read


@SETTINGS
@given(
    rows=canonical_rows(),
    mutation=st.one_of(st.none(), st.sampled_from(MUTATIONS)),
    where=st.integers(0, 10**6),
    cut=st.integers(0, 10**6),
    chunk_size=st.sampled_from([1, 2, 7, 4096]),
)
def test_strict_reader_matches_per_row_parser(
    tmp_path, rows, mutation, where, cut, chunk_size
):
    path = tmp_path / "r.csv"
    if mutation is None:
        path.write_bytes(HEADER_LINE + b"".join(rows))
    else:
        path.write_bytes(_mutate(rows, mutation, where, cut))
    expected = outcome(reference_read, path)
    assert same(outcome(_chunked_read(chunk_size), path), expected)
    assert same(outcome(read_power_csv, path), expected)


def tolerant_outcome(read, path):
    """``("ok", times, watts, report)`` or ``("error", message)``."""
    try:
        times, watts, report = read(path)
    except MeterError as exc:
        return ("error", str(exc))
    return ("ok", times.tolist(), watts.tolist(), report)


@SETTINGS
@given(
    rows=canonical_rows(),
    mutation=st.one_of(st.none(), st.sampled_from(MUTATIONS)),
    where=st.integers(0, 10**6),
    cut=st.integers(0, 10**6),
)
def test_tolerant_reader_matches_per_row_parser(
    tmp_path, rows, mutation, where, cut
):
    path = tmp_path / "t.csv"
    if mutation is None:
        path.write_bytes(HEADER_LINE + b"".join(rows))
    else:
        path.write_bytes(_mutate(rows, mutation, where, cut))
    assert tolerant_outcome(read_power_csv_tolerant, path) == tolerant_outcome(
        reference_read_tolerant, path
    )


def test_tolerant_reader_salvages_past_chunks(tmp_path):
    # Damage in the third of four chunks: the first two are read as
    # arrays, the per-row loop takes the rest.
    times = np.arange(4 * csvlog.DEFAULT_CHUNK_SIZE) * 0.5
    path = write_power_csv(tmp_path / "d.csv", times, times + 100.0)
    lines = path.read_bytes().split(b"\r\n")
    at = 2 * csvlog.DEFAULT_CHUNK_SIZE + 10
    lines[at] = b"garbage"
    lines[at + 1] = b"\xff" + lines[at + 1]
    path.write_bytes(b"\r\n".join(lines))
    assert tolerant_outcome(read_power_csv_tolerant, path) == tolerant_outcome(
        reference_read_tolerant, path
    )
    _t, _w, report = read_power_csv_tolerant(path)
    assert report.bad_lines == (at + 1, at + 2)
    assert report.n_rows == times.size


@SETTINGS
@given(rows=canonical_rows(), chunk_size=st.sampled_from([1, 3, 4096]))
def test_canonical_chunks_split_like_the_per_row_parser(
    tmp_path, rows, chunk_size
):
    path = tmp_path / "c.csv"
    path.write_bytes(HEADER_LINE + b"".join(rows))
    sizes = [t.size for t, _ in iter_power_csv(path, chunk_size)]
    n = len(rows)
    assert sizes == [min(chunk_size, n - i) for i in range(0, n, chunk_size)]


def test_read_back_of_a_written_file_is_float_of_its_text(tmp_path):
    rng = np.random.default_rng(19)
    times = np.cumsum(rng.uniform(0.0, 3.0, 5000))
    watts = rng.uniform(0.0, 2000.0, 5000)
    path = write_power_csv(tmp_path / "a.csv", times, watts)
    t_ref, w_ref = reference_read(path)
    t, w = read_power_csv(path)
    assert np.array_equal(t, t_ref) and np.array_equal(w, w_ref)


# -- merge ------------------------------------------------------------------


@st.composite
def segment_sets(draw):
    """Files of stamps on a 1/8 s grid: overlapping, with duplicates
    within and across files, now and then one out of order."""
    n_files = draw(st.integers(1, 5))
    files = []
    for _ in range(n_files):
        base = draw(st.integers(0, 20))
        stamps = draw(st.lists(st.integers(0, 30), max_size=30))
        files.append(sorted((base + s) / 8.0 for s in stamps))
    if draw(st.integers(0, 9)) == 0:
        victim = files[draw(st.integers(0, n_files - 1))]
        draw(st.randoms()).shuffle(victim)
    return [
        (np.asarray(t, float), np.arange(len(t), dtype=float) + 100.0 * k)
        for k, t in enumerate(files)
    ]


@SETTINGS
@given(segments=segment_sets(), chunk_size=st.sampled_from([1, 7, 4096]))
def test_merge_bytes_equal_heapq_merge(tmp_path, segments, chunk_size):
    paths = [
        write_power_csv(tmp_path / f"seg{k}.csv", t, w)
        for k, (t, w) in enumerate(segments)
    ]
    merged = merge_power_csvs(paths, tmp_path / "m.csv", chunk_size=chunk_size)
    assert merged.read_bytes() == reference_merge(paths)
