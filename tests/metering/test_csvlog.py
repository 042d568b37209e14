"""WTViewer-style CSV read/write/merge."""

import numpy as np
import pytest

from repro.errors import MeterError
from repro.metering.csvlog import merge_power_csvs, read_power_csv, write_power_csv


def test_roundtrip(tmp_path):
    times = np.arange(10.0)
    watts = 200.0 + np.sin(times)
    path = write_power_csv(tmp_path / "a.csv", times, watts)
    t2, w2 = read_power_csv(path)
    assert np.allclose(t2, times)
    assert np.allclose(w2, watts, atol=0.01)  # 2-decimal format


def test_write_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(MeterError):
        write_power_csv(tmp_path / "a.csv", np.arange(3.0), np.arange(4.0))
    assert not (tmp_path / "a.csv").exists()  # rejected before opening


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(MeterError):
        read_power_csv(path)


def test_read_rejects_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,power_w\n1.0,oops\n")
    with pytest.raises(MeterError):
        read_power_csv(path)


def test_read_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,power_w\n1.0,2.0,3.0\n")
    with pytest.raises(MeterError):
        read_power_csv(path)


def test_merge_sorts_by_time(tmp_path):
    p1 = write_power_csv(tmp_path / "late.csv", np.arange(5.0, 10.0), np.full(5, 2.0))
    p2 = write_power_csv(tmp_path / "early.csv", np.arange(0.0, 5.0), np.full(5, 1.0))
    merged = merge_power_csvs([p1, p2], tmp_path / "merged.csv")
    t, w = read_power_csv(merged)
    assert np.array_equal(t, np.arange(10.0))
    assert np.array_equal(w[:5], np.full(5, 1.0))


def test_merge_deduplicates_overlap(tmp_path):
    p1 = write_power_csv(tmp_path / "a.csv", np.arange(0.0, 6.0), np.full(6, 1.0))
    p2 = write_power_csv(tmp_path / "b.csv", np.arange(4.0, 10.0), np.full(6, 2.0))
    merged = merge_power_csvs([p1, p2], tmp_path / "m.csv")
    t, w = read_power_csv(merged)
    assert np.array_equal(t, np.arange(10.0))
    # First occurrence wins at the overlapping 4.0 and 5.0 stamps.
    assert w[4] == 1.0
    assert w[5] == 1.0


def test_merge_rejects_empty_list(tmp_path):
    with pytest.raises(MeterError):
        merge_power_csvs([], tmp_path / "m.csv")


class TestTolerantReader:
    def test_clean_file_reports_ok(self, tmp_path):
        from repro.metering.csvlog import read_power_csv_tolerant

        times = np.arange(10.0)
        path = write_power_csv(tmp_path / "a.csv", times, times + 200.0)
        t, w, report = read_power_csv_tolerant(path)
        assert report.ok
        assert report.n_rows == 10
        assert np.allclose(t, times)
        assert np.allclose(w, times + 200.0, atol=0.01)

    def test_truncated_file_skips_the_torn_row(self, tmp_path):
        from repro.metering.csvlog import read_power_csv_tolerant

        path = tmp_path / "torn.csv"
        path.write_text("time_s,power_w\n0.0,200.0\n1.0,201.0\n2.")
        t, w, report = read_power_csv_tolerant(path)
        assert not report.ok
        assert report.bad_lines == (4,)
        assert np.array_equal(t, [0.0, 1.0])
        assert np.array_equal(w, [200.0, 201.0])

    def test_corrupt_rows_reported_with_line_numbers(self, tmp_path):
        from repro.metering.csvlog import read_power_csv_tolerant

        path = tmp_path / "bad.csv"
        path.write_text(
            "time_s,power_w\n0.0,200.0\n@@junk@@\n2.0,oops\n3.0,203.0\n"
        )
        t, w, report = read_power_csv_tolerant(path)
        assert report.n_bad == 2
        assert report.bad_lines == (3, 4)
        assert np.array_equal(t, [0.0, 3.0])

    def test_wrong_header_still_raises(self, tmp_path):
        from repro.metering.csvlog import read_power_csv_tolerant

        path = tmp_path / "foreign.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MeterError):
            read_power_csv_tolerant(path)


class TestIterPowerCsv:
    def test_chunks_concatenate_to_full_read(self, tmp_path):
        from repro.metering.csvlog import iter_power_csv

        times = np.arange(1000.0)
        watts = 200.0 + np.sin(times)
        path = write_power_csv(tmp_path / "a.csv", times, watts)
        t_full, w_full = read_power_csv(path)
        for chunk_size in (1, 7, 100, 4096):
            chunks = list(iter_power_csv(path, chunk_size=chunk_size))
            assert all(t.size <= chunk_size for t, _ in chunks)
            t_cat = np.concatenate([t for t, _ in chunks])
            w_cat = np.concatenate([w for _, w in chunks])
            assert np.array_equal(t_cat, t_full)
            assert np.array_equal(w_cat, w_full)

    def test_same_validation_as_batch_reader(self, tmp_path):
        from repro.metering.csvlog import iter_power_csv

        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(MeterError):
            list(iter_power_csv(bad))
        torn = tmp_path / "torn.csv"
        torn.write_text("time_s,power_w\n1.0,200.0\n2.0,oops\n")
        with pytest.raises(MeterError):
            list(iter_power_csv(torn))

    def test_empty_body_yields_nothing(self, tmp_path):
        from repro.metering.csvlog import iter_power_csv

        path = write_power_csv(
            tmp_path / "empty.csv", np.array([]), np.array([])
        )
        assert list(iter_power_csv(path)) == []

    def test_header_only_reads_two_empty_arrays(self, tmp_path):
        path = write_power_csv(
            tmp_path / "empty.csv", np.array([]), np.array([])
        )
        times, watts = read_power_csv(path)
        assert times.shape == watts.shape == (0,)
        assert times.dtype == watts.dtype == np.float64


class TestPowerCsvWriter:
    def test_incremental_writes_byte_identical_to_batch(self, tmp_path):
        from repro.metering.csvlog import PowerCsvWriter

        times = np.arange(100.0)
        watts = 250.0 + np.cos(times / 3.0)
        batch = write_power_csv(tmp_path / "batch.csv", times, watts)
        inc = tmp_path / "inc.csv"
        with PowerCsvWriter(inc) as writer:
            writer.write(times[0], watts[0])
            writer.write_many(times[1:41], watts[1:41])
            for t, w in zip(times[41:], watts[41:]):
                writer.write(t, w)
        assert inc.read_bytes() == batch.read_bytes()


class TestStreamingMerge:
    @staticmethod
    def _segments(tmp_path, n_files=3, n=200, overlap=5):
        rng = np.random.default_rng(17)
        paths = []
        start = 0.0
        for i in range(n_files):
            times = start + np.arange(float(n))
            watts = rng.uniform(100, 300, n)
            paths.append(
                write_power_csv(tmp_path / f"seg{i}.csv", times, watts)
            )
            start = times[-1] + 1.0 - overlap
        return paths

    def test_streaming_merge_byte_identical_to_materialized(self, tmp_path):
        from repro.metering import csvlog

        paths = self._segments(tmp_path)
        streamed = merge_power_csvs(paths, tmp_path / "stream.csv")
        materialized = csvlog._merge_materialized(
            paths, tmp_path / "mat.csv"
        )
        assert streamed.read_bytes() == materialized.read_bytes()

    def test_small_chunk_size_changes_nothing(self, tmp_path):
        paths = self._segments(tmp_path)
        a = merge_power_csvs(paths, tmp_path / "a.csv")
        b = merge_power_csvs(paths, tmp_path / "b.csv", chunk_size=1)
        assert a.read_bytes() == b.read_bytes()

    def test_unsorted_file_falls_back_to_materialized(self, tmp_path):
        from repro.metering import csvlog

        # One segment written out of order: the k-way merge cannot
        # stream it, but the result must still match the historical
        # sort-based merge.
        ordered = write_power_csv(
            tmp_path / "ok.csv", np.arange(10.0), np.full(10, 200.0)
        )
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(
            "time_s,power_w\n5.000,210.00\n2.000,220.00\n8.000,230.00\n"
        )
        out = merge_power_csvs([ordered, shuffled], tmp_path / "out.csv")
        expected = csvlog._merge_materialized(
            [ordered, shuffled], tmp_path / "expected.csv"
        )
        assert out.read_bytes() == expected.read_bytes()
        times, _ = read_power_csv(out)
        assert np.all(np.diff(times) > 0)

    def test_no_temp_file_left_behind(self, tmp_path):
        paths = self._segments(tmp_path)
        merge_power_csvs(paths, tmp_path / "out.csv")
        leftovers = [p.name for p in tmp_path.glob("*.merge-tmp")]
        assert leftovers == []

    def test_failure_leaves_no_partial_output(self, tmp_path):
        paths = self._segments(tmp_path)
        missing = tmp_path / "missing.csv"
        with pytest.raises(FileNotFoundError):
            merge_power_csvs(paths + [missing], tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()
        assert list(tmp_path.glob("*.merge-tmp")) == []


class TestNonFiniteTimestamps:
    """A non-finite stamp has no merge order: the merge names it."""

    @staticmethod
    def _file(path, times):
        watts = np.arange(1.0, len(times) + 1.0)
        return write_power_csv(path, np.asarray(times, float), watts)

    @pytest.mark.parametrize(
        "stamps",
        [[5.0, np.nan, 2.0], [0.0, np.nan, 2.0], [0.0, np.inf, 2.0]],
        ids=["unsorted", "sorted", "inf"],
    )
    @pytest.mark.parametrize("chunk_size", [1, 4096])
    def test_merge_raises_naming_file_and_line(
        self, tmp_path, stamps, chunk_size
    ):
        bad = self._file(tmp_path / "u.csv", stamps)
        other = self._file(tmp_path / "b.csv", [1.0, 3.0])
        out = tmp_path / "merged.csv"
        with pytest.raises(MeterError, match=r"u\.csv:3: non-finite"):
            merge_power_csvs([bad, other], out, chunk_size=chunk_size)
        assert not out.exists()
        assert list(tmp_path.glob("*.merge-tmp")) == []

    def test_materialised_fallback_also_raises(self, tmp_path):
        # The first file is out of order, so the merge falls back to the
        # sort-based path before it reads the non-finite stamp.
        shuffled = self._file(tmp_path / "s.csv", [5.0, 2.0])
        bad = self._file(tmp_path / "n.csv", [0.0, 1.0, -np.inf])
        with pytest.raises(MeterError, match=r"n\.csv:4: non-finite"):
            merge_power_csvs([shuffled, bad], tmp_path / "m.csv")


def test_keep_first_keeps_the_first_row_of_a_timestamp():
    from repro.metering.csvlog import keep_first

    keep, last = keep_first(np.array([1.0, 2.0, 2.0, 1.5, 3.0]), 1.0)
    assert keep.tolist() == [False, True, False, False, True]
    assert last == 3.0
    keep, last = keep_first(np.empty(0), 4.0)
    assert keep.size == 0 and last == 4.0
