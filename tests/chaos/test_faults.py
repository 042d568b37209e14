"""Deterministic fault injectors: same seed, same damage."""

import numpy as np
import pytest

from repro.chaos import faults
from repro.errors import ConfigurationError
from repro.metering.csvlog import read_power_csv_tolerant, write_power_csv


@pytest.fixture()
def trace():
    times = np.arange(60.0)
    watts = 200.0 + np.sin(times / 5.0)
    return times, watts


class TestFaultRng:
    def test_same_seed_same_stream(self):
        a = faults.fault_rng(7, "x").integers(1 << 30, size=8)
        b = faults.fault_rng(7, "x").integers(1 << 30, size=8)
        assert np.array_equal(a, b)

    def test_scenarios_get_independent_streams(self):
        a = faults.fault_rng(7, "x").integers(1 << 30, size=8)
        b = faults.fault_rng(7, "y").integers(1 << 30, size=8)
        assert not np.array_equal(a, b)


class TestTraceInjectors:
    def test_dropout_removes_the_fraction(self, trace):
        times, watts = trace
        t2, w2 = faults.inject_dropout(
            times, watts, faults.fault_rng(1, "d"), fraction=0.1
        )
        assert t2.size == w2.size == 54
        # Survivors are untouched originals.
        assert set(w2).issubset(set(watts))

    def test_dropout_is_deterministic(self, trace):
        times, watts = trace
        runs = [
            faults.inject_dropout(
                times, watts, faults.fault_rng(1, "d"), fraction=0.1
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_dropout_rejects_bad_fraction(self, trace):
        with pytest.raises(ConfigurationError):
            faults.inject_dropout(*trace, faults.fault_rng(1, "d"), fraction=1.0)

    def test_spikes_damage_exactly_count_samples(self, trace):
        times, watts = trace
        _t2, w2 = faults.inject_spikes(
            times, watts, faults.fault_rng(1, "s"), count=5
        )
        assert int((w2 != watts).sum()) == 5
        assert w2.max() > watts.max() * 10
        # The input arrays are never mutated.
        assert watts.max() < 210

    def test_nan_damages_exactly_count_samples(self, trace):
        times, watts = trace
        _t2, w2 = faults.inject_nan(
            times, watts, faults.fault_rng(1, "n"), count=3
        )
        assert int(np.isnan(w2).sum()) == 3
        assert not np.isnan(watts).any()

    def test_clock_skew_shifts_every_timestamp(self, trace):
        times, watts = trace
        t2, w2 = faults.inject_clock_skew(times, watts, offset_s=0.3)
        assert np.allclose(t2 - times, 0.3)
        assert np.array_equal(w2, watts)

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(ConfigurationError):
            faults.inject_clock_skew(np.arange(3.0), np.arange(4.0))


class TestCsvInjectors:
    def test_truncate_leaves_a_torn_final_row(self, tmp_path, trace):
        path = write_power_csv(tmp_path / "t.csv", *trace)
        faults.truncate_csv(path, keep_fraction=0.6)
        lines = path.read_text().splitlines()
        # Header intact, last line is a one-byte stub of a real row.
        assert lines[0].startswith("time")
        assert len(lines[-1]) == 1
        _t, w, report = read_power_csv_tolerant(path)
        assert report.n_bad == 1
        assert w.size == len(lines) - 2  # header + torn row excluded

    def test_truncate_rejects_bad_fraction(self, tmp_path, trace):
        path = write_power_csv(tmp_path / "t.csv", *trace)
        with pytest.raises(ConfigurationError):
            faults.truncate_csv(path, keep_fraction=1.5)

    def test_corrupt_rows_reports_the_line_numbers(self, tmp_path, trace):
        path = write_power_csv(tmp_path / "t.csv", *trace)
        _path, bad = faults.corrupt_csv_rows(
            path, faults.fault_rng(3, "c"), count=4
        )
        assert len(bad) == 4
        _t, _w, report = read_power_csv_tolerant(path)
        assert sorted(report.bad_lines) == sorted(bad)


class TestCacheInjectors:
    @pytest.fixture()
    def warm_cache(self, tmp_path):
        from repro.engine.simulator import Simulator
        from repro.fleet import ResultCache
        from repro.hardware import XEON_E5462
        from repro.workloads.npb import NpbWorkload

        cache = ResultCache(tmp_path / "cache")
        result = Simulator(XEON_E5462, seed=3).run(NpbWorkload("ep", "C", 2))
        cache.put("ab" + "0" * 62, result, wall_s=0.1)
        return cache

    def test_bitflip_changes_one_blob(self, warm_cache):
        victim = faults.flip_cache_bit(
            warm_cache.root, faults.fault_rng(1, "b")
        )
        assert victim.suffix == ".entry"
        assert warm_cache.get("ab" + "0" * 62) is None
        assert warm_cache.stats.quarantined == 1

    def test_torn_entry_is_quarantined(self, warm_cache):
        faults.tear_cache_entry(warm_cache.root, faults.fault_rng(1, "t"))
        assert warm_cache.get("ab" + "0" * 62) is None
        assert warm_cache.stats.quarantined == 1

    def test_empty_cache_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            faults.flip_cache_bit(tmp_path, faults.fault_rng(1, "b"))
        with pytest.raises(ConfigurationError):
            faults.tear_cache_entry(tmp_path, faults.fault_rng(1, "t"))


class TestJournalInjector:
    def _journal(self, tmp_path):
        import json

        path = tmp_path / "journal.jsonl"
        records = [
            {"kind": "submit", "id": "c-000001"},
            {"kind": "done", "id": "c-000001"},
            {"kind": "submit", "id": "c-000002"},
        ]
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        return path

    def test_flip_damages_exactly_one_line(self, tmp_path):
        import json

        path = self._journal(tmp_path)
        before = path.read_bytes().split(b"\n")
        _path, lineno = faults.flip_journal_record(
            path, faults.fault_rng(1, "j")
        )
        after = path.read_bytes().split(b"\n")
        assert len(before) == len(after)
        changed = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == [lineno]
        with pytest.raises(json.JSONDecodeError):
            json.loads(after[lineno])

    def test_kind_filter_targets_only_that_kind(self, tmp_path):
        import json

        path = self._journal(tmp_path)
        _path, lineno = faults.flip_journal_record(
            path, faults.fault_rng(1, "j"), kind="done"
        )
        assert lineno == 1  # the only done record

    def test_no_matching_record_rejected(self, tmp_path):
        path = self._journal(tmp_path)
        with pytest.raises(ConfigurationError):
            faults.flip_journal_record(
                path, faults.fault_rng(1, "j"), kind="drain"
            )
