"""Bench harness: documents, schema, the calibrated regression gate."""

import copy
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import bench


@pytest.fixture(scope="module")
def quick_doc():
    """One cheap real bench run shared by the module's tests."""
    return bench.run_bench(quick=True, repeat=1, only=["sim.single"])


class TestRunBench:
    def test_document_is_schema_valid(self, quick_doc):
        bench.validate_bench_document(quick_doc)  # should not raise

    def test_document_is_json_serialisable(self, quick_doc):
        json.dumps(quick_doc)

    def test_scenario_carries_metrics_snapshot(self, quick_doc):
        (entry,) = quick_doc["scenarios"]
        assert entry["name"] == "sim.single"
        counters = entry["metrics"]["counters"]
        assert counters["sim.run.count"] == entry["iterations"]
        assert entry["metrics"]["histograms"]["sim.run.seconds"]["count"] == (
            entry["iterations"]
        )

    def test_throughput_consistent_with_wall_time(self, quick_doc):
        (entry,) = quick_doc["scenarios"]
        assert entry["throughput"] == pytest.approx(
            entry["operations"] / entry["wall_s"]
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown bench"):
            bench.run_bench(quick=True, repeat=1, only=["sim.nonexistent"])

    def test_bad_repeat_rejected(self):
        with pytest.raises(ConfigurationError):
            bench.run_bench(quick=True, repeat=0)

    def test_scenario_catalogue_is_stable(self):
        names = [s.name for s in bench.available_scenarios()]
        assert names[:3] == ["sim.single", "sim.hpl", "eval.matrix"]
        assert "fleet.w2.cold" in names and "fleet.w2.warm" in names
        assert len(names) == len(set(names))


class TestValidation:
    def test_rejects_wrong_kind(self, quick_doc):
        bad = {**quick_doc, "kind": "evaluation"}
        with pytest.raises(ConfigurationError, match="repro_bench"):
            bench.validate_bench_document(bad)

    def test_rejects_missing_scenario_keys(self, quick_doc):
        bad = copy.deepcopy(quick_doc)
        del bad["scenarios"][0]["throughput"]
        with pytest.raises(ConfigurationError, match="missing"):
            bench.validate_bench_document(bad)

    def test_rejects_nonpositive_calibration(self, quick_doc):
        bad = {**quick_doc, "calibration_ops_per_s": 0.0}
        with pytest.raises(ConfigurationError, match="calibration"):
            bench.validate_bench_document(bad)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no bench document"):
            bench.load_bench_document(tmp_path / "absent.json")

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            bench.load_bench_document(path)


def scaled(document, throughput_factor=1.0, calibration_factor=1.0):
    """A synthetic document with uniformly scaled numbers."""
    out = copy.deepcopy(document)
    out["calibration_ops_per_s"] *= calibration_factor
    for entry in out["scenarios"]:
        entry["throughput"] *= throughput_factor
        entry["wall_s"] /= throughput_factor
    return out


class TestComparison:
    def test_identical_documents_pass(self, quick_doc):
        report = bench.compare_benchmarks(quick_doc, quick_doc)
        assert report["ok"]
        assert report["regressions"] == []
        assert report["scenarios"][0]["calibrated_ratio"] == pytest.approx(1.0)

    def test_detects_2x_slowdown(self, quick_doc):
        # The acceptance scenario: same machine, code got twice as slow.
        slower = scaled(quick_doc, throughput_factor=0.5)
        report = bench.compare_benchmarks(quick_doc, slower)
        assert not report["ok"]
        assert report["regressions"] == ["sim.single"]
        assert "REGRESSED" in bench.format_comparison(report)

    def test_calibration_forgives_a_slower_machine(self, quick_doc):
        # Half the throughput but also half the calibration: the machine
        # is slower, the code is not — the gate must pass.
        slower_machine = scaled(
            quick_doc, throughput_factor=0.5, calibration_factor=0.5
        )
        report = bench.compare_benchmarks(quick_doc, slower_machine)
        assert report["ok"]
        assert report["scenarios"][0]["calibrated_ratio"] == pytest.approx(1.0)

    def test_improvement_never_fails(self, quick_doc):
        faster = scaled(quick_doc, throughput_factor=3.0)
        assert bench.compare_benchmarks(quick_doc, faster)["ok"]

    def test_within_tolerance_passes(self, quick_doc):
        slightly = scaled(quick_doc, throughput_factor=0.85)
        assert bench.compare_benchmarks(
            quick_doc, slightly, tolerance=0.25
        )["ok"]
        assert not bench.compare_benchmarks(
            quick_doc, slightly, tolerance=0.10
        )["ok"]

    def test_disjoint_scenarios_reported_not_failed(self, quick_doc):
        other = copy.deepcopy(quick_doc)
        other["scenarios"][0]["name"] = "sim.other"
        report = bench.compare_benchmarks(quick_doc, other)
        assert report["ok"]
        assert report["only_in_baseline"] == ["sim.single"]
        assert report["only_in_current"] == ["sim.other"]

    def test_bad_tolerance_rejected(self, quick_doc):
        for tolerance in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigurationError):
                bench.compare_benchmarks(
                    quick_doc, quick_doc, tolerance=tolerance
                )


class TestSchemaVersion:
    """Stale baselines fail loud with regeneration guidance, exit 2."""

    def test_mismatch_is_rejected_with_guidance(self, quick_doc):
        bad = {**quick_doc, "schema_version": 99}
        with pytest.raises(
            ConfigurationError, match="unsupported bench schema version 99"
        ) as exc:
            bench.validate_bench_document(bad)
        assert "regenerate" in str(exc.value)
        assert str(bench.BENCH_SCHEMA_VERSION) in str(exc.value)

    def test_load_prefixes_the_offending_path(self, quick_doc, tmp_path):
        bad = copy.deepcopy(quick_doc)
        bad["schema_version"] = 99
        path = tmp_path / "stale-baseline.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigurationError) as exc:
            bench.load_bench_document(path)
        message = str(exc.value)
        assert str(path) in message
        assert "unsupported bench schema version 99" in message

    def test_cli_baseline_with_stale_schema_exits_2(
        self, capsys, quick_doc, tmp_path
    ):
        from repro.cli import main

        bad = copy.deepcopy(quick_doc)
        bad["schema_version"] = 99
        baseline = tmp_path / "stale-baseline.json"
        baseline.write_text(json.dumps(bad))
        code = main(
            [
                "bench", "--quick", "--repeat", "1",
                "--scenario", "sim.single", "--baseline", str(baseline),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "unsupported bench schema version 99" in captured.err


class TestEngineScenarios:
    def test_engine_scenarios_registered(self):
        names = [s.name for s in bench.available_scenarios()]
        assert "batch_sweep_cold" in names
