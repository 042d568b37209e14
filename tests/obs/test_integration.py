"""Observability wired through the engine, fleet, and CLI.

The contract under test: with ``REPRO_OBS`` unset nothing changes — not
results, not report JSON — and with it set, worker metrics flow from
child processes into the :class:`FleetReport`.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.engine import Simulator
from repro.fleet import (
    CampaignSpec,
    FleetReport,
    FleetRunner,
    campaign_to_dict,
    demo_campaign,
)
from repro.hardware import get_server
from repro.workloads.npb import NpbWorkload


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def small_campaign():
    """Two cheap EP jobs — enough to exercise the fleet paths."""
    return CampaignSpec(
        name="obs-small",
        servers=(get_server("Xeon-E5462"),),
        workloads=(
            {"type": "npb", "program": "ep", "class": "C", "nprocs": 1},
            {"type": "npb", "program": "ep", "class": "C", "nprocs": 2},
        ),
        seed=2015,
    )


@pytest.fixture()
def failing_campaign_file(tmp_path):
    """A campaign whose second job always fails (64 procs on 8 cores)."""
    spec = CampaignSpec(
        name="obs-failing",
        servers=(get_server("Xeon-E5462"),),
        workloads=(
            {"type": "npb", "program": "ep", "class": "C", "nprocs": 4},
            {"type": "npb", "program": "ep", "class": "C", "nprocs": 64},
        ),
        seed=2015,
    )
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(campaign_to_dict(spec)))
    return path


class TestBitIdentical:
    def test_simulator_results_identical_with_obs_on(self, e5462):
        workload = NpbWorkload("ep", "C", 4)
        baseline = Simulator(e5462, seed=7).run(workload)
        obs.enable()
        instrumented = Simulator(e5462, seed=7).run(workload)
        assert np.array_equal(baseline.times_s, instrumented.times_s)
        assert np.array_equal(
            baseline.measured_watts, instrumented.measured_watts
        )
        assert baseline.pmu_samples == instrumented.pmu_samples

    def test_fleet_outcome_has_no_metrics_by_default(self, small_campaign):
        outcome = FleetRunner(workers=1, cache=None).run(small_campaign)
        assert outcome.ok
        assert outcome.metrics is None
        report_dict = FleetReport.from_outcome(outcome).to_dict()
        assert "metrics" not in report_dict

    def test_disabled_run_leaves_registry_and_tracer_empty(
        self, small_campaign, clean_obs
    ):
        FleetRunner(workers=1, cache=None).run(small_campaign)
        assert clean_obs.snapshot()["counters"] == {}
        assert obs.get_tracer().records() == ()


class TestWorkerMetrics:
    def test_inline_runner_collects_metrics(self, small_campaign):
        obs.enable()
        outcome = FleetRunner(workers=1, cache=None).run(small_campaign)
        counters = outcome.metrics["counters"]
        assert counters["sim.run.count"] == 2.0
        assert counters["meter.samples"] > 0
        assert outcome.metrics["histograms"]["sim.run.seconds"]["count"] == 2

    def test_pool_workers_ship_metrics_home(self, small_campaign):
        obs.enable()
        outcome = FleetRunner(workers=2, cache=None).run(small_campaign)
        counters = outcome.metrics["counters"]
        assert counters["sim.run.count"] == 2.0
        assert counters["fleet.job.completed"] == 2.0

    def test_metrics_reach_report_format_and_dict(self, small_campaign):
        obs.enable()
        outcome = FleetRunner(workers=1, cache=None).run(small_campaign)
        report = FleetReport.from_outcome(outcome)
        assert "worker metrics:" in report.format()
        assert report.to_dict()["metrics"] == outcome.metrics


class TestCliExitCodes:
    def test_fleet_run_exits_1_on_exhausted_retries_serial(
        self, capsys, failing_campaign_file
    ):
        code, out, _ = run_cli(
            capsys, "fleet", "run", str(failing_campaign_file),
            "--serial", "--retries", "1", "--cache-dir", "", "--events", "",
        )
        assert code == 1
        assert "failed 1" in out

    def test_fleet_run_exits_1_on_exhausted_retries_pool(
        self, capsys, failing_campaign_file
    ):
        code, out, _ = run_cli(
            capsys, "fleet", "run", str(failing_campaign_file),
            "--workers", "2", "--retries", "1",
            "--cache-dir", "", "--events", "",
        )
        assert code == 1
        assert "failed 1" in out

    def test_fleet_status_and_report_exit_1_on_failures(
        self, capsys, failing_campaign_file, tmp_path
    ):
        events = tmp_path / "events.jsonl"
        run_cli(
            capsys, "fleet", "run", str(failing_campaign_file),
            "--serial", "--retries", "1", "--cache-dir", "",
            "--events", str(events),
        )
        code, out, _ = run_cli(capsys, "fleet", "status", str(events))
        assert code == 1
        assert "1 failed" in out
        code, _, _ = run_cli(capsys, "fleet", "report", str(events))
        assert code == 1

    def test_fleet_status_and_report_exit_0_on_success(
        self, capsys, tmp_path
    ):
        spec_path = tmp_path / "demo.json"
        spec_path.write_text(json.dumps(campaign_to_dict(demo_campaign())))
        events = tmp_path / "events.jsonl"
        code, _, _ = run_cli(
            capsys, "fleet", "run", str(spec_path), "--serial",
            "--cache-dir", "", "--events", str(events),
        )
        assert code == 0
        assert run_cli(capsys, "fleet", "status", str(events))[0] == 0
        assert run_cli(capsys, "fleet", "report", str(events))[0] == 0


class TestCliObs:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_evaluate_trace_exports_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code, _, err = run_cli(
            capsys, "evaluate", "Xeon-E5462", "--trace", str(trace)
        )
        assert code == 0
        assert "trace:" in err
        records = obs.load_jsonl(trace)
        # One span per simulated state.
        run_spans = [r for r in records if r.name == "sim.run"]
        assert len(run_spans) == 10
        assert {r.attrs["server"] for r in run_spans} == {"Xeon-E5462"}

    def test_trace_flag_does_not_leak_enablement(self, capsys, tmp_path):
        run_cli(
            capsys, "evaluate", "Xeon-E5462",
            "--trace", str(tmp_path / "t.jsonl"),
        )
        assert not obs.enabled()

    def test_trace_tree_renders_exported_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        run_cli(capsys, "evaluate", "Xeon-E5462", "--trace", str(trace))
        code, out, _ = run_cli(capsys, "trace", "tree", str(trace))
        assert code == 0
        assert "sim.run" in out

    def test_trace_tree_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "trace", "tree", str(tmp_path / "absent.jsonl")
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("torn", [b"\xc3", b"x"])
    def test_trace_tree_torn_last_line_is_usage_error(
        self, capsys, tmp_path, torn
    ):
        # Torn inside a multi-byte character (a lone 0xC3) or at an
        # ASCII byte: the same usage error, never a UnicodeDecodeError.
        trace = tmp_path / "trace.jsonl"
        with obs.capture() as tracer:
            with obs.span("outer"):
                pass
        tracer.export_jsonl(trace)
        with trace.open("ab") as fh:
            fh.write(b'{"index": 1, "name": "' + torn)
        code, _, err = run_cli(capsys, "trace", "tree", str(trace))
        assert code == 2
        assert "error:" in err

    def test_bench_list(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--list")
        assert code == 0
        assert "sim.single" in out
        assert "fleet.w4.warm" in out

    def test_bench_quick_writes_schema_valid_json(self, capsys, tmp_path):
        from repro.obs import bench

        path = tmp_path / "bench.json"
        code, out, _ = run_cli(
            capsys, "bench", "--quick", "--repeat", "1",
            "--scenario", "sim.single", "--json", str(path),
        )
        assert code == 0
        assert "sim.single" in out
        document = bench.load_bench_document(path)  # validates
        assert document["quick"] is True

    def test_bench_baseline_gate_exit_3_on_regression(
        self, capsys, tmp_path
    ):
        from repro.obs import bench

        path = tmp_path / "current.json"
        # Best of two repeats on both sides: the first run in a process
        # pays lazy set-up (measured 1.5-2x slower), which a single
        # repeat would leave in the baseline and not in the second run.
        run_cli(
            capsys, "bench", "--quick", "--repeat", "2",
            "--scenario", "sim.single", "--json", str(path),
        )
        document = json.loads(path.read_text())
        # Fabricate a baseline ten times as fast on the same machine.
        # Each bench process divides by its own once-measured
        # calibration, so a calibration swing of a third between the two
        # processes hid a 2x gap; 10x stays far past the 25% tolerance.
        for entry in document["scenarios"]:
            entry["throughput"] *= 10.0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document))
        code, out, _ = run_cli(
            capsys, "bench", "--quick", "--repeat", "2",
            "--scenario", "sim.single", "--baseline", str(baseline),
        )
        assert code == 3
        assert "REGRESSED" in out

    def test_bench_baseline_gate_passes_against_itself(
        self, capsys, tmp_path
    ):
        path = tmp_path / "self.json"
        run_cli(
            capsys, "bench", "--quick", "--repeat", "1",
            "--scenario", "sim.single", "--json", str(path),
        )
        # A wide tolerance keeps this exit-0 path test immune to timing
        # noise from neighbouring tests; the gate itself is covered by
        # the synthetic-document comparisons in test_bench.py.
        code, out, _ = run_cli(
            capsys, "bench", "--quick", "--repeat", "2",
            "--scenario", "sim.single", "--baseline", str(path),
            "--tolerance", "0.9",
        )
        assert code == 0
        assert "result: ok" in out
