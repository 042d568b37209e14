"""The chaos harness itself: scenario registry, verdicts, report."""

import pytest

from repro.chaos import (
    OUTCOMES,
    ChaosReport,
    ScenarioVerdict,
    available_scenarios,
    run_chaos,
)
from repro.errors import ReproError

#: Cheap, pool-free scenarios safe to run inside the unit suite.  The
#: full matrix (worker pools, watchdog kills) runs as ``python -m repro
#: chaos`` in CI's chaos-smoke job.
_FAST = [
    "meter-dropout",
    "meter-spikes",
    "meter-nan",
    "meter-clock-skew",
    "meter-guard",
    "csv-truncated",
    "csv-corrupt",
]


class TestRegistry:
    def test_every_layer_is_covered(self):
        layers = {layer for _n, layer, _d in available_scenarios()}
        assert layers == {"meter", "fleet", "cache", "campaign", "serve"}

    def test_names_are_unique(self):
        names = [n for n, _l, _d in available_scenarios()]
        assert len(names) == len(set(names))

    def test_storage_fault_scenarios_are_registered(self):
        names = {n for n, _l, _d in available_scenarios()}
        assert {
            "disk-full",
            "journal-bitflip",
            "evict-during-dedup",
            "supervisor-crash-loop",
        } <= names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ReproError):
            run_chaos(only=["no-such-scenario"])


class TestFastScenarios:
    def test_meter_layer_recovers(self):
        report = run_chaos(seed=2015, only=_FAST)
        assert isinstance(report, ChaosReport)
        assert report.ok
        assert {v.outcome for v in report.verdicts} == {"recovered"}
        assert len(report.verdicts) == len(_FAST)

    def test_partial_matrix_degrades_flagged(self):
        report = run_chaos(seed=2015, only=["partial-matrix"])
        (verdict,) = report.verdicts
        assert verdict.outcome == "degraded"
        assert verdict.ok
        assert "coverage" in verdict.detail

    def test_cache_bitflip_recovers(self):
        report = run_chaos(seed=2015, only=["cache-bitflip"])
        (verdict,) = report.verdicts
        assert verdict.outcome == "recovered"
        assert "quarantined" in verdict.detail

    def test_disk_full_lands_one_entry_then_heals(self):
        report = run_chaos(seed=2015, only=["disk-full"])
        (verdict,) = report.verdicts
        assert verdict.outcome == "recovered", verdict.detail
        assert verdict.detail.startswith("4 write(s) shed")

    def test_campaign_resume_is_bit_identical(self):
        report = run_chaos(seed=2015, only=["campaign-resume"])
        (verdict,) = report.verdicts
        assert verdict.outcome == "recovered"
        assert "digest identical" in verdict.detail


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_chaos(seed=2015, only=["meter-dropout", "partial-matrix"])

    def test_counts(self, report):
        assert report.count("recovered") == 1
        assert report.count("degraded") == 1
        assert report.count("failed") == 0

    def test_format_lists_every_scenario(self, report):
        text = report.format()
        assert "meter-dropout" in text
        assert "partial-matrix" in text
        assert "0 failed" in text

    def test_to_dict_round_trips_through_json(self, report):
        import json

        data = json.loads(json.dumps(report.to_dict()))
        assert data["kind"] == "chaos_report"
        assert data["ok"] is True
        assert data["seed"] == 2015
        assert len(data["verdicts"]) == 2
        assert all(v["outcome"] in OUTCOMES for v in data["verdicts"])

    def test_failed_verdict_fails_the_report(self):
        bad = ScenarioVerdict("x", "meter", "failed", "boom")
        report = ChaosReport(seed=1, verdicts=(bad,), wall_s=0.0)
        assert not report.ok
        assert not bad.ok
