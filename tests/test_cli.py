"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestServers:
    def test_lists_all_builtins(self, capsys):
        code, out, _ = run_cli(capsys, "servers")
        assert code == 0
        for name in ("Xeon-E5462", "Opteron-8347", "Xeon-4870"):
            assert name in out


class TestEvaluate:
    def test_prints_table(self, capsys):
        code, out, _ = run_cli(capsys, "evaluate", "Xeon-E5462")
        assert code == 0
        assert "HPL P4 Mf" in out
        assert "(GFlops/Watt)/10" in out

    def test_json_export(self, capsys, tmp_path):
        path = tmp_path / "result.json"
        code, out, _ = run_cli(capsys, "evaluate", "Xeon-E5462", "--json", str(path))
        assert code == 0
        data = json.loads(path.read_text())
        assert data["kind"] == "evaluation"
        assert len(data["rows"]) == 10

    def test_unknown_server_is_an_error(self, capsys):
        code, _out, err = run_cli(capsys, "evaluate", "Cray-1")
        assert code == 2
        assert "unknown server" in err


class TestOtherMethods:
    def test_green500(self, capsys):
        code, out, _ = run_cli(capsys, "green500", "Xeon-4870")
        assert code == 0
        assert "GFLOPS/W" in out
        assert "344" in out

    def test_specpower(self, capsys):
        code, out, _ = run_cli(capsys, "specpower", "Xeon-E5462")
        assert code == 0
        assert "ssj_ops/W" in out
        assert "ActiveIdle" in out


class TestRegression:
    def test_runs_on_small_server(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        code, out, _ = run_cli(
            capsys,
            "regression",
            "--server",
            "Xeon-E5462",
            "--classes",
            "B",
            "--save-model",
            str(model_path),
        )
        assert code == 0
        assert "R Square" in out
        assert "NPB class B" in out
        data = json.loads(model_path.read_text())
        assert data["kind"] == "power_regression_model"


class TestFigure:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig5", "fig10", "fig11"])
    def test_renders(self, capsys, name):
        code, out, _ = run_cli(capsys, "figure", name)
        assert code == 0
        assert name.replace("fig", "Fig. ") in out

    def test_fig3_on_small_server(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig3", "--server", "Xeon-E5462")
        assert code == 0
        assert "HPL.4" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestAnalysisCommands:
    def test_breakdown_npb(self, capsys):
        code, out, _ = run_cli(capsys, "breakdown", "Xeon-E5462", "ep.C.4")
        assert code == 0
        assert "idle" in out and "total" in out

    def test_breakdown_hpl_shorthand(self, capsys):
        code, out, _ = run_cli(capsys, "breakdown", "Xeon-E5462", "hpl")
        assert code == 0
        assert "core_intensity" in out

    def test_breakdown_bad_spec(self, capsys):
        code, _out, err = run_cli(capsys, "breakdown", "Xeon-E5462", "nonsense")
        assert code == 2
        assert "workload" in err

    def test_energy(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "Xeon-E5462", "ep")
        assert code == 0
        assert "energy-optimal" in out

    def test_uncertainty(self, capsys):
        code, out, _ = run_cli(
            capsys, "uncertainty", "Xeon-E5462", "--repeats", "2"
        )
        assert code == 0
        assert "spread" in out


class TestCompare:
    def test_compare_report(self, capsys):
        code, out, _ = run_cli(capsys, "compare")
        assert code == 0
        assert "Evaluation tables" in out
        assert "Green500" in out
        assert "SPECpower" in out
        assert "paper" in out and "measured" in out
        # Regression section only with the flag.
        assert "Tables VII-VIII" not in out

    def test_compare_json_export(self, capsys, tmp_path):
        path = tmp_path / "compare.json"
        code, out, _ = run_cli(capsys, "compare", "--json", str(path))
        assert code == 0
        assert "saved:" in out
        data = json.loads(path.read_text())
        assert data["kind"] == "comparison"
        assert data["entries"]
        entry = data["entries"][0]
        assert {"section", "label", "paper", "measured", "delta_pct"} <= set(
            entry
        )
        sections = {e["section"] for e in data["entries"]}
        assert any(s.startswith("evaluation/") for s in sections)
        assert any(s == "green500" for s in sections)


class TestRankingsJson:
    def test_rankings_json_export(self, capsys, tmp_path):
        path = tmp_path / "rankings.json"
        code, out, _ = run_cli(capsys, "rankings", "--json", str(path))
        assert code == 0
        assert "saved:" in out
        data = json.loads(path.read_text())
        assert data["kind"] == "rankings"
        assert set(data["orderings"]) == {
            "ours (mean PPW)",
            "Green500",
            "SPECpower",
        }
        assert len(data["rows"]) == 3


class TestFleet:
    def test_init_run_status_report_flow(self, capsys, tmp_path):
        spec_path = tmp_path / "campaign.json"
        cache_dir = tmp_path / "cache"
        events = tmp_path / "events.jsonl"
        out_path = tmp_path / "results.json"

        code, out, _ = run_cli(capsys, "fleet", "init", str(spec_path))
        assert code == 0
        assert "demo-e5462" in out
        assert json.loads(spec_path.read_text())["kind"] == "fleet_campaign"

        run_args = (
            "fleet", "run", str(spec_path),
            "--workers", "2",
            "--cache-dir", str(cache_dir),
            "--events", str(events),
            "--out", str(out_path),
        )
        code, out, _ = run_cli(capsys, *run_args)
        assert code == 0
        assert "ep.C.4" in out
        assert "speedup" in out
        data = json.loads(out_path.read_text())
        assert data["kind"] == "fleet_results"
        assert len(data["rows"]) == 5
        assert data["failures"] == []
        assert data["report"]["n_cache_hits"] == 0

        # Warm re-run: every job must come from the cache.
        code, out, _ = run_cli(capsys, *run_args)
        assert code == 0
        assert "cache" in out
        data = json.loads(out_path.read_text())
        assert data["report"]["n_cache_hits"] == 5
        assert all(row["cached"] for row in data["rows"])

        code, out, _ = run_cli(capsys, "fleet", "status", str(events))
        assert code == 0
        assert "finished" in out
        assert "5/5 jobs done" in out

        code, out, _ = run_cli(capsys, "fleet", "report", str(events))
        assert code == 0
        assert "cache hits 5 (100%)" in out

    def test_init_matrix_campaign(self, capsys, tmp_path):
        spec_path = tmp_path / "matrix.json"
        code, out, _ = run_cli(
            capsys, "fleet", "init", str(spec_path), "--matrix", "--seed", "7"
        )
        assert code == 0
        data = json.loads(spec_path.read_text())
        assert data["evaluation_matrix"] is True
        assert data["seed"] == 7

    def test_serial_flag_runs_inline(self, capsys, tmp_path):
        spec_path = tmp_path / "campaign.json"
        run_cli(capsys, "fleet", "init", str(spec_path))
        code, out, _ = run_cli(
            capsys,
            "fleet", "run", str(spec_path),
            "--serial", "--cache-dir", "", "--events", "",
        )
        assert code == 0
        assert "1 worker(s)" in out

    def test_status_without_events_is_an_error(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "fleet", "status", str(tmp_path / "missing.jsonl")
        )
        assert code == 2
        assert "no campaign events" in err


class TestSpecFile:
    def test_green500_from_spec_file(self, capsys, tmp_path):
        import dataclasses

        from repro import io as repro_io
        from repro.hardware import XEON_E5462

        custom = dataclasses.replace(XEON_E5462, name="FileServer")
        path = repro_io.save_json(
            repro_io.server_to_dict(custom), tmp_path / "server.json"
        )
        code, out, _ = run_cli(capsys, "green500", str(path))
        assert code == 0
        assert "FileServer" in out

    def test_bad_spec_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "something_else", "schema_version": 1}')
        code, _out, err = run_cli(capsys, "green500", str(path))
        assert code == 2


class TestRegressionFigures:
    def test_fig12_renders(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig12")
        assert code == 0
        assert "R^2" in out
        assert "ep.B.40" in out

    def test_fig13_renders(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig13")
        assert code == 0
        assert "sp" in out


class TestExport:
    def test_export_writes_files(self, capsys, tmp_path):
        out = tmp_path / "exhibits"
        code, stdout, _ = run_cli(capsys, "export", str(out))
        assert code == 0
        assert (out / "table4_e5462.csv").exists()
        assert "rankings.json" in stdout


class TestChaos:
    def test_list_scenarios(self, capsys):
        code, out, _ = run_cli(capsys, "chaos", "--list")
        assert code == 0
        for name in ("meter-dropout", "fleet-hang", "cache-bitflip",
                     "campaign-resume", "partial-matrix"):
            assert name in out

    def test_single_scenario_runs_green(self, capsys, tmp_path):
        path = tmp_path / "chaos.json"
        code, out, _ = run_cli(
            capsys, "chaos", "--scenario", "meter-guard",
            "--json", str(path),
        )
        assert code == 0
        assert "recovered" in out
        data = json.loads(path.read_text())
        assert data["kind"] == "chaos_report"
        assert data["ok"] is True
        assert data["verdicts"][0]["name"] == "meter-guard"

    def test_unknown_scenario_is_an_error(self, capsys):
        code, _out, err = run_cli(capsys, "chaos", "--scenario", "nope")
        assert code == 2
        assert "unknown scenario" in err


class TestJsonParity:
    """Every study command exports the numbers it printed (--json)."""

    def test_regression_json_export(self, capsys, tmp_path):
        path = tmp_path / "study.json"
        code, out, _ = run_cli(
            capsys, "regression", "--server", "Xeon-E5462",
            "--classes", "B", "--json", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["kind"] == "regression_study"
        assert data["server"] == "Xeon-E5462"
        assert sorted(data) == [
            "coefficients", "features", "intercept", "kind",
            "schema_version", "seed", "selected", "server", "summary",
            "verification",
        ]
        assert data["summary"]["observations"] == 604
        assert len(data["coefficients"]) == 6
        (series,) = data["verification"]
        assert series["npb_class"] == "B"
        assert len(series["measured"]) == len(series["labels"])
        # The JSON carries the same R^2 the table printed.
        assert f"{series['r_squared']:.3f}" in out

    def test_breakdown_json_export(self, capsys, tmp_path):
        path = tmp_path / "brk.json"
        code, _out, _ = run_cli(
            capsys, "breakdown", "Xeon-E5462", "ep.C.4",
            "--json", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["kind"] == "power_breakdown"
        assert sorted(data) == [
            "components", "dynamic_watts", "fractions", "idle_watts",
            "kind", "program", "schema_version", "server", "total_watts",
        ]
        assert data["total_watts"] == pytest.approx(
            data["idle_watts"] + data["dynamic_watts"]
        )
        assert sum(data["fractions"].values()) == pytest.approx(1.0)

    def test_chaos_json_schema_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "chaos.json"
        code, _out, _ = run_cli(
            capsys, "chaos", "--scenario", "meter-guard",
            "--seed", "1", "--json", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert sorted(data) == [
            "kind", "ok", "schema_version", "seed", "verdicts", "wall_s",
        ]
        assert data["kind"] == "chaos_report"
        assert data["schema_version"] == 1
        assert sorted(data["verdicts"][0]) == [
            "detail", "layer", "name", "outcome", "wall_s",
        ]

    def test_fleet_report_json_export(self, capsys, tmp_path):
        spec_path = tmp_path / "campaign.json"
        events = tmp_path / "events.jsonl"
        run_cli(capsys, "fleet", "init", str(spec_path))
        code, _out, _ = run_cli(
            capsys, "fleet", "run", str(spec_path),
            "--serial", "--cache-dir", "", "--events", str(events),
        )
        assert code == 0
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "fleet", "report", str(events), "--json", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["kind"] == "fleet_report"
        assert data["n_jobs"] == 5
        assert data["n_failed"] == 0


class TestModel:
    def test_train_predict_registry_validate_flow(self, capsys, tmp_path):
        registry = str(tmp_path / "models")
        code, out, _ = run_cli(
            capsys, "model", "train", "--server", "Xeon-E5462",
            "--registry", registry,
        )
        assert code == 0
        assert "published: xeon-e5462 v1" in out
        assert "model digest: " in out

        code, out, _ = run_cli(capsys, "model", "registry", "--registry", registry)
        assert code == 0
        assert "xeon-e5462" in out and "v000001" in out

        p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
        for path in (p1, p2):
            code, out, _ = run_cli(
                capsys, "model", "predict", "--registry", registry,
                "--server", "Xeon-E5462", "--from-npb", "B",
                "--json", str(path),
            )
            assert code == 0
            assert "predictions digest: " in out
        assert p1.read_bytes() == p2.read_bytes()
        data = json.loads(p1.read_text())
        assert data["kind"] == "model_predictions"
        assert data["digest"] in out

        code, out, _ = run_cli(
            capsys, "model", "validate", "--server", "Xeon-E5462",
            "--registry", registry, "--name", "xeon-e5462",
            "--folds", "3", "--classes", "B",
        )
        assert code == 0
        assert "verdict: PASS" in out

        code, out, _ = run_cli(
            capsys, "model", "registry", "--registry", registry, "--verify"
        )
        assert code == 0
        assert "ok" in out

    def test_predict_from_feature_file(self, capsys, tmp_path):
        from repro.engine import Simulator
        from repro.hardware import XEON_E5462
        from repro.model import collect_feature_batch

        registry = str(tmp_path / "models")
        code, _out, _ = run_cli(
            capsys, "model", "train", "--server", "Xeon-E5462",
            "--registry", registry,
        )
        assert code == 0
        batch = collect_feature_batch(
            XEON_E5462, "B", Simulator(XEON_E5462, seed=0)
        )
        features = tmp_path / "batch.json"
        features.write_text(json.dumps(batch.to_dict()))
        code, out, _ = run_cli(
            capsys, "model", "predict", "--registry", registry,
            "--server", "Xeon-E5462", "--features", str(features),
        )
        assert code == 0
        assert "fitting R^2 vs measured" in out

    def test_predict_needs_exactly_one_source(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "model", "predict", "--registry", str(tmp_path),
        )
        assert code == 2
        assert "exactly one" in err

    def test_predict_missing_model_is_an_error(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "model", "predict", "--registry", str(tmp_path),
            "--name", "ghost", "--from-npb", "B",
        )
        assert code == 2
        assert "no model named" in err

    def test_registry_empty_listing(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "model", "registry", "--registry", str(tmp_path)
        )
        assert code == 0
        assert "no artifacts" in out

    def test_verify_flags_corruption(self, capsys, tmp_path):
        registry = str(tmp_path / "models")
        code, _out, _ = run_cli(
            capsys, "model", "train", "--server", "Xeon-E5462",
            "--registry", registry,
        )
        assert code == 0
        artifact = tmp_path / "models" / "xeon-e5462" / "v000001.json"
        artifact.write_text(artifact.read_text().replace("6", "7"))
        code, out, _ = run_cli(
            capsys, "model", "registry", "--registry", registry, "--verify"
        )
        assert code == 1
        assert "CORRUPT" in out

    def test_listing_shows_healthy_models_beside_a_damaged_one(
        self, capsys, tmp_path
    ):
        registry = tmp_path / "models"
        code, _out, _ = run_cli(
            capsys, "model", "train", "--server", "Xeon-E5462",
            "--registry", str(registry),
        )
        assert code == 0
        damaged = registry / "aaa-damaged" / "v000001.json"
        damaged.parent.mkdir()
        damaged.write_text("[]")
        code, out, _ = run_cli(
            capsys, "model", "registry", "--registry", str(registry)
        )
        assert code == 1
        rows = out.splitlines()[1:]
        assert rows[0].startswith("aaa-damaged")
        assert "CORRUPT" in rows[0] and "a JSON list" in rows[0]
        assert rows[1].startswith("xeon-e5462") and "v000001" in rows[1]
        assert "CORRUPT" not in rows[1]

    def test_validate_out_of_band_exits_one(self, capsys, tmp_path, monkeypatch):
        from repro.model import validate as validate_module

        monkeypatch.setitem(
            validate_module.R2_BANDS, "train", (0.99, 1.0)
        )
        code, out, _ = run_cli(
            capsys, "model", "validate", "--server", "Xeon-E5462",
            "--folds", "3", "--classes", "B",
            "--registry", str(tmp_path / "models"),
        )
        assert code == 1
        assert "OUT OF BAND" in out
        assert "verdict: FAIL" in out


class TestZoo:
    def test_list_shows_the_full_registry(self, capsys):
        code, out, _ = run_cli(capsys, "zoo", "list")
        assert code == 0
        assert out.count("GFLOPS peak") >= 8
        for name in ("Tesla-K20-Node", "Xeon-Phi-5110P", "Atom-C2750"):
            assert name in out

    def test_show_renders_the_pstate_ladder(self, capsys):
        code, out, _ = run_cli(capsys, "zoo", "show", "Tesla-K20-Node")
        assert code == 0
        assert "gpu-simd" in out
        assert "P0" in out and "P2" in out
        assert "alpha-power law" in out

    def test_show_unknown_server(self, capsys):
        code, _out, err = run_cli(capsys, "zoo", "show", "Cray-1")
        assert code == 2
        assert "unknown zoo server" in err

    def test_evaluate_one_pstate(self, capsys, tmp_path):
        path = tmp_path / "eval.json"
        code, out, _ = run_cli(
            capsys, "zoo", "evaluate", "Atom-C2750",
            "--pstate", "1", "--json", str(path),
        )
        assert code == 0
        assert "at P1" in out
        data = json.loads(path.read_text())
        assert data["kind"] == "evaluation"
        assert len(data["rows"]) == 10

    def test_evaluate_full_grid(self, capsys, tmp_path):
        path = tmp_path / "grid.json"
        code, out, _ = run_cli(
            capsys, "zoo", "evaluate", "Tesla-K20-Node", "--json", str(path),
        )
        assert code == 0
        assert "P-states" in out
        data = json.loads(path.read_text())
        assert data["kind"] == "grid_evaluation"
        assert len(data["cells"]) == 3

    def test_matrix_digest_pin_round_trip(self, capsys, tmp_path):
        pins = tmp_path / "pins.json"
        code, out, _ = run_cli(
            capsys, "zoo", "matrix", "--server", "Atom-C2750",
            "--update-digests", str(pins),
        )
        assert code == 0
        assert "pinned 1 grid digests" in out
        code, out, _ = run_cli(
            capsys, "zoo", "matrix", "--server", "Atom-C2750",
            "--digests", str(pins),
        )
        assert code == 0
        assert "0 failure(s)" in out

    def test_matrix_catches_a_digest_regression(self, capsys, tmp_path):
        pins = tmp_path / "pins.json"
        code, *_ = run_cli(
            capsys, "zoo", "matrix", "--server", "Atom-C2750",
            "--update-digests", str(pins),
        )
        assert code == 0
        data = json.loads(pins.read_text())
        data["servers"]["Atom-C2750"] = "0" * 64
        pins.write_text(json.dumps(data))
        code, _out, err = run_cli(
            capsys, "zoo", "matrix", "--server", "Atom-C2750",
            "--digests", str(pins),
        )
        assert code == 1
        assert "FAIL" in err

    def test_checked_in_pins_match(self, capsys):
        """The committed nightly pin file is in sync with the code."""
        from pathlib import Path

        pins = (
            Path(__file__).parents[1] / "benchmarks" / "zoo-grid-digests.json"
        )
        code, out, _ = run_cli(
            capsys, "zoo", "matrix", "--digests", str(pins),
        )
        assert code == 0
        assert "0 failure(s)" in out
