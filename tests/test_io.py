"""JSON persistence."""

import numpy as np
import pytest

from repro import io as repro_io
from repro.core.evaluation import EvaluationResult, EvaluationRow
from repro.core.regression import VerificationResult
from repro.errors import ConfigurationError


@pytest.fixture()
def eval_result():
    return EvaluationResult(
        server="Xeon-E5462",
        rows=(
            EvaluationRow("Idle", 0.0, 134.37, 600.0, 120.0),
            EvaluationRow("HPL P4 Mf", 37.2, 235.32, 7800.0, 520.0),
        ),
    )


class TestEvaluationRoundtrip:
    def test_roundtrip(self, eval_result, tmp_path):
        path = repro_io.save_json(
            repro_io.evaluation_to_dict(eval_result), tmp_path / "eval.json"
        )
        restored = repro_io.evaluation_from_dict(repro_io.load_json(path))
        assert restored == eval_result

    def test_score_preserved(self, eval_result):
        restored = repro_io.evaluation_from_dict(
            repro_io.evaluation_to_dict(eval_result)
        )
        assert restored.score == pytest.approx(eval_result.score)

    def test_kind_checked(self, eval_result):
        doc = repro_io.evaluation_to_dict(eval_result)
        doc["kind"] = "something_else"
        with pytest.raises(ConfigurationError):
            repro_io.evaluation_from_dict(doc)

    def test_version_checked(self, eval_result):
        doc = repro_io.evaluation_to_dict(eval_result)
        doc["schema_version"] = 99
        with pytest.raises(ConfigurationError):
            repro_io.evaluation_from_dict(doc)


class TestVerificationRoundtrip:
    def test_roundtrip(self, tmp_path):
        original = VerificationResult(
            server="Xeon-4870",
            npb_class="B",
            labels=("bt.B.1", "ep.B.1", "sp.B.4"),
            measured=np.array([1.0, -1.0, 0.5]),
            predicted=np.array([0.8, -0.5, 0.4]),
        )
        path = repro_io.save_json(
            repro_io.verification_to_dict(original), tmp_path / "v.json"
        )
        restored = repro_io.verification_from_dict(repro_io.load_json(path))
        assert restored.labels == original.labels
        assert np.allclose(restored.measured, original.measured)
        assert restored.r_squared == pytest.approx(original.r_squared)


class TestModelRoundtrip:
    @pytest.fixture(scope="class")
    def model(self):
        from repro.core.regression import (
            collect_hpcc_training,
            train_power_model,
        )
        from repro.hardware import XEON_E5462

        return train_power_model(
            collect_hpcc_training(XEON_E5462), server_name="Xeon-E5462"
        )

    def test_roundtrip_predictions_identical(self, model, tmp_path):
        path = repro_io.save_json(
            repro_io.model_to_dict(model), tmp_path / "model.json"
        )
        restored = repro_io.model_from_dict(repro_io.load_json(path))
        features = np.array([[4.0, 1e11, 1e8, 0.0, 1e7, 5e6]])
        assert np.allclose(
            restored.predict_normalized(features),
            model.predict_normalized(features),
        )
        assert np.allclose(
            restored.predict_watts(features), model.predict_watts(features)
        )

    def test_summary_preserved(self, model):
        restored = repro_io.model_from_dict(repro_io.model_to_dict(model))
        assert restored.r_square == pytest.approx(model.r_square)
        assert restored.n_observations == model.n_observations
        assert restored.selected == model.selected

    def test_stepwise_not_preserved(self, model):
        restored = repro_io.model_from_dict(repro_io.model_to_dict(model))
        assert restored.stepwise is None


class TestServerRoundtrip:
    def test_builtin_roundtrip_identical(self):
        from repro.hardware import XEON_4870

        restored = repro_io.server_from_dict(
            repro_io.server_to_dict(XEON_4870)
        )
        assert restored == XEON_4870

    def test_roundtrip_preserves_caches(self):
        from repro.hardware import OPTERON_8347

        restored = repro_io.server_from_dict(
            repro_io.server_to_dict(OPTERON_8347)
        )
        assert restored.processor.l3 == OPTERON_8347.processor.l3
        assert restored.processor.l3.shared

    def test_missing_l3_roundtrips_as_none(self):
        from repro.hardware import XEON_E5462

        restored = repro_io.server_from_dict(
            repro_io.server_to_dict(XEON_E5462)
        )
        assert restored.processor.l3 is None

    def test_file_roundtrip_usable_by_simulator(self, tmp_path):
        import dataclasses

        from repro.engine import Simulator
        from repro.hardware import XEON_E5462
        from repro.workloads.npb import NpbWorkload

        custom = dataclasses.replace(XEON_E5462, name="Clone")
        path = repro_io.save_json(
            repro_io.server_to_dict(custom), tmp_path / "s.json"
        )
        restored = repro_io.server_from_dict(repro_io.load_json(path))
        run = Simulator(restored).run(NpbWorkload("ep", "C", 4))
        assert run.average_power_watts() > 0

    def test_kind_checked(self):
        with pytest.raises(ConfigurationError):
            repro_io.server_from_dict({"kind": "evaluation", "schema_version": 1})


class TestPartialEvaluationSerialisation:
    def test_complete_document_has_no_degradation_keys(self, eval_result):
        doc = repro_io.evaluation_to_dict(eval_result)
        assert "missing" not in doc
        assert "coverage" not in doc

    def test_partial_round_trip(self, eval_result):
        partial = EvaluationResult(
            server=eval_result.server,
            rows=eval_result.rows,
            missing=("HPL P4 Mh", "HPL P4 Mf"),
        )
        doc = repro_io.evaluation_to_dict(partial)
        assert doc["missing"] == ["HPL P4 Mh", "HPL P4 Mf"]
        assert doc["coverage"] == pytest.approx(0.5)
        restored = repro_io.evaluation_from_dict(doc)
        assert restored.missing == partial.missing
        assert restored.coverage == pytest.approx(0.5)
        assert not restored.complete


class TestServerReference:
    def test_builtin_is_written_by_name(self):
        from repro.hardware import XEON_E5462

        assert repro_io.server_ref(XEON_E5462) == "Xeon-E5462"
        assert repro_io.server_from_ref("Xeon-E5462") == XEON_E5462

    def test_zoo_server_embeds_its_spec_and_resolves_by_name(self):
        from repro.hardware.zoo import get_zoo_server

        k20 = get_zoo_server("Tesla-K20-Node")
        ref = repro_io.server_ref(k20)
        assert ref == repro_io.server_to_dict(k20)
        assert repro_io.server_from_ref(ref) == k20
        assert repro_io.server_from_ref("Tesla-K20-Node") == k20

    def test_server_at_another_pstate_is_embedded(self):
        from repro.hardware.zoo import get_zoo_server

        variant = get_zoo_server("Xeon-E5462-DVFS")
        throttled = variant.at_pstate(1)
        ref = repro_io.server_ref(throttled)
        assert isinstance(ref, dict)
        assert repro_io.server_from_ref(ref) == throttled

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="^unknown server"):
            repro_io.server_from_ref("PDP-11")
