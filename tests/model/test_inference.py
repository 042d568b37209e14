"""Batched inference: bit-identity, batch round-trips, digests."""

import numpy as np
import pytest

from repro.engine import Simulator
from repro.errors import ConfigurationError, RegressionError
from repro.model import (
    BatchPrediction,
    FeatureBatch,
    InferenceEngine,
    collect_feature_batch,
)


@pytest.fixture(scope="module")
def batch_b(e5462):
    return collect_feature_batch(e5462, "B", Simulator(e5462, seed=0))


class TestFeatureBatch:
    def test_collect_shape(self, batch_b):
        assert batch_b.features.shape == (batch_b.n_rows, 6)
        assert len(batch_b.labels) == batch_b.n_rows
        assert batch_b.watts.shape == (batch_b.n_rows,)

    def test_roundtrip_via_json_dict(self, batch_b):
        again = FeatureBatch.from_dict(batch_b.to_dict())
        assert again.labels == batch_b.labels
        assert np.array_equal(again.features, batch_b.features)
        assert np.array_equal(again.watts, batch_b.watts)

    def test_shape_validation(self):
        with pytest.raises(RegressionError, match=r"must be \(n, 6\)"):
            FeatureBatch(labels=("a",), features=np.zeros((1, 3)))
        with pytest.raises(RegressionError, match="labels"):
            FeatureBatch(labels=("a", "b"), features=np.zeros((1, 6)))
        with pytest.raises(RegressionError, match="watts"):
            FeatureBatch(
                labels=("a",),
                features=np.zeros((1, 6)),
                watts=np.zeros(3),
            )

    def test_from_dict_rejects_wrong_kind(self):
        with pytest.raises(ConfigurationError, match="feature_batch"):
            FeatureBatch.from_dict({"kind": "evaluation"})


class TestInferenceEngine:
    def test_batch_equals_per_row(self, model_e5462, batch_b):
        prediction = InferenceEngine(model_e5462).predict(batch_b)
        per_row_norm = np.concatenate(
            [
                model_e5462.predict_normalized(batch_b.features[i])
                for i in range(batch_b.n_rows)
            ]
        )
        per_row_watts = np.concatenate(
            [
                model_e5462.predict_watts(batch_b.features[i])
                for i in range(batch_b.n_rows)
            ]
        )
        assert np.array_equal(prediction.normalized, per_row_norm)
        assert np.array_equal(prediction.watts, per_row_watts)

    def test_accepts_bare_matrix(self, model_e5462, batch_b):
        prediction = InferenceEngine(model_e5462).predict(batch_b.features)
        assert prediction.n_rows == batch_b.n_rows
        assert prediction.labels[0] == "row0"
        assert prediction.measured_watts is None

    def test_digest_is_deterministic(self, model_e5462, batch_b):
        engine = InferenceEngine(model_e5462)
        assert (
            engine.predict(batch_b).digest == engine.predict(batch_b).digest
        )

    def test_digest_sees_every_bit(self, batch_b):
        base = BatchPrediction(
            labels=batch_b.labels,
            normalized=np.zeros(batch_b.n_rows),
            watts=np.zeros(batch_b.n_rows),
        )
        flipped_watts = np.zeros(batch_b.n_rows)
        flipped_watts[-1] = np.nextafter(0.0, 1.0)  # one ulp
        flipped = BatchPrediction(
            labels=batch_b.labels,
            normalized=np.zeros(batch_b.n_rows),
            watts=flipped_watts,
        )
        assert base.digest != flipped.digest

    def test_r_squared_against_measured(self, model_e5462, batch_b):
        prediction = InferenceEngine(model_e5462).predict(batch_b)
        r2 = prediction.r_squared_against_measured()
        assert 0.4 < r2 < 1.0

    def test_r_squared_needs_measured_watts(self, model_e5462, batch_b):
        prediction = InferenceEngine(model_e5462).predict(batch_b.features)
        with pytest.raises(RegressionError, match="no measured watts"):
            prediction.r_squared_against_measured()

    def test_to_dict_is_schema_stable(self, model_e5462, batch_b):
        document = InferenceEngine(model_e5462).predict(batch_b).to_dict()
        assert document["kind"] == "model_predictions"
        assert sorted(document) == [
            "digest",
            "kind",
            "labels",
            "measured_watts",
            "n_rows",
            "normalized",
            "schema_version",
            "watts",
        ]

    def test_fleet_backend_collection_matches_inline(self, e5462):
        from repro.fleet import FleetRunner

        inline = collect_feature_batch(e5462, "B", Simulator(e5462, seed=0))
        dispatched = collect_feature_batch(
            e5462, "B", Simulator(e5462, seed=0), FleetRunner(workers=2)
        )
        assert dispatched.labels == inline.labels
        assert np.array_equal(dispatched.features, inline.features)
        assert np.array_equal(dispatched.watts, inline.watts)
