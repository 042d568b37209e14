"""Batched inference over trained power models.

The serving half of the registry: load a model once, predict over
(n, 6) feature matrices in one vectorised pass.  Because
:meth:`repro.stats.linreg.OlsModel.predict` evaluates its linear
combination with a fixed element-wise accumulation order, a batched
prediction is **bit-identical** to predicting the same rows one at a
time — the property the digest comparisons (and the CI ``model-smoke``
job) assert, and what lets a cached or remote prediction substitute for
a local one.

Feature batches are plain ``(labels, features[, watts])`` bundles with
a JSON form (``kind: "feature_batch"``), so a batch collected on one
machine — e.g. the NPB verification sweep gathered through the fleet —
can be served by a model process that never ran a simulator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.metrics import r_squared
from repro.core.regression import (
    PowerRegressionModel,
    collect_npb_features,
)
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, RegressionError
from repro.hardware.pmu import REGRESSION_FEATURES
from repro.hardware.specs import ServerSpec

__all__ = [
    "FeatureBatch",
    "BatchPrediction",
    "InferenceEngine",
    "collect_feature_batch",
]

FEATURE_BATCH_KIND = "feature_batch"
PREDICTIONS_KIND = "model_predictions"
_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FeatureBatch:
    """A labelled (n, 6) feature matrix, optionally with measured watts."""

    labels: tuple[str, ...]
    features: np.ndarray
    watts: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.features.shape[1] != len(
            REGRESSION_FEATURES
        ):
            raise RegressionError(
                f"features must be (n, {len(REGRESSION_FEATURES)}), "
                f"got {self.features.shape}"
            )
        if len(self.labels) != self.features.shape[0]:
            raise RegressionError("labels and feature rows differ")
        if self.watts is not None and (
            self.watts.shape[0] != self.features.shape[0]
        ):
            raise RegressionError("watts and feature rows differ")

    @property
    def n_rows(self) -> int:
        """Number of feature rows."""
        return int(self.features.shape[0])

    def to_dict(self) -> dict[str, Any]:
        """JSON form (``kind: "feature_batch"``)."""
        document: dict[str, Any] = {
            "kind": FEATURE_BATCH_KIND,
            "schema_version": _SCHEMA_VERSION,
            "feature_names": list(REGRESSION_FEATURES),
            "labels": list(self.labels),
            "features": self.features.tolist(),
        }
        if self.watts is not None:
            document["watts"] = self.watts.tolist()
        return document

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FeatureBatch":
        """Inverse of :meth:`to_dict`."""
        if data.get("kind") != FEATURE_BATCH_KIND:
            raise ConfigurationError(
                f"expected a {FEATURE_BATCH_KIND!r} document, "
                f"found {data.get('kind')!r}"
            )
        watts = data.get("watts")
        return cls(
            labels=tuple(data["labels"]),
            features=np.asarray(data["features"], dtype=float),
            watts=None if watts is None else np.asarray(watts, dtype=float),
        )


def collect_feature_batch(
    server: ServerSpec,
    klass: str = "B",
    simulator: "Simulator | None" = None,
    backend=None,
) -> FeatureBatch:
    """The NPB verification sweep as a servable feature batch.

    ``backend`` optionally dispatches the runs through the fleet
    (:class:`repro.fleet.FleetRunner`) — across workers, the
    result cache, retries — with bit-identical features.
    """
    labels, features, watts = collect_npb_features(
        server, klass, simulator, backend
    )
    return FeatureBatch(labels=labels, features=features, watts=watts)


@dataclass(frozen=True)
class BatchPrediction:
    """One vectorised prediction pass over a feature batch."""

    labels: tuple[str, ...]
    normalized: np.ndarray
    watts: np.ndarray
    measured_watts: "np.ndarray | None" = None

    @property
    def n_rows(self) -> int:
        """Number of predicted rows."""
        return int(self.normalized.shape[0])

    @property
    def digest(self) -> str:
        """SHA-256 over the raw prediction bytes.

        Two prediction passes agree on this digest iff they agree on
        every output bit — the registry round-trip test in CI compares
        exactly this.
        """
        payload = (
            np.ascontiguousarray(self.normalized, dtype="<f8").tobytes()
            + np.ascontiguousarray(self.watts, dtype="<f8").tobytes()
        )
        return hashlib.sha256(payload).hexdigest()

    def r_squared_against_measured(self) -> float:
        """Fitting R² (Eqs. 6-8) against the batch's measured watts."""
        if self.measured_watts is None:
            raise RegressionError(
                "batch carried no measured watts to score against"
            )
        return r_squared(self.measured_watts, self.watts)

    def to_dict(self) -> dict[str, Any]:
        """JSON form (``kind: "model_predictions"``), schema-stable."""
        document: dict[str, Any] = {
            "kind": PREDICTIONS_KIND,
            "schema_version": _SCHEMA_VERSION,
            "n_rows": self.n_rows,
            "digest": self.digest,
            "labels": list(self.labels),
            "normalized": self.normalized.tolist(),
            "watts": self.watts.tolist(),
        }
        if self.measured_watts is not None:
            document["measured_watts"] = self.measured_watts.tolist()
        return document


class InferenceEngine:
    """Vectorised serving wrapper around one trained model.

    >>> from repro.core.regression import collect_hpcc_training, train_power_model
    >>> from repro.hardware import XEON_E5462
    >>> model = train_power_model(collect_hpcc_training(XEON_E5462))
    >>> engine = InferenceEngine(model)
    >>> batch = collect_feature_batch(XEON_E5462, "B")
    >>> engine.predict(batch).n_rows == batch.n_rows
    True
    """

    def __init__(self, model: PowerRegressionModel):
        self.model = model

    def predict(self, batch: "FeatureBatch | np.ndarray") -> BatchPrediction:
        """Predict a whole batch in one pass.

        Accepts a :class:`FeatureBatch` or a bare (n, 6) matrix.
        Bit-identical to a per-row loop over
        ``model.predict_normalized`` / ``predict_watts`` (see the
        module docstring), which the hypothesis property suite pins on
        every builtin server.
        """
        if isinstance(batch, FeatureBatch):
            labels, features = batch.labels, batch.features
            measured = batch.watts
        else:
            features = np.atleast_2d(np.asarray(batch, dtype=float))
            labels = tuple(f"row{i}" for i in range(features.shape[0]))
            measured = None
        with obs.timed("model.predict", rows=int(features.shape[0])):
            normalized = self.model.predict_normalized(features)
            watts = self.model.power_normalizer.inverse_transform(normalized)
        obs.inc("model.predict.rows", float(features.shape[0]))
        return BatchPrediction(
            labels=labels,
            normalized=normalized,
            watts=watts,
            measured_watts=measured,
        )
