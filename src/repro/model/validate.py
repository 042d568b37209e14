"""Model validation: k-fold CV and drift against the paper's R² bands.

Before an artifact is trusted to serve predictions, two questions need
quantitative answers:

1. **Does the fit generalise within its training distribution?**
   K-fold cross-validation over the HPCC training set: refit on k-1
   folds, score held-out R² on the remaining fold.  The paper reports
   a 0.94 training R² (Table VII); a healthy model's held-out mean
   stays close to its training value — a large gap means the stepwise
   fit memorised noise.
2. **Has it drifted on the verification distribution?**  Predict the
   NPB class B/C sweeps and compare the Eq. (6)-(8) fitting R² and
   per-program RMS residuals against the Section VI bands (≈0.63 for
   class B, ≈0.54 for class C on the paper's Xeon-4870).  The gap to
   training R² is *expected* — communication power and per-program
   idiosyncrasies are invisible to the six counters — so the bands are
   wide, but a score below them means the model (or the machine) has
   drifted and the artifact should be retrained, not served.

Fold assignment is a seeded permutation (contiguous folds would hold
out whole HPCC components and mis-measure generalisation).  Every fold
score and drift verdict is exported through :mod:`repro.obs` counters
and histograms when observability is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.metrics import r_squared
from repro.core.regression import (
    PowerRegressionModel,
    RegressionDataset,
    collect_hpcc_training,
    train_power_model,
    verify_on_npb,
)
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.hardware.specs import ServerSpec

__all__ = [
    "R2_BANDS",
    "ZOO_TRAIN_BAND",
    "FoldScore",
    "ClassDrift",
    "ValidationReport",
    "GridStudyCell",
    "GridStudy",
    "kfold_cv",
    "validate_model",
    "grid_regression_study",
]

#: Accepted R² bands, keyed by check.  ``train`` wraps the paper's
#: Table VII value (0.940 on the Xeon-4870; the smaller machines fit in
#: the high 0.8s); ``B``/``C`` wrap the Section VI verification values
#: (0.634 / 0.543) with the spread observed across the three builtin
#: servers.  The ``model validate`` CLI exits non-zero outside them.
R2_BANDS: dict[str, tuple[float, float]] = {
    "train": (0.80, 0.99),
    "cv": (0.75, 0.99),
    "B": (0.45, 0.90),
    "C": (0.35, 0.90),
}

#: Accepted training-R² band for zoo servers across their state grids.
#: Wider than the builtin ``train`` band: zoo machines use heuristic (not
#: paper-anchored) coefficients and are studied at off-nominal P-states,
#: where the frequency-scaled power model stresses the six-counter
#: regression harder than the paper's fixed operating point did.
ZOO_TRAIN_BAND: tuple[float, float] = (0.70, 0.995)


@dataclass(frozen=True)
class FoldScore:
    """Held-out performance of one CV fold."""

    fold: int
    n_train: int
    n_test: int
    r_square: float
    rmse: float


@dataclass(frozen=True)
class ClassDrift:
    """Verification drift of one NPB class."""

    npb_class: str
    n_runs: int
    r_squared: float
    band: tuple[float, float]
    per_program_rms: dict[str, float]

    @property
    def within_band(self) -> bool:
        """Whether the fitting R² sits inside the accepted band."""
        low, high = self.band
        return low <= self.r_squared <= high


@dataclass(frozen=True)
class ValidationReport:
    """Everything ``model validate`` decides on."""

    server: str
    n_observations: int
    train_r_square: float
    train_band: tuple[float, float]
    cv_band: tuple[float, float]
    folds: tuple[FoldScore, ...]
    drifts: tuple[ClassDrift, ...]

    @property
    def cv_mean_r_square(self) -> float:
        """Mean held-out R² across folds."""
        return float(np.mean([f.r_square for f in self.folds]))

    @property
    def cv_std_r_square(self) -> float:
        """Spread of held-out R² across folds."""
        return float(np.std([f.r_square for f in self.folds]))

    @property
    def train_within_band(self) -> bool:
        """Whether training R² sits inside its band."""
        low, high = self.train_band
        return low <= self.train_r_square <= high

    @property
    def cv_within_band(self) -> bool:
        """Whether the CV mean sits inside its band."""
        low, high = self.cv_band
        return low <= self.cv_mean_r_square <= high

    @property
    def ok(self) -> bool:
        """All checks inside their bands."""
        return (
            self.train_within_band
            and self.cv_within_band
            and all(d.within_band for d in self.drifts)
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON form (``kind: "model_validation"``), schema-stable."""
        return {
            "kind": "model_validation",
            "schema_version": 1,
            "server": self.server,
            "n_observations": self.n_observations,
            "ok": self.ok,
            "train": {
                "r_square": self.train_r_square,
                "band": list(self.train_band),
                "within_band": self.train_within_band,
            },
            "cv": {
                "mean_r_square": self.cv_mean_r_square,
                "std_r_square": self.cv_std_r_square,
                "band": list(self.cv_band),
                "within_band": self.cv_within_band,
                "folds": [
                    {
                        "fold": f.fold,
                        "n_train": f.n_train,
                        "n_test": f.n_test,
                        "r_square": f.r_square,
                        "rmse": f.rmse,
                    }
                    for f in self.folds
                ],
            },
            "drift": [
                {
                    "npb_class": d.npb_class,
                    "n_runs": d.n_runs,
                    "r_squared": d.r_squared,
                    "band": list(d.band),
                    "within_band": d.within_band,
                    "per_program_rms": d.per_program_rms,
                }
                for d in self.drifts
            ],
        }

    def format(self) -> str:
        """Aligned text rendering."""

        def verdict(flag: bool) -> str:
            return "ok" if flag else "OUT OF BAND"

        lines = [f"model validation on {self.server}"]
        lines.append(
            f"  {'train R^2':<14} {self.train_r_square:>8.4f}  "
            f"band [{self.train_band[0]:.2f}, {self.train_band[1]:.2f}]  "
            f"{verdict(self.train_within_band)}"
        )
        lines.append(
            f"  {'CV mean R^2':<14} {self.cv_mean_r_square:>8.4f}  "
            f"band [{self.cv_band[0]:.2f}, {self.cv_band[1]:.2f}]  "
            f"{verdict(self.cv_within_band)} "
            f"(+/- {self.cv_std_r_square:.4f} over {len(self.folds)} folds)"
        )
        for d in self.drifts:
            worst = max(d.per_program_rms, key=d.per_program_rms.get)
            lines.append(
                f"  {'NPB-' + d.npb_class + ' R^2':<14} "
                f"{d.r_squared:>8.4f}  "
                f"band [{d.band[0]:.2f}, {d.band[1]:.2f}]  "
                f"{verdict(d.within_band)} "
                f"(worst program {worst}: "
                f"rms {d.per_program_rms[worst]:.3f})"
            )
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GridStudyCell:
    """Regression fit quality at one operating point of a state grid."""

    pstate: int
    frequency_ratio: float
    n_observations: int
    train_r_square: float
    band: tuple[float, float]

    @property
    def within_band(self) -> bool:
        """Whether the training R² sits inside the accepted band."""
        low, high = self.band
        return low <= self.train_r_square <= high


@dataclass(frozen=True)
class GridStudy:
    """The regression study re-run across a server's P-state grid."""

    server: str
    cells: tuple[GridStudyCell, ...]

    @property
    def ok(self) -> bool:
        """All operating points inside the band."""
        return all(c.within_band for c in self.cells)

    def to_dict(self) -> dict[str, Any]:
        """JSON form (``kind: "grid_study"``), schema-stable."""
        return {
            "kind": "grid_study",
            "schema_version": 1,
            "server": self.server,
            "ok": self.ok,
            "cells": [
                {
                    "pstate": c.pstate,
                    "frequency_ratio": c.frequency_ratio,
                    "n_observations": c.n_observations,
                    "train_r_square": c.train_r_square,
                    "band": list(c.band),
                    "within_band": c.within_band,
                }
                for c in self.cells
            ],
        }

    def format(self) -> str:
        """Aligned text rendering."""
        lines = [f"grid regression study on {self.server}"]
        for c in self.cells:
            verdict = "ok" if c.within_band else "OUT OF BAND"
            lines.append(
                f"  P{c.pstate} (x{c.frequency_ratio:.2f})  "
                f"train R^2 {c.train_r_square:>8.4f}  "
                f"band [{c.band[0]:.2f}, {c.band[1]:.2f}]  {verdict} "
                f"({c.n_observations} obs)"
            )
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def grid_regression_study(
    server: ServerSpec,
    pstates: "tuple[int, ...] | None" = None,
    seed: int = 0,
    backend=None,
    proc_counts: "list[int] | None" = None,
    band: "tuple[float, float]" = ZOO_TRAIN_BAND,
) -> GridStudy:
    """Re-run the paper's regression training at each grid operating point.

    For every P-state the server is pinned, the HPCC training campaign is
    re-collected on the pinned spec, and the six-counter model is refit;
    the resulting training R² must stay inside ``band``.  ``proc_counts``
    defaults to the (1, half, full) core levels — the regression's
    variance comes from the HPCC program mix, not the core sweep, so the
    compact sweep keeps a multi-server nightly gate affordable.
    """
    if pstates is None:
        pstates = tuple(range(server.n_pstates))
    if proc_counts is None:
        proc_counts = sorted(
            {1, server.half_cores(), server.total_cores}
        )
    cells: list[GridStudyCell] = []
    for p in pstates:
        pinned = server.at_pstate(p)
        with obs.timed("model.grid_study.cell", server=server.name, pstate=p):
            dataset = collect_hpcc_training(
                pinned,
                Simulator(pinned, seed=seed),
                proc_counts=list(proc_counts),
                backend=backend,
            )
            model = train_power_model(dataset, server_name=pinned.name)
        cells.append(
            GridStudyCell(
                pstate=p,
                frequency_ratio=pinned.frequency_ratio,
                n_observations=dataset.n_observations,
                train_r_square=model.r_square,
                band=band,
            )
        )
        obs.observe("model.grid_study.train_r2", model.r_square)
    return GridStudy(server=server.name, cells=tuple(cells))


def _subset(dataset: RegressionDataset, idx: np.ndarray) -> RegressionDataset:
    return RegressionDataset(
        features=dataset.features[idx],
        power=dataset.power[idx],
        labels=tuple(dataset.labels[i] for i in idx),
    )


def kfold_cv(
    dataset: RegressionDataset,
    k: int = 5,
    seed: int = 0,
    use_stepwise: bool = True,
) -> tuple[FoldScore, ...]:
    """Seeded-permutation k-fold cross-validation.

    Each fold refits the full pipeline — normalisation and (optionally)
    stepwise selection happen *inside* the fold, so no statistic of the
    held-out rows leaks into training.  Held-out R² is scored on the
    fold model's own normalised scale.
    """
    if k < 2:
        raise ConfigurationError(f"need at least 2 folds, got {k}")
    n = dataset.n_observations
    if n < 2 * k:
        raise ConfigurationError(
            f"{n} observations cannot fill {k} folds meaningfully"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    folds = np.array_split(order, k)
    scores: list[FoldScore] = []
    for i, test_idx in enumerate(folds):
        train_idx = np.concatenate(
            [folds[j] for j in range(k) if j != i]
        )
        with obs.timed("model.validate.fold", fold=i):
            fold_model = train_power_model(
                _subset(dataset, np.sort(train_idx)),
                server_name="cv",
                use_stepwise=use_stepwise,
            )
            predicted = fold_model.predict_normalized(
                dataset.features[np.sort(test_idx)]
            )
            actual = fold_model.normalize_power(
                dataset.power[np.sort(test_idx)]
            )
            r2 = r_squared(actual, predicted)
            rmse = float(np.sqrt(np.mean(np.square(actual - predicted))))
        obs.observe("model.validate.fold_r2", r2)
        scores.append(
            FoldScore(
                fold=i,
                n_train=int(train_idx.size),
                n_test=int(test_idx.size),
                r_square=r2,
                rmse=rmse,
            )
        )
    return tuple(scores)


def validate_model(
    server: ServerSpec,
    model: PowerRegressionModel,
    dataset: RegressionDataset,
    klasses: "tuple[str, ...]" = ("B", "C"),
    folds: int = 5,
    seed: int = 0,
    simulator: "Simulator | None" = None,
    backend=None,
    bands: "dict[str, tuple[float, float]] | None" = None,
) -> ValidationReport:
    """Full validation pass: CV on ``dataset``, drift on NPB ``klasses``.

    ``model`` must have been trained on ``dataset`` (its training R² is
    one of the banded checks).  Each class's drift is scored from
    :func:`~repro.core.regression.verify_on_npb`, so a sweep of fewer
    than three runs raises :class:`~repro.errors.RegressionError`.
    ``backend`` routes the NPB sweeps through the fleet.  ``bands``
    overrides :data:`R2_BANDS`.
    """
    bands = {**R2_BANDS, **(bands or {})}
    fold_scores = kfold_cv(dataset, k=folds, seed=seed)
    drifts: list[ClassDrift] = []
    for klass in klasses:
        verification = verify_on_npb(server, model, klass, simulator, backend)
        drift = ClassDrift(
            npb_class=klass,
            n_runs=len(verification.labels),
            r_squared=verification.r_squared,
            band=bands.get(klass, (0.0, 1.0)),
            per_program_rms=verification.per_program_rms(),
        )
        obs.observe(f"model.validate.npb_{klass.lower()}_r2", drift.r_squared)
        if not drift.within_band:
            obs.inc("model.validate.out_of_band")
        drifts.append(drift)
    report = ValidationReport(
        server=server.name,
        n_observations=dataset.n_observations,
        train_r_square=model.r_square,
        train_band=bands["train"],
        cv_band=bands["cv"],
        folds=fold_scores,
        drifts=tuple(drifts),
    )
    obs.inc("model.validate.count")
    return report
