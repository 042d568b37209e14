"""The power regression model (Section VI).

Pipeline, exactly as the paper describes:

1. **Collect** — run the seven HPCC components "from single core to full
   cores", sampling the six PMU counters every 10 s and pairing each
   sample with the average metered power over the same interval
   (:func:`collect_hpcc_training`).
2. **Normalise** — z-score features and power "to unify the dimensions of
   different variables"; the intercept C then collapses to ~0
   (Table VIII: C = 2.37e-14).
3. **Fit** — forward stepwise selection over the six indices, then OLS
   (:func:`train_power_model`), giving the Table VII summary block and the
   Table VIII coefficients.
4. **Verify** — run the NPB programs (class B or C) over their allowed
   process counts, predict each run's normalised power from its mean PMU
   features, and compare against the measurement with the Eq. (6)-(8)
   fitting R² (:func:`verify_on_npb`, Figs. 12-13).

The verification R² is expected in the paper's band (≈0.63 for class B,
≈0.54 for class C) rather than near the 0.94 training value: the true
simulated power contains communication power and per-program
idiosyncrasies the six counters cannot see — the paper's own explanation
for why EP (no communication) and SP (most communication) fit worst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import r_squared
from repro.engine.simulator import PMU_INTERVAL_S, Simulator
from repro.errors import InsufficientMemoryError, RegressionError
from repro.hardware.pmu import REGRESSION_FEATURES
from repro.hardware.specs import ServerSpec
from repro.stats.linreg import OlsModel, StepwiseResult, fit_ols, forward_stepwise
from repro.stats.normalize import ZScoreNormalizer
from repro.workloads.hpcc import HPCC_COMPONENTS, HpccWorkload
from repro.workloads.npb import NPB_PROGRAMS, NpbClass, NpbWorkload

__all__ = [
    "RegressionDataset",
    "PowerRegressionModel",
    "VerificationResult",
    "collect_hpcc_training",
    "collect_npb_features",
    "train_power_model",
    "verify_on_npb",
    "verification_runs",
]


def _iter_runs(simulator: Simulator, workloads: list, backend=None):
    """Yield ``(workload, run-or-error)`` pairs in campaign order.

    ``backend=None`` executes inline on ``simulator`` exactly as the
    historical loops did, but yields each run as it completes and
    retains none of them — a collector that reduces runs to features on
    the fly holds at most one run's traces at a time.  A backend (e.g.
    :class:`repro.fleet.backend.FleetBackend`) still receives the whole
    list at once via ``map_runs`` and may parallelise, cache, and
    retry; the simulator's seeding contract keeps the results
    bit-identical either way.  Workloads that cannot run (memory fit,
    process rules) come back as the raised
    :class:`~repro.errors.WorkloadError` so the caller can skip them
    positionally.
    """
    from repro.errors import WorkloadError

    if backend is not None:
        yield from zip(workloads, backend.map_runs(simulator, list(workloads)))
        return
    for workload in workloads:
        try:
            yield workload, simulator.run(workload)
        except WorkloadError as exc:
            yield workload, exc


@dataclass(frozen=True)
class RegressionDataset:
    """Paired (PMU features, power) observations.

    ``features`` is (n, 6) in :data:`REGRESSION_FEATURES` order; ``power``
    is metered watts averaged per 10 s interval; ``labels`` names the run
    each observation came from.
    """

    features: np.ndarray
    power: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or self.features.shape[1] != len(
            REGRESSION_FEATURES
        ):
            raise RegressionError(
                f"features must be (n, {len(REGRESSION_FEATURES)}), "
                f"got {self.features.shape}"
            )
        if self.features.shape[0] != self.power.shape[0]:
            raise RegressionError("features and power row counts differ")
        if len(self.labels) != self.features.shape[0]:
            raise RegressionError("labels and rows differ")

    @property
    def n_observations(self) -> int:
        """Number of (features, power) pairs."""
        return int(self.features.shape[0])


def collect_hpcc_training(
    server: ServerSpec,
    simulator: Simulator | None = None,
    proc_counts: "list[int] | None" = None,
    backend=None,
) -> RegressionDataset:
    """Run the HPCC campaign and collect per-10 s training observations.

    ``proc_counts`` defaults to every count from 1 to the server's full
    core count, matching the paper's "single core to full cores" scripts.
    ``backend`` optionally routes the campaign's runs through a batch
    executor (see :class:`repro.fleet.backend.FleetBackend`); results
    are bit-identical to the inline path.
    """
    from repro.errors import WorkloadError

    simulator = simulator or Simulator(server)
    if proc_counts is None:
        proc_counts = list(range(1, server.total_cores + 1))
    workloads = [
        HpccWorkload(component, nprocs)
        for component in HPCC_COMPONENTS
        for nprocs in proc_counts
    ]
    rows: list[np.ndarray] = []
    power: list[float] = []
    labels: list[str] = []
    for workload, run in _iter_runs(simulator, workloads, backend):
        if isinstance(run, WorkloadError):
            raise run
        interval = int(PMU_INTERVAL_S)
        for k, sample in enumerate(run.pmu_samples):
            window = run.measured_watts[k * interval : (k + 1) * interval]
            if window.size == 0:
                continue
            rows.append(sample.as_vector())
            power.append(float(window.mean()))
            labels.append(workload.label)
    if not rows:
        raise RegressionError("HPCC campaign produced no observations")
    return RegressionDataset(
        features=np.vstack(rows),
        power=np.asarray(power),
        labels=tuple(labels),
    )


@dataclass(frozen=True)
class PowerRegressionModel:
    """The trained model plus its normalisers and selection detail."""

    server: str
    feature_normalizer: ZScoreNormalizer
    power_normalizer: ZScoreNormalizer
    ols: OlsModel
    selected: tuple[int, ...]
    stepwise: StepwiseResult | None

    @property
    def n_observations(self) -> int:
        """Training observations (Table VII's "Observation")."""
        return self.ols.n_observations

    @property
    def r_square(self) -> float:
        """Training R² (Table VII)."""
        return self.ols.r_square

    def coefficients_full(self) -> np.ndarray:
        """b1..b6 in :data:`REGRESSION_FEATURES` order (0 if unselected)."""
        full = np.zeros(len(REGRESSION_FEATURES))
        full[list(self.selected)] = self.ols.coefficients
        return full

    @property
    def intercept(self) -> float:
        """The constant C of Eq. (5) (≈0 after normalisation)."""
        return self.ols.intercept

    def predict_normalized(self, features: np.ndarray) -> np.ndarray:
        """Predict normalised power from raw PMU feature rows."""
        normalized = self.feature_normalizer.transform(
            np.atleast_2d(np.asarray(features, dtype=float))
        )
        return self.ols.predict(normalized[:, list(self.selected)])

    def predict_watts(self, features: np.ndarray) -> np.ndarray:
        """Predict absolute watts from raw PMU feature rows."""
        return self.power_normalizer.inverse_transform(
            self.predict_normalized(features)
        )

    def normalize_power(self, watts: np.ndarray) -> np.ndarray:
        """Express measured watts on the training's normalised scale."""
        return self.power_normalizer.transform(np.asarray(watts, dtype=float))


def train_power_model(
    dataset: RegressionDataset,
    server_name: str = "",
    use_stepwise: bool = True,
    alpha_enter: float = 0.05,
) -> PowerRegressionModel:
    """Normalise and fit the regression model on a training dataset."""
    if float(np.std(dataset.power)) == 0.0:
        raise RegressionError(
            "training power has zero variance; nothing to regress on"
        )
    feature_norm = ZScoreNormalizer()
    power_norm = ZScoreNormalizer()
    x = feature_norm.fit_transform(dataset.features)
    y = power_norm.fit_transform(dataset.power)
    if use_stepwise:
        stepwise = forward_stepwise(x, y, alpha_enter=alpha_enter)
        selected = stepwise.selected
        ols = stepwise.model
    else:
        stepwise = None
        selected = tuple(range(x.shape[1]))
        ols = fit_ols(x, y)
    return PowerRegressionModel(
        server=server_name,
        feature_normalizer=feature_norm,
        power_normalizer=power_norm,
        ols=ols,
        selected=selected,
        stepwise=stepwise,
    )


@dataclass(frozen=True)
class VerificationResult:
    """Per-run verification series (the data behind Figs. 12-13)."""

    server: str
    npb_class: str
    labels: tuple[str, ...]
    measured: np.ndarray
    predicted: np.ndarray

    @property
    def difference(self) -> np.ndarray:
        """Measured minus regression value (Fig. 13)."""
        return self.measured - self.predicted

    @property
    def r_squared(self) -> float:
        """Fitting R² per Eqs. (6)-(8)."""
        return r_squared(self.measured, self.predicted)

    def per_program_rms(self) -> dict[str, float]:
        """RMS difference per program — identifies the worst fits."""
        by_program: dict[str, list[float]] = {}
        for label, diff in zip(self.labels, self.difference):
            by_program.setdefault(label.split(".")[0], []).append(diff)
        return {
            name: float(np.sqrt(np.mean(np.square(values))))
            for name, values in sorted(by_program.items())
        }


def verification_runs(
    server: ServerSpec, klass: "NpbClass | str"
) -> list[NpbWorkload]:
    """The NPB runs of one verification sweep, in Fig. 12's label order.

    Every program is swept over its allowed process counts up to the core
    count (EP over *all* counts — 40 of the Fig. 12 x-axis points);
    configurations that do not fit in memory are skipped, mirroring the
    holes in the paper's figures.
    """
    klass = NpbClass.parse(klass)
    workloads: list[NpbWorkload] = []
    for name, program in NPB_PROGRAMS.items():
        for nprocs in range(1, server.total_cores + 1):
            if not program.proc_rule.allows(nprocs):
                continue
            workloads.append(NpbWorkload(program, klass, nprocs))
    # The paper's figures order bars lexicographically (ep.B.1, ep.B.10,
    # ep.B.11, ..., ep.B.2, ep.B.20, ...).
    workloads.sort(key=lambda w: w.label)
    return workloads


def collect_npb_features(
    server: ServerSpec,
    klass: "NpbClass | str" = "B",
    simulator: Simulator | None = None,
    backend=None,
) -> "tuple[tuple[str, ...], np.ndarray, np.ndarray]":
    """Per-run mean PMU features and measured watts of one NPB sweep.

    Returns ``(labels, features, watts)`` where ``features`` is (n, 6)
    in :data:`~repro.hardware.pmu.REGRESSION_FEATURES` order and
    ``watts`` is the trimmed-mean metered power of each run.  Runs that
    do not fit in memory are skipped (the paper's figure holes).  This
    is the collection half of :func:`verify_on_npb`, exposed so the
    model-serving layer (:mod:`repro.model`) can gather verification
    batches — optionally through a fleet ``backend`` — and feed them to
    a persisted model without retraining.
    """
    simulator = simulator or Simulator(server)
    workloads = verification_runs(server, klass)
    labels: list[str] = []
    rows: list[np.ndarray] = []
    watts: list[float] = []
    for workload, run in _iter_runs(simulator, workloads, backend):
        if isinstance(run, InsufficientMemoryError):
            continue
        if isinstance(run, Exception):
            raise run
        labels.append(workload.label)
        rows.append(run.pmu_matrix().mean(axis=0))
        watts.append(run.average_power_watts())
    if not rows:
        raise RegressionError(f"NPB class {klass} produced no runs")
    return tuple(labels), np.vstack(rows), np.asarray(watts)


def verify_on_npb(
    server: ServerSpec,
    model: PowerRegressionModel,
    klass: "NpbClass | str" = "B",
    simulator: Simulator | None = None,
    backend=None,
) -> VerificationResult:
    """Verify a trained model against NPB class B or C runs.

    Predictions are made in one vectorised call over the stacked
    feature matrix; :meth:`OlsModel.predict`'s fixed accumulation order
    makes this bit-identical to the historical one-run-at-a-time loop.
    """
    labels, features, watts = collect_npb_features(
        server, klass, simulator, backend
    )
    if len(labels) < 3:
        raise RegressionError(
            f"verification produced only {len(labels)} runs"
        )
    return VerificationResult(
        server=server.name,
        npb_class=NpbClass.parse(klass).value,
        labels=labels,
        measured=model.normalize_power(watts),
        predicted=model.predict_normalized(features),
    )
