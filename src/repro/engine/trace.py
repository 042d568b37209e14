"""Trace containers produced by the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.demand import ResourceDemand
from repro.errors import SimulationError
from repro.hardware.pmu import REGRESSION_FEATURES, PmuSample
from repro.metering.analysis import DEFAULT_TRIM, trimmed_mean
from repro.units import energy_kj

__all__ = ["PMU_COLUMNS", "RunResult"]

#: Column order of :attr:`RunResult.pmu`: the :class:`PmuSample` fields.
PMU_COLUMNS: tuple[str, ...] = tuple(f.name for f in fields(PmuSample))

#: The :data:`PMU_COLUMNS` of the regression features X1..X6, which
#: close the row in :data:`REGRESSION_FEATURES` order.
_FEATURES = slice(PMU_COLUMNS.index(REGRESSION_FEATURES[0]), None)


@dataclass(frozen=True)
class RunResult:
    """Everything observed during one simulated program run.

    Attributes
    ----------
    demand:
        The bound demand that was executed.
    t_start_s:
        Campaign-relative start time.
    times_s:
        Per-second sample timestamps (absolute, campaign-relative).
    true_watts:
        Ground-truth instantaneous power (available only in simulation —
        a real testbed sees just the meter).
    measured_watts:
        What the meter logged.
    memory_mb:
        What the 1 s memory sampler logged.
    pmu:
        PMU readings at the 10 s collection interval, one row per
        window and one column per :data:`PMU_COLUMNS` field; a run
        without PMU readings holds a (0, 8) array.
    power_factor:
        Idiosyncrasy factor applied to dynamic power for this run.
    """

    demand: ResourceDemand
    t_start_s: float
    times_s: np.ndarray
    true_watts: np.ndarray
    measured_watts: np.ndarray
    memory_mb: np.ndarray
    pmu: np.ndarray = field(
        default_factory=lambda: np.empty((0, len(PMU_COLUMNS)))
    )
    power_factor: float = 1.0

    def __post_init__(self) -> None:
        n = self.times_s.shape[0]
        for name in ("true_watts", "measured_watts", "memory_mb"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise SimulationError(
                    f"{name} has {arr.shape[0]} samples, expected {n}"
                )
        if n == 0:
            raise SimulationError("a run must contain at least one sample")
        if self.pmu.ndim != 2 or self.pmu.shape[1] != len(PMU_COLUMNS):
            raise SimulationError(
                f"pmu must be (k, {len(PMU_COLUMNS)}), got {self.pmu.shape}"
            )

    @property
    def duration_s(self) -> float:
        """Nominal run duration."""
        return self.demand.duration_s

    @property
    def t_end_s(self) -> float:
        """Campaign-relative end time."""
        return self.t_start_s + self.duration_s

    def average_power_watts(self, trim: float = DEFAULT_TRIM) -> float:
        """Trimmed-mean measured power (the paper's analysis step 4)."""
        return trimmed_mean(self.measured_watts, trim)

    def average_memory_mb(self, trim: float = DEFAULT_TRIM) -> float:
        """Trimmed-mean observed resident memory."""
        return trimmed_mean(self.memory_mb, trim)

    def ppw(self, trim: float = DEFAULT_TRIM) -> float:
        """Performance per watt (Eq. 1): GFLOPS / average watts."""
        return self.demand.gflops / self.average_power_watts(trim)

    def energy_kilojoules(self, trim: float = DEFAULT_TRIM) -> float:
        """Energy for the whole run (Eq. 2)."""
        return energy_kj(self.average_power_watts(trim), self.duration_s)

    @property
    def pmu_samples(self) -> tuple[PmuSample, ...]:
        """The :attr:`pmu` rows as :class:`PmuSample` objects, built on
        each access."""
        return tuple(PmuSample(*row) for row in self.pmu.tolist())

    def pmu_matrix(self) -> np.ndarray:
        """PMU feature matrix, one row per 10 s sample (X1..X6)."""
        if not len(self.pmu):
            raise SimulationError("run recorded no PMU samples")
        return self.pmu[:, _FEATURES]
