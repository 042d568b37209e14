"""Simulated Yokogawa WT210 power meter.

The WT210 is the meter the paper uses (Section V-C2).  The model covers
the behaviours that matter to the evaluation pipeline:

* 1 Hz sample logging (WTViewer's data logger),
* a measurement range with over-range errors,
* gaussian measurement noise plus 0.1 % gain error and display
  quantisation, and
* deterministic output given a seed, so every experiment is repeatable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, InvalidSampleError, MeterError

__all__ = ["MeterSpec", "WT210", "Wt210Meter"]


@dataclass(frozen=True)
class MeterSpec:
    """Accuracy and range description of a power meter."""

    name: str
    max_watts: float
    noise_sigma_watts: float
    gain_error: float
    quantum_watts: float
    sample_hz: float = 1.0

    def __post_init__(self) -> None:
        if self.max_watts <= 0:
            raise ConfigurationError("max_watts must be positive")
        if self.noise_sigma_watts < 0:
            raise ConfigurationError("noise sigma must be non-negative")
        if not 0.0 <= self.gain_error < 0.1:
            raise ConfigurationError("gain error must be a small fraction")
        if self.quantum_watts <= 0:
            raise ConfigurationError("quantum must be positive")
        if self.sample_hz <= 0:
            raise ConfigurationError("sample rate must be positive")


#: The paper's meter: 2 kW range covers all three servers (peak 1119.6 W).
WT210 = MeterSpec(
    name="WT210",
    max_watts=2000.0,
    noise_sigma_watts=0.5,
    gain_error=0.001,
    quantum_watts=0.01,
    sample_hz=1.0,
)


class Wt210Meter:
    """A seeded instance of a :class:`MeterSpec`.

    The per-instance gain error is drawn once (a real meter's calibration
    is fixed), while the additive noise varies per sample.
    """

    def __init__(self, spec: MeterSpec = WT210, seed: int = 0):
        self.spec = spec
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._gain = 1.0 + spec.gain_error * float(
            self._rng.standard_normal()
        )

    def sample_series(self, true_watts: np.ndarray) -> np.ndarray:
        """Measure a 1 Hz series of true power values.

        Raises
        ------
        InvalidSampleError
            If any value is NaN, infinite, or negative — with the index
            of the first offender, so a corrupt trace can be located.
        MeterError
            If any value exceeds the configured range (over-range).
        """
        true_watts = np.asarray(true_watts, dtype=float)
        # One min/max pair accepts a valid series (NaN fails both
        # comparisons); only a rejected one runs the ordered checks.
        if true_watts.size and not (
            true_watts.min() >= 0.0 and true_watts.max() <= self.spec.max_watts
        ):
            self._reject(true_watts)
        measured = np.multiply(true_watts, self._gain, out=np.empty_like(true_watts))
        noise = self._rng.standard_normal(true_watts.shape)
        noise *= self.spec.noise_sigma_watts
        measured += noise
        measured /= self.spec.quantum_watts
        np.rint(measured, out=measured)
        measured *= self.spec.quantum_watts
        obs.inc("meter.samples", float(true_watts.size))
        return np.maximum(measured, 0.0, out=measured)

    def _reject(self, true_watts: np.ndarray) -> NoReturn:
        """Raise for the first check a series fails: non-finite, then
        negative, then over-range."""
        nonfinite = ~np.isfinite(true_watts)
        if nonfinite.any():
            index = int(np.argmax(nonfinite))
            raise InvalidSampleError(
                float(true_watts[index]), index, "power must be finite"
            )
        negative = true_watts < 0
        if negative.any():
            index = int(np.argmax(negative))
            raise InvalidSampleError(
                float(true_watts[index]),
                index,
                "negative power cannot be measured",
            )
        raise MeterError(
            f"{self.spec.name}: {true_watts.max():.0f} W exceeds the "
            f"{self.spec.max_watts:.0f} W range"
        )

    def sample(self, true_watts: float) -> float:
        """Measure a single value."""
        return float(self.sample_series(np.array([true_watts]))[0])
