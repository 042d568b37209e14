"""The 1 s memory-usage sampler.

Step 7 of the paper's test procedure acquires memory information at 1 s
intervals during the run.  The sampler reads the resident footprint the
memory subsystem reports, plus small fluctuation from allocator and page
cache churn.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.hardware.specs import ServerSpec

__all__ = ["MemorySampler"]


class MemorySampler:
    """Samples resident memory (MB) once per second."""

    def __init__(
        self,
        server: ServerSpec,
        jitter_mb: float = 8.0,
        seed: int = 0,
    ):
        if jitter_mb < 0:
            raise ConfigurationError("jitter must be non-negative")
        self.server = server
        self.jitter_mb = jitter_mb
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def sample_series(self, resident_mb: np.ndarray) -> np.ndarray:
        """Observe a per-second series of true resident footprints."""
        resident_mb = np.asarray(resident_mb, dtype=float)
        observed = self._rng.standard_normal(resident_mb.shape)
        observed *= self.jitter_mb
        observed += resident_mb
        obs.inc("meter.memory_samples", float(resident_mb.size))
        return np.clip(observed, 0.0, self.server.memory_mb, out=observed)

    def usage_percent(self, resident_mb: np.ndarray) -> np.ndarray:
        """Observed usage as a percentage of installed DRAM."""
        return 100.0 * self.sample_series(resident_mb) / self.server.memory_mb
