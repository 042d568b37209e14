"""SPECpower_ssj2008 workload model.

SPECpower exercises a server-side Java transaction mix at graduated load
levels: three calibration phases find the peak request rate, then load
steps down from 100 % to 10 % in 10 % decrements (plus active idle).  The
paper's Figures 1-2 show the two properties that make it unrepresentative
of HPC:

* memory usage stays low (< 14 % on the Xeon-E5462) and barely varies
  with load, and
* per-core CPU usage *tracks* the load level, where HPC codes pin cores
  at 100 % regardless of problem size.

Peak ssj_ops throughput is anchored per server so the overall
ssj_ops/watt scores land where Section V-C3 reports them
(E5462 247 > 4870 139 > Opteron 22.2); custom servers get a generic
cores x frequency model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.characteristics import get_traits
from repro.demand import ResourceDemand
from repro.errors import ConfigurationError
from repro.hardware.specs import ServerSpec
from repro.workloads.base import Workload

__all__ = [
    "SpecPowerLevel",
    "SpecPowerWorkload",
    "ssj_peak_ops",
    "SSJ_PEAK_OPS_ANCHORS",
    "full_run_levels",
]

#: Peak ssj_ops anchored so the simulated overall score reproduces the
#: paper's Section V-C3 results.
SSJ_PEAK_OPS_ANCHORS: dict[str, float] = {
    "Xeon-E5462": 80_000.0,
    "Opteron-8347": 20_000.0,
    "Xeon-4870": 200_000.0,
}

#: Generic fallback: ssj_ops per core per GHz for unanchored servers.
_SSJ_OPS_PER_CORE_PER_GHZ: float = 2_000.0

#: Memory footprint model: fraction of installed DRAM used by the JVM heap
#: at zero load and the additional fraction at full load.  Small and nearly
#: flat by construction — the Fig. 1 behaviour.
_HEAP_BASE_FRACTION: float = 0.028
_HEAP_LOAD_FRACTION: float = 0.016

#: Wall-clock seconds per measured load level.
LEVEL_DURATION_S: float = 240.0


def ssj_peak_ops(server: ServerSpec) -> float:
    """Calibrated peak ssj_ops/s for ``server``."""
    anchored = SSJ_PEAK_OPS_ANCHORS.get(server.name)
    if anchored is not None:
        return anchored
    return (
        _SSJ_OPS_PER_CORE_PER_GHZ
        * server.total_cores
        * server.processor.frequency_ghz
    )


@dataclass(frozen=True)
class SpecPowerLevel:
    """One load level of the graduated run."""

    name: str
    load: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.load <= 1.0:
            raise ConfigurationError(
                f"load must be in [0, 1], got {self.load}"
            )


def full_run_levels() -> list[SpecPowerLevel]:
    """The standard sequence: Cal1-3, then 100 % down to 10 %."""
    levels = [SpecPowerLevel(f"Cal{i}", 1.0) for i in (1, 2, 3)]
    levels += [
        SpecPowerLevel(f"{pct}%", pct / 100.0) for pct in range(100, 0, -10)
    ]
    return levels


class SpecPowerWorkload(Workload):
    """SPECpower at one load level on all cores.

    >>> from repro.hardware import XEON_E5462
    >>> demand = SpecPowerWorkload(SpecPowerLevel("50%", 0.5)).bind(XEON_E5462)
    >>> demand.cpu_util
    0.5
    """

    program = "specpower"

    def __init__(self, level: SpecPowerLevel):
        self.level = level

    @property
    def label(self) -> str:
        """Label such as ``"SPECpower.50%"``."""
        return f"SPECpower.{self.level.name}"

    def ssj_ops(self, server: ServerSpec) -> float:
        """Delivered ssj_ops/s at this level."""
        return ssj_peak_ops(server) * self.level.load

    def bind(self, server: ServerSpec) -> ResourceDemand:
        """Build the demand for this load level on ``server``."""
        traits = get_traits("specpower")
        heap_fraction = (
            _HEAP_BASE_FRACTION + _HEAP_LOAD_FRACTION * self.level.load
        )
        return traits.demand(
            self.label,
            server.total_cores,
            duration_s=LEVEL_DURATION_S,
            gflops=0.0,
            memory_mb=heap_fraction * server.memory_mb,
            cpu_util=self.level.load,
            mem_intensity=traits.mem_intensity * self.level.load,
        )
