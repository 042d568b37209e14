"""The resource-demand interface between workloads and hardware.

A :class:`ResourceDemand` is the steady-state, per-second description of a
program *bound* to a server with a specific process count and problem size.
Workload models (:mod:`repro.workloads`) produce demands; the hardware
models (:mod:`repro.hardware`) consume them to synthesise PMU counters and
power draw.

The intensity attributes are normalized to [0, 1] against the *server's*
maxima so the same workload model drives every machine:

``ipc``
    Retired instructions per cycle relative to the machine's sustainable
    maximum.  HPL (fused multiply-add streams) defines 1.0.
``fp_intensity``
    Floating-point/SIMD functional-unit activity.  Power-hungry vector FMA
    code (HPL, DGEMM) is 1.0; integer sorting (IS) is ~0.
``mem_intensity``
    Per-core DRAM traffic relative to a single core's share of the socket
    bandwidth.  STREAM defines 1.0.
``comm_intensity``
    MPI communication pressure.  Deliberately *not* among the paper's six
    regression features; Section VI-C attributes the poor EP/SP fits to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

__all__ = ["PROFILE_FIELDS", "ResourceDemand"]

#: The nine profile fields of a demand, each in [0, 1]: what a program's
#: traits (:class:`repro.characteristics.ProgramTraits`) carry, as
#: opposed to the size of one bound run.
PROFILE_FIELDS = (
    "cpu_util",
    "ipc",
    "fp_intensity",
    "mem_intensity",
    "comm_intensity",
    "l1_locality",
    "l2_locality",
    "l3_locality",
    "read_fraction",
)


@dataclass(frozen=True)
class ResourceDemand:
    """Steady-state resource demand of one bound workload.

    Attributes
    ----------
    program:
        Display name, e.g. ``"ep.C.4"`` or ``"HPL P4 Mf"``.
    nprocs:
        MPI process count (0 for the idle pseudo-workload).
    duration_s:
        Wall-clock runtime of the bound problem, seconds.
    gflops:
        Achieved performance reported by the program (GFLOPS for HPL,
        Gop/s for EP-style operation counts); 0 when idle.
    memory_mb:
        Resident memory footprint, MB.
    cpu_util:
        Utilisation of each *active* core in [0, 1].
    ipc, fp_intensity, mem_intensity, comm_intensity:
        Normalized intensity attributes (see module docstring).
    l1_locality, l2_locality, l3_locality:
        Capacity-independent reuse fractions per cache level, for
        :func:`repro.hardware.cache.analytic_hit_rate`.
    read_fraction:
        DRAM reads / (reads + writes).
    """

    program: str
    nprocs: int
    duration_s: float
    gflops: float
    memory_mb: float
    cpu_util: float = 1.0
    ipc: float = 0.5
    fp_intensity: float = 0.5
    mem_intensity: float = 0.3
    comm_intensity: float = 0.0
    l1_locality: float = 0.95
    l2_locality: float = 0.80
    l3_locality: float = 0.60
    read_fraction: float = 0.65

    def __post_init__(self) -> None:
        if self.nprocs < 0:
            raise ConfigurationError(f"nprocs must be >= 0, got {self.nprocs}")
        for name in ("duration_s", "gflops", "memory_mb"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration_s}"
            )
        if self.gflops < 0:
            raise ConfigurationError(f"gflops must be >= 0, got {self.gflops}")
        if self.memory_mb < 0:
            raise ConfigurationError(
                f"memory_mb must be >= 0, got {self.memory_mb}"
            )
        for name in PROFILE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if self.nprocs == 0 and self.cpu_util > 0:
            raise ConfigurationError("idle demand must have cpu_util == 0")

    @property
    def is_idle(self) -> bool:
        """True for the idle pseudo-workload (state 1 of the evaluation)."""
        return self.nprocs == 0

    def with_(self, **changes: Any) -> "ResourceDemand":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    @classmethod
    def idle(cls, duration_s: float = 60.0) -> "ResourceDemand":
        """The no-load state: zero active cores, OS-resident memory only."""
        return cls(
            program="Idle",
            nprocs=0,
            duration_s=duration_s,
            gflops=0.0,
            memory_mb=0.0,
            cpu_util=0.0,
            ipc=0.0,
            fp_intensity=0.0,
            mem_intensity=0.0,
            comm_intensity=0.0,
        )
