"""HPC Challenge benchmark workload models (regression training set).

HPCC bundles seven tests chosen to span the locality/intensity plane —
exactly why the paper trains its power regression on them (Section VI-A2):

=================  =======================================================
HPL                dense LU — compute-bound corner
DGEMM              dense matrix multiply — compute-bound, no communication
STREAM             pure bandwidth — memory-bound corner
PTRANS             parallel transpose — bandwidth + all-to-all traffic
RandomAccess       GUPS — random memory access, cache-hostile
FFT                large 1-D FFT — mixed compute/bandwidth/transpose
b_eff              bandwidth/latency microbenchmark — communication corner
=================  =======================================================

Each component runs for a fixed nominal duration at its trait profile; the
training campaign (:mod:`repro.core.regression`) sweeps every component
over process counts, matching the paper's "single core to full cores"
script.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.characteristics import get_traits
from repro.demand import ResourceDemand
from repro.errors import ConfigurationError
from repro.hardware.memory import MemorySubsystem
from repro.hardware.specs import ServerSpec
from repro.workloads.base import Workload
from repro.workloads.perfdata import hpl_gflops

__all__ = ["HpccComponent", "HPCC_COMPONENTS", "HpccWorkload"]


@dataclass(frozen=True)
class HpccComponent:
    """Static description of one HPCC test."""

    name: str
    traits_key: str
    #: Resident footprint as a fraction of usable DRAM.
    footprint_fraction: float
    #: Nominal wall-clock duration per run, seconds.
    duration_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.footprint_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: footprint fraction must be in (0, 1]"
            )
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"{self.name}: duration must be positive"
            )


#: The seven components in canonical HPCC order.
HPCC_COMPONENTS: tuple[HpccComponent, ...] = (
    HpccComponent("hpl", "hpl", 0.80, 320.0),
    HpccComponent("dgemm", "hpcc_dgemm", 0.60, 210.0),
    HpccComponent("stream", "hpcc_stream", 0.50, 180.0),
    HpccComponent("ptrans", "hpcc_ptrans", 0.50, 200.0),
    HpccComponent("randomaccess", "hpcc_randomaccess", 0.50, 220.0),
    HpccComponent("fft", "hpcc_fft", 0.50, 200.0),
    HpccComponent("beff", "hpcc_beff", 0.10, 180.0),
)

_BY_NAME = {c.name: c for c in HPCC_COMPONENTS}


class HpccWorkload(Workload):
    """One HPCC component bound to a process count.

    >>> from repro.hardware import XEON_4870
    >>> HpccWorkload("stream", 40).bind(XEON_4870).mem_intensity
    1.0
    """

    def __init__(self, component: "HpccComponent | str", nprocs: int):
        if isinstance(component, str):
            try:
                component = _BY_NAME[component.lower()]
            except KeyError:
                raise ConfigurationError(
                    f"unknown HPCC component {component!r}; "
                    f"known: {sorted(_BY_NAME)}"
                ) from None
        self.component = component
        self.program = (
            component.traits_key
            if component.traits_key.startswith("hpcc_")
            else f"hpcc_{component.name}"
        )
        if nprocs <= 0:
            raise ConfigurationError(f"nprocs must be positive, got {nprocs}")
        self.nprocs = nprocs

    @property
    def label(self) -> str:
        """Label such as ``"hpcc_stream.8"``."""
        return f"hpcc_{self.component.name}.{self.nprocs}"

    def idiosyncrasy_key(self) -> str:
        """Key for the idiosyncrasy draw (process count excluded)."""
        return f"hpcc_{self.component.name}"

    def performance_gflops(self, server: ServerSpec) -> float:
        """Rough achieved GFLOPS (only HPL/DGEMM are FLOP-meaningful)."""
        if self.component.name == "hpl":
            return hpl_gflops(server, self.nprocs, 0.8)
        if self.component.name == "dgemm":
            return 0.92 * server.gflops_per_core * self.nprocs
        return 0.0

    def bind(self, server: ServerSpec) -> ResourceDemand:
        """Validate against ``server`` and build the steady-state demand."""
        server.validate_core_count(self.nprocs)
        usable = MemorySubsystem(server).usable_mb
        return get_traits(self.component.traits_key).demand(
            self.label,
            self.nprocs,
            self.component.duration_s,
            self.performance_gflops(server),
            self.component.footprint_fraction * usable,
        )
