"""High-Performance Linpack workload model.

HPL solves a dense N x N system by blocked LU decomposition.  Its
configuration mirrors the real ``HPL.dat``:

* ``Ns`` — problem size; memory footprint is ``8 N^2`` bytes.  The paper
  sweeps Ns to control memory utilisation (Fig. 5) and sizes it at 50 %
  ("Mh") or 90-100 % ("Mf") of DRAM for the evaluation states.
* ``NBs`` — LU panel block size.  Section V-A2 finds its influence on
  power minimal except for very small NB (NB=50 loses ~10 W), which this
  model reproduces through a block-efficiency factor.
* ``P x Q`` — the process grid; must satisfy ``P*Q == nprocs``.  Influence
  on power is minimal (Fig. 7); near-square grids are marginally better.

Achieved GFLOPS comes from the per-server anchor tables in
:mod:`repro.workloads.perfdata`; runtime follows from the LU operation
count ``2/3 N^3 + 2 N^2``.
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

__all__ = [
    "HplConfig",
    "HplWorkload",
    "hpl_performance",
    "block_efficiency",
    "grid_efficiency",
    "best_grid",
]


def block_efficiency(nb: int) -> float:
    """Efficiency factor of the LU panel block size.

    1.0 for NB >= 150 (panel work amortises), degrading smoothly to 0.90
    at NB = 50 — matching the paper's observation that only NB = 50 shows
    a visible (~10 W / ~4 %) power drop (Section V-A3).
    """
    if nb <= 0:
        raise ConfigurationError(f"NB must be positive, got {nb}")
    if nb >= 150:
        return 1.0
    return max(0.90, 1.0 - 0.001 * (150 - nb))


def best_grid(nprocs: int) -> tuple[int, int]:
    """The most square P x Q factorisation of ``nprocs`` (P <= Q)."""
    if nprocs <= 0:
        raise ConfigurationError(f"nprocs must be positive, got {nprocs}")
    p = int(nprocs**0.5)
    while nprocs % p:
        p -= 1
    return (p, nprocs // p)


def grid_efficiency(p: int, q: int) -> float:
    """Efficiency of the P x Q grid relative to the best grid for P*Q.

    A prime process count's only grid (1 x n) is by definition efficiency
    1.0; an explicitly elongated grid where a squarer one exists loses a
    little panel-broadcast overlap.  The effect is small either way
    (Fig. 7 shows P/Q "affects power minimally").
    """
    if p <= 0 or q <= 0:
        raise ConfigurationError(f"grid must be positive, got {p}x{q}")
    bp, bq = best_grid(p * q)
    best_aspect = bq / bp
    aspect = max(p, q) / min(p, q)
    return max(0.96, 1.0 - 0.005 * (aspect / best_aspect - 1.0))


@dataclass(frozen=True)
class HplConfig:
    """One HPL.dat configuration bound to a process count."""

    nprocs: int
    memory_fraction: float = 0.95
    nb: int = 200
    p: int | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.nprocs <= 0:
            raise ConfigurationError(
                f"nprocs must be positive, got {self.nprocs}"
            )
        if not 0.0 < self.memory_fraction <= 1.0:
            raise ConfigurationError(
                f"memory fraction must be in (0, 1], got {self.memory_fraction}"
            )
        if self.nb <= 0:
            raise ConfigurationError(f"NB must be positive, got {self.nb}")
        if (self.p is None) != (self.q is None):
            raise ConfigurationError("P and Q must be given together")
        if self.p is not None and self.p * self.q != self.nprocs:
            raise ConfigurationError(
                f"P*Q must equal nprocs: {self.p}*{self.q} != {self.nprocs}"
            )

    def grid(self) -> tuple[int, int]:
        """The (P, Q) grid — the most square factorisation by default."""
        if self.p is not None:
            return (self.p, self.q)
        return best_grid(self.nprocs)


def hpl_performance(
    server: ServerSpec, config: HplConfig
) -> tuple[float, int]:
    """Return (achieved GFLOPS, problem size N) for a config on a server."""
    n = MemorySubsystem(server).hpl_problem_size(config.memory_fraction)
    p, q = config.grid()
    gflops = (
        hpl_gflops(server, config.nprocs, config.memory_fraction)
        * block_efficiency(config.nb)
        * grid_efficiency(p, q)
    )
    return gflops, n


class HplWorkload(Workload):
    """HPL bound to a process count and memory fraction.

    >>> from repro.hardware import XEON_E5462
    >>> demand = HplWorkload(HplConfig(nprocs=4, memory_fraction=0.95)).bind(XEON_E5462)
    >>> round(demand.gflops, 1)
    37.2
    """

    program = "hpl"

    def __init__(self, config: HplConfig):
        self.config = config

    @property
    def label(self) -> str:
        """Paper-style row label, e.g. ``"HPL P4 Mf"``."""
        suffix = "Mh" if self.config.memory_fraction <= 0.7 else "Mf"
        return f"HPL P{self.config.nprocs} {suffix}"

    def bind(self, server: ServerSpec) -> ResourceDemand:
        """Size N for ``server``, compute performance, build the demand."""
        server.validate_core_count(self.config.nprocs)
        gflops, n = hpl_performance(server, self.config)
        memory_mb = 8.0 * n * n / (1024.0**2)
        flops = (2.0 / 3.0) * n**3 + 2.0 * n**2
        duration = max(flops / (gflops * 1e9), 5.0)
        traits = get_traits("hpl")
        # Small blocks keep the FP units less busy: the NB=50 power dip.
        nb_eff = block_efficiency(self.config.nb)
        return traits.demand(
            self.label,
            self.config.nprocs,
            duration,
            gflops,
            memory_mb,
            ipc=traits.ipc * nb_eff,
            fp_intensity=traits.fp_intensity * nb_eff,
        )
