"""NPB problem classes, process-count rules, and the program descriptor.

The NAS Parallel Benchmarks define problem classes W/A/B/C/D/E.  The
paper omits W (too short to measure stably) and D/E ("consume excessive
memory and are not intended for single servers"); all six classes are
modelled here, and the D/E exclusion falls out of the memory gate rather
than being hard-coded.

Process-count rules reproduce the empty cells of the paper's Table II:

* BT and SP require a *square* number of processes (1, 4, 9, 16, 25, 36…).
* CG, FT, IS, LU, and MG require a *power of two* (1, 2, 4, 8, 16, 32…).
* EP runs on any count — the paper picks it for exactly this flexibility.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.characteristics import get_traits
from repro.demand import ResourceDemand
from repro.errors import ConfigurationError, InvalidProcessCountError
from repro.hardware.memory import MemorySubsystem
from repro.hardware.specs import ServerSpec
from repro.workloads.base import Workload
from repro.workloads.perfdata import ep_gops

__all__ = [
    "NpbClass",
    "ProcRule",
    "NpbProgram",
    "NpbWorkload",
    "allowed_process_counts",
    "MEMORY_OVERHEAD_PER_PROC",
]

#: Fractional per-process memory overhead of the MPI decomposition (ghost
#: cells, communication buffers).
MEMORY_OVERHEAD_PER_PROC: float = 0.03


class NpbClass(enum.Enum):
    """NPB problem class (problem size).

    D and E are defined for completeness — the paper omits them because
    they "consume excessive memory and are not intended for single
    servers"; binding them raises :class:`InsufficientMemoryError` on
    machines they exceed, which the tests assert.
    """

    W = "W"
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"

    @classmethod
    def parse(cls, value: "NpbClass | str") -> "NpbClass":
        """Accept an enum member or its letter (case-insensitive)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).upper())
        except ValueError:
            raise ConfigurationError(
                f"unknown NPB class {value!r}; use one of W/A/B/C/D/E"
            ) from None


class ProcRule(enum.Enum):
    """Process-count constraint of an NPB program."""

    ANY = "any"
    SQUARE = "square"
    POWER_OF_TWO = "power_of_two"

    def allows(self, nprocs: int) -> bool:
        """Whether ``nprocs`` satisfies this rule."""
        if nprocs <= 0:
            return False
        if self is ProcRule.ANY:
            return True
        if self is ProcRule.SQUARE:
            root = math.isqrt(nprocs)
            return root * root == nprocs
        return nprocs & (nprocs - 1) == 0

    def describe(self) -> str:
        """Human-readable form for error messages."""
        return {
            ProcRule.ANY: "any positive count",
            ProcRule.SQUARE: "a square number (1, 4, 9, 16, 25, 36, ...)",
            ProcRule.POWER_OF_TWO: "a power of two (1, 2, 4, 8, 16, 32, ...)",
        }[self]


def allowed_process_counts(rule: ProcRule, max_procs: int) -> list[int]:
    """All process counts ``rule`` allows up to ``max_procs`` inclusive."""
    if max_procs <= 0:
        raise ConfigurationError(
            f"max_procs must be positive, got {max_procs}"
        )
    return [n for n in range(1, max_procs + 1) if rule.allows(n)]


@dataclass(frozen=True)
class NpbProgram:
    """Static description of one NPB program.

    Attributes
    ----------
    name:
        Two-letter lower-case code (``"bt"``, ``"ep"``, ...).
    proc_rule:
        Valid process counts.
    footprint_mb:
        Single-process resident footprint per class, MB.
    gop:
        Total operation count per class, Gop (10^9 operations as counted
        by the benchmark's own Mop/s reporting).
    serial_rate_frac:
        Single-core achieved rate as a fraction of the core's peak GFLOPS.
    speedup_exponent:
        Parallel speedup model: ``speedup(n) = n ** exponent``.
    """

    name: str
    proc_rule: ProcRule
    footprint_mb: dict[NpbClass, float]
    gop: dict[NpbClass, float]
    serial_rate_frac: float
    speedup_exponent: float

    def __post_init__(self) -> None:
        for klass in NpbClass:
            if klass not in self.footprint_mb or klass not in self.gop:
                raise ConfigurationError(
                    f"{self.name}: missing data for class {klass.value}"
                )
        if not 0.0 < self.serial_rate_frac <= 1.0:
            raise ConfigurationError(
                f"{self.name}: serial_rate_frac must be in (0, 1]"
            )
        if not 0.0 < self.speedup_exponent <= 1.0:
            raise ConfigurationError(
                f"{self.name}: speedup_exponent must be in (0, 1]"
            )

    def validate_nprocs(self, nprocs: int) -> None:
        """Raise :class:`InvalidProcessCountError` if the rule forbids it."""
        if not self.proc_rule.allows(nprocs):
            raise InvalidProcessCountError(
                self.name, nprocs, self.proc_rule.describe()
            )

    def memory_mb(self, klass: NpbClass, nprocs: int) -> float:
        """Aggregate resident footprint for an MPI run, MB."""
        base = self.footprint_mb[klass]
        return base * (1.0 + MEMORY_OVERHEAD_PER_PROC * (nprocs - 1))

    def performance_gops(self, server: ServerSpec, nprocs: int) -> float:
        """Achieved aggregate rate, Gop/s.

        EP uses the paper's published per-server anchors; every other
        program scales its serial rate by the speedup model.
        """
        if self.name == "ep":
            return ep_gops(server, nprocs)
        serial = self.serial_rate_frac * server.gflops_per_core
        return serial * nprocs**self.speedup_exponent

    def duration_s(self, server: ServerSpec, klass: NpbClass, nprocs: int) -> float:
        """Wall-clock runtime, seconds (>= 0.5 s)."""
        rate = self.performance_gops(server, nprocs)
        return max(self.gop[klass] / rate, 0.5)


class NpbWorkload(Workload):
    """One NPB program bound to a class and process count.

    >>> from repro.hardware import XEON_E5462
    >>> wl = NpbWorkload("ep", "C", nprocs=4)
    >>> wl.label
    'ep.C.4'
    >>> round(NpbWorkload("ep", "C", 4).bind(XEON_E5462).gflops, 4)
    0.1237
    """

    def __init__(
        self, program: "NpbProgram | str", klass: "NpbClass | str", nprocs: int
    ):
        # Late import: the registry lives in the package __init__, which
        # imports this module.
        if isinstance(program, str):
            from repro.workloads.npb import get_npb_program

            program = get_npb_program(program)
        self.npb = program
        self.program = program.name
        self.klass = NpbClass.parse(klass)
        if nprocs <= 0:
            raise ConfigurationError(
                f"nprocs must be positive, got {nprocs}"
            )
        self.nprocs = nprocs

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``"bt.C.4"``."""
        return f"{self.program}.{self.klass.value}.{self.nprocs}"

    def idiosyncrasy_key(self) -> str:
        """Key for the class-level idiosyncrasy wobble."""
        return f"{self.program}.{self.klass.value}"

    def power_factor(self) -> float:
        """Program-level draw plus a smaller class-level wobble.

        A program's unmodeled power behaviour is mostly a property of its
        code (the base draw, keyed by program name); changing the problem
        class shifts it only somewhat (the wobble, keyed by program and
        class at ~30 % of the base amplitude) — which is why the paper's
        Fig. 9 powers barely move across A/B/C.  Class-C deviations are
        scaled up: larger working sets push the machine into regimes (TLB
        pressure, DRAM page behaviour, prefetcher breakdown) the six
        regression features see even less of, part of why the paper's
        class-C verification R² (0.543) trails class B (0.634).
        """
        from repro.workloads.base import (
            IDIOSYNCRASY_AMPLITUDE,
            power_idiosyncrasy,
        )

        base = power_idiosyncrasy(self.program, IDIOSYNCRASY_AMPLITUDE)
        wobble = power_idiosyncrasy(
            self.idiosyncrasy_key(), 0.3 * IDIOSYNCRASY_AMPLITUDE
        )
        scale = 1.25 if self.klass is NpbClass.C else 1.0
        deviation = (base - 1.0) + (wobble - 1.0)
        return max(1.0 + scale * deviation, 0.05)

    def bind(self, server: ServerSpec) -> ResourceDemand:
        """Validate the rules and memory fit, then build the demand."""
        self.npb.validate_nprocs(self.nprocs)
        server.validate_core_count(self.nprocs)
        memory_mb = self.npb.memory_mb(self.klass, self.nprocs)
        MemorySubsystem(server).check_fit(
            ResourceDemand(
                program=self.label,
                nprocs=self.nprocs,
                duration_s=1.0,
                gflops=0.0,
                memory_mb=memory_mb,
            )
        )
        gops = self.npb.performance_gops(server, self.nprocs)
        duration = self.npb.duration_s(server, self.klass, self.nprocs)
        return get_traits(self.program).demand(
            self.label, self.nprocs, duration, gops, memory_mb
        )
