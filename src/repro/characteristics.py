"""Per-program intensity traits.

Each benchmark program is summarised by a :class:`ProgramTraits` record of
normalized intensity attributes (see :mod:`repro.demand` for the attribute
semantics).  The values encode the programs' published characterisations:

* HPL / DGEMM — blocked dense linear algebra: maximal IPC and FP-unit
  activity, moderate bandwidth, excellent cache locality.
* EP — embarrassingly parallel random-number generation: fully CPU-bound
  but scalar/transcendental-heavy, almost no memory traffic, zero
  communication.  The paper uses it as the low-power envelope.
* CG / MG — sparse / stencil memory-bound kernels: low IPC, high bandwidth,
  weak locality.
* FT — 3-D FFT: large footprint, transpose-heavy communication.
* IS — integer bucket sort: near-zero floating point, bandwidth-heavy.
* BT / SP / LU — pseudo-application solvers between those extremes; SP has
  the most communication of the NPB suite (Section VI-C).
* SPECpower ssj2008 — Java request processing: moderate IPC, little FP,
  low memory traffic (Figs. 1-2).
* HPCC components (Section VI-A2) — chosen by the paper precisely because
  they spread across compute-, memory-, and network-intensive corners.

These traits are inputs to the calibrated power model, not measurements;
the calibration in :mod:`repro.hardware.calibration` fits per-server
coefficients such that the *anchor* programs (idle, EP, HPL) reproduce the
paper's measured watts exactly where published, and every other program is
positioned by its traits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.demand import PROFILE_FIELDS, ResourceDemand
from repro.errors import ConfigurationError

__all__ = ["ProgramTraits", "TRAITS", "get_traits"]


@dataclass(frozen=True)
class ProgramTraits:
    """Normalized intensity attributes of one program (all in [0, 1]).

    The attributes are the nine :data:`~repro.demand.PROFILE_FIELDS`;
    :meth:`demand` is the one rule that turns them into a bound run's
    :class:`~repro.demand.ResourceDemand`.
    """

    name: str
    ipc: float
    fp_intensity: float
    mem_intensity: float
    comm_intensity: float
    l1_locality: float = 0.95
    l2_locality: float = 0.80
    l3_locality: float = 0.60
    read_fraction: float = 0.65
    cpu_util: float = 1.0

    def __post_init__(self) -> None:
        for attr in PROFILE_FIELDS:
            value = getattr(self, attr)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{self.name}.{attr} must be in [0, 1], got {value}"
                )
        # Built once: every run of the program starts from it.
        object.__setattr__(
            self, "_profile", {name: getattr(self, name) for name in PROFILE_FIELDS}
        )

    def demand(
        self,
        program: str,
        nprocs: int,
        duration_s: float,
        gflops: float,
        memory_mb: float,
        **overrides: float,
    ) -> ResourceDemand:
        """The demand of one run of this program, labelled ``program``.

        The nine profile fields come from these traits; ``overrides``
        replaces single ones (HPL's block efficiency, SPECpower's load
        level), so a workload states only where its run departs from
        the program's profile.
        """
        return ResourceDemand(
            program, nprocs, duration_s, gflops, memory_mb, **(self._profile | overrides)
        )


def _t(name: str, **kw: float) -> ProgramTraits:
    return ProgramTraits(name=name, **kw)


#: Registry of program traits, keyed by lower-case program name.
TRAITS: dict[str, ProgramTraits] = {
    t.name: t
    for t in (
        # --- evaluation programs -----------------------------------------
        _t(
            "hpl",
            ipc=1.00,
            fp_intensity=1.00,
            mem_intensity=0.55,
            comm_intensity=0.20,
            l1_locality=0.98,
            l2_locality=0.97,
            l3_locality=0.90,
            read_fraction=0.70,
        ),
        _t(
            "ep",
            ipc=0.52,
            fp_intensity=0.05,
            mem_intensity=0.02,
            comm_intensity=0.00,
            l1_locality=0.99,
            l2_locality=0.99,
            l3_locality=0.99,
            read_fraction=0.60,
        ),
        # --- remaining NPB programs --------------------------------------
        _t(
            "bt",
            ipc=0.75,
            fp_intensity=0.65,
            mem_intensity=0.45,
            comm_intensity=0.30,
            l2_locality=0.90,
            l3_locality=0.75,
        ),
        _t(
            "cg",
            ipc=0.45,
            fp_intensity=0.35,
            mem_intensity=0.85,
            comm_intensity=0.45,
            l1_locality=0.85,
            l2_locality=0.55,
            l3_locality=0.40,
            read_fraction=0.70,
        ),
        _t(
            "ft",
            ipc=0.65,
            fp_intensity=0.55,
            mem_intensity=0.75,
            comm_intensity=0.50,
            l2_locality=0.70,
            l3_locality=0.50,
        ),
        _t(
            "is",
            ipc=0.40,
            fp_intensity=0.02,
            mem_intensity=0.80,
            comm_intensity=0.40,
            l1_locality=0.80,
            l2_locality=0.40,
            l3_locality=0.30,
            read_fraction=0.60,
        ),
        _t(
            "lu",
            ipc=0.70,
            fp_intensity=0.60,
            mem_intensity=0.50,
            comm_intensity=0.35,
            l2_locality=0.88,
            l3_locality=0.70,
        ),
        _t(
            "mg",
            ipc=0.60,
            fp_intensity=0.50,
            mem_intensity=0.70,
            comm_intensity=0.40,
            l2_locality=0.65,
            l3_locality=0.50,
        ),
        _t(
            "sp",
            ipc=0.70,
            fp_intensity=0.60,
            mem_intensity=0.55,
            comm_intensity=0.85,
            l2_locality=0.85,
            l3_locality=0.70,
        ),
        # --- datacenter control ------------------------------------------
        _t(
            "specpower",
            ipc=0.50,
            fp_intensity=0.10,
            mem_intensity=0.30,
            comm_intensity=0.00,
            l2_locality=0.75,
            l3_locality=0.55,
        ),
        # --- HPCC components (regression training set) --------------------
        _t(
            "hpcc_dgemm",
            ipc=1.00,
            fp_intensity=1.00,
            mem_intensity=0.30,
            comm_intensity=0.00,
            l2_locality=0.98,
            l3_locality=0.92,
        ),
        _t(
            "hpcc_stream",
            ipc=0.35,
            fp_intensity=0.30,
            mem_intensity=1.00,
            comm_intensity=0.00,
            l1_locality=0.85,
            l2_locality=0.15,
            l3_locality=0.10,
            read_fraction=0.60,
        ),
        _t(
            "hpcc_ptrans",
            ipc=0.45,
            fp_intensity=0.20,
            mem_intensity=0.80,
            comm_intensity=0.60,
            l2_locality=0.45,
            l3_locality=0.35,
            read_fraction=0.60,
        ),
        _t(
            "hpcc_randomaccess",
            ipc=0.25,
            fp_intensity=0.00,
            mem_intensity=0.90,
            comm_intensity=0.30,
            l1_locality=0.10,
            l2_locality=0.05,
            l3_locality=0.05,
            read_fraction=0.60,
        ),
        _t(
            "hpcc_fft",
            ipc=0.65,
            fp_intensity=0.55,
            mem_intensity=0.75,
            comm_intensity=0.50,
            l2_locality=0.70,
            l3_locality=0.50,
        ),
        _t(
            "hpcc_beff",
            ipc=0.20,
            fp_intensity=0.05,
            mem_intensity=0.20,
            comm_intensity=1.00,
            l2_locality=0.60,
            l3_locality=0.50,
        ),
    )
}


def get_traits(name: str) -> ProgramTraits:
    """Look up program traits by name (case-insensitive).

    ``"hpcc_hpl"`` aliases to ``"hpl"``: the HPCC suite embeds HPL itself.
    """
    key = name.lower()
    if key == "hpcc_hpl":
        key = "hpl"
    try:
        return TRAITS[key]
    except KeyError:
        raise ConfigurationError(
            f"no traits registered for program {name!r}; "
            f"known: {sorted(TRAITS)}"
        ) from None
