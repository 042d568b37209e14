"""Power-model calibration against the paper's published measurements.

The paper reports whole-system watts for idle, NPB-EP class C, and HPL
(half- and full-memory) at several core counts on each of its three servers
(Tables IV, V, VI).  Those measurements are embedded here as *anchor
points*; :func:`calibrate_server` fits the delta-power coefficients of
:class:`~repro.hardware.power.PowerCoefficients` to them by non-negative
least squares (:func:`nnls`, the Lawson–Hanson active-set method in numpy
— non-negativity keeps every term physically meaningful).

The three builtin fits are also checked in, as exact hex floats
(``_BUILTIN_FITS``: the solutions ``scipy.optimize.nnls`` gives for the
same systems).  The numpy solve agrees with scipy's to about 1e-15 but
not to the last bit, and every digest pin of the paper's exhibits hangs
on those bits.  So a builtin server calibrated against its published
anchors still runs the numpy fit, checks it against the checked-in
solution (same zero pattern, ``rtol`` 1e-9) and returns the checked-in
one; a mismatch raises :class:`~repro.errors.CalibrationError`.  After a
deliberate change to the anchors, the bit-for-bit scipy test in
``tests/hardware/test_calibration.py`` fits the new systems with scipy
and prints the new hex values on its mismatch.

Every other operating point the library simulates (the remaining NPB
programs, SPECpower, HPCC, other core counts, other memory fractions) is a
*prediction* of the fitted component model positioned by its program traits
— not a table lookup — so reproduced exhibits genuinely exercise the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.characteristics import get_traits
from repro.demand import ResourceDemand
from repro.errors import CalibrationError, ConfigurationError
from repro.hardware.cpu import CpuSubsystem
from repro.hardware.dvfs import scale_coefficients
from repro.hardware.memory import MemorySubsystem
from repro.hardware.power import (
    DELTA_FEATURES,
    PowerCoefficients,
    SystemPowerModel,
    dynamic_feature_vector,
)
from repro.hardware.specs import BUILTIN_SERVERS, ServerSpec, get_server

__all__ = [
    "AnchorPoint",
    "DEFAULT_RIDGE_LAMBDA",
    "nnls",
    "PAPER_POWER_ANCHORS",
    "anchor_demand",
    "calibrate_server",
    "calibrated_power_model",
    "default_coefficients",
    "register_coefficients",
    "CalibrationReport",
]

#: Memory fractions used by the evaluation states (Table III): HPL "Mh"
#: targets 50 % of DRAM, "Mf" targets 90-100 % (we use 95 %).
HALF_MEMORY_FRACTION: float = 0.50
FULL_MEMORY_FRACTION: float = 0.95

#: Resident footprint of NPB-EP per process, MB (EP's footprint is tiny and
#: nearly scale-independent — Fig. 8).
EP_FOOTPRINT_MB: float = 16.0

#: Communication power is *pinned*, not fitted: within the anchor set it is
#: collinear with core count (only HPL communicates), so fitting it lets the
#: solver dump arbitrary watts into it.  Physically it is a small NIC/MPI
#: stack cost; its main role is to be the power component the regression
#: model's six PMU features cannot see (Section VI-C).
COMM_WATTS_PER_CORE: float = 2.5

#: DRAM traffic power is also pinned (W per GB/s): the paper's Fig. 5 shows
#: memory utilisation barely moves power (idle DRAM already burns near its
#: peak), and the anchor set cannot identify the term (HPL Mh and Mf differ
#: only in footprint, not traffic).  A small positive value keeps the Ns
#: sweep's slight slope.
MEM_DYN_WATTS_PER_GBS: float = 0.15

#: Delta features whose coefficients are pinned rather than fitted.
_PINNED: dict[str, float] = {
    "mem_dyn": MEM_DYN_WATTS_PER_GBS,
    "comm": COMM_WATTS_PER_CORE,
}

#: Physical priors for the weak ridge pull (watts); see calibrate_server.
_COEFF_PRIORS: dict[str, float] = {
    "chip_uncore": 8.0,
    "shared_sqrt": 5.0,
    "core_active": 1.5,
    "core_intensity": 12.0,
}

#: Ridge strength of :func:`calibrate_server`'s pull toward the priors.
DEFAULT_RIDGE_LAMBDA: float = 0.05

#: Columns of :data:`DELTA_FEATURES` that are pinned, with their values,
#: and the columns the fit solves for, in order.
_PINNED_COLS: dict[int, float] = {
    DELTA_FEATURES.index(k): v for k, v in _PINNED.items()
}
_FREE_COLS: list[int] = [
    i for i in range(len(DELTA_FEATURES)) if i not in _PINNED_COLS
]

#: ``scipy.optimize.nnls`` solutions of each builtin server's stacked
#: system (its published anchors and idle watts, the default ridge), in
#: :data:`_FREE_COLS` order and column-scaled units.  See the module
#: docstring for why they are data and how to re-derive them.
_BUILTIN_FITS: dict[str, tuple[float, ...]] = {
    name: tuple(float.fromhex(h) for h in hexes)
    for name, hexes in {
        "Xeon-E5462": (
            "0x1.3f5da60d1eb86p+3",
            "0x1.d2658513de13ap+3",
            "0x1.48b3454a5c43bp+3",
            "0x1.e8490d164fbc4p+5",
        ),
        "Opteron-8347": (
            "0x1.f9f0737c97a0bp+5",
            "0x1.07142aaac8d6fp+7",
            "0x0.0p+0",
            "0x1.8576b2aa482acp+5",
        ),
        "Xeon-4870": (
            "0x0.0p+0",
            "0x1.d09e60c861f56p+5",
            "0x0.0p+0",
            "0x1.a46092c7d955cp+8",
        ),
    }.items()
}


@dataclass(frozen=True)
class AnchorPoint:
    """One published measurement: (program, nprocs, memory fraction) -> W."""

    program: str
    nprocs: int
    memory_fraction: float
    watts: float

    def __post_init__(self) -> None:
        if self.watts <= 0:
            raise ConfigurationError("anchor watts must be positive")


def _anchor_from_row(label: str, watts: float) -> AnchorPoint:
    """Parse a Table IV-VI row label into an anchor point.

    ``ep.C.<n>`` rows anchor EP; ``HPL P<n> Mh|Mf`` rows anchor HPL at
    the half/full memory fraction.
    """
    if label.startswith("ep."):
        return AnchorPoint("ep", int(label.rsplit(".", 1)[1]), 0.0, watts)
    if label.startswith("HPL "):
        _, p_part, m_part = label.split()
        fraction = (
            HALF_MEMORY_FRACTION if m_part == "Mh" else FULL_MEMORY_FRACTION
        )
        return AnchorPoint("hpl", int(p_part[1:]), fraction, watts)
    raise ConfigurationError(f"cannot parse anchor row label {label!r}")


def _build_anchor_tables() -> tuple[
    dict[str, float], dict[str, tuple[AnchorPoint, ...]]
]:
    """Derive the anchor tables from the transcribed paper constants."""
    from repro.paperdata import PAPER_TABLES

    idle: dict[str, float] = {}
    anchors: dict[str, tuple[AnchorPoint, ...]] = {}
    for server, rows in PAPER_TABLES.items():
        loaded = []
        for row in rows:
            if row.label == "Idle":
                idle[server] = row.watts
            else:
                loaded.append(_anchor_from_row(row.label, row.watts))
        anchors[server] = tuple(loaded)
    return idle, anchors


#: Published idle power per server (W) and loaded-power anchors, both
#: derived from the Table IV-VI transcription in :mod:`repro.paperdata`.
PAPER_IDLE_WATTS, PAPER_POWER_ANCHORS = _build_anchor_tables()


def anchor_demand(server: ServerSpec, anchor: AnchorPoint) -> ResourceDemand:
    """Build the :class:`ResourceDemand` an anchor point describes."""
    traits = get_traits(anchor.program)
    if anchor.program == "ep":
        memory_mb = EP_FOOTPRINT_MB * anchor.nprocs
        label = f"ep.C.{anchor.nprocs}"
    else:
        n = MemorySubsystem(server).hpl_problem_size(anchor.memory_fraction)
        memory_mb = 8.0 * n * n / (1024.0**2)
        suffix = "Mh" if anchor.memory_fraction <= 0.5 else "Mf"
        label = f"HPL P{anchor.nprocs} {suffix}"
    return ResourceDemand(
        program=label,
        nprocs=anchor.nprocs,
        duration_s=100.0,
        gflops=0.0,
        memory_mb=memory_mb,
        cpu_util=traits.cpu_util,
        ipc=traits.ipc,
        fp_intensity=traits.fp_intensity,
        mem_intensity=traits.mem_intensity,
        comm_intensity=traits.comm_intensity,
        l1_locality=traits.l1_locality,
        l2_locality=traits.l2_locality,
        l3_locality=traits.l3_locality,
        read_fraction=traits.read_fraction,
    )


@dataclass(frozen=True)
class CalibrationReport:
    """Fit diagnostics returned alongside the coefficients."""

    server: str
    coefficients: PowerCoefficients
    residuals_watts: tuple[float, ...]
    rms_residual_watts: float
    max_residual_watts: float

    anchor_watts: tuple[float, ...] = ()

    @property
    def max_relative_error(self) -> float:
        """Largest |residual| / anchor *total* watts across the anchor set.

        Measured against total watts, not the above-idle delta: a 7 W
        residual on EP.C.1's 11 W delta is a 5 % error on what the meter
        reads, which is the quantity the tables report.
        """
        if not self.anchor_watts:
            return 0.0
        return max(
            abs(r) / w for r, w in zip(self.residuals_watts, self.anchor_watts)
        )


@dataclass(frozen=True)
class _FitProblem:
    """The least-squares system :func:`calibrate_server` solves.

    ``design`` and ``target`` are the anchors' delta-feature rows and
    watts above idle; ``stacked_a``/``stacked_b`` are the free columns
    scaled by ``scale`` with the ridge rows appended, the system handed
    to :func:`nnls`.
    """

    design: np.ndarray
    target: np.ndarray
    stacked_a: np.ndarray
    stacked_b: np.ndarray
    scale: np.ndarray


def _fit_problem(
    server: ServerSpec,
    anchors: "tuple[AnchorPoint, ...]",
    idle_watts: float,
    ridge_lambda: float,
) -> _FitProblem:
    """Build the stacked, column-scaled NNLS system for one anchor set."""
    cpu = CpuSubsystem(server)
    mem = MemorySubsystem(server)
    rows = []
    deltas = []
    for anchor in anchors:
        demand = anchor_demand(server, anchor)
        cpu.bind(demand)
        activity = cpu.activity()
        traffic = mem.traffic(demand, cpu.placement)
        rows.append(dynamic_feature_vector(demand, activity, traffic))
        deltas.append(anchor.watts - idle_watts)
    design = np.asarray(rows)
    target = np.asarray(deltas)

    # Pinned coefficients (mem_dyn, comm): subtract their contribution and
    # fit the remaining four columns by non-negative least squares.
    target_free = target.astype(float).copy()
    for col, value in _PINNED_COLS.items():
        target_free -= design[:, col] * value
    design_free = design[:, _FREE_COLS]
    scale = design_free.max(axis=0)
    scale[scale == 0] = 1.0
    scaled = design_free / scale

    # Weak ridge-to-prior regularisation.  The anchor sets of the
    # multi-chip servers are nearly flat in compute intensity (EP's
    # per-core watts approach HPL's on the Opteron-8347), which lets NNLS
    # park all the weight on the sqrt term and none on intensity — and a
    # zero intensity coefficient would make *every* program draw the same
    # dynamic power, contradicting the paper's EP-lowest/HPL-highest
    # envelope (Section IV-D finding 4).  A light pull toward physical
    # priors keeps each term alive without materially moving the anchors.
    priors = np.array([_COEFF_PRIORS[DELTA_FEATURES[i]] for i in _FREE_COLS])
    priors_scaled = priors * scale
    lam = (
        ridge_lambda
        * float(target_free @ target_free)
        / max(float(priors_scaled @ priors_scaled), 1e-12)
    )
    stacked_a = np.vstack(
        [scaled, np.sqrt(lam) * np.eye(len(_FREE_COLS))]
    )
    stacked_b = np.concatenate([target_free, np.sqrt(lam) * priors_scaled])
    return _FitProblem(design, target, stacked_a, stacked_b, scale)


def nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Non-negative least squares: ``argmin ||a @ x - b||`` over ``x >= 0``.

    The active-set method of Lawson & Hanson (*Solving Least Squares
    Problems*, 1974, ch. 23).  Variables move one at a time into the
    passive (free) set, always the one whose gradient ``a.T @ (b - a @ x)``
    is largest; each passive set is solved by unconstrained least squares
    (``numpy.linalg.lstsq``), and when that solution leaves the
    non-negative orthant the step is cut back at the first variable to
    reach zero, which returns to the active set.

    Raises
    ------
    CalibrationError
        After ``3 * n`` cut-backs (scipy's iteration budget), which a
        well-posed problem never needs.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    max_cutbacks = 3 * n
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = a.T @ b
    tol = 10.0 * max(m, n) * np.finfo(float).eps * max(float(np.abs(w).max()), 1.0)

    def solve_passive() -> np.ndarray:
        s = np.zeros(n)
        s[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        return s

    cutbacks = 0
    candidates = ~passive & (w > tol)
    while candidates.any():
        j = int(np.argmax(np.where(candidates, w, -np.inf)))
        passive[j] = True
        s = solve_passive()
        if s[j] <= 0.0:
            # Rounding let a variable with a vanishing gradient in; it
            # cannot move, so leave it active and try the next one.
            passive[j] = False
            candidates[j] = False
            continue
        while s[passive].min() <= 0.0:
            cutbacks += 1
            if cutbacks > max_cutbacks:
                raise CalibrationError(
                    f"nnls did not converge in {max_cutbacks} cut-backs"
                )
            blocking = passive & (s <= 0.0)
            ratios = np.full(n, np.inf)
            ratios[blocking] = x[blocking] / (x[blocking] - s[blocking])
            k = int(np.argmin(ratios))
            x = x + ratios[k] * (s - x)
            x[k] = 0.0
            passive &= x > 0.0
            s = solve_passive()
        x = s
        w = a.T @ (b - a @ x)
        candidates = ~passive & (w > tol)
    return x


def _published_fit(
    server: ServerSpec,
    anchors: "tuple[AnchorPoint, ...]",
    idle_watts: float,
    ridge_lambda: float,
) -> "np.ndarray | None":
    """The checked-in solution if this is a builtin's published system."""
    name = server.name
    if (
        BUILTIN_SERVERS.get(name) != server
        or tuple(anchors) != PAPER_POWER_ANCHORS.get(name)
        or idle_watts != PAPER_IDLE_WATTS.get(name)
        or ridge_lambda != DEFAULT_RIDGE_LAMBDA
    ):
        return None
    return np.array(_BUILTIN_FITS[name])


def calibrate_server(
    server: ServerSpec,
    anchors: tuple[AnchorPoint, ...] | None = None,
    idle_watts: float | None = None,
    max_relative_error: float = 0.15,
    ridge_lambda: float = DEFAULT_RIDGE_LAMBDA,
) -> CalibrationReport:
    """Fit :class:`PowerCoefficients` for ``server`` from anchor watts.

    Parameters
    ----------
    server:
        Machine description.
    anchors, idle_watts:
        Measurement set; defaults to the paper's published values for the
        built-in servers.  A built-in server fitted to its published set
        returns the checked-in solution once the numpy fit matches it
        (see the module docstring).
    max_relative_error:
        Reject the fit if any anchor's residual exceeds this fraction of
        its measured total watts.  The published data is noisy (e.g. a
        single EP process on the Opteron-8347 adds 81 W while eight add
        165 W), so the tolerance allows for genuine lack of fit; the *rms*
        residual is what the tests track.

    Raises
    ------
    CalibrationError
        If no anchors are known for the server, the fit is rejected, or
        a built-in server's fit no longer matches its checked-in solution.
    """
    if anchors is None or idle_watts is None:
        try:
            anchors = PAPER_POWER_ANCHORS[server.name]
            idle_watts = PAPER_IDLE_WATTS[server.name]
        except KeyError:
            raise CalibrationError(
                f"no published anchors for server {server.name!r}; "
                "pass anchors= and idle_watts= explicitly or use "
                "default_coefficients()"
            ) from None
    problem = _fit_problem(server, anchors, idle_watts, ridge_lambda)
    solution = nnls(problem.stacked_a, problem.stacked_b)
    checked_in = _published_fit(server, anchors, idle_watts, ridge_lambda)
    if checked_in is not None:
        # With atol=0 a zero matches only a zero: same active set too.
        if not np.allclose(solution, checked_in, rtol=1e-9, atol=0.0):
            raise CalibrationError(
                f"{server.name}: the fit {solution.tolist()} no longer "
                f"matches the checked-in builtin fit {checked_in.tolist()}; "
                "re-derive it after changing the anchors (see "
                "repro.hardware.calibration)"
            )
        solution = checked_in
    coeff_values = np.empty(len(DELTA_FEATURES))
    coeff_values[_FREE_COLS] = solution / problem.scale
    for col, value in _PINNED_COLS.items():
        coeff_values[col] = value
    coefficients = PowerCoefficients(
        p_idle=idle_watts, **dict(zip(DELTA_FEATURES, coeff_values))
    )
    residuals = problem.target - problem.design @ coeff_values
    report = CalibrationReport(
        server=server.name,
        coefficients=coefficients,
        residuals_watts=tuple(float(r) for r in residuals),
        rms_residual_watts=float(np.sqrt(np.mean(residuals**2))),
        max_residual_watts=float(np.max(np.abs(residuals))),
        anchor_watts=tuple(a.watts for a in anchors),
    )
    if report.max_relative_error > max_relative_error:
        raise CalibrationError(
            f"{server.name}: calibration residual "
            f"{report.max_relative_error:.1%} exceeds {max_relative_error:.0%}"
        )
    return report


def default_coefficients(server: ServerSpec) -> PowerCoefficients:
    """Heuristic coefficients for a custom server without measurements.

    Scales a generic mid-2010s power envelope by chip and memory counts,
    dispatching on the processor's ``core_type`` so GPU-style and MIC-style
    components (Sîrbu & Babaoglu's hybrid node mix) land near their
    published idle/TDP envelopes; intended for the custom-server workflow,
    not for reproducing the paper's tables.  The ``"ooo-cpu"`` branch is
    the historical heuristic, unchanged.
    """
    core_type = server.processor.core_type
    memory_w = 0.9 * server.memory.total_gb
    if core_type == "io-cpu":
        # Low-power in-order cores: small chip floor, shallow dynamic range.
        return PowerCoefficients(
            p_idle=30.0 + 22.0 * server.chips + memory_w,
            chip_uncore=4.0,
            shared_sqrt=3.0,
            core_active=1.2,
            core_intensity=5.0,
            mem_dyn=MEM_DYN_WATTS_PER_GBS,
            comm=COMM_WATTS_PER_CORE,
        )
    if core_type == "gpu-simd":
        # One "core" is a streaming multiprocessor (~13 per K20-class
        # chip): modest idle, steep per-SM dynamic power toward a ~225 W
        # board envelope.
        return PowerCoefficients(
            p_idle=45.0 + 28.0 * server.chips + memory_w,
            chip_uncore=16.0,
            shared_sqrt=8.0,
            core_active=4.0,
            core_intensity=10.0,
            mem_dyn=MEM_DYN_WATTS_PER_GBS,
            comm=COMM_WATTS_PER_CORE,
        )
    if core_type == "mic":
        # Many-core accelerator (~60 in-order cores): large standing chip
        # power, ~2 W per busy core.
        return PowerCoefficients(
            p_idle=45.0 + 95.0 * server.chips + memory_w,
            chip_uncore=20.0,
            shared_sqrt=5.0,
            core_active=1.0,
            core_intensity=1.5,
            mem_dyn=MEM_DYN_WATTS_PER_GBS,
            comm=COMM_WATTS_PER_CORE,
        )
    idle = 45.0 + 60.0 * server.chips + 0.9 * server.memory.total_gb
    return PowerCoefficients(
        p_idle=idle,
        chip_uncore=10.0,
        shared_sqrt=6.0,
        core_active=3.0,
        core_intensity=15.0,
        mem_dyn=MEM_DYN_WATTS_PER_GBS,
        comm=COMM_WATTS_PER_CORE,
    )


#: Coefficient factories registered for named (zoo) servers.  A factory
#: receives the *nominal* (P-state 0) spec and returns its P0 fit; DVFS
#: scaling is applied on top by :func:`calibrated_power_model`.  Keyed by
#: server name; :mod:`repro.hardware.zoo` populates this at import time so
#: every process (including fleet workers) reconstructs identical models
#: from a spec alone.
_ZOO_COEFF_FACTORIES: dict[str, Callable[[ServerSpec], PowerCoefficients]] = {}


def register_coefficients(
    name: str, factory: Callable[[ServerSpec], PowerCoefficients]
) -> None:
    """Register a P0 coefficient factory for the named server."""
    _ZOO_COEFF_FACTORIES[name] = factory


@lru_cache(maxsize=None)
def _calibrated_builtin(name: str) -> SystemPowerModel:
    server = get_server(name)
    report = calibrate_server(server)
    return SystemPowerModel(server, report.coefficients)


def calibrated_power_model(server: ServerSpec) -> SystemPowerModel:
    """Return a :class:`SystemPowerModel` for ``server``.

    Built-in servers are calibrated against the paper's anchors (cached
    and bit-identical to the historical path).  Other servers resolve
    their *nominal* coefficients — a factory registered via
    :func:`register_coefficients` when one exists, else
    :func:`default_coefficients` — and, when the spec pins a P-state
    other than 0, scale them through the processor's DVFS ladder.  The
    whole derivation is a pure function of the spec, so fleet workers
    rebuild identical models in other processes.
    """
    if server.name in BUILTIN_SERVERS and BUILTIN_SERVERS[server.name] == server:
        return _calibrated_builtin(server.name)
    base = server.base_spec()
    factory = _ZOO_COEFF_FACTORIES.get(base.name)
    coefficients = factory(base) if factory else default_coefficients(base)
    if server.pstate != 0:
        coefficients = scale_coefficients(
            coefficients, server.processor.dvfs, server.pstate
        )
    return SystemPowerModel(server, coefficients)
