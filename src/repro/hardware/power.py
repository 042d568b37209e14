"""Component power model: ``P_total = P_cpu + P_mem + C`` (Eq. 4).

The paper decomposes server power into CPU power, memory power, and a
constant for everything else (motherboard, disks, fans, peripherals).  The
simulator refines that decomposition into physically-motivated terms whose
per-server coefficients are fit to the paper's published measurements by
:mod:`repro.hardware.calibration`:

``p_idle``
    Whole-system power at zero load (state 1 of the evaluation method).
    Includes the constant ``C`` *and* the high idle power of DRAM the paper
    remarks on in Section V-C1.
``chip_uncore``
    Paid once per chip with at least one active core (shared L3, ring,
    memory controller leaving its sleep state).
``shared_sqrt``
    A sublinear ``sqrt(active core-seconds)`` term modelling shared-resource
    activation (voltage regulators, clock distribution); this is what lets
    the model reproduce the strongly sublinear core scaling measured on the
    Opteron-8347 and Xeon-4870.
``core_active``
    Watts for a core merely running (instruction fetch, clocks) regardless
    of what it executes.
``core_intensity``
    Watts per core at full *compute intensity*.  Intensity is a fixed blend
    of the demand's ipc / fp / memory attributes (:func:`compute_intensity`)
    — the blend is pinned because the anchor set contains only two program
    types (EP and HPL), which cannot identify three separate coefficients.
``mem_dyn``
    Watts per GB/s of achieved DRAM traffic.  *Pinned* small rather than
    fitted: the paper finds memory utilisation has limited power impact
    (Fig. 5) because idle DRAM already burns near-peak power (folded into
    ``p_idle``).
``comm``
    Watts per active core at full communication intensity.  *Pinned*, and
    deliberately outside the regression feature set — Section VI-C blames
    EP's and SP's poor regression fit on communication behaviour the six
    PMU features do not see.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.demand import ResourceDemand
from repro.errors import ConfigurationError
from repro.hardware.cpu import CpuActivity
from repro.hardware.memory import MemoryTraffic
from repro.hardware.specs import ServerSpec

__all__ = [
    "INTENSITY_WEIGHTS",
    "compute_intensity",
    "PowerCoefficients",
    "SystemPowerModel",
    "dynamic_feature_vector",
    "DELTA_FEATURES",
    "COMM_FEATURE_INDEX",
]

#: Names of the delta-power features, in design-matrix column order.
DELTA_FEATURES: tuple[str, ...] = (
    "chip_uncore",
    "shared_sqrt",
    "core_active",
    "core_intensity",
    "mem_dyn",
    "comm",
)

#: Column of the communication-intensity term in the delta feature
#: vector — the term ``power_watts(include_comm=False)`` removes.
COMM_FEATURE_INDEX: int = DELTA_FEATURES.index("comm")

#: Dynamic power may exceed the full-intensity envelope by at most this
#: factor (see SystemPowerModel.power_watts).
ENVELOPE_HEADROOM: float = 1.05

#: Blend weights (ipc, fp, mem) defining a demand's compute intensity.
#: FP/SIMD units dominate dynamic core power on these machines; memory
#: intensity contributes through the on-chip memory pipeline.
INTENSITY_WEIGHTS: tuple[float, float, float] = (0.15, 0.75, 0.10)


def compute_intensity(demand: ResourceDemand) -> float:
    """Scalar compute intensity in [0, 1] driving per-core dynamic power."""
    w_ipc, w_fp, w_mem = INTENSITY_WEIGHTS
    return (
        w_ipc * demand.ipc
        + w_fp * demand.fp_intensity
        + w_mem * demand.mem_intensity
    )


@dataclass(frozen=True)
class PowerCoefficients:
    """Fitted power-model coefficients for one server (all watts)."""

    p_idle: float
    chip_uncore: float
    shared_sqrt: float
    core_active: float
    core_intensity: float
    mem_dyn: float
    comm: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ConfigurationError(
                    f"power coefficient {f.name} must be non-negative, got {value}"
                )
        if self.p_idle <= 0:
            raise ConfigurationError("idle power must be positive")
        # Built once: power_watts takes two dot products with it per run.
        delta = np.array([getattr(self, name) for name in DELTA_FEATURES])
        delta.setflags(write=False)
        object.__setattr__(self, "_delta", delta)

    def as_delta_vector(self) -> np.ndarray:
        """Delta coefficients in :data:`DELTA_FEATURES` order (a fresh
        array the caller may modify)."""
        return self._delta.copy()


def dynamic_feature_vector(
    demand: ResourceDemand, cpu: CpuActivity, memory: MemoryTraffic
) -> np.ndarray:
    """Design-matrix row for the above-idle power of one operating point.

    Columns follow :data:`DELTA_FEATURES`; the dot product with the fitted
    delta coefficients gives watts above idle.
    """
    n_util = cpu.active_cores * cpu.utilisation
    return np.array(
        [
            float(cpu.active_chips),
            np.sqrt(n_util),
            n_util,
            n_util * compute_intensity(demand),
            memory.bandwidth_gbs,
            cpu.active_cores * demand.comm_intensity,
        ]
    )


class SystemPowerModel:
    """True (simulated) whole-system power for one server.

    ``idiosyncrasy`` optionally supplies a per-program multiplicative factor
    on dynamic power, modelling microarchitectural sensitivity the six PMU
    features do not capture (see :mod:`repro.workloads.base`); the
    calibration programs (HPL, EP, idle) always use factor 1.0 because the
    coefficients were fit to them directly.
    """

    def __init__(self, server: ServerSpec, coefficients: PowerCoefficients):
        self.server = server
        self.coefficients = coefficients

    def power_watts(
        self,
        demand: ResourceDemand,
        cpu: CpuActivity,
        memory: MemoryTraffic,
        idiosyncrasy: float = 1.0,
        include_comm: bool = True,
    ) -> float:
        """Instantaneous true power in watts (no meter noise).

        ``include_comm=False`` removes the communication-intensity term
        (Section VI-C) from the dynamic power, so a caller that accounts
        for communication power elsewhere — e.g. a cluster interconnect
        model charging it to the network — does not count it twice.  Use
        :meth:`comm_power_watts` to recover the removed watts.
        """
        if idiosyncrasy <= 0:
            raise ConfigurationError(
                f"idiosyncrasy factor must be positive, got {idiosyncrasy}"
            )
        c = self.coefficients
        if demand.is_idle:
            return c.p_idle
        features = dynamic_feature_vector(demand, cpu, memory)
        if not include_comm:
            features = features.copy()
            features[COMM_FEATURE_INDEX] = 0.0
        delta = float(features @ c._delta)
        dynamic = idiosyncrasy * delta
        # Physical envelope: with the same placement and traffic, no
        # program can draw much more than a full-intensity (HPL-like)
        # workload — HPL saturates the FP pipeline that dominates core
        # power, which is why Green500 measures at the HPL point.  The
        # idiosyncrasy factor models unexplained variation, not physics-
        # breaking excursions, so it is capped at 5 % above the envelope.
        envelope_features = features.copy()
        n_util = cpu.active_cores * cpu.utilisation
        envelope_features[3] = n_util  # intensity == 1.0
        envelope = float(envelope_features @ c._delta)
        dynamic = min(dynamic, ENVELOPE_HEADROOM * envelope)
        return c.p_idle + dynamic

    def comm_power_watts(self, demand: ResourceDemand, cpu: CpuActivity) -> float:
        """Watts of the communication-intensity term alone (Section VI-C).

        This is exactly the contribution that ``include_comm=False``
        removes from :meth:`power_watts` (before the idiosyncrasy factor
        and envelope cap), letting an interconnect model re-attribute it
        to the network instead of the node.
        """
        if demand.is_idle:
            return 0.0
        c = self.coefficients
        return c.comm * cpu.active_cores * demand.comm_intensity
