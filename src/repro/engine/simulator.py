"""The per-run discrete-time simulator.

For each second of a bound workload's runtime the simulator evaluates the
true system power (component model + per-run phase ripple), feeds it to
the meter, samples resident memory, and collects PMU counters at the 10 s
interval the paper uses.

Determinism: every run derives its random stream from ``(seed, program
label)``, so results are independent of the order in which runs execute —
a property the test suite relies on.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro import obs
from repro.demand import ResourceDemand
from repro.engine.trace import PMU_COLUMNS, RunResult
from repro.errors import SimulationError
from repro.hardware.calibration import calibrated_power_model
from repro.hardware.cpu import CpuSubsystem
from repro.hardware.memory import MemorySubsystem
from repro.hardware.pmu import Pmu
from repro.hardware.power import SystemPowerModel
from repro.hardware.specs import ServerSpec
from repro.metering.meter import MeterSpec, WT210, Wt210Meter
from repro.metering.sampler import MemorySampler
from repro.workloads.base import Workload

__all__ = ["Simulator", "PMU_INTERVAL_S"]

#: PMU collection interval (Section VI-A2).
PMU_INTERVAL_S: float = 10.0

#: Amplitude of the slow program-phase power ripple, as a fraction of
#: dynamic (above-idle) power.
_RIPPLE_FRACTION: float = 0.015

#: Relative noise on synthesised PMU counters (sampling skew, interrupt
#: shadowing, prefetch traffic the counters see but the model does not).
#: Large enough that near-collinear counter pairs (memory reads vs writes)
#: cannot serve the regression as per-program fingerprints.
_PMU_NOISE: float = 0.15

#: Start-up / tear-down transients: programs ramp dynamic power and
#: resident memory while loading input, allocating, and verifying.  The
#: ramps cover at most this fraction of the run at each end (capped in
#: absolute seconds below) — inside the 10 % the paper's analysis trims,
#: which is precisely why that trim exists.
_RAMP_FRACTION: float = 0.05
_RAMP_MAX_S: int = 30
_RAMP_START_LEVEL: float = 0.35
_RAMP_END_LEVEL: float = 0.50


def _transient_shape(n_seconds: int, rng: np.random.Generator) -> np.ndarray:
    """Per-second multiplier on dynamic power: ramp up, steady, ramp down."""
    shape = np.ones(n_seconds)
    ramp = int(min(max(n_seconds * _RAMP_FRACTION, 2), _RAMP_MAX_S))
    # Runs too short to resolve transients at 1 Hz stay flat.
    if n_seconds < max(2 * ramp + 2, 20):
        return shape
    start = _RAMP_START_LEVEL + 0.1 * float(rng.uniform(-1, 1))
    end = _RAMP_END_LEVEL + 0.1 * float(rng.uniform(-1, 1))
    shape[:ramp] = np.linspace(start, 1.0, ramp, endpoint=False)
    shape[n_seconds - ramp :] = np.linspace(1.0, end, ramp)
    return shape


def _run_seed(base_seed: int, label: str) -> np.random.Generator:
    """Deterministic per-run RNG from the campaign seed and run label."""
    digest = hashlib.sha256(f"{base_seed}:{label}".encode()).digest()
    # Exactly what ``np.random.default_rng(seed)`` returns, built directly.
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "big")))


#: Placement policy a :class:`Simulator` uses unless told otherwise.
#: Public because cache-key derivation (fleet jobs, doctor pins) must
#: agree with the simulator about it without reaching into internals.
DEFAULT_PLACEMENT_POLICY = "compact"


class Simulator:
    """Runs workloads on one server and produces measured traces."""

    def __init__(
        self,
        server: ServerSpec,
        power_model: SystemPowerModel | None = None,
        meter_spec: MeterSpec = WT210,
        seed: int = 0,
        placement_policy: str = DEFAULT_PLACEMENT_POLICY,
        externalize_comm: bool = False,
    ):
        """``externalize_comm`` drops the hidden communication-intensity
        power term (Section VI-C) from node power so an external model —
        the cluster interconnect — can charge those watts to the network
        instead.  Off by default; the default path is bit-identical to
        builds that predate the knob.
        """
        self.server = server
        self.power_model = power_model or calibrated_power_model(server)
        if self.power_model.server != server:
            raise SimulationError(
                "power model was calibrated for a different server"
            )
        self.meter_spec = meter_spec
        self.seed = seed
        self.externalize_comm = externalize_comm
        self._cpu = CpuSubsystem(server, placement_policy)
        self._memory = MemorySubsystem(server)
        self._pmu = Pmu(server)

    @property
    def placement_policy(self) -> str:
        """The CPU placement policy jobs built from this simulator use.

        The public face of ``_cpu.placement_policy``: fleet backends
        and the doctor's pin computation derive cache keys from it, so
        it must stay stable across refactors of the CPU subsystem.
        """
        return self._cpu.placement_policy

    def run(
        self,
        workload: "Workload | ResourceDemand",
        t_start_s: float = 0.0,
        power_factor: float | None = None,
    ) -> RunResult:
        """Execute one workload and return its traces.

        Parameters
        ----------
        workload:
            A workload model (bound here) or an explicit demand.
        t_start_s:
            Campaign-relative start timestamp for the sample clocks.
        power_factor:
            Dynamic-power idiosyncrasy override; defaults to the
            workload's own factor (1.0 for a bare demand).
        """
        if not obs.enabled():
            return self._run(workload, t_start_s, power_factor)
        label = getattr(workload, "label", None) or getattr(
            workload, "program", type(workload).__name__
        )
        with obs.timed("sim.run", server=self.server.name, program=label):
            result = self._run(workload, t_start_s, power_factor)
        obs.inc("sim.run.samples", float(result.times_s.size))
        obs.inc("sim.pmu.samples", float(len(result.pmu)))
        return result

    def _run(
        self,
        workload: "Workload | ResourceDemand",
        t_start_s: float,
        power_factor: "float | None",
    ) -> RunResult:
        """The uninstrumented simulation (the body of :meth:`run`)."""
        if isinstance(workload, ResourceDemand):
            demand = workload
            factor = 1.0 if power_factor is None else power_factor
        else:
            demand = workload.bind(self.server)
            factor = (
                workload.power_factor() if power_factor is None else power_factor
            )

        self._cpu.bind(demand)
        activity = self._cpu.activity()
        traffic = self._memory.traffic(demand, self._cpu.placement)
        base_watts = self.power_model.power_watts(
            demand,
            activity,
            traffic,
            idiosyncrasy=factor,
            include_comm=not self.externalize_comm,
        )

        n_seconds = max(int(math.ceil(demand.duration_s)), 1)
        # Seconds since the start: the ripple's argument, then (shifted by
        # t_start_s) the sample clock.
        times = np.arange(n_seconds, dtype=float)
        rng = _run_seed(self.seed, demand.program)

        # Slow phase ripple on the dynamic component (program phases:
        # factorisation panels, solver sweeps) and start-up/tear-down
        # transients, which scale the dynamic component and the ripple
        # riding on it.  Idle has no dynamic power to ripple or ramp.
        # The true power is built in place from the ripple:
        # idle + shape * (dynamic + ripple).
        idle_watts = self.power_model.coefficients.p_idle
        dynamic = base_watts - idle_watts
        if dynamic > 0:
            period = float(rng.uniform(20.0, 60.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            true_watts = 2.0 * math.pi * times
            true_watts /= period
            true_watts += phase
            np.sin(true_watts, out=true_watts)
            true_watts *= _RIPPLE_FRACTION * dynamic
            shape = _transient_shape(n_seconds, rng)
        else:
            true_watts = np.zeros(n_seconds)
            shape = np.ones(n_seconds)
        true_watts += dynamic
        true_watts *= shape
        true_watts += idle_watts
        times += t_start_s

        meter = Wt210Meter(self.meter_spec, seed=int(rng.integers(2**31)))
        measured = meter.sample_series(true_watts)

        sampler = MemorySampler(self.server, seed=int(rng.integers(2**31)))
        # Resident memory follows the same transient (allocation at start,
        # release at exit), on top of the OS baseline.
        os_mb = self._memory.os_baseline_mb
        resident = shape * (traffic.resident_mb - os_mb)
        resident += os_mb
        memory_mb = sampler.sample_series(resident)

        # PMU counters are always reported per standard 10 s collection
        # window (rates x interval), even for runs shorter than one window
        # — mixing window lengths would conflate a program's activity rate
        # with its runtime.  Counters depend on the steady demand, not the
        # window clock, so one synthesised reading fans out over every
        # window.  Activity counters ramp with the program's transients,
        # just like its power does; the allocated core count does not.
        # The per-window noise is one (windows, 6) draw; its core-count
        # column goes unused.
        interval = PMU_INTERVAL_S
        width = int(interval)
        n_pmu = max(n_seconds // width, 1)
        base = self._pmu.sample(
            demand, activity, traffic, time_s=0.0, interval_s=interval
        ).as_vector()
        if n_seconds >= width:
            scales = shape[: n_pmu * width].reshape(n_pmu, width).mean(axis=1)
        else:
            scales = np.array([shape.mean()])
        counters = rng.standard_normal((n_pmu, 6))
        counters *= _PMU_NOISE
        counters += 1.0
        counters *= base
        counters *= scales[:, None]
        np.maximum(counters, 0.0, out=counters)
        pmu = np.empty((n_pmu, len(PMU_COLUMNS)))
        pmu[:, 0] = t_start_s + np.arange(n_pmu) * interval
        pmu[:, 1] = interval
        pmu[:, 2] = float(demand.nprocs)
        pmu[:, 3:] = counters[:, 1:]

        return RunResult(
            demand=demand,
            t_start_s=t_start_s,
            times_s=times,
            true_watts=true_watts,
            measured_watts=measured,
            memory_mb=memory_mb,
            pmu=pmu,
            power_factor=factor,
        )
