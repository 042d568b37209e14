"""FleetBackend routed through the core sweeps and evaluation loops."""

import pytest

from repro.core import sweeps
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import FaultInjection, FleetBackend, ResultCache, RetryPolicy
from repro.hardware import XEON_E5462
import dataclasses

from repro.metering.meter import WT210
from repro.workloads.npb import NpbWorkload


@pytest.fixture(scope="module")
def simulator():
    return Simulator(XEON_E5462, seed=11)


@pytest.fixture(scope="module")
def backend():
    return FleetBackend(workers=2)


class TestSweepEquality:
    """Each sweep must be value-identical serial vs through the fleet."""

    def test_hpl_ns_sweep(self, simulator, backend):
        assert sweeps.hpl_ns_sweep(simulator) == sweeps.hpl_ns_sweep(
            simulator, backend=backend
        )

    def test_mixed_power_sweep_keeps_unrunnable_points(
        self, simulator, backend
    ):
        serial = sweeps.mixed_power_sweep(simulator, (4, 2, 1))
        fleet = sweeps.mixed_power_sweep(simulator, (4, 2, 1), backend=backend)
        assert fleet == serial
        # The sweep includes points that cannot fit in memory; they must
        # come back as None through the backend too, not crash it.
        assert any(not p.runnable for p in serial)

    def test_npb_class_sweep(self, simulator, backend):
        assert sweeps.npb_class_sweep(simulator) == sweeps.npb_class_sweep(
            simulator, backend=backend
        )

    def test_ep_profile(self, simulator, backend):
        assert sweeps.ep_profile(simulator) == sweeps.ep_profile(
            simulator, backend=backend
        )


class TestMapRuns:
    def test_dedupes_repeated_workloads(self, simulator):
        backend = FleetBackend(workers=1)
        workload = NpbWorkload("ep", "C", 2)
        a, b = backend.map_runs(simulator, [workload, workload])
        assert a == b

    def test_cache_reused_across_calls(self, simulator, tmp_path):
        backend = FleetBackend(
            workers=1, cache=ResultCache(tmp_path / "cache")
        )
        workload = NpbWorkload("ep", "C", 4)
        backend.map_runs(simulator, [workload])
        backend.map_runs(simulator, [workload])
        assert backend.cache.stats.hits == 1

    def test_rejects_non_default_meter(self, backend):
        other_meter = dataclasses.replace(WT210, name="WT-custom")
        simulator = Simulator(XEON_E5462, seed=0, meter_spec=other_meter)
        with pytest.raises(ConfigurationError):
            backend.map_runs(simulator, [NpbWorkload("ep", "C", 1)])

    def test_exhausted_retries_raise_simulation_error(self, simulator):
        backend = FleetBackend(
            workers=1,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            fault=FaultInjection("ep.C.2", fail_attempts=99),
        )
        with pytest.raises(SimulationError):
            backend.map_runs(simulator, [NpbWorkload("ep", "C", 2)])


class TestHpccThroughTheFleet:
    def test_training_set_is_identical_to_the_inline_path(self, backend):
        from repro.core.regression import collect_hpcc_training

        simulator = Simulator(XEON_E5462)
        counts = [1, 2, 4]
        inline = collect_hpcc_training(XEON_E5462, simulator, counts)
        fleet = collect_hpcc_training(
            XEON_E5462, simulator, counts, backend=backend
        )
        assert fleet.labels == inline.labels
        assert fleet.features.tobytes() == inline.features.tobytes()
        assert fleet.power.tobytes() == inline.power.tobytes()
