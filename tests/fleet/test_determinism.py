"""Satellite: fleet execution must be bit-identical to the serial path.

The simulator derives every random stream from ``(seed, program label)``,
so worker count, execution order, and caching cannot change results.
These tests pin that contract: a 2-worker fleet pool reproduces the
serial :class:`~repro.engine.simulator.Simulator` exactly, bit for bit.
"""

import numpy as np

from repro.core.evaluation import evaluate_server
from repro.engine.simulator import Simulator
from repro.fleet import FleetRunner, demo_campaign
from repro.fleet.spec import workload_from_dict
from repro.hardware import BUILTIN_SERVERS, XEON_E5462


def assert_bit_identical(a, b):
    """Exact equality on every array and scalar of two RunResults."""
    assert a.demand == b.demand
    assert np.array_equal(a.times_s, b.times_s)
    assert np.array_equal(a.true_watts, b.true_watts)
    assert np.array_equal(a.measured_watts, b.measured_watts)
    assert np.array_equal(a.memory_mb, b.memory_mb)
    assert a.pmu_samples == b.pmu_samples
    assert a.power_factor == b.power_factor


class TestPoolMatchesSerialSimulator:
    def test_two_worker_pool_bit_identical_to_serial(self):
        campaign = demo_campaign()
        pooled = FleetRunner(workers=2).run(campaign)
        assert pooled.ok
        simulator = Simulator(XEON_E5462, seed=campaign.seed)
        for record in pooled.records:
            serial = simulator.run(workload_from_dict(record.job.workload))
            assert_bit_identical(record.result, serial)

    def test_pool_result_independent_of_worker_count(self):
        campaign = demo_campaign()
        two = FleetRunner(workers=2).run(campaign)
        four = FleetRunner(workers=4).run(campaign)
        for a, b in zip(two.records, four.records):
            assert_bit_identical(a.result, b.result)


class TestBackendMatchesEvaluateServer:
    def test_evaluation_identical_through_fleet_backend(self):
        # Frozen-dataclass equality compares every float exactly, so
        # this asserts bit-identical evaluation tables.
        backend = FleetRunner(workers=2)
        for server in BUILTIN_SERVERS.values():
            assert evaluate_server(server) == evaluate_server(
                server, backend=backend
            )
