"""FleetRunner.map_runs and FleetOutcome.map_runs behind the core loops."""

import pytest

from repro.core import sweeps
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError, SimulationError
from repro.fleet import FaultInjection, FleetRunner, ResultCache, RetryPolicy
from repro.hardware import XEON_E5462
import dataclasses

from repro.metering.meter import WT210
from repro.workloads.npb import NpbWorkload


@pytest.fixture(scope="module")
def simulator():
    return Simulator(XEON_E5462, seed=11)


@pytest.fixture(scope="module")
def backend():
    return FleetRunner(workers=2)


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
        backend = FleetRunner(workers=1)
        workload = NpbWorkload("ep", "C", 2)
        a, b = backend.map_runs(simulator, [workload, workload])
        assert a == b

    def test_cache_reused_across_calls(self, simulator, tmp_path):
        backend = FleetRunner(
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

    def test_exhausted_retries_come_back_in_their_slot(self, simulator):
        backend = FleetRunner(
            workers=1,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            fault=FaultInjection("ep.C.2", fail_attempts=99),
        )
        failed, run = backend.map_runs(
            simulator, [NpbWorkload("ep", "C", 2), NpbWorkload("ep", "C", 1)]
        )
        assert isinstance(failed, SimulationError)
        assert str(failed).startswith("fleet job Xeon-E5462/ep.C.2/s11/")
        assert "failed after 2 attempts: InjectedFaultError" in str(failed)
        inline = simulator.run(NpbWorkload("ep", "C", 1))
        assert run.measured_watts.tobytes() == inline.measured_watts.tobytes()


class TestOutcomeMapRuns:
    """A campaign that already ran, scored through ``backend=outcome``."""

    def test_scores_like_the_inline_evaluation(self):
        from repro.core.evaluation import evaluate_server
        from repro.fleet import evaluation_campaign

        seed = 5
        outcome = FleetRunner(workers=1).run(
            evaluation_campaign((XEON_E5462,), seed)
        )
        assert evaluate_server(
            XEON_E5462, Simulator(XEON_E5462, seed=seed), backend=outcome
        ) == evaluate_server(XEON_E5462, Simulator(XEON_E5462, seed=seed))

    def test_states_it_lacks_are_missing_in_state_order(self):
        from repro.core.evaluation import evaluate_server
        from repro.fleet import evaluation_campaign

        seed = 5
        jobs = evaluation_campaign((XEON_E5462,), seed).jobs()
        # Every other state ran: the rest never reached the runner.
        outcome = FleetRunner(workers=1).run_jobs(jobs[::2])
        simulator = Simulator(XEON_E5462, seed=seed)
        partial = evaluate_server(
            XEON_E5462, simulator, backend=outcome, allow_partial=True
        )
        assert partial.missing == tuple(job.label for job in jobs[1::2])
        assert [r.label for r in partial.rows] == [j.label for j in jobs[::2]]
        with pytest.raises(SimulationError, match="did not run"):
            evaluate_server(XEON_E5462, simulator, backend=outcome)


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

    def test_failed_job_raises_simulation_error_naming_it(self):
        from repro.core.regression import collect_hpcc_training

        backend = FleetRunner(
            workers=1,
            retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
            fault=FaultInjection("", fail_attempts=99),
        )
        with pytest.raises(SimulationError, match="fleet job Xeon-E5462/"):
            collect_hpcc_training(XEON_E5462, proc_counts=[1], backend=backend)
