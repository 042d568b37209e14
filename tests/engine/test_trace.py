"""RunResult containers."""

import numpy as np
import pytest

from repro.demand import ResourceDemand
from repro.engine.trace import RunResult
from repro.errors import SimulationError


def make_result(n=100, watts=200.0, gflops=10.0):
    demand = ResourceDemand(
        program="t.C.4",
        nprocs=4,
        duration_s=float(n),
        gflops=gflops,
        memory_mb=1000.0,
    )
    times = np.arange(float(n))
    return RunResult(
        demand=demand,
        t_start_s=0.0,
        times_s=times,
        true_watts=np.full(n, watts),
        measured_watts=np.full(n, watts),
        memory_mb=np.full(n, 1600.0),
    )


def test_average_power():
    assert make_result().average_power_watts() == pytest.approx(200.0)


def test_ppw_eq1():
    assert make_result().ppw() == pytest.approx(10.0 / 200.0)


def test_energy_eq2():
    # 200 W for 100 s = 20 KJ.
    assert make_result().energy_kilojoules() == pytest.approx(20.0)


def test_trim_applied_to_power():
    n = 100
    r = make_result(n)
    watts = r.measured_watts.copy()
    watts[:10] = 1000.0  # start-up spike
    spiked = RunResult(
        demand=r.demand,
        t_start_s=0.0,
        times_s=r.times_s,
        true_watts=watts,
        measured_watts=watts,
        memory_mb=r.memory_mb,
    )
    assert spiked.average_power_watts(trim=0.10) == pytest.approx(200.0)


def test_t_end():
    assert make_result(50).t_end_s == pytest.approx(50.0)


def test_shape_mismatch_rejected():
    r = make_result(10)
    with pytest.raises(SimulationError):
        RunResult(
            demand=r.demand,
            t_start_s=0.0,
            times_s=r.times_s,
            true_watts=r.true_watts[:5],
            measured_watts=r.measured_watts,
            memory_mb=r.memory_mb,
        )


def test_empty_run_rejected():
    r = make_result(10)
    with pytest.raises(SimulationError):
        RunResult(
            demand=r.demand,
            t_start_s=0.0,
            times_s=np.array([]),
            true_watts=np.array([]),
            measured_watts=np.array([]),
            memory_mb=np.array([]),
        )


def test_pmu_matrix_requires_samples():
    with pytest.raises(SimulationError):
        make_result().pmu_matrix()


@pytest.mark.parametrize("shape", [(8,), (3, 6), (3, 9), (2, 3, 8)])
def test_pmu_of_the_wrong_shape_rejected(shape):
    r = make_result(10)
    with pytest.raises(SimulationError):
        RunResult(
            demand=r.demand,
            t_start_s=0.0,
            times_s=r.times_s,
            true_watts=r.true_watts,
            measured_watts=r.measured_watts,
            memory_mb=r.memory_mb,
            pmu=np.zeros(shape),
        )
