"""Invariants of one simulated run beyond the family pins.

`test_simulator_pins.py` pins whole workload families from two campaign
clocks.  This file pins the runs those lists never make, on every
builtin server: a fractional start clock, an explicit power factor,
runs shorter than one PMU window and shorter than the transient ramps,
and idle demands of those lengths.  It also holds the contracts the
digests cannot see:

- the arrays of one run never share memory, and neither sampler writes
  into the series it is given;
- the meter rejects a bad series with the same error class, message and
  index in every mixture of bad values, and a rejected series draws
  nothing from the meter's stream;
- an instrumented run records the same counters per run.
"""

import hashlib
import itertools

import numpy as np
import pytest

from repro import obs
from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.errors import InvalidSampleError, MeterError
from repro.metering.meter import WT210, Wt210Meter
from repro.metering.sampler import MemorySampler
from repro.obs import runtime
from repro.workloads.hpcc import HpccWorkload
from repro.workloads.npb import NpbWorkload

SEED = 33

PINNED = {
    "Xeon-E5462":
        "60f20e6617bb8893f98325d55533095143294ca14d296ebb71dd4304d074c519",
    "Opteron-8347":
        "e10ba658995f715b7fec42f08a8b9351fb40c1bc9f32faf669cd9c56001e7ed7",
    "Xeon-4870":
        "57695ab9142f7017186a62bbfbf2053e01828d01452d209f2eb7aa9a8fd9f68e",
}


def short_demand(server, duration_s):
    return ResourceDemand(
        program=f"short-{duration_s}",
        nprocs=min(2, server.total_cores),
        duration_s=duration_s,
        gflops=3.0,
        memory_mb=128.0,
        cpu_util=0.9,
    )


def edge_runs(server):
    """(workload, t_start_s, power_factor) the family pins never make."""
    runs = []
    # Shorter than one PMU window, shorter than the ramps (flat
    # transient), and the boundaries of both.
    for duration_s in (0.25, 1.0, 7.5, 9.0, 10.0, 15.0, 19.0, 20.0, 21.5):
        runs.append((short_demand(server, duration_s), 0.0, None))
    for duration_s in (0.5, 6.0, 12.0, 19.0, 30.0):
        runs.append((ResourceDemand.idle(duration_s=duration_s), 0.0, None))
    # A fractional campaign clock, alone and with the edges above.
    runs.append((HpccWorkload("stream", 4), 17.3, None))
    runs.append((short_demand(server, 7.5), 0.1, None))
    runs.append((short_demand(server, 15.0), 3601.7, None))
    runs.append((ResourceDemand.idle(duration_s=12.0), 99.9, None))
    # An explicit power factor, on a workload and on a bare demand.
    runs.append((NpbWorkload("bt", "B", 4), 0.0, 0.85))
    runs.append((HpccWorkload("fft", 4), 41.5, 1.2))
    runs.append((short_demand(server, 9.0), 0.0, 0.5))
    runs.append((short_demand(server, 33.0), 7.0, 1.3))
    return runs


def run_all(server):
    simulator = Simulator(server, seed=SEED)
    return [
        simulator.run(workload, t_start_s=t_start_s, power_factor=factor)
        for workload, t_start_s, factor in edge_runs(server)
    ]


def arrays(run):
    return {
        "times_s": run.times_s,
        "true_watts": run.true_watts,
        "measured_watts": run.measured_watts,
        "memory_mb": run.memory_mb,
        "pmu": run.pmu,
    }


def runs_digest(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(f"run {run.demand!r} {run.t_start_s!r}".encode())
        h.update(f" {run.power_factor!r}\n".encode())
        for name, values in arrays(run).items():
            array = np.ascontiguousarray(values, dtype="<f8")
            h.update(f"{name} {array.shape}:".encode())
            h.update(array.tobytes())
    return h.hexdigest()


def test_edge_runs_are_pinned(any_server):
    assert runs_digest(run_all(any_server)) == PINNED[any_server.name]


def test_run_arrays_share_no_memory(any_server):
    for run in run_all(any_server):
        for (a_name, a), (b_name, b) in itertools.combinations(
            arrays(run).items(), 2
        ):
            assert not np.shares_memory(a, b), (run.demand.program, a_name, b_name)


@pytest.mark.parametrize(
    "series",
    [
        np.array([120.0, 250.5, 0.0, -0.0, 2000.0]),
        np.linspace(1.0, 1999.0, 37),
        np.array([], dtype=float),
    ],
)
def test_meter_leaves_its_input_alone(series):
    before = series.copy()
    measured = Wt210Meter(WT210, seed=4).sample_series(series)
    assert np.array_equal(series, before)
    assert np.array_equal(np.signbit(series), np.signbit(before))
    assert measured.shape == series.shape
    assert not np.shares_memory(measured, series)


@pytest.mark.parametrize(
    "series",
    [
        np.array([512.0, 0.0, 1.0, 300000.0]),
        np.linspace(0.0, 4096.0, 41),
        np.array([], dtype=float),
    ],
)
def test_memory_sampler_leaves_its_input_alone(e5462, series):
    before = series.copy()
    observed = MemorySampler(e5462, seed=4).sample_series(series)
    assert np.array_equal(series, before)
    assert observed.shape == series.shape
    assert not np.shares_memory(observed, series)


NAN, INF = float("nan"), float("inf")

#: (series, error class, message, index of the first offender or None).
#: Checks run in order: non-finite, then negative, then over-range.
REJECTED = [
    ([1.0, NAN, 3.0], InvalidSampleError,
     "invalid power sample at index 1: nan (power must be finite)", 1),
    ([NAN], InvalidSampleError,
     "invalid power sample at index 0: nan (power must be finite)", 0),
    ([5.0, 6.0, INF], InvalidSampleError,
     "invalid power sample at index 2: inf (power must be finite)", 2),
    ([-INF, 5.0], InvalidSampleError,
     "invalid power sample at index 0: -inf (power must be finite)", 0),
    ([10.0, -1.5, -2.0], InvalidSampleError,
     "invalid power sample at index 1: -1.5 "
     "(negative power cannot be measured)", 1),
    ([10.0, 2500.0], MeterError, "WT210: 2500 W exceeds the 2000 W range",
     None),
    ([3000.4, 10.0, 2500.0], MeterError,
     "WT210: 3000 W exceeds the 2000 W range", None),
    ([2000.0001], MeterError, "WT210: 2000 W exceeds the 2000 W range",
     None),
    # Mixtures: the earlier check wins, wherever its offender sits.
    ([2500.0, -1.0, NAN], InvalidSampleError,
     "invalid power sample at index 2: nan (power must be finite)", 2),
    ([-3.0, INF, 2500.0], InvalidSampleError,
     "invalid power sample at index 1: inf (power must be finite)", 1),
    ([2500.0, 7.0, -3.0], InvalidSampleError,
     "invalid power sample at index 2: -3.0 "
     "(negative power cannot be measured)", 2),
    ([-INF, NAN, -1.0, 2500.0], InvalidSampleError,
     "invalid power sample at index 0: -inf (power must be finite)", 0),
    ([4000.0, INF], InvalidSampleError,
     "invalid power sample at index 1: inf (power must be finite)", 1),
]


@pytest.mark.parametrize(
    "series, error, message, index",
    REJECTED,
    ids=[str(i) for i in range(len(REJECTED))],
)
def test_meter_rejects_with_the_first_offender(series, error, message, index):
    meter = Wt210Meter(WT210, seed=9)
    with pytest.raises(MeterError) as info:
        meter.sample_series(np.array(series))
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "index", None) == index
    # A rejected series draws nothing from the meter's stream.
    valid = np.array([100.0, 250.25, 1999.5])
    fresh = Wt210Meter(WT210, seed=9).sample_series(valid)
    assert np.array_equal(meter.sample_series(valid), fresh)


def test_meter_rejects_a_list_like_an_array():
    with pytest.raises(InvalidSampleError) as info:
        Wt210Meter(WT210, seed=9).sample_series([7.0, -0.5])
    assert info.value.index == 1


COUNTERS = (
    "sim.run.count",
    "sim.run.samples",
    "sim.pmu.samples",
    "meter.samples",
    "meter.memory_samples",
)


@pytest.mark.parametrize(
    "workload, expected",
    [
        (NpbWorkload("ep", "C", 4), (1.0, 35.0, 3.0, 35.0, 35.0)),
        (ResourceDemand.idle(duration_s=7.5), (1.0, 8.0, 1.0, 8.0, 8.0)),
    ],
    ids=["ep.C.4", "idle"],
)
def test_instrumented_run_records_its_counters(
    e5462, monkeypatch, workload, expected
):
    monkeypatch.setenv(obs.ENV_VAR, "1")
    monkeypatch.setattr(runtime, "_override", None)
    registry = obs.MetricsRegistry()
    previous_tracer = obs.get_tracer()
    tracer = obs.Tracer()
    obs.set_tracer(tracer)
    try:
        with obs.use_registry(registry):
            Simulator(e5462, seed=SEED).run(workload)
    finally:
        obs.set_tracer(previous_tracer)
    counters = registry.snapshot()["counters"]
    assert tuple(counters.get(name) for name in COUNTERS) == expected
    assert [record.name for record in tracer.records()] == ["sim.run"]
