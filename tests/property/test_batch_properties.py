"""Property: a run's result does not depend on the run list around it.

The pin suite (``tests/engine/test_simulator_pins.py``) fixes the
curated workload families bit for bit; this property fuzzes the demand
space itself — for arbitrary valid :class:`ResourceDemand` mixes on
every builtin server, reordering a run list or taking any subset of it
reproduces each member's result exactly.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.engine.batch import run_batch
from repro.engine.trace import RunResult
from repro.hardware import OPTERON_8347, XEON_4870, XEON_E5462

SERVERS = (XEON_E5462, OPTERON_8347, XEON_4870)

_PROGRAMS = ("fuzz-a", "fuzz-b", "fuzz-c", "fuzz-d", "fuzz-e")

unit = st.floats(0.0, 1.0, allow_nan=False)
# The cache model requires locality strictly below 1.
locality = st.floats(0.0, 0.99, allow_nan=False)


@st.composite
def demands(draw, server):
    """An arbitrary valid demand that fits ``server``."""
    nprocs = draw(st.integers(1, server.total_cores))
    return ResourceDemand(
        program=draw(st.sampled_from(_PROGRAMS)),
        nprocs=nprocs,
        duration_s=draw(st.floats(1.0, 45.0, allow_nan=False)),
        gflops=draw(st.floats(0.0, 40.0, allow_nan=False)),
        memory_mb=draw(st.floats(0.0, 2000.0, allow_nan=False)),
        cpu_util=draw(unit),
        ipc=draw(unit),
        fp_intensity=draw(unit),
        mem_intensity=draw(unit),
        comm_intensity=draw(unit),
        l1_locality=draw(locality),
        l2_locality=draw(locality),
        l3_locality=draw(locality),
        read_fraction=draw(unit),
    )


@st.composite
def server_and_demands(draw):
    server = draw(st.sampled_from(SERVERS))
    batch = draw(st.lists(demands(server), min_size=1, max_size=4))
    return server, batch


def assert_runs_identical(a: RunResult, b: RunResult) -> None:
    assert a.demand == b.demand
    assert np.array_equal(a.times_s, b.times_s)
    assert np.array_equal(a.true_watts, b.true_watts)
    assert np.array_equal(a.measured_watts, b.measured_watts)
    assert np.array_equal(a.memory_mb, b.memory_mb)
    assert a.pmu_samples == b.pmu_samples
    assert a.power_factor == b.power_factor


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=server_and_demands(), data=st.data())
def test_batch_is_order_and_membership_independent(case, data):
    """A run's result depends on (seed, program), never on batch shape.

    Shuffling the batch, or evaluating any subset of it, must reproduce
    each member's result exactly — this is what lets the fleet chunk
    jobs arbitrarily and retry single members without drift.
    """
    server, batch = case
    reference = run_batch(Simulator(server, seed=2015), batch)

    order = data.draw(st.permutations(range(len(batch))))
    shuffled = run_batch(
        Simulator(server, seed=2015), [batch[i] for i in order]
    )
    for position, original_index in enumerate(order):
        assert_runs_identical(
            shuffled[position], reference[original_index]
        )

    keep = data.draw(
        st.lists(
            st.integers(0, len(batch) - 1),
            min_size=1,
            max_size=len(batch),
            unique=True,
        )
    )
    subset = run_batch(Simulator(server, seed=2015), [batch[i] for i in keep])
    for position, original_index in enumerate(keep):
        assert_runs_identical(subset[position], reference[original_index])
