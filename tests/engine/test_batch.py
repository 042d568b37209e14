"""Run lists: ``run_batch`` error policy."""

import pytest

from repro.demand import ResourceDemand
from repro.engine import Simulator
from repro.engine.batch import run_batch
from repro.engine.trace import RunResult
from repro.errors import InsufficientMemoryError, MeterError
from repro.metering.meter import MeterSpec
from repro.workloads.npb import NpbWorkload


class TestErrorPolicy:
    def test_workload_error_lands_in_place(self, e5462):
        # cg class C does not fit the E5462's 7.6 GB — the batch keeps
        # going and parks the error at the failing position.
        workloads = [
            NpbWorkload("ep", "C", 4),
            NpbWorkload("cg", "C", 1),
            NpbWorkload("mg", "C", 2),
        ]
        items = run_batch(Simulator(e5462, seed=2015), workloads)
        assert isinstance(items[0], RunResult)
        assert isinstance(items[1], InsufficientMemoryError)
        assert isinstance(items[2], RunResult)

    def test_other_errors_propagate(self, e5462):
        # A meter whose range the server's idle power already exceeds:
        # over-range is a broken setup, not an unrunnable point.
        tiny = MeterSpec("tiny", 10.0, 0.5, 0.001, 0.01)
        simulator = Simulator(e5462, meter_spec=tiny, seed=2015)
        with pytest.raises(MeterError, match="exceeds"):
            run_batch(simulator, [ResourceDemand.idle(duration_s=30.0)])

    def test_empty_batch(self, e5462):
        assert run_batch(Simulator(e5462, seed=2015), []) == []

    def test_bare_demand_accepted(self, e5462):
        demand = ResourceDemand.idle(duration_s=30.0)
        (item,) = run_batch(Simulator(e5462, seed=2015), [demand])
        assert isinstance(item, RunResult)
        assert item.demand == demand
        assert item.power_factor == 1.0
