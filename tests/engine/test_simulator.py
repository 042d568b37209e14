"""The discrete-time simulator."""

import numpy as np
import pytest

from repro.demand import ResourceDemand
from repro.engine.simulator import PMU_INTERVAL_S, Simulator
from repro.errors import SimulationError
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NpbWorkload


class TestDeterminism:
    def test_same_seed_same_trace(self, e5462):
        a = Simulator(e5462, seed=11).run(NpbWorkload("ep", "C", 4))
        b = Simulator(e5462, seed=11).run(NpbWorkload("ep", "C", 4))
        assert np.array_equal(a.measured_watts, b.measured_watts)
        assert np.array_equal(a.memory_mb, b.memory_mb)

    def test_different_seed_differs(self, e5462):
        a = Simulator(e5462, seed=11).run(NpbWorkload("ep", "C", 4))
        b = Simulator(e5462, seed=12).run(NpbWorkload("ep", "C", 4))
        assert not np.array_equal(a.measured_watts, b.measured_watts)

    def test_order_independence(self, e5462):
        """A run's trace does not depend on what ran before it."""
        sim = Simulator(e5462, seed=11)
        sim.run(NpbWorkload("mg", "B", 4))
        after_other = sim.run(NpbWorkload("ep", "C", 4))
        fresh = Simulator(e5462, seed=11).run(NpbWorkload("ep", "C", 4))
        assert np.array_equal(after_other.measured_watts, fresh.measured_watts)


class TestTraces:
    def test_sample_count_matches_duration(self, e5462):
        run = Simulator(e5462).run(NpbWorkload("ep", "C", 1))
        assert run.times_s.shape[0] == int(np.ceil(run.duration_s))

    def test_t_start_offsets_clock(self, e5462):
        run = Simulator(e5462).run(NpbWorkload("ep", "C", 4), t_start_s=500.0)
        assert run.times_s[0] == 500.0
        assert run.t_start_s == 500.0

    def test_pmu_sample_count(self, e5462):
        run = Simulator(e5462).run(NpbWorkload("ep", "C", 1))
        expected = max(int(run.times_s.shape[0] // PMU_INTERVAL_S), 1)
        assert len(run.pmu_samples) == expected

    def test_short_run_still_has_one_pmu_sample(self, x4870):
        run = Simulator(x4870).run(NpbWorkload("ep", "B", 40))  # ~1.4 s
        assert len(run.pmu_samples) == 1

    def test_pmu_counts_normalised_to_standard_window(self, x4870):
        """A short run's counters must reflect its *rate*, not its
        truncated runtime."""
        short = Simulator(x4870).run(NpbWorkload("ep", "B", 40))
        long = Simulator(x4870).run(NpbWorkload("ep", "C", 40))
        s = short.pmu_matrix().mean(axis=0)
        l = long.pmu_matrix().mean(axis=0)
        assert s[1] == pytest.approx(l[1], rel=0.5)  # instructions/10 s

    def test_pmu_matrix_reduces_like_the_stacked_samples(self, e5462):
        """The feature matrix holds each sample's vector as a row, laid
        out so its column means match the stacked vectors' bit for bit:
        from 8 windows on, numpy sums a column-major copy pairwise."""
        run = Simulator(e5462).run(HplWorkload(HplConfig(4, 0.5)))
        stacked = np.vstack([s.as_vector() for s in run.pmu_samples])
        assert len(stacked) >= 8
        np.testing.assert_array_equal(run.pmu_matrix(), stacked)
        assert (
            run.pmu_matrix().mean(axis=0).tolist()
            == stacked.mean(axis=0).tolist()
        )

    def test_idle_run(self, e5462):
        run = Simulator(e5462).run(ResourceDemand.idle(60.0))
        assert run.measured_watts.mean() == pytest.approx(134.4, abs=2.0)
        assert run.true_watts.std() == 0.0  # no dynamic ripple when idle

    def test_ripple_bounded_in_steady_region(self, e5462):
        """Away from the start/stop transients, the phase ripple is a
        small fraction of dynamic power."""
        run = Simulator(e5462).run(HplWorkload(HplConfig(4, 0.5)))
        n = run.true_watts.shape[0]
        steady = run.true_watts[n // 5 : -n // 5] - 134.3727
        assert steady.std() / steady.mean() < 0.05

    def test_transients_ramp_up_and_down(self, e5462):
        """Runs start below and end below their steady power — the
        transients the paper's 10 % trim removes."""
        run = Simulator(e5462).run(NpbWorkload("ep", "C", 1))
        steady = run.average_power_watts(trim=0.2)
        assert run.true_watts[0] < steady - 2.0
        assert run.true_watts[-1] < steady - 2.0

    def test_trim_recovers_steady_power(self, e5462):
        """The 10 % trim lands on the calibration target; the untrimmed
        mean under-reports (the reason the procedure trims)."""
        run = Simulator(e5462).run(NpbWorkload("ep", "C", 1))
        trimmed = run.average_power_watts(trim=0.10)
        untrimmed = float(run.measured_watts.mean())
        assert trimmed > untrimmed

    def test_memory_trace_near_footprint(self, e5462):
        run = Simulator(e5462).run(NpbWorkload("mg", "B", 4))
        from repro.hardware.memory import OS_BASELINE_MB

        expected = run.demand.memory_mb + OS_BASELINE_MB
        assert run.memory_mb.mean() == pytest.approx(expected, rel=0.02)


class TestPowerFactor:
    def test_explicit_factor_scales_dynamic(self, e5462):
        sim = Simulator(e5462, seed=0)
        base = sim.run(NpbWorkload("ep", "C", 4), power_factor=1.0)
        boosted = sim.run(NpbWorkload("ep", "C", 4), power_factor=1.5)
        idle = 134.3727
        d_base = base.true_watts.mean() - idle
        d_boost = boosted.true_watts.mean() - idle
        assert d_boost == pytest.approx(1.5 * d_base, rel=0.01)

    def test_workload_factor_recorded(self, e5462):
        run = Simulator(e5462).run(NpbWorkload("mg", "B", 4))
        assert run.power_factor != 1.0
        run_ep = Simulator(e5462).run(NpbWorkload("ep", "C", 4))
        assert run_ep.power_factor == 1.0


class TestValidation:
    def test_foreign_power_model_rejected(self, e5462, x4870):
        from repro.hardware.calibration import calibrated_power_model

        with pytest.raises(SimulationError):
            Simulator(e5462, power_model=calibrated_power_model(x4870))
