"""Regression model mechanics (fast paths; full-scale bands live in
tests/integration/test_regression_bands.py)."""

import numpy as np
import pytest

from repro.core.regression import (
    RegressionDataset,
    collect_hpcc_training,
    train_power_model,
    verification_runs,
    verify_on_npb,
)
from repro.engine import Simulator
from repro.errors import RegressionError
from repro.hardware.pmu import REGRESSION_FEATURES


@pytest.fixture(scope="module")
def small_training():
    """A reduced sweep on the 4-core server — fast but real."""
    from repro.hardware import XEON_E5462

    return collect_hpcc_training(XEON_E5462)


@pytest.fixture(scope="module")
def small_model(small_training):
    return train_power_model(small_training, server_name="Xeon-E5462")


class TestDataset:
    def test_six_feature_columns(self, small_training):
        assert small_training.features.shape[1] == len(REGRESSION_FEATURES)

    def test_labels_cover_all_components(self, small_training):
        programs = {label.split(".")[0] for label in small_training.labels}
        assert programs == {
            "hpcc_hpl",
            "hpcc_dgemm",
            "hpcc_stream",
            "hpcc_ptrans",
            "hpcc_randomaccess",
            "hpcc_fft",
            "hpcc_beff",
        }

    def test_observation_count(self, small_training):
        # 7 components x 4 counts x (duration/10) samples.
        per_count = sum(
            int(c.duration_s // 10)
            for c in __import__(
                "repro.workloads.hpcc", fromlist=["HPCC_COMPONENTS"]
            ).HPCC_COMPONENTS
        )
        assert small_training.n_observations == per_count * 4

    def test_equals_the_per_window_reference(self, small_training):
        """One reshape mean per run gives what the per-window loop over
        PMU samples gave, bit for bit."""
        from repro.engine.simulator import PMU_INTERVAL_S
        from repro.hardware import XEON_E5462
        from repro.workloads.hpcc import HPCC_COMPONENTS, HpccWorkload

        simulator = Simulator(XEON_E5462)
        rows, power, labels = [], [], []
        interval = int(PMU_INTERVAL_S)
        for component in HPCC_COMPONENTS:
            for nprocs in range(1, XEON_E5462.total_cores + 1):
                workload = HpccWorkload(component, nprocs)
                run = simulator.run(workload)
                for k, sample in enumerate(run.pmu_samples):
                    window = run.measured_watts[
                        k * interval : (k + 1) * interval
                    ]
                    rows.append(sample.as_vector())
                    power.append(float(window.mean()))
                    labels.append(workload.label)
        np.testing.assert_array_equal(small_training.features, np.vstack(rows))
        assert small_training.power.tolist() == power
        assert small_training.labels == tuple(labels)

    def test_a_run_shorter_than_one_window_keeps_its_partial_mean(
        self, e5462
    ):
        from repro.demand import ResourceDemand

        runs = []

        class ShortRuns:
            def map_runs(self, simulator, workloads):
                for w in workloads:
                    demand = ResourceDemand(
                        program=w.label,
                        nprocs=1,
                        duration_s=6.0,
                        gflops=1.0,
                        memory_mb=100.0,
                    )
                    runs.append(simulator.run(demand))
                return runs

        dataset = collect_hpcc_training(
            e5462, proc_counts=[1], backend=ShortRuns()
        )
        assert dataset.n_observations == len(runs) == 7
        assert dataset.power.tolist() == [
            float(run.measured_watts.mean()) for run in runs
        ]

    def test_shape_validation(self):
        with pytest.raises(RegressionError):
            RegressionDataset(
                features=np.ones((5, 4)), power=np.ones(5), labels=("a",) * 5
            )
        with pytest.raises(RegressionError):
            RegressionDataset(
                features=np.ones((5, 6)), power=np.ones(4), labels=("a",) * 5
            )


class TestModel:
    def test_training_fit_strong(self, small_model):
        assert small_model.r_square > 0.8

    def test_intercept_collapses_after_normalisation(self, small_model):
        """Table VIII: C = 2.37e-14."""
        assert abs(small_model.intercept) < 1e-10

    def test_coefficients_full_length(self, small_model):
        assert small_model.coefficients_full().shape == (6,)

    def test_predict_watts_inverts_normalisation(self, small_model, small_training):
        predicted = small_model.predict_watts(small_training.features[:50])
        assert predicted.mean() == pytest.approx(
            small_training.power[:50].mean(), rel=0.1
        )

    def test_no_stepwise_option(self, small_training):
        model = train_power_model(small_training, use_stepwise=False)
        assert model.selected == (0, 1, 2, 3, 4, 5)
        assert model.stepwise is None

    def test_stepwise_enters_instructions_early(self, small_model):
        """The paper: cores and instructions are the influential indices."""
        assert small_model.stepwise is not None
        first_two = set(small_model.selected[:2])
        assert 1 in first_two or 0 in first_two


class TestVerificationRuns:
    def test_lexicographic_order(self, x4870):
        labels = [w.label for w in verification_runs(x4870, "B")]
        assert labels == sorted(labels)

    def test_ep_covers_all_counts(self, x4870):
        labels = [w.label for w in verification_runs(x4870, "B")]
        ep_labels = [l for l in labels if l.startswith("ep.")]
        assert len(ep_labels) == 40

    def test_fig12_run_count(self, x4870):
        """bt/sp: 6 square counts, cg/ft/is/lu/mg: 6 powers of two,
        ep: 40 -> 82 bars, matching Fig. 12's x-axis."""
        assert len(verification_runs(x4870, "B")) == 82

    def test_small_server_fewer_runs(self, e5462):
        labels = [w.label for w in verification_runs(e5462, "B")]
        assert len([l for l in labels if l.startswith("ep.")]) == 4


class TestVerification:
    def test_small_server_verification(self, small_model, e5462):
        result = verify_on_npb(e5462, small_model, "B", Simulator(e5462))
        assert result.npb_class == "B"
        assert len(result.labels) == len(result.measured)
        assert result.difference.shape == result.measured.shape

    def test_memory_gated_runs_skipped(self, small_model, e5462):
        """CG class C cannot run on the 8 GB server; the sweep skips it
        instead of failing (the paper's figure holes)."""
        result = verify_on_npb(e5462, small_model, "C", Simulator(e5462))
        assert not any(l.startswith("cg.") for l in result.labels)

    def test_per_program_rms_keys(self, small_model, e5462):
        result = verify_on_npb(e5462, small_model, "B", Simulator(e5462))
        assert set(result.per_program_rms()) <= {
            "bt",
            "cg",
            "ep",
            "ft",
            "is",
            "lu",
            "mg",
            "sp",
        }
