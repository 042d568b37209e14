"""Calibration against the paper's published watts."""

import dataclasses

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.hardware import calibration
from repro.hardware.calibration import (
    DEFAULT_RIDGE_LAMBDA,
    PAPER_IDLE_WATTS,
    PAPER_POWER_ANCHORS,
    anchor_demand,
    calibrate_server,
    calibrated_power_model,
    default_coefficients,
    nnls,
)
from repro.hardware.specs import (
    BUILTIN_SERVERS,
    MemorySpec,
    ProcessorSpec,
    ServerSpec,
    XEON_4870,
    XEON_E5462,
    get_server,
)

#: Every builtin server's calibrated coefficients as exact hex floats:
#: the values the scipy-fitted calibration produced, which the digest
#: pins of the paper's exhibits hang on.
PINNED_COEFFICIENTS = {
    "Xeon-E5462": {
        "p_idle": "0x1.0cbed288ce704p+7",
        "chip_uncore": "0x1.3f5da60d1eb86p+3",
        "shared_sqrt": "0x1.d2658513de13ap+2",
        "core_active": "0x1.48b3454a5c43bp+1",
        "core_intensity": "0x1.ff4b272b77ae5p+3",
        "mem_dyn": "0x1.3333333333333p-3",
        "comm": "0x1.4000000000000p+1",
    },
    "Opteron-8347": {
        "p_idle": "0x1.37857a786c227p+8",
        "chip_uncore": "0x1.f9f0737c97a0bp+3",
        "shared_sqrt": "0x1.07142aaac8d6fp+5",
        "core_active": "0x0.0p+0",
        "core_intensity": "0x1.97d0bb157d28bp+1",
        "mem_dyn": "0x1.3333333333333p-3",
        "comm": "0x1.4000000000000p+1",
    },
    "Xeon-4870": {
        "p_idle": "0x1.411d70a3d70a4p+9",
        "chip_uncore": "0x0.0p+0",
        "shared_sqrt": "0x1.25d9c3d6c33c9p+3",
        "core_active": "0x0.0p+0",
        "core_intensity": "0x1.6026025450326p+3",
        "mem_dyn": "0x1.3333333333333p-3",
        "comm": "0x1.4000000000000p+1",
    },
}


class TestAnchors:
    def test_every_builtin_has_nine_anchors(self):
        for name, anchors in PAPER_POWER_ANCHORS.items():
            assert len(anchors) == 9, name

    def test_idle_watts_match_tables(self):
        assert PAPER_IDLE_WATTS["Xeon-E5462"] == pytest.approx(134.3727)
        assert PAPER_IDLE_WATTS["Opteron-8347"] == pytest.approx(311.5214)
        assert PAPER_IDLE_WATTS["Xeon-4870"] == pytest.approx(642.23)

    def test_anchor_demand_labels(self, e5462):
        anchors = PAPER_POWER_ANCHORS["Xeon-E5462"]
        labels = {anchor_demand(e5462, a).program for a in anchors}
        assert "ep.C.4" in labels
        assert "HPL P4 Mf" in labels
        assert "HPL P2 Mh" in labels

    def test_hpl_anchor_memory_scales_with_fraction(self, e5462):
        anchors = [a for a in PAPER_POWER_ANCHORS["Xeon-E5462"] if a.program == "hpl"]
        mh = next(a for a in anchors if a.memory_fraction == 0.5)
        mf = next(a for a in anchors if a.memory_fraction > 0.5)
        assert anchor_demand(e5462, mf).memory_mb > anchor_demand(
            e5462, mh
        ).memory_mb


class TestFit:
    @pytest.mark.parametrize(
        "name, rms_limit",
        [("Xeon-E5462", 10.0), ("Opteron-8347", 40.0), ("Xeon-4870", 45.0)],
    )
    def test_rms_residual_bounded(self, name, rms_limit):
        from repro.hardware.specs import get_server

        report = calibrate_server(get_server(name))
        assert report.rms_residual_watts < rms_limit

    def test_max_relative_error_bounded(self, any_server):
        report = calibrate_server(any_server)
        assert report.max_relative_error < 0.12

    def test_idle_coefficient_is_published_idle(self, any_server):
        report = calibrate_server(any_server)
        assert report.coefficients.p_idle == pytest.approx(
            PAPER_IDLE_WATTS[any_server.name]
        )

    def test_coefficients_nonnegative(self, any_server):
        c = calibrate_server(any_server).coefficients
        assert np.all(c.as_delta_vector() >= 0)

    def test_unknown_server_without_anchors_raises(self):
        custom = ServerSpec(
            name="Custom-1",
            processor=XEON_E5462.processor,
            chips=2,
            memory=MemorySpec(total_gb=16),
        )
        with pytest.raises(CalibrationError):
            calibrate_server(custom)

    def test_custom_server_with_explicit_anchors(self):
        custom = ServerSpec(
            name="Custom-2",
            processor=XEON_E5462.processor,
            chips=1,
            memory=MemorySpec(total_gb=8),
        )
        report = calibrate_server(
            custom,
            anchors=PAPER_POWER_ANCHORS["Xeon-E5462"],
            idle_watts=PAPER_IDLE_WATTS["Xeon-E5462"],
        )
        assert report.coefficients.p_idle > 0


class TestModelAccess:
    def test_builtin_model_cached(self):
        a = calibrated_power_model(XEON_4870)
        b = calibrated_power_model(XEON_4870)
        assert a is b

    def test_custom_server_gets_defaults(self):
        custom = ServerSpec(
            name="MyBox",
            processor=ProcessorSpec(
                model="Generic", frequency_mhz=2000, cores=8, flops_per_cycle=4
            ),
            chips=2,
            memory=MemorySpec(total_gb=64),
        )
        model = calibrated_power_model(custom)
        assert model.coefficients.p_idle == pytest.approx(
            default_coefficients(custom).p_idle
        )

    def test_default_coefficients_scale_with_size(self):
        small = ServerSpec(
            name="S",
            processor=XEON_E5462.processor,
            chips=1,
            memory=MemorySpec(total_gb=8),
        )
        big = ServerSpec(
            name="B",
            processor=XEON_E5462.processor,
            chips=4,
            memory=MemorySpec(total_gb=128),
        )
        assert (
            default_coefficients(big).p_idle > default_coefficients(small).p_idle
        )


class TestAnchorReproduction:
    """The calibrated model reproduces each published anchor within 12 %."""

    @pytest.mark.parametrize("server_name", list(PAPER_POWER_ANCHORS))
    def test_anchor_watts(self, server_name):
        from repro.hardware.calibration import anchor_demand
        from repro.hardware.cpu import CpuSubsystem
        from repro.hardware.memory import MemorySubsystem
        from repro.hardware.specs import get_server

        server = get_server(server_name)
        model = calibrated_power_model(server)
        cpu = CpuSubsystem(server)
        mem = MemorySubsystem(server)
        for anchor in PAPER_POWER_ANCHORS[server_name]:
            d = anchor_demand(server, anchor)
            cpu.bind(d)
            traffic = mem.traffic(d, cpu.placement)
            predicted = model.power_watts(d, cpu.activity(), traffic)
            assert predicted == pytest.approx(anchor.watts, rel=0.12), (
                f"{server_name} {d.program}"
            )


def builtin_problem(name):
    return calibration._fit_problem(
        get_server(name),
        PAPER_POWER_ANCHORS[name],
        PAPER_IDLE_WATTS[name],
        DEFAULT_RIDGE_LAMBDA,
    )


class TestBuiltinFits:
    """The checked-in builtin fits and the numpy NNLS that guards them."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_SERVERS))
    def test_coefficients_are_bit_identical_to_the_pins(self, name):
        server = get_server(name)
        fitted = calibrate_server(server).coefficients
        modelled = calibrated_power_model(server).coefficients
        for coefficients in (fitted, modelled):
            assert {
                k: float(v).hex()
                for k, v in dataclasses.asdict(coefficients).items()
            } == PINNED_COEFFICIENTS[name]

    def test_every_builtin_has_a_checked_in_fit(self):
        assert set(calibration._BUILTIN_FITS) == set(BUILTIN_SERVERS)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SERVERS))
    def test_scipy_reproduces_the_checked_in_fit_bit_for_bit(self, name):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        problem = builtin_problem(name)
        solution, _ = scipy_optimize.nnls(problem.stacked_a, problem.stacked_b)
        fitted = tuple(float(v).hex() for v in solution)
        checked_in = tuple(v.hex() for v in calibration._BUILTIN_FITS[name])
        assert fitted == checked_in, (
            f"scipy fits {name} differently; if the anchors changed on "
            f"purpose, set _BUILTIN_FITS[{name!r}] to:\n"
            + "".join(f'    "{h}",\n' for h in fitted)
        )

    def test_numpy_nnls_agrees_with_scipy_on_random_problems(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2015)
        zeros = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(n, 3 * n + 4))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            reference, _ = scipy_optimize.nnls(a, b)
            assert np.abs(nnls(a, b) - reference).max() <= 1e-12
            zeros += int((reference == 0).sum())
        assert zeros > 100  # the active set is exercised, not just lstsq

    def test_a_drifted_fit_raises(self, monkeypatch):
        fits = dict(calibration._BUILTIN_FITS)
        fits["Xeon-E5462"] = tuple(
            v * (1.0 + 1e-6) for v in fits["Xeon-E5462"]
        )
        monkeypatch.setattr(calibration, "_BUILTIN_FITS", fits)
        with pytest.raises(CalibrationError, match="checked-in builtin fit"):
            calibrate_server(XEON_E5462)

    def test_a_changed_zero_pattern_raises(self, monkeypatch):
        # The Opteron fit parks core_active at exactly zero; a checked-in
        # value that is not zero, however tiny, is a different active set.
        fits = dict(calibration._BUILTIN_FITS)
        opteron = list(fits["Opteron-8347"])
        assert opteron[2] == 0.0
        opteron[2] = 1e-300
        fits["Opteron-8347"] = tuple(opteron)
        monkeypatch.setattr(calibration, "_BUILTIN_FITS", fits)
        with pytest.raises(CalibrationError, match="checked-in builtin fit"):
            calibrate_server(get_server("Opteron-8347"))

    def test_other_systems_use_the_numpy_fit(self):
        # A different ridge is a different system: no checked-in fit.
        report = calibrate_server(XEON_E5462, ridge_lambda=0.2)
        pinned = calibrate_server(XEON_E5462)
        assert report.coefficients != pinned.coefficients
        assert report.coefficients.p_idle == pinned.coefficients.p_idle


class TestNnls:
    def test_textbook_problems(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            nnls(a, np.array([2.0, 1.0, 1.0])), [1.5, 1.0], atol=1e-14
        )
        assert nnls(a, np.array([-1.0, -1.0, -1.0])).tolist() == [0.0, 0.0]

    def test_cut_back_to_the_boundary(self):
        # Both columns free gives x0 = -3; the step is cut back there.
        a = np.array([[1.0, 0.0], [3.0, 1.0], [0.0, 0.0]])
        b = np.array([-3.0, 3.0, 0.0])
        np.testing.assert_allclose(nnls(a, b), [0.0, 3.0], atol=1e-14)
