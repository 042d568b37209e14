"""OLS and forward stepwise selection."""

import numpy as np
import pytest

from repro.errors import RegressionError
from repro.stats.linreg import f1_upper_quantile, fit_ols, forward_stepwise


@pytest.fixture()
def linear_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 3))
    y = 2.0 * x[:, 0] - 1.0 * x[:, 1] + 0.5 + rng.normal(0, 0.1, 500)
    return x, y


class TestOls:
    def test_recovers_coefficients(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        assert model.coefficients[0] == pytest.approx(2.0, abs=0.02)
        assert model.coefficients[1] == pytest.approx(-1.0, abs=0.02)
        assert model.coefficients[2] == pytest.approx(0.0, abs=0.02)
        assert model.intercept == pytest.approx(0.5, abs=0.02)

    def test_r_square_near_one_for_clean_data(self, linear_data):
        x, y = linear_data
        assert fit_ols(x, y).r_square > 0.99

    def test_r_square_zero_for_noise(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(500, 2))
        y = rng.normal(size=500)
        assert fit_ols(x, y).r_square < 0.05

    def test_multiple_r_is_sqrt(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        assert model.multiple_r == pytest.approx(np.sqrt(model.r_square))

    def test_adjusted_below_r_square(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        assert model.adjusted_r_square <= model.r_square

    def test_standard_error_matches_noise(self, linear_data):
        x, y = linear_data
        assert fit_ols(x, y).standard_error == pytest.approx(0.1, abs=0.02)

    def test_predict_single_row(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        pred = model.predict(np.array([1.0, 0.0, 0.0]))
        assert pred == pytest.approx(2.5, abs=0.05)

    def test_predict_shape_checked(self, linear_data):
        x, y = linear_data
        model = fit_ols(x, y)
        with pytest.raises(RegressionError):
            model.predict(np.ones((3, 5)))

    def test_no_intercept(self):
        x = np.arange(10.0)[:, None]
        y = 3.0 * x[:, 0]
        model = fit_ols(x, y, intercept=False)
        assert model.intercept == 0.0
        assert model.coefficients[0] == pytest.approx(3.0)

    def test_no_intercept_r_square_uses_uncentered_tss(self):
        # A perfect through-origin fit must score R² = 1, which only
        # holds when TSS is taken about zero, not about the mean.
        x = np.arange(1.0, 11.0)[:, None]
        y = 3.0 * x[:, 0]
        model = fit_ols(x, y, intercept=False)
        assert model.r_square == pytest.approx(1.0)

    def test_no_intercept_r_square_stays_in_unit_interval(self):
        # Against centered TSS this fit scores R² < 0 (the zero-slope
        # model beats it about the mean); against the correct uncentered
        # TSS it lands in [0, 1].
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([10.0, 9.5, 10.5, 10.0])  # flat, far from origin
        model = fit_ols(x, y, intercept=False)
        rss = float(((y - model.predict(x)) ** 2).sum())
        centered = float(((y - y.mean()) ** 2).sum())
        assert 1.0 - rss / centered < 0.0  # the old formula went negative
        assert 0.0 <= model.r_square <= 1.0

    def test_intercept_r_square_pinned(self, linear_data):
        # The intercept=True path must stay byte-identical: same
        # centered-TSS formula, bit for bit.
        x, y = linear_data
        model = fit_ols(x, y)
        residuals = y - model.predict(x)
        rss = float(residuals @ residuals)
        tss = float(((y - y.mean()) ** 2).sum())
        assert model.r_square == 1.0 - rss / tss

    def test_needs_more_rows_than_params(self):
        with pytest.raises(RegressionError):
            fit_ols(np.ones((3, 3)), np.ones(3))

    def test_rejects_nonfinite(self):
        x = np.ones((10, 1)) * np.arange(10)[:, None]
        y = np.arange(10.0)
        y[3] = np.nan
        with pytest.raises(RegressionError):
            fit_ols(x, y)

    def test_rejects_misaligned(self):
        with pytest.raises(RegressionError):
            fit_ols(np.ones((10, 2)), np.ones(9))


class TestStepwise:
    def test_picks_informative_features_in_order(self, linear_data):
        x, y = linear_data
        result = forward_stepwise(x, y)
        # Strongest predictor (|b|=2) enters first, then the second.
        assert result.selected[0] == 0
        assert result.selected[1] == 1

    def test_excludes_pure_noise_feature(self, linear_data):
        x, y = linear_data
        result = forward_stepwise(x, y, alpha_enter=0.001)
        assert 2 not in result.selected

    def test_f_values_recorded(self, linear_data):
        x, y = linear_data
        result = forward_stepwise(x, y)
        assert len(result.f_to_enter) == len(result.selected)
        assert all(f > 0 for f in result.f_to_enter)

    def test_max_features_cap(self, linear_data):
        x, y = linear_data
        result = forward_stepwise(x, y, max_features=1)
        assert len(result.selected) == 1

    def test_selected_names(self, linear_data):
        x, y = linear_data
        result = forward_stepwise(x, y, max_features=2)
        names = result.selected_names(["a", "b", "c"])
        assert names == ["a", "b"]

    def test_model_refit_on_selection(self, linear_data):
        x, y = linear_data
        result = forward_stepwise(x, y)
        assert result.model.n_features == len(result.selected)
        assert result.model.r_square > 0.99

    def test_no_signal_raises(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 2))
        y = rng.normal(size=200)
        with pytest.raises(RegressionError):
            forward_stepwise(x, y, alpha_enter=1e-9)


class TestF1UpperQuantile:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.10, 0.5])
    def test_closed_forms_at_one_and_two_dof(self, alpha):
        # F(1,1) is a squared Cauchy; F(1,2) a squared t with 2 dof.
        cauchy = np.tan(np.pi * (1.0 - alpha) / 2.0) ** 2
        two = 2.0 * (1.0 - alpha) ** 2 / (1.0 - (1.0 - alpha) ** 2)
        assert f1_upper_quantile(alpha, 1) == pytest.approx(cauchy, rel=1e-12)
        assert f1_upper_quantile(alpha, 2) == pytest.approx(two, rel=1e-12)

    def test_decreases_toward_the_chi_square_limit(self):
        values = [f1_upper_quantile(0.05, d) for d in (1, 2, 5, 30, 5000)]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(3.841458820694124, rel=1e-3)

    def test_agrees_with_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        for alpha in (0.01, 0.05, 0.10):
            for d in [*range(1, 301), 500, 1000, 5000]:
                reference = float(stats.f.ppf(1.0 - alpha, 1, d))
                assert f1_upper_quantile(alpha, d) == pytest.approx(
                    reference, rel=1e-10, abs=0.0
                ), (alpha, d)

    @pytest.mark.parametrize("alpha, d", [(0.0, 5), (1.0, 5), (0.05, 0)])
    def test_rejects_bad_arguments(self, alpha, d):
        with pytest.raises(RegressionError):
            f1_upper_quantile(alpha, d)
