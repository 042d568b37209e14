"""Ordinary least squares and forward stepwise selection.

:func:`fit_ols` produces the summary block of the paper's Table VII
(Multiple R, R Square, Adjusted R Square, Standard Error, Observations);
:func:`forward_stepwise` implements the variable-selection procedure the
paper uses to pick its six indices (Section VI-A), with the partial
F-to-enter stopping rule from Bendel & Afifi (1977).
:func:`f1_upper_quantile` supplies that rule's critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import RegressionError

__all__ = [
    "OlsModel",
    "fit_ols",
    "forward_stepwise",
    "StepwiseResult",
    "f1_upper_quantile",
]


@dataclass(frozen=True)
class OlsModel:
    """A fitted linear model ``y ~ X @ coefficients + intercept``.

    Summary attributes mirror the paper's Table VII rows.
    """

    coefficients: np.ndarray
    intercept: float
    n_observations: int
    r_square: float
    adjusted_r_square: float
    standard_error: float

    @property
    def multiple_r(self) -> float:
        """Square root of R Square (Table VII's "Multiple R")."""
        return float(np.sqrt(max(self.r_square, 0.0)))

    @property
    def n_features(self) -> int:
        """Number of regressors."""
        return int(self.coefficients.shape[0])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for a feature matrix (or single row).

        The linear combination is evaluated as a fixed left-to-right
        column accumulation (``intercept + x1*b1 + x2*b2 + ...``) built
        from element-wise ufuncs rather than a BLAS matrix product.
        BLAS kernels pick different accumulation orders for different
        operand shapes, so ``A @ b`` row ``i`` need not bit-match
        ``A[i] @ b``; the explicit accumulation makes predictions
        independent of batch size and BLAS build — predicting rows one
        at a time and predicting the stacked matrix are bit-identical,
        which the model registry's digest comparisons rely on.
        """
        features = np.asarray(features, dtype=float)
        single = features.ndim == 1
        if single:
            features = features[None, :]
        if features.shape[1] != self.n_features:
            raise RegressionError(
                f"expected {self.n_features} features, got {features.shape[1]}"
            )
        out = np.full(features.shape[0], self.intercept, dtype=float)
        for j in range(self.n_features):
            out = out + features[:, j] * self.coefficients[j]
        return out[0] if single else out


def _validate_xy(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if x.ndim != 2:
        raise RegressionError(f"X must be 2-D, got shape {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise RegressionError(
            f"X has {x.shape[0]} rows but y has {y.shape[0]}"
        )
    if x.shape[0] <= x.shape[1] + 1:
        raise RegressionError(
            f"need more observations ({x.shape[0]}) than parameters "
            f"({x.shape[1] + 1})"
        )
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise RegressionError("X and y must be finite")
    return x, y


def fit_ols(x: np.ndarray, y: np.ndarray, intercept: bool = True) -> OlsModel:
    """Fit ``y ~ X`` by least squares.

    Parameters
    ----------
    x:
        (n, k) feature matrix.
    y:
        (n,) target vector.
    intercept:
        Whether to include a constant term (the paper's ``C``).
    """
    x, y = _validate_xy(x, y)
    n, k = x.shape
    design = np.hstack([x, np.ones((n, 1))]) if intercept else x
    solution, *_ = np.linalg.lstsq(design, y, rcond=None)
    if intercept:
        coefficients, c = solution[:-1], float(solution[-1])
    else:
        coefficients, c = solution, 0.0
    residuals = y - (x @ coefficients + c)
    rss = float(residuals @ residuals)
    # Through-origin fits are scored against the zero model, not the
    # mean: the centred TSS can be smaller than the RSS (pushing R²
    # negative) or zero for a constant target, neither of which
    # describes how much of ``y`` the origin-constrained fit explains.
    if intercept:
        tss = float(((y - y.mean()) ** 2).sum())
    else:
        tss = float((y**2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 0.0
    dof = n - k - (1 if intercept else 0)
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / dof if dof > 0 else r2
    std_error = float(np.sqrt(rss / dof)) if dof > 0 else float("nan")
    return OlsModel(
        coefficients=coefficients,
        intercept=c,
        n_observations=n,
        r_square=r2,
        adjusted_r_square=adjusted,
        standard_error=std_error,
    )


@dataclass(frozen=True)
class StepwiseResult:
    """Outcome of forward stepwise selection."""

    selected: tuple[int, ...]
    model: OlsModel
    f_to_enter: tuple[float, ...]

    def selected_names(self, names: "list[str]") -> list[str]:
        """Map selected column indices to feature names."""
        return [names[i] for i in self.selected]


def _t_two_sided_tail(t: float, d: int) -> float:
    """``P(|T| > t)`` for Student's t with ``d`` degrees of freedom.

    The finite series of Abramowitz & Stegun 26.7.3-4 for ``A(t|d) =
    P(|T| <= t)`` with ``theta = atan(t / sqrt(d))``: for odd ``d``,
    ``(2/pi) (theta + sin(theta) (cos(theta) + (2/3) cos^3(theta) + ...))``
    with ``(d - 1) / 2`` cosine terms; for even ``d``, ``sin(theta) (1 +
    (1/2) cos^2(theta) + (1*3)/(2*4) cos^4(theta) + ...)`` with ``d / 2``
    terms.  Every term is positive, so the sum loses nothing to
    cancellation.
    """
    theta = math.atan2(t, math.sqrt(d))
    sin, cos2 = math.sin(theta), math.cos(theta) ** 2
    if d % 2:
        term = total = math.cos(theta) if d > 1 else 0.0
        for k in range(1, (d - 1) // 2):
            term *= cos2 * (2 * k) / (2 * k + 1)
            total += term
        inside = 2.0 / math.pi * (theta + sin * total)
    else:
        term = total = 1.0
        for k in range(1, d // 2):
            term *= cos2 * (2 * k - 1) / (2 * k)
            total += term
        inside = sin * total
    return 1.0 - inside


@lru_cache(maxsize=None)
def f1_upper_quantile(alpha: float, d: int) -> float:
    """The upper-``alpha`` quantile of the F(1, ``d``) distribution.

    Equal to ``scipy.stats.f.ppf(1 - alpha, 1, d)``.  F(1, d) is the
    square of Student's t with ``d`` degrees of freedom, so this is the
    squared ``t`` with ``P(|T| > t) = alpha``.  Newton's method on that
    tail (convex and decreasing in ``t``) climbs to the root from ``t =
    0`` without overshooting; the slope is twice the t density.
    Each Newton step sums about ``d / 2`` series terms (a few ms at the
    6000-observation Xeon-4870 study), and results are memoised:
    forward stepwise asks for one value per step.

    The series sums ``P(|T| <= t)``, so the tail carries an absolute
    error of a few ulps of 1: about 1e-12 relative for ``alpha >= 0.01``,
    growing as ``1e-16 / alpha`` below that.
    """
    if not 0.0 < alpha < 1.0:
        raise RegressionError(f"alpha must be in (0, 1), got {alpha}")
    if d < 1:
        raise RegressionError(f"degrees of freedom must be >= 1, got {d}")
    log_norm = (
        math.lgamma((d + 1) / 2)
        - math.lgamma(d / 2)
        - 0.5 * math.log(d * math.pi)
    )
    t = 0.0
    for _ in range(200):
        density = math.exp(log_norm - (d + 1) / 2 * math.log1p(t * t / d))
        step = (_t_two_sided_tail(t, d) - alpha) / (2.0 * density)
        if step <= 4.0 * math.ulp(t):
            break
        t += step
    return t * t


def _rss(x: np.ndarray, y: np.ndarray) -> float:
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - design @ solution
    return float(residuals @ residuals)


def forward_stepwise(
    x: np.ndarray,
    y: np.ndarray,
    alpha_enter: float = 0.05,
    max_features: int | None = None,
) -> StepwiseResult:
    """Forward stepwise regression with an F-to-enter stopping rule.

    Starting from the intercept-only model, repeatedly add the candidate
    column with the largest partial F statistic; stop when no candidate's
    F exceeds the ``alpha_enter`` critical value (Bendel & Afifi compare
    such stopping rules and recommend a liberal enter-level for
    forecasting use, which suits the paper's goal).

    Returns the selected column indices (in entry order), the refitted
    model on those columns, and each entry step's F statistic.
    """
    x, y = _validate_xy(x, y)
    n, k = x.shape
    limit = k if max_features is None else min(max_features, k)
    selected: list[int] = []
    f_values: list[float] = []
    tss = float(((y - y.mean()) ** 2).sum())
    rss_current = tss
    while len(selected) < limit:
        best: tuple[float, int, float] | None = None
        for j in range(k):
            if j in selected:
                continue
            candidate = x[:, selected + [j]]
            rss_new = _rss(candidate, y)
            dof = n - len(selected) - 2  # params: selected + new + intercept
            if dof <= 0 or rss_new <= 0:
                f_stat = float("inf")
            else:
                f_stat = (rss_current - rss_new) / (rss_new / dof)
            if best is None or f_stat > best[0]:
                best = (f_stat, j, rss_new)
        if best is None:
            break
        f_stat, j, rss_new = best
        dof = n - len(selected) - 2
        critical = f1_upper_quantile(alpha_enter, max(dof, 1))
        if f_stat < critical:
            break
        selected.append(j)
        f_values.append(f_stat)
        rss_current = rss_new
    if not selected:
        raise RegressionError(
            "forward stepwise selected no features; the features do not "
            "explain the target at the requested enter level"
        )
    model = fit_ols(x[:, selected], y)
    return StepwiseResult(
        selected=tuple(selected),
        model=model,
        f_to_enter=tuple(f_values),
    )
