"""Conjugate gradient kernel."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels.cg import CsrMatrix, conjugate_gradient, random_spd_matrix


def scipy_spd_matrix(n, nonzeros_per_row=7, shift=10.0, seed=0):
    """The construction ``random_spd_matrix`` made with ``scipy.sparse``."""
    sparse = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), nonzeros_per_row)
    cols = rng.integers(0, n, size=n * nonzeros_per_row)
    vals = rng.uniform(-1.0, 1.0, size=n * nonzeros_per_row)
    b = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    sym = b + b.T
    row_mass = np.asarray(np.abs(sym).sum(axis=1)).ravel()
    return (sym + sparse.diags(row_mass + shift)).tocsr()


class TestMatrix:
    def test_symmetric(self):
        a = random_spd_matrix(200, seed=1).toarray()
        assert abs(a - a.T).max() < 1e-12

    def test_positive_definite_by_diagonal_dominance(self):
        a = random_spd_matrix(200, seed=2).toarray()
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert np.all(np.diag(a) > off - 1e-9)

    def test_sparse(self):
        a = random_spd_matrix(500, nonzeros_per_row=5, seed=3)
        assert a.nnz < 0.1 * 500 * 500

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            random_spd_matrix(1)
        with pytest.raises(ConfigurationError):
            random_spd_matrix(10, nonzeros_per_row=10)

    @pytest.mark.parametrize(
        "n, per_row, shift, seed",
        [(200, 7, 10.0, 1), (500, 5, 10.0, 3), (50, 49, 0.5, 9), (2, 1, 10.0, 0)],
    )
    def test_matches_the_scipy_construction(self, n, per_row, shift, seed):
        ours = random_spd_matrix(n, per_row, shift, seed)
        reference = scipy_spd_matrix(n, per_row, shift, seed)
        assert ours.shape == reference.shape
        assert ours.nnz == reference.nnz
        assert np.abs(ours.toarray() - reference.toarray()).max() < 1e-12


class TestCsr:
    def test_duplicates_sum_and_zeros_drop(self):
        a = CsrMatrix.from_triplets(
            np.array([0, 0, 1, 2, 2]),
            np.array([1, 1, 0, 2, 0]),
            np.array([1.0, 2.0, 4.0, 5.0, 0.0]),
            (3, 3),
        )
        assert a.nnz == 3
        assert a.toarray().tolist() == [[0, 3, 0], [4, 0, 0], [0, 0, 5]]

    def test_matvec_matches_dense_with_an_empty_row(self):
        a = CsrMatrix.from_triplets(
            np.array([0, 2, 2]), np.array([3, 0, 1]),
            np.array([1.5, -2.0, 0.25]), (3, 4),
        )
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(a @ x, a.toarray() @ x)

    def test_matvec_checks_the_vector_shape(self):
        with pytest.raises(ConfigurationError):
            random_spd_matrix(10) @ np.ones(9)


class TestSolve:
    def test_converges(self):
        a = random_spd_matrix(300, seed=4)
        b = np.ones(300)
        result = conjugate_gradient(a, b)
        assert result.converged
        assert result.residual_norm < 1e-9

    def test_solution_solves_system(self):
        a = random_spd_matrix(150, seed=5)
        rng = np.random.default_rng(5)
        b = rng.standard_normal(150)
        result = conjugate_gradient(a, b)
        assert np.allclose(a @ result.x, b, atol=1e-6)

    def test_iterations_bounded_for_well_conditioned(self):
        """Heavy diagonal shift means rapid convergence."""
        a = random_spd_matrix(400, shift=50.0, seed=6)
        result = conjugate_gradient(a, np.ones(400))
        assert result.iterations < 30

    def test_zero_rhs_instant(self):
        a = random_spd_matrix(50, seed=7)
        result = conjugate_gradient(a, np.zeros(50))
        assert result.iterations == 0
        assert np.allclose(result.x, 0)

    def test_max_iterations_respected(self):
        a = random_spd_matrix(200, shift=0.5, seed=8)
        result = conjugate_gradient(a, np.ones(200), max_iterations=2)
        assert result.iterations <= 2

    def test_rhs_shape_checked(self):
        a = random_spd_matrix(50, seed=9)
        with pytest.raises(ConfigurationError):
            conjugate_gradient(a, np.ones(49))
