"""The CG kernel: conjugate gradient on a random sparse SPD matrix.

NPB CG estimates the largest eigenvalue of a sparse symmetric matrix with
a random pattern via inverse power iteration, each step solved by
conjugate gradient.  This module implements the inner CG solve on a
NAS-style random sparse SPD matrix (random pattern, diagonally shifted to
guarantee positive definiteness).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CsrMatrix", "random_spd_matrix", "conjugate_gradient", "CgResult"]


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in compressed-sparse-row (CSR) form.

    Row ``i`` holds ``data[indptr[i]:indptr[i + 1]]`` at columns
    ``indices[indptr[i]:indptr[i + 1]]``, one entry per (row, column).
    It supports what the CG loop needs: ``A @ x`` for a vector ``x``,
    plus ``toarray()``, ``nnz`` and ``shape``.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]
    _rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        counts = np.diff(self.indptr)
        object.__setattr__(
            self, "_rows", np.repeat(np.arange(self.shape[0]), counts)
        )

    @classmethod
    def from_triplets(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> "CsrMatrix":
        """Sum duplicate (row, column) entries and drop exact zeros."""
        keys = np.asarray(rows, dtype=np.int64) * shape[1] + cols
        unique, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=vals, minlength=unique.size)
        keep = sums != 0.0
        unique, sums = unique[keep], sums[keep]
        counts = np.bincount(unique // shape[1], minlength=shape[0])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return cls(sums, unique % shape[1], indptr, shape)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ConfigurationError(
                f"vector must have shape ({self.shape[1]},), got {x.shape}"
            )
        return np.bincount(
            self._rows, weights=self.data * x[self.indices], minlength=self.shape[0]
        )

    def toarray(self) -> np.ndarray:
        """The dense matrix."""
        dense = np.zeros(self.shape)
        dense[self._rows, self.indices] = self.data
        return dense


def random_spd_matrix(
    n: int, nonzeros_per_row: int = 7, shift: float = 10.0, seed: int = 0
) -> CsrMatrix:
    """A random sparse symmetric positive-definite matrix.

    Builds ``B + B^T`` from a random sparse pattern and adds
    ``shift + row_degree`` on the diagonal, which dominates the off-
    diagonal mass and guarantees SPD (Gershgorin).
    """
    if n <= 1:
        raise ConfigurationError(f"n must be > 1, got {n}")
    if nonzeros_per_row < 1 or nonzeros_per_row >= n:
        raise ConfigurationError(
            f"nonzeros_per_row must be in 1..{n - 1}, got {nonzeros_per_row}"
        )
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), nonzeros_per_row)
    cols = rng.integers(0, n, size=n * nonzeros_per_row)
    vals = rng.uniform(-1.0, 1.0, size=n * nonzeros_per_row)
    sym = CsrMatrix.from_triplets(
        np.concatenate([rows, cols]),
        np.concatenate([cols, rows]),
        np.concatenate([vals, vals]),
        (n, n),
    )
    # Diagonal dominance: |diag| exceeds the row's absolute off-diag sum.
    row_mass = np.bincount(sym._rows, weights=np.abs(sym.data), minlength=n)
    diagonal = np.arange(n)
    return CsrMatrix.from_triplets(
        np.concatenate([sym._rows, diagonal]),
        np.concatenate([sym.indices, diagonal]),
        np.concatenate([sym.data, row_mass + shift]),
        (n, n),
    )


@dataclass(frozen=True)
class CgResult:
    """Outcome of a conjugate-gradient solve."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool


def conjugate_gradient(
    a: CsrMatrix,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iterations: int | None = None,
) -> CgResult:
    """Unpreconditioned CG for SPD ``A x = b`` (the NPB CG inner loop)."""
    n = a.shape[0]
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise ConfigurationError(f"rhs must have shape ({n},), got {b.shape}")
    if max_iterations is None:
        max_iterations = 4 * n
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    iterations = 0
    while iterations < max_iterations:
        if np.sqrt(rs) / b_norm <= tol:
            break
        ap = a @ p
        alpha = rs / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
        iterations += 1
    residual = float(np.linalg.norm(b - a @ x)) / b_norm
    return CgResult(
        x=x,
        iterations=iterations,
        residual_norm=residual,
        converged=residual <= tol * 10,
    )
