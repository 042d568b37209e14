"""Executable mini-kernels of the benchmark programs.

The workload *models* in :mod:`repro.workloads` describe full-scale runs
analytically; this package implements the actual computational kernels at
laptop scale, so the library's claims about each program's character are
grounded in running code:

* :mod:`repro.kernels.nas_rng` — the NAS 46-bit linear congruential
  generator with O(log n) vectorised skip-ahead (the basis of EP's
  "embarrassing" parallelism).
* :mod:`repro.kernels.ep` — the EP kernel: Gaussian pairs by acceptance-
  rejection, annulus tallies, deterministic parallel decomposition.
* :mod:`repro.kernels.linalg` — blocked LU with partial pivoting (the HPL
  kernel) with the HPL residual check, and blocked DGEMM.
* :mod:`repro.kernels.cg` — conjugate gradient on a random sparse SPD
  matrix (the CG kernel's inner solve).
* :mod:`repro.kernels.mg` — multigrid V-cycles for the 3-D Poisson
  problem.
* :mod:`repro.kernels.ft` — the FT kernel: 3-D FFT evolution with
  checksums.
* :mod:`repro.kernels.is_` — bucket sort of LCG-generated integer keys.
* :mod:`repro.kernels.stencil` — SSOR sweeps (LU) and ADI line solves with
  a vectorised Thomas algorithm (BT/SP).
* :mod:`repro.kernels.stream` / :mod:`repro.kernels.random_access` /
  :mod:`repro.kernels.ptrans` — the HPCC memory kernels.
"""

from repro.kernels.nas_rng import NasRandom, lcg_modmul, lcg_power
from repro.kernels.ep import EpResult, run_ep
from repro.kernels.linalg import blocked_dgemm, blocked_lu, hpl_residual, lu_solve
from repro.kernels.cg import (
    CgResult,
    CsrMatrix,
    conjugate_gradient,
    random_spd_matrix,
)
from repro.kernels.mg import MgResult, poisson_rhs, v_cycle_solve
from repro.kernels.ft import FtResult, run_ft
from repro.kernels.is_ import IsResult, run_is
from repro.kernels.stencil import adi_sweep, ssor_sweep, thomas_solve
from repro.kernels.stream import StreamResult, run_stream
from repro.kernels.random_access import RandomAccessResult, run_random_access
from repro.kernels.ptrans import run_ptrans
from repro.kernels.block_tridiag import block_thomas_solve, random_block_tridiagonal
from repro.kernels.bt_solver import BtMiniProblem, bt_adi_step, bt_solve

__all__ = [
    "NasRandom",
    "lcg_modmul",
    "lcg_power",
    "EpResult",
    "run_ep",
    "blocked_dgemm",
    "blocked_lu",
    "hpl_residual",
    "lu_solve",
    "CgResult",
    "CsrMatrix",
    "conjugate_gradient",
    "random_spd_matrix",
    "MgResult",
    "poisson_rhs",
    "v_cycle_solve",
    "FtResult",
    "run_ft",
    "IsResult",
    "run_is",
    "adi_sweep",
    "ssor_sweep",
    "thomas_solve",
    "StreamResult",
    "run_stream",
    "RandomAccessResult",
    "run_random_access",
    "run_ptrans",
    "block_thomas_solve",
    "random_block_tridiagonal",
    "BtMiniProblem",
    "bt_adi_step",
    "bt_solve",
]
