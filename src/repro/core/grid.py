"""State grids: the 5-state matrix generalised over operating points.

The paper measures each server in one configuration — nominal frequency,
cores at (1, half, full), memory at (half, full).  A :class:`StateGrid`
spans the full operating-point space DVFS support unlocks (Silva et
al.'s (cores x frequency) grids): **P-state x active cores x memory
fraction**.  Each P-state is one *cell* — the server pinned to that
operating point via :meth:`~repro.hardware.specs.ServerSpec.at_pstate`,
evaluated over the (cores x memory) matrix with the paper's own method —
so a four-P-state ladder multiplies the scenario count by four without
touching the evaluation semantics.

The degenerate grid (one P-state, default axes) *is* the paper's matrix:
:func:`evaluate_grid` on a builtin server produces a single cell whose
rows are bit-identical to :func:`~repro.core.evaluation.evaluate_server`,
a property the differential suite pins via :func:`evaluation_digest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.evaluation import EvaluationResult, evaluate_server
from repro.core.states import core_levels, evaluation_states
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.hardware.calibration import (
    FULL_MEMORY_FRACTION,
    HALF_MEMORY_FRACTION,
)
from repro.hardware.specs import ServerSpec
from repro.io import evaluation_to_dict
from repro.metering.analysis import DEFAULT_TRIM

__all__ = [
    "StateGrid",
    "GridCell",
    "GridEvaluation",
    "evaluate_grid",
    "evaluation_digest",
    "grid_to_dict",
]


def evaluation_digest(result: EvaluationResult) -> str:
    """SHA-256 over the canonical JSON form of an evaluation result.

    This is the quantity the differential tests pin: two evaluations are
    *digest-identical* iff every row (label, gflops, watts, memory, and
    duration) matches bit for bit.
    """
    from repro.fleet.cache import canonical_digest

    return canonical_digest(evaluation_to_dict(result))


@dataclass(frozen=True)
class StateGrid:
    """The operating-point axes to evaluate a server over.

    Attributes
    ----------
    server:
        The machine; its ``pstate`` pin is ignored — the grid's
        ``pstates`` axis decides the operating points.
    pstates:
        P-state indices to sweep (default: the processor's full ladder).
    core_counts:
        Active-core levels per cell (default: the paper's 1/half/full).
    memory_fractions:
        HPL memory fractions per cell (default: Mh = 0.50, Mf = 0.95).
    """

    server: ServerSpec
    pstates: tuple[int, ...] = ()
    core_counts: tuple[int, ...] = ()
    memory_fractions: tuple[float, ...] = (
        HALF_MEMORY_FRACTION,
        FULL_MEMORY_FRACTION,
    )

    def __post_init__(self) -> None:
        if not self.pstates:
            object.__setattr__(
                self, "pstates", tuple(range(self.server.n_pstates))
            )
        if not self.core_counts:
            object.__setattr__(self, "core_counts", core_levels(self.server))
        if not self.memory_fractions:
            raise ConfigurationError("memory_fractions must not be empty")
        if len(set(self.pstates)) != len(self.pstates):
            raise ConfigurationError(f"duplicate P-states in {self.pstates}")
        for p in self.pstates:
            self.server.processor.frequency_ratio_at(p)
        for n in self.core_counts:
            self.server.validate_core_count(n)
        for fraction in self.memory_fractions:
            if not 0.0 < fraction <= 1.0:
                raise ConfigurationError(
                    f"memory fraction must be in (0, 1], got {fraction}"
                )

    @property
    def n_cells(self) -> int:
        """Number of grid cells (one per P-state)."""
        return len(self.pstates)

    @property
    def states_per_cell(self) -> int:
        """Rows per cell: idle + EP x cores + HPL x cores x fractions."""
        n = len(self.core_counts)
        return 1 + n + n * len(self.memory_fractions)

    @property
    def n_states(self) -> int:
        """Total measurement states across the whole grid."""
        return self.n_cells * self.states_per_cell


@dataclass(frozen=True)
class GridCell:
    """One evaluated operating point of a grid."""

    pstate: int
    frequency_ratio: float
    frequency_mhz: float
    evaluation: EvaluationResult
    digest: str

    @property
    def score(self) -> float:
        """Mean PPW of the cell's evaluation."""
        return self.evaluation.score


@dataclass(frozen=True)
class GridEvaluation:
    """A server evaluated over a full :class:`StateGrid`."""

    server: str
    grid: StateGrid
    cells: tuple[GridCell, ...] = field(default_factory=tuple)

    @property
    def n_states(self) -> int:
        """Measurement states actually evaluated."""
        return sum(
            len(c.evaluation.rows) + len(c.evaluation.missing)
            for c in self.cells
        )

    @property
    def best_cell(self) -> GridCell:
        """The operating point with the highest mean PPW."""
        return max(self.cells, key=lambda c: c.score)

    @property
    def digest(self) -> str:
        """SHA-256 over every cell digest, in P-state order."""
        from repro.fleet.cache import canonical_digest

        return canonical_digest([c.digest for c in self.cells])

    def cell(self, pstate: int) -> GridCell:
        """Look up the cell for one P-state."""
        for c in self.cells:
            if c.pstate == pstate:
                return c
        raise ConfigurationError(f"no cell for P-state {pstate}")


def grid_to_dict(result: GridEvaluation) -> dict[str, Any]:
    """Serialise a :class:`GridEvaluation` (the zoo report schema)."""
    grid = result.grid
    return {
        "kind": "grid_evaluation",
        "schema_version": 1,
        "server": result.server,
        "axes": {
            "pstates": list(grid.pstates),
            "core_counts": list(grid.core_counts),
            "memory_fractions": list(grid.memory_fractions),
        },
        "n_states": result.n_states,
        "digest": result.digest,
        "cells": [
            {
                "pstate": cell.pstate,
                "frequency_ratio": cell.frequency_ratio,
                "frequency_mhz": cell.frequency_mhz,
                "score": cell.score,
                "average_watts": cell.evaluation.average_watts,
                "average_gflops": cell.evaluation.average_gflops,
                "digest": cell.digest,
                "evaluation": evaluation_to_dict(cell.evaluation),
            }
            for cell in result.cells
        ],
    }


def evaluate_grid(
    grid: StateGrid,
    seed: int = 0,
    trim: float = DEFAULT_TRIM,
    backend=None,
) -> GridEvaluation:
    """Evaluate every cell of ``grid`` with the paper's method.

    Each P-state pins the server via ``at_pstate`` and rebuilds the
    simulator from the pinned spec, exactly as a fleet worker would —
    power coefficients, achieved performance, and runtimes all follow
    the operating point.  ``backend`` routes each cell's runs like
    :func:`~repro.core.evaluation.evaluate_server` does.
    """
    cells = []
    for p in grid.pstates:
        pinned = grid.server.at_pstate(p)
        states = evaluation_states(
            pinned, grid.core_counts, grid.memory_fractions
        )
        evaluation = evaluate_server(
            pinned,
            simulator=Simulator(pinned, seed=seed),
            trim=trim,
            backend=backend,
            states=states,
        )
        cells.append(
            GridCell(
                pstate=p,
                frequency_ratio=pinned.frequency_ratio,
                frequency_mhz=pinned.effective_frequency_mhz,
                evaluation=evaluation,
                digest=evaluation_digest(evaluation),
            )
        )
    return GridEvaluation(
        server=grid.server.name, grid=grid, cells=tuple(cells)
    )
