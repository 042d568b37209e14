"""Canonical experiment sweeps behind the paper's figures.

Each function runs one figure's or table's sweep on a simulator and
returns plain data (labels + values) that the benchmark harness, the CLI,
and the examples all render.  Keeping the sweep definitions here — rather
than duplicated in each consumer — makes "which runs make up Fig. X" a
single-sourced, testable fact.

Every sweep is structured as *build the run list, execute, assemble*, and
takes an optional ``backend`` implementing::

    map_runs(simulator, workloads) -> list[RunResult | ReproError]

(positionally aligned with the input; unrunnable configurations and
failed runs come back as the error instance).  ``backend=None`` executes
locally in this process through :func:`repro.engine.batch.run_batch`.
:meth:`repro.fleet.FleetRunner.map_runs` provides the parallel/cached
implementation; results are bit-identical on every path because the
simulator seeds runs from ``(seed, program label)``, not from execution
order.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.batch import run_batch
from repro.engine.simulator import Simulator
from repro.errors import InsufficientMemoryError
from repro.workloads.hpl import HplConfig, HplWorkload
from repro.workloads.npb import NPB_PROGRAMS, NpbClass, NpbWorkload
from repro.workloads.specpower import (
    SpecPowerLevel,
    SpecPowerWorkload,
    full_run_levels,
)

__all__ = [
    "PowerPoint",
    "specpower_usage_sweep",
    "mixed_power_sweep",
    "table2_power_matrix",
    "hpl_ns_sweep",
    "hpl_nb_sweep",
    "hpl_pq_sweep",
    "npb_class_sweep",
    "ep_profile",
]

#: Default HPL memory fraction for the power charts (full memory).
_FULL = 0.95


@dataclass(frozen=True)
class PowerPoint:
    """One bar of a power chart."""

    label: str
    watts: float | None  # None = could not run (memory or proc rule)

    @property
    def runnable(self) -> bool:
        """Whether the configuration could execute."""
        return self.watts is not None


def _map_runs(simulator: Simulator, workloads: list, backend=None) -> list:
    """Execute ``workloads`` in order, locally or through ``backend``.

    Workload errors (memory fit, process-count rules) are returned in
    place of the run so callers decide whether a point is skippable.
    """
    if backend is not None:
        return backend.map_runs(simulator, workloads)
    return run_batch(simulator, workloads)


def _unwrap(run):
    """A run that must have succeeded; re-raises captured errors."""
    if isinstance(run, Exception):
        raise run
    return run


def specpower_usage_sweep(
    simulator: Simulator, backend=None
) -> list[tuple[str, float, float, float]]:
    """Figs. 1-2 data: (level, memory %, cpu %, watts) per load level."""
    levels = full_run_levels()
    runs = _map_runs(
        simulator,
        [SpecPowerWorkload(level) for level in levels],
        backend,
    )
    rows = []
    for level, run in zip(levels, runs):
        run = _unwrap(run)
        memory_pct = (
            100.0 * run.average_memory_mb() / simulator.server.memory_mb
        )
        rows.append(
            (
                level.name,
                memory_pct,
                100.0 * run.demand.cpu_util,
                run.average_power_watts(),
            )
        )
    return rows


def mixed_power_sweep(
    simulator: Simulator,
    counts: "tuple[int, ...]",
    npb_class: "NpbClass | str" = "C",
    include_specpower: bool = True,
    backend=None,
) -> list[PowerPoint]:
    """Figs. 3-4 data: SPECpower, HPL, and every runnable NPB program.

    Labels follow the paper's x-axes (``HPL.4``, ``ep.C.4``...); counts
    are listed in the order given (the paper descends).
    """
    klass = NpbClass.parse(npb_class)
    plan: list[tuple[str, object]] = []
    if include_specpower:
        plan.append(
            (
                f"SPECPower.{simulator.server.total_cores}",
                SpecPowerWorkload(SpecPowerLevel("100%", 1.0)),
            )
        )
    for n in counts:
        plan.append((f"HPL.{n}", HplWorkload(HplConfig(n, _FULL))))
        for name, program in sorted(NPB_PROGRAMS.items()):
            if not program.proc_rule.allows(n):
                continue
            plan.append(
                (f"{name}.{klass.value}.{n}", NpbWorkload(program, klass, n))
            )
    runs = _map_runs(simulator, [w for _, w in plan], backend)
    points: list[PowerPoint] = []
    for (label, _), run in zip(plan, runs):
        if isinstance(run, InsufficientMemoryError):
            points.append(PowerPoint(label, None))
            continue
        points.append(PowerPoint(label, _unwrap(run).average_power_watts()))
    return points


def table2_power_matrix(
    simulator: Simulator,
    counts: "tuple[int, ...]" = (1, 2, 4, 8, 9, 16, 25, 32, 36, 39, 40),
    backend=None,
) -> dict[int, dict[str, float]]:
    """Table II data: program -> watts per process count (CG omitted,
    as in the paper's table)."""
    plan: list[tuple[int, str, object]] = []
    for n in counts:
        plan.append((n, "hpl", HplWorkload(HplConfig(n, _FULL))))
        for name, program in NPB_PROGRAMS.items():
            if name == "cg" or not program.proc_rule.allows(n):
                continue
            plan.append((n, name, NpbWorkload(program, "C", n)))
        if n == simulator.server.total_cores:
            plan.append(
                (n, "spec", SpecPowerWorkload(SpecPowerLevel("100%", 1.0)))
            )
    runs = _map_runs(simulator, [w for *_, w in plan], backend)
    table: dict[int, dict[str, float]] = {n: {} for n in counts}
    for (n, name, _), run in zip(plan, runs):
        table[n][name] = _unwrap(run).average_power_watts()
    return table


def hpl_ns_sweep(
    simulator: Simulator,
    core_counts: "tuple[int, ...]" = (1, 2, 4),
    fractions: "tuple[float, ...]" = (
        0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
    ),
    backend=None,
) -> dict[int, list[float]]:
    """Fig. 5 data: watts per memory fraction, one series per core count."""
    plan = [
        (n, HplWorkload(HplConfig(n, fraction)))
        for n in core_counts
        for fraction in fractions
    ]
    runs = _map_runs(simulator, [w for _, w in plan], backend)
    series: dict[int, list[float]] = {n: [] for n in core_counts}
    for (n, _), run in zip(plan, runs):
        series[n].append(_unwrap(run).average_power_watts())
    return series


def hpl_nb_sweep(
    simulator: Simulator,
    core_counts: "tuple[int, ...]" = (1, 2, 3, 4),
    nbs: "tuple[int, ...]" = (50, 100, 150, 200, 250, 300, 350, 400),
    backend=None,
) -> dict[int, list[float]]:
    """Fig. 6 data: watts per NB, one series per core count."""
    plan = [
        (n, HplWorkload(HplConfig(n, 0.5, nb=nb)))
        for n in core_counts
        for nb in nbs
    ]
    runs = _map_runs(simulator, [w for _, w in plan], backend)
    series: dict[int, list[float]] = {n: [] for n in core_counts}
    for (n, _), run in zip(plan, runs):
        series[n].append(_unwrap(run).average_power_watts())
    return series


def hpl_pq_sweep(
    simulator: Simulator,
    grids: "tuple[tuple[int, int], ...]" = ((1, 4), (2, 2), (4, 1)),
    nbs: "tuple[int, ...]" = (50, 100, 150, 200, 250, 300, 350, 400),
    backend=None,
) -> dict[tuple[int, int], list[float]]:
    """Fig. 7 data: watts per NB, one series per P x Q grid."""
    plan = [
        ((p, q), HplWorkload(HplConfig(p * q, 0.5, nb=nb, p=p, q=q)))
        for p, q in grids
        for nb in nbs
    ]
    runs = _map_runs(simulator, [w for _, w in plan], backend)
    series: dict[tuple[int, int], list[float]] = {grid: [] for grid in grids}
    for (grid, _), run in zip(plan, runs):
        series[grid].append(_unwrap(run).average_power_watts())
    return series


def npb_class_sweep(
    simulator: Simulator,
    counts: "tuple[int, ...]" = (1, 2, 4),
    classes: "tuple[str, ...]" = ("A", "B", "C"),
    quantity: str = "power",
    backend=None,
) -> dict[str, list[float | None]]:
    """Figs. 8-9 data: per (program, count) row, one value per class.

    ``quantity`` is ``"power"`` (W) or ``"memory"`` (MB); unrunnable
    configurations yield None.
    """
    if quantity not in ("power", "memory"):
        raise ValueError(f"quantity must be power|memory, got {quantity!r}")
    plan: list[tuple[str, object]] = []
    keys: list[str] = []
    for name, program in sorted(NPB_PROGRAMS.items()):
        for n in counts:
            if not program.proc_rule.allows(n):
                continue
            keys.append(f"{name}.{n}")
            for klass in classes:
                plan.append(
                    (f"{name}.{n}", NpbWorkload(program, klass, n))
                )
    runs = _map_runs(simulator, [w for _, w in plan], backend)
    table: dict[str, list[float | None]] = {key: [] for key in keys}
    for (key, _), run in zip(plan, runs):
        if isinstance(run, InsufficientMemoryError):
            table[key].append(None)
            continue
        run = _unwrap(run)
        table[key].append(
            run.average_power_watts()
            if quantity == "power"
            else run.average_memory_mb()
        )
    return table


def ep_profile(
    simulator: Simulator,
    counts: "tuple[int, ...] | None" = None,
    backend=None,
) -> list[tuple[int, float, float, float, float]]:
    """Figs. 10-11 data: (cores, time s, watts, PPW, energy KJ) for EP.C."""
    if counts is None:
        server = simulator.server
        counts = (1, server.half_cores(), server.total_cores)
    runs = _map_runs(
        simulator,
        [NpbWorkload("ep", "C", n) for n in counts],
        backend,
    )
    rows = []
    for n, run in zip(counts, runs):
        run = _unwrap(run)
        rows.append(
            (
                n,
                run.duration_s,
                run.average_power_watts(),
                run.ppw(),
                run.energy_kilojoules(),
            )
        )
    return rows
