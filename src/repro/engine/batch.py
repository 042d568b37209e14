"""Run lists: a loop of single runs.

Sweeps, evaluations and fleet chunks execute lists of workloads on one
simulator.  :func:`run_batch` runs them one at a time through
:meth:`~repro.engine.simulator.Simulator.run` — the only per-run
simulation body — and keeps each configuration that cannot run in its
slot as the :class:`~repro.errors.WorkloadError` it raised.

Every run draws from its own ``(seed, program label)`` stream (see
:func:`~repro.engine.simulator._run_seed`), so a run's result does not
depend on its position in the list or on which other runs share it.
"""

from __future__ import annotations

from repro.demand import ResourceDemand
from repro.engine.simulator import Simulator
from repro.engine.trace import RunResult
from repro.errors import WorkloadError
from repro.workloads.base import Workload

__all__ = ["run_batch"]


def run_batch(
    simulator: Simulator,
    workloads: "list[Workload | ResourceDemand]",
    t_start_s: float = 0.0,
) -> "list[RunResult | WorkloadError]":
    """Run every workload in order; workload errors land in their slot.

    The returned list is positionally aligned with ``workloads``.
    Configurations that cannot run (memory fit, process-count rules)
    come back as their :class:`~repro.errors.WorkloadError`; any other
    error — a meter over-range, say — propagates.
    """
    items: "list[RunResult | WorkloadError]" = []
    for workload in workloads:
        try:
            items.append(simulator.run(workload, t_start_s))
        except WorkloadError as exc:
            items.append(exc)
    return items
