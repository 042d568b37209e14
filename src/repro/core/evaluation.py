"""The proposed HPC power evaluation method (Section V-C).

Runs the ten-state matrix (idle + EP.C x {1, half, full} + HPL x
{1, half, full} x {Mh, Mf}), measures each state with the metering
pipeline, computes PPW per state (Eq. 1), and scores the server with the
arithmetic mean of the ten PPW values — the row the paper prints as
"(GFlops/Watt)/10".

Note on the paper's Table IV: the Xeon-E5462 score is printed as 0.6390,
which is the *sum* of its PPW column; the other two servers print the
sum/10.  The mean (sum/10) is used consistently here — it changes no
ordering, and the paper's own ranking text juxtaposes 0.639 with the
other servers' sum/10 values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import ppw
from repro.core.states import EvaluationState, evaluation_states
from repro.demand import ResourceDemand
from repro.engine.batch import run_batch
from repro.engine.simulator import Simulator
from repro.errors import ConfigurationError
from repro.hardware.specs import ServerSpec
from repro.metering.analysis import DEFAULT_TRIM

__all__ = [
    "EvaluationRow",
    "EvaluationResult",
    "evaluate_server",
    "rank_servers",
    "state_workload",
]

#: Duration of the idle measurement window, seconds.
IDLE_WINDOW_S: float = 120.0


@dataclass(frozen=True)
class EvaluationRow:
    """One measured row of Tables IV-VI."""

    label: str
    gflops: float
    watts: float
    memory_mb: float
    duration_s: float

    @property
    def ppw(self) -> float:
        """Performance per watt for this row (0 for idle)."""
        return ppw(self.gflops, self.watts)


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of the proposed method on one server.

    Normally all ten states are present.  A *partial* result — produced
    by ``evaluate_server(..., allow_partial=True)`` when some states
    failed — lists the failed state labels in ``missing``; the score is
    then the mean over the states that were measured, and ``coverage``
    says how much of the matrix backs it.
    """

    server: str
    rows: tuple[EvaluationRow, ...]
    missing: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every state of the matrix was measured."""
        return not self.missing

    @property
    def coverage(self) -> float:
        """Fraction of the state matrix backing the score."""
        return len(self.rows) / (len(self.rows) + len(self.missing))

    @property
    def average_gflops(self) -> float:
        """The tables' "Average" performance row."""
        return sum(r.gflops for r in self.rows) / len(self.rows)

    @property
    def average_watts(self) -> float:
        """The tables' "Average" power row."""
        return sum(r.watts for r in self.rows) / len(self.rows)

    @property
    def score(self) -> float:
        """Mean PPW over the measured states — "(GFlops/Watt)/10"."""
        return sum(r.ppw for r in self.rows) / len(self.rows)

    def row(self, label: str) -> EvaluationRow:
        """Look up a row by its table label."""
        for r in self.rows:
            if r.label == label:
                return r
        raise ConfigurationError(f"no row labelled {label!r}")


def state_workload(state: EvaluationState):
    """What the simulator runs for one state: the state's workload, or
    an :data:`IDLE_WINDOW_S` idle window for the idle state.

    The one rule behind :func:`evaluate_server`, the fleet's evaluation
    matrix, the serve daemon's evaluate campaigns and the cluster's
    evaluation job mix, so all of them run the same ten jobs.
    """
    if state.is_idle:
        return ResourceDemand.idle(IDLE_WINDOW_S)
    return state.workload


def _row_from_run(state: EvaluationState, result, trim: float) -> EvaluationRow:
    gflops = 0.0 if state.is_idle else result.demand.gflops
    return EvaluationRow(
        label=state.label,
        gflops=gflops,
        watts=result.average_power_watts(trim),
        memory_mb=result.average_memory_mb(trim),
        duration_s=result.duration_s,
    )


def evaluate_server(
    server: ServerSpec,
    simulator: Simulator | None = None,
    trim: float = DEFAULT_TRIM,
    backend=None,
    engine: "str | None" = None,
    allow_partial: bool = False,
    states: "list[EvaluationState] | None" = None,
    on_run=None,
) -> EvaluationResult:
    """Run the full proposed method on ``server``.

    ``states`` optionally substitutes a custom state matrix (e.g. one
    cell of a :class:`repro.core.grid.StateGrid`); the default is the
    paper's ten-row matrix from :func:`evaluation_states`.

    ``backend`` optionally routes the ten runs through a batch executor
    such as :class:`repro.fleet.FleetRunner` (parallel and/or cached),
    or scores the runs of a campaign that already ran
    (:class:`repro.fleet.FleetOutcome`); otherwise they run locally
    through :func:`~repro.engine.batch.run_batch`.  Every path yields
    bit-identical rows — the simulator seeds each run from ``(seed,
    program label)``, never from execution order.

    ``engine`` selects nothing: there is one simulation loop.  It is
    accepted (``None``, ``"serial"`` or ``"batch"``) only so that callers
    written when two loops existed keep working — the repository
    benchmark's paper chain (``perfbench/paper_chain.py``) passes
    ``engine="serial"``.  Any other value raises
    :class:`~repro.errors.ConfigurationError`.

    A state whose run failed (a job that exhausted its retries, a shed
    job) comes back from the backend as an error; without
    ``allow_partial`` the first one, in state order, is raised.  With
    ``allow_partial=True`` every such state is listed in
    :attr:`EvaluationResult.missing`, in state order, instead of
    aborting the evaluation: the score degrades to the mean over the
    measured states, flagged by ``coverage < 1``.  At least one state
    must survive — an empty matrix still raises.  The successful rows
    are bit-identical to a complete run's.

    ``on_run`` is an optional observer called as ``on_run(state, run)``
    for every state that produced a run, in state order, once the
    evaluation has scored: an evaluation that raises calls it for no
    state.  The serve daemon uses it to publish each run's window
    statistics, computed by ``trimmed_stats``, as a
    ``serve_stream_window`` event; the hook cannot change what is
    evaluated, and exceptions it raises propagate.

    >>> from repro.hardware import XEON_E5462
    >>> result = evaluate_server(XEON_E5462)
    >>> len(result.rows)
    10
    """
    if engine not in (None, "serial", "batch"):
        raise ConfigurationError(f"unknown engine {engine!r}")
    simulator = simulator or Simulator(server)
    if simulator.server != server:
        raise ConfigurationError("simulator is bound to a different server")
    if states is None:
        states = evaluation_states(server)
    items = [state_workload(state) for state in states]
    if backend is not None:
        runs = backend.map_runs(simulator, items)
    else:
        runs = run_batch(simulator, items)
    measured = []
    missing: list[str] = []
    last_error: "Exception | None" = None
    for state, run in zip(states, runs):
        if not isinstance(run, Exception):
            measured.append((state, run))
        elif allow_partial:
            missing.append(state.label)
            last_error = run
        else:
            raise run
    if not measured:
        raise ConfigurationError(
            f"every evaluation state failed on {server.name}"
        ) from last_error
    rows = tuple(_row_from_run(state, run, trim) for state, run in measured)
    if on_run is not None:
        for state, run in measured:
            on_run(state, run)
    return EvaluationResult(
        server=server.name, rows=rows, missing=tuple(missing)
    )


def rank_servers(
    results: "list[EvaluationResult]",
) -> list[EvaluationResult]:
    """Order evaluation results best-first (highest score wins)."""
    if not results:
        raise ConfigurationError("nothing to rank")
    return sorted(results, key=lambda r: r.score, reverse=True)
