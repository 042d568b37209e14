"""The ``python -m repro bench`` regression harness.

A curated set of scenarios exercises the hot paths the roadmap cares
about — single simulator evaluation, the full ten-state method, and
fleet campaigns at 1/2/4 workers with cold and warm caches — and emits a
machine-readable document (wall time, throughput, metric snapshots) that
CI compares run-over-run against ``benchmarks/baseline.json``.

Cross-machine comparability: every document carries the throughput of a
fixed numpy *calibration* workload measured on the same machine at the
same moment.  :func:`compare_benchmarks` divides each scenario's
throughput ratio by the calibration ratio, so a CI runner that is simply
half the speed of the machine that wrote the baseline does not trip the
gate, while a change that slows one scenario relative to the machine
does.

Scenario wall times are best-of-``repeat`` (the minimum-noise estimator
for short benchmarks); metrics snapshots come from the best repetition,
collected in an isolated registry so scenarios cannot contaminate each
other.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.errors import ConfigurationError

__all__ = [
    "BENCH_KIND",
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_REPEAT",
    "DEFAULT_SEED",
    "DEFAULT_TOLERANCE",
    "Scenario",
    "available_scenarios",
    "run_bench",
    "load_bench_document",
    "validate_bench_document",
    "compare_benchmarks",
    "format_document",
    "format_comparison",
]

BENCH_KIND = "repro_bench"
BENCH_SCHEMA_VERSION = 1

#: Best-of repetitions per scenario.
DEFAULT_REPEAT = 3

#: The demo campaign's seed; any fixed value works, this one matches it.
DEFAULT_SEED = 2015

#: Maximum tolerated calibrated-throughput drop before CI fails.
DEFAULT_TOLERANCE = 0.25


@dataclass(frozen=True)
class Scenario:
    """One benchmarked code path.

    ``run(iterations, seed)`` performs the work and returns ``(operations,
    meta)`` — the operation count the throughput is computed from and any
    scenario-specific facts worth recording (workers, cache hit rate...).
    """

    name: str
    description: str
    unit: str
    iterations_full: int
    iterations_quick: int
    run: Callable[[int, int], "tuple[float, dict[str, Any]]"]

    def iterations(self, quick: bool) -> int:
        return self.iterations_quick if quick else self.iterations_full


# -- scenario bodies ----------------------------------------------------


def _sim_single(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
    from repro.engine.simulator import Simulator
    from repro.hardware.specs import get_server
    from repro.workloads.npb import NpbWorkload

    simulator = Simulator(get_server("Xeon-E5462"), seed=seed)
    workload = NpbWorkload("ep", "C", 4)
    for _ in range(iterations):
        simulator.run(workload)
    return float(iterations), {"server": "Xeon-E5462", "workload": "ep.C.4"}


def _sim_hpl(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
    from repro.engine.simulator import Simulator
    from repro.hardware.specs import get_server
    from repro.workloads.hpl import HplConfig, HplWorkload

    simulator = Simulator(get_server("Xeon-E5462"), seed=seed)
    workload = HplWorkload(HplConfig(nprocs=4, memory_fraction=0.95))
    for _ in range(iterations):
        simulator.run(workload)
    return float(iterations), {"server": "Xeon-E5462", "workload": "HPL P4 Mf"}


def _eval_matrix(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
    from repro.core.evaluation import evaluate_server
    from repro.engine.simulator import Simulator
    from repro.hardware.specs import get_server

    server = get_server("Xeon-E5462")
    states = 0
    for _ in range(iterations):
        result = evaluate_server(server, Simulator(server, seed=seed))
        states += len(result.rows)
    return float(states), {"server": "Xeon-E5462", "states": states}


def _sweep(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
    """Mixed-power sweep (the Figs. 3-4 run list) on a fresh simulator."""
    from repro.core.sweeps import mixed_power_sweep
    from repro.engine.simulator import Simulator
    from repro.hardware.specs import get_server

    server = get_server("Xeon-E5462")
    points = 0
    for _ in range(iterations):
        simulator = Simulator(server, seed=seed)
        points += len(mixed_power_sweep(simulator, (4, 2, 1)))
    return float(points), {"server": "Xeon-E5462", "points": points}


def _fleet_scenario(
    workers: int, warm: bool
) -> Callable[[int, int], "tuple[float, dict[str, Any]]"]:
    def run(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
        import dataclasses

        from repro import fleet

        campaign = dataclasses.replace(fleet.demo_campaign(), seed=seed)
        jobs = 0
        hit_rate = 0.0
        with tempfile.TemporaryDirectory() as tmp:
            cache = fleet.ResultCache(Path(tmp) / "cache")
            runner = fleet.FleetRunner(workers=workers, cache=cache)
            if warm:
                # Prime the cache outside the measured window.
                runner.run(campaign)
            for _ in range(iterations):
                outcome = runner.run(campaign)
                report = outcome.report()
                jobs += report.n_jobs
                hit_rate = report.cache_hit_rate
        return float(jobs), {
            "workers": workers,
            "warm": warm,
            "jobs": jobs,
            "cache_hit_rate": hit_rate,
        }

    return run


def _cluster_scenario(
    iterations: int, seed: int
) -> "tuple[float, dict[str, Any]]":
    """The CI smoke machine: 64 heterogeneous nodes, 24 scheduled jobs."""
    from repro.cluster import demo_cluster, simulate_cluster, synthetic_jobmix

    cluster = demo_cluster(64)
    jobs = synthetic_jobmix(cluster, n_jobs=24, seed=seed)
    result = None
    for _ in range(iterations):
        result = simulate_cluster(cluster, jobs, seed=seed)
    assert result is not None
    return float(len(result.rows) * iterations), {
        "cluster": cluster.name,
        "nodes": cluster.n_nodes,
        "makespan_s": result.makespan_s,
        "utilisation": result.utilisation,
        "ppw": result.ppw,
    }


def _zoo_grid(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
    """Full (P-state x cores x memory) grid on a heterogeneous server."""
    from repro.core.grid import StateGrid, evaluate_grid
    from repro.hardware.zoo import get_zoo_server

    server = get_zoo_server("Tesla-K20-Node")
    grid = StateGrid(server)
    states = 0
    result = None
    for _ in range(iterations):
        result = evaluate_grid(grid, seed=seed)
        states += result.n_states
    assert result is not None
    return float(states), {
        "server": server.name,
        "pstates": len(grid.pstates),
        "states": states,
        "digest": result.digest,
    }


def _serve_load(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
    """64-submission multi-tenant replay through a live serve daemon.

    Boots the daemon in-process (ephemeral port, temp state dir),
    replays the deterministic loadgen mix, and waits for every
    accepted campaign; operations = campaigns completed, so the
    throughput folds in admission, fair scheduling, dedup, execution,
    and result persistence end to end.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.serve import (
        BackgroundServer,
        QueuePolicy,
        ServeClient,
        ServeScheduler,
        StateStore,
    )
    from repro.serve.client import ServeRejected
    from repro.serve.loadgen import submission_stream

    completed = 0
    rejected = 0
    deduped = 0
    for _ in range(iterations):
        root = Path(tempfile.mkdtemp(prefix="repro-bench-serve-"))
        try:
            scheduler = ServeScheduler(
                StateStore(root),
                policy=QueuePolicy(max_depth=24, max_pending=96),
                slots=2,
            )
            with BackgroundServer(scheduler) as server:
                client = ServeClient(port=server.port)
                ids = []
                for tenant, body in submission_stream(64, seed=seed):
                    try:
                        ids.append(client.submit(body, tenant=tenant)["id"])
                    except ServeRejected:
                        rejected += 1
                for campaign_id in ids:
                    client.wait(campaign_id, timeout_s=300)
                stats = client.stats()
                deduped += stats["counters"]["deduped_campaigns"]
                completed += len(ids)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return float(completed), {
        "submissions": 64 * iterations,
        "completed": completed,
        "rejected": rejected,
        "deduped_campaigns": deduped,
    }


def _stream_meter(iterations: int, seed: int) -> "tuple[float, dict[str, Any]]":
    """64 program windows of 1 Hz samples through the streaming pipeline.

    A synthetic campaign trace (64 back-to-back 60 s windows) is routed
    chunk-by-chunk through :class:`repro.metering.stream.StreamingWindow`
    and every window finalised; operations = samples routed, so the
    throughput is the live-metering ingest rate.
    """
    import numpy as np

    from repro.metering.stream import StreamingWindow, WindowSpec

    n_windows, window_s, chunk = 64, 60, 256
    rng = np.random.default_rng(seed)
    times = np.arange(n_windows * window_s, dtype=float)
    watts = 250.0 + 20.0 * rng.standard_normal(times.size)
    samples = 0
    finalized = 0
    for _ in range(iterations):
        pipeline = StreamingWindow()
        for k in range(n_windows):
            pipeline.add_window(
                WindowSpec(f"w{k:02d}", k * window_s, (k + 1) * window_s)
            )
        for lo in range(0, times.size, chunk):
            pipeline.push_many(
                times[lo : lo + chunk], watts[lo : lo + chunk]
            )
        finalized += len(pipeline.finalize())
        samples += times.size
    return float(samples), {
        "windows": n_windows,
        "window_s": window_s,
        "chunk": chunk,
        "samples": samples,
        "finalized": finalized,
    }


def _scenarios() -> "tuple[Scenario, ...]":
    out = [
        Scenario(
            name="sim.single",
            description="one EP.C.4 run on the Xeon-E5462 simulator",
            unit="runs/s",
            iterations_full=200,
            iterations_quick=50,
            run=_sim_single,
        ),
        Scenario(
            name="sim.hpl",
            description="one full-memory HPL run (longest single trace)",
            unit="runs/s",
            iterations_full=40,
            iterations_quick=10,
            run=_sim_hpl,
        ),
        Scenario(
            name="eval.matrix",
            description="full ten-state evaluation of one server",
            unit="states/s",
            iterations_full=5,
            iterations_quick=2,
            run=_eval_matrix,
        ),
    ]
    for workers in (1, 2, 4):
        for warm in (False, True):
            phase = "warm" if warm else "cold"
            out.append(
                Scenario(
                    name=f"fleet.w{workers}.{phase}",
                    description=(
                        f"demo campaign, {workers} worker(s), "
                        f"{phase} result cache"
                    ),
                    unit="jobs/s",
                    iterations_full=2,
                    iterations_quick=1,
                    run=_fleet_scenario(workers, warm),
                )
            )
    out.append(
        Scenario(
            name="batch_sweep_cold",
            description="mixed-power sweep run list on a fresh simulator",
            unit="points/s",
            iterations_full=10,
            iterations_quick=3,
            run=_sweep,
        )
    )
    out.append(
        Scenario(
            name="cluster.demo64",
            description="64-node demo cluster, 24-job seeded mix",
            unit="jobs/s",
            iterations_full=3,
            iterations_quick=1,
            run=_cluster_scenario,
        )
    )
    out.append(
        Scenario(
            name="serve.load64",
            description="64-submission multi-tenant replay via the daemon",
            unit="campaigns/s",
            iterations_full=2,
            iterations_quick=1,
            run=_serve_load,
        )
    )
    out.append(
        Scenario(
            name="zoo.grid",
            description="Tesla-K20-Node across its full state grid",
            unit="states/s",
            iterations_full=3,
            iterations_quick=1,
            run=_zoo_grid,
        )
    )
    out.append(
        Scenario(
            name="stream.meter64",
            description="64-window 1 Hz stream through the online pipeline",
            unit="samples/s",
            iterations_full=20,
            iterations_quick=5,
            run=_stream_meter,
        )
    )
    return tuple(out)


_SCENARIOS = _scenarios()


def available_scenarios() -> "tuple[Scenario, ...]":
    """Every scenario, in execution order."""
    return _SCENARIOS


# -- calibration --------------------------------------------------------


def _calibration_ops_per_s(repeat: int = 3) -> float:
    """Throughput of a fixed numpy reference workload on this machine.

    Only *ratios* of this number between two documents are meaningful;
    it normalises scenario throughput for machine speed so a checked-in
    baseline stays comparable on a slower CI runner.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    best = 0.0
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(20):
            a = np.tanh(a @ a / 128.0)
        elapsed = time.perf_counter() - t0
        best = max(best, 20.0 / elapsed)
    return best


# -- the runner ---------------------------------------------------------


def run_bench(
    quick: bool = False,
    repeat: int = DEFAULT_REPEAT,
    seed: int = DEFAULT_SEED,
    only: "list[str] | None" = None,
) -> dict[str, Any]:
    """Execute the scenario suite and return the bench document.

    ``only`` filters scenarios by exact name (unknown names raise).
    Observability is enabled for the duration; each repetition runs
    against a fresh metrics registry and the best repetition's snapshot
    is recorded.
    """
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    selected = list(available_scenarios())
    if only:
        known = {s.name for s in selected}
        unknown = sorted(set(only) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown bench scenario(s): {', '.join(unknown)}"
            )
        selected = [s for s in selected if s.name in set(only)]

    results = []
    with obs.capture():
        for scenario in selected:
            iterations = scenario.iterations(quick)
            best: "dict[str, Any] | None" = None
            for _ in range(repeat):
                registry = obs.MetricsRegistry()
                with obs.use_registry(registry):
                    t0 = time.perf_counter()
                    operations, meta = scenario.run(iterations, seed)
                    wall_s = time.perf_counter() - t0
                throughput = operations / wall_s if wall_s > 0 else 0.0
                if best is None or throughput > best["throughput"]:
                    best = {
                        "name": scenario.name,
                        "description": scenario.description,
                        "unit": scenario.unit,
                        "iterations": iterations,
                        "operations": operations,
                        "wall_s": wall_s,
                        "throughput": throughput,
                        "meta": meta,
                        "metrics": registry.snapshot(),
                    }
            results.append(best)

    return {
        "kind": BENCH_KIND,
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "quick": quick,
        "repeat": repeat,
        "seed": seed,
        "python": platform.python_version(),
        "platform": sys.platform,
        "calibration_ops_per_s": _calibration_ops_per_s(),
        "scenarios": results,
    }


# -- schema -------------------------------------------------------------

_SCENARIO_REQUIRED = (
    "name",
    "unit",
    "iterations",
    "operations",
    "wall_s",
    "throughput",
    "meta",
    "metrics",
)


def validate_bench_document(document: Any) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless
    ``document`` is a well-formed bench document."""
    if not isinstance(document, dict):
        raise ConfigurationError("bench document must be a JSON object")
    if document.get("kind") != BENCH_KIND:
        raise ConfigurationError(
            f"expected a {BENCH_KIND!r} document, found "
            f"{document.get('kind')!r}"
        )
    if document.get("schema_version") != BENCH_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported bench schema version "
            f"{document.get('schema_version')!r} (this build reads "
            f"version {BENCH_SCHEMA_VERSION}; regenerate the document "
            f"with 'python -m repro bench --json PATH')"
        )
    calibration = document.get("calibration_ops_per_s")
    if not isinstance(calibration, (int, float)) or calibration <= 0:
        raise ConfigurationError("calibration_ops_per_s must be positive")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise ConfigurationError("bench document has no scenarios")
    seen = set()
    for entry in scenarios:
        if not isinstance(entry, dict):
            raise ConfigurationError("scenario entries must be objects")
        missing = [k for k in _SCENARIO_REQUIRED if k not in entry]
        if missing:
            raise ConfigurationError(
                f"scenario {entry.get('name', '?')!r} is missing "
                f"{', '.join(missing)}"
            )
        if entry["name"] in seen:
            raise ConfigurationError(
                f"duplicate scenario {entry['name']!r}"
            )
        seen.add(entry["name"])
        for key in ("wall_s", "throughput"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value < 0:
                raise ConfigurationError(
                    f"scenario {entry['name']!r}: {key} must be >= 0"
                )
        if not isinstance(entry["metrics"], dict):
            raise ConfigurationError(
                f"scenario {entry['name']!r}: metrics must be a snapshot"
            )


def load_bench_document(path: "str | Path") -> dict[str, Any]:
    """Read and validate a bench JSON file.

    Validation failures are re-raised with the offending path prefixed,
    so ``repro bench --baseline old.json`` against a stale or foreign
    document exits 2 with a message naming the file, not a traceback.
    """
    try:
        document = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigurationError(f"no bench document at {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    try:
        validate_bench_document(document)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return document


# -- comparison (the CI gate) -------------------------------------------


def compare_benchmarks(
    baseline: dict[str, Any],
    current: dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict[str, Any]:
    """Compare two bench documents; flag calibrated-throughput drops.

    For every scenario present in both documents the *calibrated ratio*
    is ``(current throughput / baseline throughput)`` divided by
    ``(current calibration / baseline calibration)``; a scenario
    regresses when that ratio falls below ``1 - tolerance``.  Scenarios
    only present on one side are reported but never fail the gate
    (a ``--quick`` run against a full baseline is legitimate).
    """
    if not 0.0 < tolerance < 1.0:
        raise ConfigurationError(
            f"tolerance must be in (0, 1), got {tolerance}"
        )
    validate_bench_document(baseline)
    validate_bench_document(current)
    base_by_name = {s["name"]: s for s in baseline["scenarios"]}
    cur_by_name = {s["name"]: s for s in current["scenarios"]}
    machine_ratio = (
        current["calibration_ops_per_s"] / baseline["calibration_ops_per_s"]
    )
    rows = []
    regressions = []
    for name in [n for n in base_by_name if n in cur_by_name]:
        base_t = float(base_by_name[name]["throughput"])
        cur_t = float(cur_by_name[name]["throughput"])
        raw_ratio = cur_t / base_t if base_t > 0 else float("inf")
        calibrated = raw_ratio / machine_ratio
        regressed = calibrated < 1.0 - tolerance
        rows.append(
            {
                "name": name,
                "baseline_throughput": base_t,
                "current_throughput": cur_t,
                "raw_ratio": raw_ratio,
                "calibrated_ratio": calibrated,
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(name)
    return {
        "tolerance": tolerance,
        "machine_ratio": machine_ratio,
        "scenarios": rows,
        "regressions": regressions,
        "only_in_baseline": sorted(set(base_by_name) - set(cur_by_name)),
        "only_in_current": sorted(set(cur_by_name) - set(base_by_name)),
        "ok": not regressions,
    }


# -- human-readable rendering -------------------------------------------


def format_document(document: dict[str, Any]) -> str:
    """Aligned table of one bench document (for terminals and CI logs)."""
    lines = [
        f"repro bench — {'quick' if document.get('quick') else 'full'} suite, "
        f"best of {document.get('repeat')}, seed {document.get('seed')}, "
        f"calibration {document['calibration_ops_per_s']:.1f} ops/s",
        f"{'scenario':<16} {'iters':>5} {'wall s':>9} "
        f"{'throughput':>12} unit",
    ]
    for entry in document["scenarios"]:
        lines.append(
            f"{entry['name']:<16} {entry['iterations']:>5} "
            f"{entry['wall_s']:>9.4f} {entry['throughput']:>12.1f} "
            f"{entry['unit']}"
        )
    return "\n".join(lines)


def format_comparison(report: dict[str, Any]) -> str:
    """Aligned table of a :func:`compare_benchmarks` report."""
    lines = [
        f"baseline comparison — tolerance {report['tolerance']:.0%}, "
        f"machine speed ratio {report['machine_ratio']:.2f}x",
        f"{'scenario':<16} {'baseline':>12} {'current':>12} "
        f"{'calibrated':>11} verdict",
    ]
    for row in report["scenarios"]:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"{row['name']:<16} {row['baseline_throughput']:>12.1f} "
            f"{row['current_throughput']:>12.1f} "
            f"{row['calibrated_ratio']:>10.2f}x {verdict}"
        )
    for name in report["only_in_baseline"]:
        lines.append(f"{name:<16} (not run here — skipped)")
    for name in report["only_in_current"]:
        lines.append(f"{name:<16} (new scenario — no baseline)")
    lines.append(
        "result: "
        + (
            "ok"
            if report["ok"]
            else f"{len(report['regressions'])} regression(s): "
            + ", ".join(report["regressions"])
        )
    )
    return "\n".join(lines)
