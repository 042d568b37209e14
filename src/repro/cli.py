"""Command-line interface.

Every reproduction entry point, runnable without writing Python::

    python -m repro servers
    python -m repro evaluate Xeon-E5462 [--json out.json]
    python -m repro green500 Xeon-4870
    python -m repro specpower Opteron-8347
    python -m repro rankings
    python -m repro regression [--server Xeon-4870] [--classes B C]
                               [--save-model model.json] [--json out.json]
    python -m repro figure fig5 [--server Xeon-E5462]
    python -m repro breakdown <server> <workload> [--json out.json]
    python -m repro model train [--server Xeon-4870] [--name NAME]
    python -m repro model predict --name NAME [--from-npb B | --features f.json]
    python -m repro model registry [--verify]
    python -m repro model validate [--server Xeon-4870] [--folds 5]
    python -m repro energy <server> <program> [--npb-class C]
    python -m repro uncertainty <server> [--repeats 5]
    python -m repro compare [--regression] [--json out.json]
    python -m repro fleet init campaign.json [--matrix]
    python -m repro fleet run campaign.json [--workers 4] [--out res.json]
    python -m repro fleet status|report [events.jsonl] [--json out.json]
    python -m repro cluster init spec.json [--nodes 64] [--jobs 24]
    python -m repro cluster run spec.json [--placement scatter]
                                          [--workers 4] [--json out.json]
    python -m repro cluster report result.json [--json out.json]
    python -m repro zoo list
    python -m repro zoo show <server>
    python -m repro zoo evaluate <server> [--pstate N] [--json out.json]
    python -m repro zoo matrix [--digests pins.json] [--study]
    python -m repro serve [--port 8787] [--state-dir serve-state]
                          [--slots 2] [--weight tenant=2 ...]
    python -m repro bench [--quick] [--json out.json] [--baseline base.json]
    python -m repro chaos [--seed N] [--scenario NAME ...] [--json out.json]
    python -m repro trace tree run.jsonl

``figure`` renders ASCII versions of the paper's figure sweeps; the full
table/figure harness with assertions lives in ``benchmarks/``.  Commands
taking a server accept a built-in name or a ``.json`` spec file written
by :func:`repro.io.server_to_dict`.

Exit codes: ``0`` success, ``1`` completed with failures (``fleet
run``/``status``/``report`` with failed jobs, ``chaos`` with a failed
scenario, ``model validate`` out of band, ``model registry --verify``
with corrupt artifacts), ``2`` usage or input error, ``3`` bench
baseline regression.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from contextlib import contextmanager

from repro import __version__, obs
from repro import io as repro_io
from repro.core.evaluation import evaluate_server
from repro.core.green500 import green500_score
from repro.core.regression import (
    collect_hpcc_training,
    train_power_model,
    verify_on_npb,
)
from repro.core.report import (
    format_coefficients,
    format_evaluation_table,
    format_regression_summary,
    format_verification,
)
from repro.core.spec_method import specpower_score
from repro.core import sweeps
from repro.engine.simulator import Simulator
from repro.errors import ReproError
from repro.hardware.specs import BUILTIN_SERVERS, get_server
from repro.viz import bar_chart, line_columns, paired_series

__all__ = ["main", "build_parser"]

_FIGURES = (
    "fig1", "fig2", "fig3", "fig5", "fig6", "fig10", "fig11", "fig12", "fig13",
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'HPC-Oriented Power Evaluation Method' "
            "(ICPP 2015)"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("servers", help="list the built-in server models")

    for name, help_text in (
        ("evaluate", "run the proposed ten-state evaluation"),
        ("green500", "run the Green500 method (HPL peak PPW)"),
        ("specpower", "run the SPECpower_ssj2008 method"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "server",
            help="built-in server name (see 'servers') or a .json spec file",
        )
        cmd.add_argument("--seed", type=int, default=0)
        if name == "evaluate":
            cmd.add_argument(
                "--json", metavar="PATH", help="save the result as JSON"
            )
            cmd.add_argument(
                "--trace",
                metavar="PATH",
                help="enable observability and export a span JSONL trace",
            )

    rank = sub.add_parser(
        "rankings", help="all three methods on all three servers (§V-C3)"
    )
    rank.add_argument("--json", metavar="PATH", help="save the result as JSON")

    reg = sub.add_parser(
        "regression", help="train on HPCC, verify on NPB (Section VI)"
    )
    reg.add_argument("--server", default="Xeon-4870")
    reg.add_argument(
        "--classes", nargs="+", default=["B", "C"], choices=["A", "B", "C"]
    )
    reg.add_argument("--seed", type=int, default=0)
    reg.add_argument(
        "--save-model", metavar="PATH", help="save the trained model as JSON"
    )
    reg.add_argument(
        "--json",
        metavar="PATH",
        help="save the full study (summary, coefficients, verification "
        "series) as JSON",
    )

    fig = sub.add_parser("figure", help="render one figure sweep as ASCII")
    fig.add_argument("name", choices=_FIGURES)
    fig.add_argument("--server", default="Xeon-E5462")
    fig.add_argument("--seed", type=int, default=0)

    brk = sub.add_parser(
        "breakdown", help="component-level power decomposition of one run"
    )
    brk.add_argument("server")
    brk.add_argument(
        "workload",
        help="'hpl' (full cores/memory) or '<prog>.<class>.<nprocs>', "
        "e.g. ep.C.4",
    )
    brk.add_argument(
        "--json", metavar="PATH", help="save the decomposition as JSON"
    )

    eng = sub.add_parser(
        "energy", help="energy-to-solution sweep for one NPB program"
    )
    eng.add_argument("server")
    eng.add_argument("program", help="NPB program, e.g. ep, lu, bt")
    eng.add_argument(
        "--npb-class", default="C", choices=["W", "A", "B", "C", "D", "E"]
    )

    unc = sub.add_parser(
        "uncertainty", help="score spread across measurement streams"
    )
    unc.add_argument("server")
    unc.add_argument("--repeats", type=int, default=5)

    exp = sub.add_parser(
        "export", help="write every exhibit's data files to a directory"
    )
    exp.add_argument("out_dir")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--regression",
        action="store_true",
        help="include the Section-VI regression study (slower)",
    )

    cmp_ = sub.add_parser(
        "compare",
        help="paper-vs-measured report over every published number",
    )
    cmp_.add_argument(
        "--regression",
        action="store_true",
        help="include the Section-VI regression study (slower)",
    )
    cmp_.add_argument("--json", metavar="PATH", help="save the result as JSON")

    flt = sub.add_parser(
        "fleet",
        help="batch evaluation service: parallel, cached campaign runs",
    )
    fsub = flt.add_subparsers(dest="fleet_command", required=True)

    fini = fsub.add_parser(
        "init", help="write a campaign spec JSON to start from"
    )
    fini.add_argument("out", help="path for the campaign spec")
    fini.add_argument(
        "--matrix",
        action="store_true",
        help="full Tables IV-VI matrix on every builtin server "
        "(default: the Section V-C2 demo campaign)",
    )
    fini.add_argument("--seed", type=int, default=0)

    frun = fsub.add_parser("run", help="execute a campaign spec")
    frun.add_argument("campaign", help="campaign spec JSON (see 'fleet init')")
    frun.add_argument(
        "--workers", type=int, default=None, help="pool size (default: auto)"
    )
    frun.add_argument(
        "--serial",
        action="store_true",
        help="run inline without a pool (baseline)",
    )
    frun.add_argument(
        "--cache-dir",
        default=".repro-fleet/cache",
        help="result cache directory ('' disables caching)",
    )
    frun.add_argument(
        "--events",
        default=".repro-fleet/events.jsonl",
        help="JSONL event log ('' disables logging)",
    )
    frun.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per job before it is reported failed",
    )
    frun.add_argument(
        "--out", metavar="PATH", help="save per-job results + report as JSON"
    )
    frun.add_argument(
        "--trace",
        metavar="PATH",
        help="enable observability and export a span JSONL trace",
    )
    frun.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="jobs per worker dispatch; 1 dispatches each job on its own "
        "(default: auto)",
    )
    frun.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock budget; an overdue worker is killed, "
        "the pool replaced, and the job retried (default: none)",
    )
    frun.add_argument(
        "--resume",
        action="store_true",
        help="continue a killed campaign: jobs journaled in the event "
        "log / result cache are skipped, the rest re-execute "
        "(needs --cache-dir and the previous run's --events file)",
    )

    fstat = fsub.add_parser(
        "status", help="progress of the latest campaign in an event log"
    )
    fstat.add_argument(
        "events", nargs="?", default=".repro-fleet/events.jsonl"
    )

    frep = fsub.add_parser(
        "report", help="aggregate report of the latest campaign in a log"
    )
    frep.add_argument(
        "events", nargs="?", default=".repro-fleet/events.jsonl"
    )
    frep.add_argument(
        "--json", metavar="PATH", help="save the fleet report as JSON"
    )

    clu = sub.add_parser(
        "cluster",
        help="whole-machine simulation: racks, scheduler, power rollups",
    )
    csub = clu.add_subparsers(dest="cluster_command", required=True)

    cini = csub.add_parser(
        "init", help="write a cluster campaign spec JSON to start from"
    )
    cini.add_argument("out", help="path for the campaign spec")
    cini.add_argument(
        "--nodes",
        type=int,
        default=64,
        help="total node count (default 64)",
    )
    cini.add_argument(
        "--server",
        default=None,
        help="homogeneous cluster of this server (default: the "
        "heterogeneous Xeon/Opteron demo mix)",
    )
    cini.add_argument(
        "--nodes-per-rack",
        type=int,
        default=16,
        help="rack width (default 16)",
    )
    cini.add_argument(
        "--jobs",
        type=int,
        default=24,
        help="synthetic job-mix size (default 24)",
    )
    cini.add_argument("--seed", type=int, default=0)

    crun = csub.add_parser("run", help="schedule and simulate a campaign")
    crun.add_argument(
        "campaign", help="cluster campaign JSON (see 'cluster init')"
    )
    crun.add_argument(
        "--placement",
        # Mirrors repro.cluster.PLACEMENT_POLICIES (kept literal so the
        # parser builds without importing the cluster layer; pinned by
        # tests/cluster/test_cli_cluster.py).
        choices=["compact", "scatter", "random"],
        default=None,
        help="node placement policy override (default: the spec's)",
    )
    crun.add_argument(
        "--workers",
        type=int,
        default=None,
        help="route the per-node runs through the fleet worker pool "
        "with this many processes (default: run them in this process)",
    )
    crun.add_argument(
        "--events",
        default="",
        metavar="PATH",
        help="append cluster events to this JSONL log ('' disables)",
    )
    crun.add_argument(
        "--json", metavar="PATH", help="save the cluster report as JSON"
    )
    crun.add_argument(
        "--trace",
        metavar="PATH",
        help="enable observability and export a span JSONL trace",
    )

    crep = csub.add_parser(
        "report", help="render a saved cluster report document"
    )
    crep.add_argument("result", help="cluster report JSON (from run --json)")
    crep.add_argument(
        "--json", metavar="PATH", help="re-save the report as JSON"
    )

    zoo = sub.add_parser(
        "zoo",
        help="the derived heterogeneous server registry (DVFS state grids)",
    )
    zsub = zoo.add_subparsers(dest="zoo_command", required=True)

    zsub.add_parser("list", help="list the registered zoo servers")

    zshow = zsub.add_parser(
        "show", help="spec and resolved P-state ladder of one zoo server"
    )
    zshow.add_argument("server", help="zoo server name (see 'zoo list')")

    zeval = zsub.add_parser(
        "evaluate",
        help="run the ten-state method on a zoo server (one P-state or "
        "the full grid)",
    )
    zeval.add_argument("server", help="zoo (or builtin) server name")
    zeval.add_argument(
        "--pstate",
        type=int,
        default=None,
        help="evaluate this single P-state (default: the full state grid)",
    )
    zeval.add_argument("--seed", type=int, default=0)
    zeval.add_argument(
        "--json", metavar="PATH", help="save the result as JSON"
    )

    zmat = zsub.add_parser(
        "matrix",
        help="sweep every zoo server across its full state grid "
        "(the nightly gate)",
    )
    zmat.add_argument(
        "--server",
        action="append",
        metavar="NAME",
        help="restrict to these zoo servers (repeatable; default: all)",
    )
    zmat.add_argument("--seed", type=int, default=0)
    zmat.add_argument(
        "--digests",
        metavar="PATH",
        help="compare per-server grid digests against this pin file and "
        "fail on any mismatch",
    )
    zmat.add_argument(
        "--update-digests",
        metavar="PATH",
        help="write the measured per-server grid digests to this pin file",
    )
    zmat.add_argument(
        "--study",
        action="store_true",
        help="also re-run the regression study per P-state and enforce "
        "the zoo R^2 band",
    )
    zmat.add_argument(
        "--json", metavar="PATH", help="save the matrix report as JSON"
    )

    bnc = sub.add_parser(
        "bench",
        help="self-measurement harness: run the perf scenario suite",
    )
    bnc.add_argument(
        "--quick",
        action="store_true",
        help="reduced iteration counts (what CI runs)",
    )
    bnc.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the scenarios and exit",
    )
    bnc.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only the named scenario (repeatable)",
    )
    bnc.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="repetitions per scenario, best-of (default 3)",
    )
    bnc.add_argument("--seed", type=int, default=None)
    bnc.add_argument(
        "--json", metavar="PATH", help="save the bench document as JSON"
    )
    bnc.add_argument(
        "--baseline",
        metavar="PATH",
        help="compare against a baseline document; exit 3 on regression",
    )
    bnc.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="tolerated calibrated-throughput drop (default 0.25)",
    )

    srv = sub.add_parser(
        "serve",
        help="evaluation-as-a-service daemon: HTTP/JSON campaign "
        "submission with tenant queues and backpressure",
    )
    srv.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    srv.add_argument(
        "--port",
        type=int,
        default=8787,
        help="listen port; 0 picks an ephemeral port (see --port-file)",
    )
    srv.add_argument(
        "--state-dir",
        default="serve-state",
        help="journal + cache + results directory (default serve-state)",
    )
    srv.add_argument(
        "--slots",
        type=int,
        default=2,
        help="concurrent campaign executor slots (default 2)",
    )
    srv.add_argument(
        "--fleet-workers",
        type=int,
        default=1,
        help="fleet workers per slot (default 1: in-process, no pool)",
    )
    srv.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="max queued campaigns per tenant (default 8)",
    )
    srv.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="max queued campaigns across all tenants (default 64)",
    )
    srv.add_argument(
        "--shed-fraction",
        type=float,
        default=0.5,
        help="backlog fraction at which low/normal priorities shed "
        "and execution degrades to partial (default 0.5)",
    )
    srv.add_argument(
        "--shed-budget",
        type=int,
        default=2,
        help="uncached jobs a shed campaign may still run (default 2)",
    )
    srv.add_argument(
        "--weight",
        action="append",
        metavar="TENANT=W",
        default=[],
        help="fair-share weight for a tenant (repeatable; default 1)",
    )
    srv.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds SIGTERM waits for running campaigns (default 30)",
    )
    srv.add_argument(
        "--port-file",
        metavar="PATH",
        help="write host:port here once bound (for scripts and CI)",
    )
    srv.add_argument(
        "--supervise",
        action="store_true",
        help="run the daemon under a crash supervisor: restart budget, "
        "exponential backoff, crash-loop breaker, post-crash auto-audit",
    )
    srv.add_argument(
        "--max-restarts",
        type=int,
        default=5,
        help="supervisor: total restarts before giving up (default 5)",
    )
    srv.add_argument(
        "--backoff-initial",
        type=float,
        default=0.5,
        metavar="S",
        help="supervisor: first restart delay, doubled per restart "
        "(default 0.5)",
    )
    srv.add_argument(
        "--backoff-cap",
        type=float,
        default=30.0,
        metavar="S",
        help="supervisor: max restart delay (default 30)",
    )
    srv.add_argument(
        "--min-uptime",
        type=float,
        default=5.0,
        metavar="S",
        help="supervisor: a crash before this uptime is a breaker "
        "strike (default 5)",
    )
    srv.add_argument(
        "--breaker-strikes",
        type=int,
        default=3,
        help="supervisor: consecutive fast crashes that open the "
        "circuit breaker (default 3)",
    )

    doc = sub.add_parser(
        "doctor",
        help="storage health: checksum audit, quarantine repair, "
        "capped refcount-aware eviction, and gc over the on-disk stores",
    )
    dsub = doc.add_subparsers(dest="doctor_command", required=True)

    def _doctor_targets(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache",
            action="append",
            default=[],
            metavar="DIR",
            help="fleet result-cache root (repeatable)",
        )
        p.add_argument(
            "--serve-state",
            action="append",
            default=[],
            metavar="DIR",
            help="serve state directory: covers its cache, results, "
            "submit journal, and event log (repeatable)",
        )
        p.add_argument(
            "--registry",
            action="append",
            default=[],
            metavar="DIR",
            help="model registry root (repeatable)",
        )
        p.add_argument(
            "--events",
            action="append",
            default=[],
            metavar="PATH",
            help="standalone JSONL event journal (repeatable)",
        )
        p.add_argument(
            "--json", metavar="PATH", help="save the report as JSON"
        )

    daud = dsub.add_parser(
        "audit",
        help="read-only integrity scan; exits 1 when anything is corrupt",
    )
    _doctor_targets(daud)
    drep = dsub.add_parser(
        "repair",
        help="audit, then quarantine/compact every corrupt finding",
    )
    _doctor_targets(drep)
    devi = dsub.add_parser(
        "evict",
        help="size/TTL/LRU eviction; in-flight serve work is pinned "
        "and never evicted",
    )
    _doctor_targets(devi)
    devi.add_argument(
        "--max-bytes", type=int, metavar="N", help="byte cap per store"
    )
    devi.add_argument(
        "--max-entries", type=int, metavar="N", help="entry cap per store"
    )
    devi.add_argument(
        "--ttl",
        type=float,
        metavar="S",
        help="evict unpinned entries older than this many seconds",
    )
    devi.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="KEY",
        help="extra pin (cache key or campaign id; repeatable) on top "
        "of the pins derived from each --serve-state journal",
    )
    devi.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without removing anything",
    )
    dgc = dsub.add_parser(
        "gc", help="sweep temp-file debris and quarantine corpses"
    )
    _doctor_targets(dgc)
    dgc.add_argument(
        "--quarantine-ttl",
        type=float,
        metavar="S",
        help="only remove quarantine corpses older than this "
        "(default: remove all)",
    )

    cha = sub.add_parser(
        "chaos",
        help="fault-injection campaign: every fault class must recover "
        "or degrade flagged",
    )
    cha.add_argument(
        "--seed",
        type=int,
        default=2015,
        help="campaign seed; each scenario derives its own RNG stream "
        "from (seed, scenario), so a red run reproduces exactly",
    )
    cha.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only the named scenario (repeatable; see --list)",
    )
    cha.add_argument(
        "--list",
        action="store_true",
        dest="list_scenarios",
        help="list the scenarios and exit",
    )
    cha.add_argument(
        "--json", metavar="PATH", help="save the chaos report as JSON"
    )

    trc = sub.add_parser("trace", help="inspect exported trace files")
    tsub = trc.add_subparsers(dest="trace_command", required=True)
    ttree = tsub.add_parser(
        "tree", help="pretty-print a span JSONL file as a tree"
    )
    ttree.add_argument("file", help="JSONL trace written by --trace")

    mdl = sub.add_parser(
        "model",
        help="model lifecycle: versioned registry, batched inference, "
        "validation",
    )
    msub = mdl.add_subparsers(dest="model_command", required=True)

    mtrn = msub.add_parser(
        "train", help="train on HPCC and publish to the registry"
    )
    mtrn.add_argument("--server", default="Xeon-4870")
    mtrn.add_argument("--seed", type=int, default=0)
    mtrn.add_argument(
        "--registry",
        default=".repro-models",
        help="registry root directory (default: .repro-models)",
    )
    mtrn.add_argument(
        "--name",
        help="artifact name (default: slug of the server name)",
    )
    mtrn.add_argument(
        "--json", metavar="PATH", help="save the published artifact as JSON"
    )

    mprd = msub.add_parser(
        "predict", help="batched inference with a registered model"
    )
    mprd.add_argument(
        "--registry",
        default=".repro-models",
        help="registry root directory (default: .repro-models)",
    )
    mprd.add_argument(
        "--name", help="registry model name (default: slug of --server)"
    )
    mprd.add_argument(
        "--model-version",
        type=int,
        default=None,
        help="registry version (default: latest)",
    )
    mprd.add_argument(
        "--model",
        metavar="PATH",
        help="load a bare model JSON instead of the registry",
    )
    mprd.add_argument(
        "--features",
        metavar="PATH",
        help="feature_batch JSON to predict (see docs/model.md)",
    )
    mprd.add_argument(
        "--from-npb",
        metavar="CLASS",
        choices=["A", "B", "C"],
        help="collect the NPB verification sweep of --server as the batch",
    )
    mprd.add_argument("--server", default="Xeon-4870")
    mprd.add_argument("--seed", type=int, default=0)
    mprd.add_argument(
        "--json", metavar="PATH", help="save the predictions as JSON"
    )

    mreg = msub.add_parser("registry", help="list registered artifacts")
    mreg.add_argument(
        "--registry",
        default=".repro-models",
        help="registry root directory (default: .repro-models)",
    )
    mreg.add_argument(
        "--verify",
        action="store_true",
        help="integrity-check every artifact; exit 1 on corruption",
    )

    mval = msub.add_parser(
        "validate",
        help="k-fold CV + NPB drift against the paper's R^2 bands",
    )
    mval.add_argument("--server", default="Xeon-4870")
    mval.add_argument("--seed", type=int, default=0)
    mval.add_argument("--folds", type=int, default=5)
    mval.add_argument(
        "--classes", nargs="+", default=["B", "C"], choices=["A", "B", "C"]
    )
    mval.add_argument(
        "--registry",
        default=".repro-models",
        help="registry root directory (default: .repro-models)",
    )
    mval.add_argument(
        "--name",
        help="validate this registered model instead of a fresh fit "
        "(the HPCC dataset is re-collected with --seed)",
    )
    mval.add_argument(
        "--json", metavar="PATH", help="save the validation report as JSON"
    )

    return parser


def _load_server(name_or_path: str):
    """Resolve a server argument: a built-in or zoo name, or a path to a
    JSON spec produced by ``repro.io.server_to_dict`` (by suffix)."""
    from repro.hardware.zoo import resolve_server

    if name_or_path.endswith(".json"):
        return repro_io.server_from_dict(repro_io.load_json(name_or_path))
    return resolve_server(name_or_path)


def _cmd_servers(_args: argparse.Namespace) -> int:
    for name, server in BUILTIN_SERVERS.items():
        print(
            f"{name:<14} {server.total_cores:>3} cores "
            f"({server.chips} x {server.cores_per_chip}), "
            f"{server.memory.total_gb:>4.0f} GB, "
            f"{server.gflops_peak:>6.1f} GFLOPS peak"
        )
    return 0


def _save_json_report(document: dict, path: "str | None") -> None:
    """Shared ``--json PATH`` behaviour: write and confirm."""
    if not path:
        return
    saved = repro_io.save_json(document, path)
    print(f"\nsaved: {saved}")


@contextmanager
def _maybe_trace(path: "str | None"):
    """Shared ``--trace PATH`` behaviour: capture spans, export, confirm."""
    if not path:
        yield
        return
    with obs.capture() as tracer:
        yield
    saved = tracer.export_jsonl(path)
    print(f"trace: {saved} ({len(tracer.records())} spans)", file=sys.stderr)


def _cmd_evaluate(args: argparse.Namespace) -> int:
    server = _load_server(args.server)
    with _maybe_trace(args.trace):
        result = evaluate_server(server, Simulator(server, seed=args.seed))
    print(format_evaluation_table(result))
    _save_json_report(repro_io.evaluation_to_dict(result), args.json)
    return 0


def _cmd_green500(args: argparse.Namespace) -> int:
    server = _load_server(args.server)
    result = green500_score(server, Simulator(server, seed=args.seed))
    print(
        f"{result.server}: Rmax {result.rmax_gflops:.1f} GFLOPS at "
        f"{result.average_watts:.1f} W -> {result.ppw:.4f} GFLOPS/W"
    )
    return 0


def _cmd_specpower(args: argparse.Namespace) -> int:
    server = _load_server(args.server)
    result = specpower_score(server, Simulator(server, seed=args.seed))
    for level in result.levels:
        print(
            f"{level.level:<10} load {level.load:>4.0%}  "
            f"{level.ssj_ops:>10.0f} ssj_ops  {level.watts:>8.2f} W"
        )
    print(
        f"overall: {result.overall_ssj_ops_per_watt:.1f} ssj_ops/W "
        f"on {result.server}"
    )
    return 0


def _cmd_rankings(args: argparse.Namespace) -> int:
    rows = []
    for name in BUILTIN_SERVERS:
        server = get_server(name)
        rows.append(
            (
                name,
                evaluate_server(server).score,
                green500_score(server).ppw,
                specpower_score(server).overall_ssj_ops_per_watt,
            )
        )
    print(f"{'Server':<14} {'Ours':>8} {'Green500':>9} {'SPECpower':>10}")
    for name, ours, g500, spec in rows:
        print(f"{name:<14} {ours:>8.4f} {g500:>9.4f} {spec:>10.1f}")
    orderings: dict[str, list[str]] = {}
    for title, key in (
        ("ours (mean PPW)", 1),
        ("Green500", 2),
        ("SPECpower", 3),
    ):
        ordered = sorted(rows, key=lambda r: r[key], reverse=True)
        orderings[title] = [r[0] for r in ordered]
        print(f"{title}: " + " > ".join(orderings[title]))
    _save_json_report(
        {
            "kind": "rankings",
            "schema_version": 1,
            "rows": [
                {
                    "server": name,
                    "ours": ours,
                    "green500": g500,
                    "specpower": spec,
                }
                for name, ours, g500, spec in rows
            ],
            "orderings": orderings,
        },
        getattr(args, "json", None),
    )
    return 0


def _cmd_regression(args: argparse.Namespace) -> int:
    from repro.hardware.pmu import REGRESSION_FEATURES

    server = _load_server(args.server)
    simulator = Simulator(server, seed=args.seed)
    dataset = collect_hpcc_training(server, simulator)
    model = train_power_model(dataset, server_name=server.name)
    print(format_regression_summary(model))
    print()
    print(format_coefficients(model))
    verifications = []
    for klass in args.classes:
        print()
        result = verify_on_npb(server, model, klass, simulator)
        print(format_verification(result, limit=10))
        verifications.append(result)
    if args.save_model:
        path = repro_io.save_json(repro_io.model_to_dict(model), args.save_model)
        print(f"\nsaved: {path}")
    _save_json_report(
        {
            "kind": "regression_study",
            "schema_version": 1,
            "server": server.name,
            "seed": args.seed,
            "summary": {
                "multiple_r": model.ols.multiple_r,
                "r_square": model.r_square,
                "adjusted_r_square": model.ols.adjusted_r_square,
                "standard_error": model.ols.standard_error,
                "observations": model.n_observations,
            },
            "features": list(REGRESSION_FEATURES),
            "selected": list(model.selected),
            "coefficients": model.coefficients_full().tolist(),
            "intercept": model.intercept,
            "verification": [
                {
                    "npb_class": result.npb_class,
                    "r_squared": result.r_squared,
                    "labels": list(result.labels),
                    "measured": result.measured.tolist(),
                    "predicted": result.predicted.tolist(),
                    "per_program_rms": result.per_program_rms(),
                }
                for result in verifications
            ],
        },
        args.json,
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    server = _load_server(args.server)
    simulator = Simulator(server, seed=args.seed)
    if args.name in ("fig1", "fig2"):
        rows = sweeps.specpower_usage_sweep(simulator)
        labels = [r[0] for r in rows]
        column = 1 if args.name == "fig1" else 2
        title = (
            "Fig. 1: SPECpower memory usage (%)"
            if args.name == "fig1"
            else "Fig. 2: SPECpower CPU usage (%)"
        )
        print(bar_chart(title, labels, [r[column] for r in rows], floor=0.0))
    elif args.name == "fig3":
        counts = (
            server.total_cores,
            server.half_cores(),
            1,
        )
        points = [
            p for p in sweeps.mixed_power_sweep(simulator, counts) if p.runnable
        ]
        print(
            bar_chart(
                f"Fig. 3-style power chart on {server.name} (W)",
                [p.label for p in points],
                [p.watts for p in points],
                unit=" W",
            )
        )
    elif args.name == "fig5":
        series = sweeps.hpl_ns_sweep(simulator)
        fractions = [f"{int(f * 100)}%" for f in (
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95,
        )]
        print(
            line_columns(
                f"Fig. 5: HPL Ns sweep on {server.name} (W)",
                fractions,
                {f"{n} cores": values for n, values in series.items()},
            )
        )
    elif args.name == "fig6":
        series = sweeps.hpl_nb_sweep(simulator)
        print(
            line_columns(
                f"Fig. 6: HPL NB sweep on {server.name} (W)",
                [str(nb) for nb in (50, 100, 150, 200, 250, 300, 350, 400)],
                {f"{n} cores": values for n, values in series.items()},
            )
        )
    elif args.name in ("fig12", "fig13"):
        # The regression verification figures; trains the model first.
        train_server = get_server("Xeon-4870")
        train_sim = Simulator(train_server, seed=args.seed)
        dataset = collect_hpcc_training(train_server, train_sim)
        model = train_power_model(dataset, server_name=train_server.name)
        result = verify_on_npb(train_server, model, "B", train_sim)
        if args.name == "fig12":
            print(
                paired_series(
                    f"Fig. 12: measured vs regression, NPB-B on "
                    f"{train_server.name} (R^2 = {result.r_squared:.3f})",
                    result.labels,
                    result.measured,
                    result.predicted,
                )
            )
        else:
            print(
                bar_chart(
                    "Fig. 13: |measured - regression| RMS per program, "
                    f"NPB-B on {train_server.name}",
                    list(result.per_program_rms()),
                    list(result.per_program_rms().values()),
                    floor=0.0,
                )
            )
    elif args.name in ("fig10", "fig11"):
        rows = sweeps.ep_profile(simulator)
        labels = [f"{n} cores" for n, *_ in rows]
        if args.name == "fig10":
            print(
                bar_chart(
                    f"Fig. 10: EP.C power on {server.name}",
                    labels,
                    [r[2] for r in rows],
                    unit=" W",
                )
            )
        else:
            print(
                bar_chart(
                    f"Fig. 11: EP.C energy on {server.name}",
                    labels,
                    [r[4] for r in rows],
                    floor=0.0,
                    unit=" KJ",
                )
            )
    return 0


def _parse_workload(server, text: str):
    from repro.workloads.hpl import HplConfig, HplWorkload
    from repro.workloads.npb import NpbWorkload

    if text.lower() == "hpl":
        return HplWorkload(HplConfig(server.total_cores, 0.95))
    parts = text.split(".")
    if len(parts) != 3:
        raise ReproError(
            f"workload must be 'hpl' or '<prog>.<class>.<nprocs>', "
            f"got {text!r}"
        )
    name, klass, nprocs = parts
    return NpbWorkload(name, klass, int(nprocs))


def _cmd_breakdown(args: argparse.Namespace) -> int:
    from repro.core.breakdown import breakdown

    server = _load_server(args.server)
    result = breakdown(server, _parse_workload(server, args.workload))
    print(result.format())
    _save_json_report(
        {
            "kind": "power_breakdown",
            "schema_version": 1,
            "server": server.name,
            "program": result.program,
            "idle_watts": result.idle_watts,
            "components": dict(result.components),
            "dynamic_watts": result.dynamic_watts,
            "total_watts": result.total_watts,
            "fractions": result.fractions(),
        },
        args.json,
    )
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    from repro.core.energy import energy_scaling

    server = _load_server(args.server)
    scaling = energy_scaling(server, args.program, args.npb_class)
    print(
        f"{scaling.program}.{scaling.npb_class} on {scaling.server}: "
        f"energy-optimal at {scaling.optimal.nprocs} processes "
        f"({scaling.max_saving:.0%} below serial)"
    )
    print(f"{'Procs':>6} {'Time s':>9} {'Power W':>9} {'Energy KJ':>10}")
    for p in scaling.points:
        print(
            f"{p.nprocs:>6} {p.duration_s:>9.1f} {p.watts:>9.1f} "
            f"{p.energy_kj:>10.2f}"
        )
    return 0


def _cmd_uncertainty(args: argparse.Namespace) -> int:
    from repro.core.uncertainty import score_distribution

    server = _load_server(args.server)
    dist = score_distribution(server, n_repeats=args.repeats)
    lo, hi = dist.interval()
    print(
        f"{dist.server}: score {dist.mean:.5f} +/- {dist.std:.5f} "
        f"(2-sigma interval {lo:.5f}..{hi:.5f}, "
        f"spread {dist.relative_spread:.2%} over {args.repeats} streams)"
    )
    return 0


def _delta_line(label: str, paper: float, measured: float, fmt: str = "{:.4f}") -> str:
    delta = (measured - paper) / paper * 100 if paper else 0.0
    return (
        f"  {label:<22} paper {fmt.format(paper):>10}  "
        f"measured {fmt.format(measured):>10}  ({delta:+.1f} %)"
    )


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.core.export import export_exhibits

    paths = export_exhibits(
        args.out_dir, seed=args.seed, regression=args.regression
    )
    for path in paths:
        print(path)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro import paperdata

    entries: list[dict] = []

    def record(
        section: str, label: str, paper: float, measured: float, fmt: str = "{:.4f}"
    ) -> None:
        entries.append(
            {
                "section": section,
                "label": label,
                "paper": paper,
                "measured": measured,
                "delta_pct": (
                    (measured - paper) / paper * 100 if paper else 0.0
                ),
            }
        )
        print(_delta_line(label, paper, measured, fmt))

    print("== Evaluation tables (IV-VI) ==")
    for name in BUILTIN_SERVERS:
        server = get_server(name)
        result = evaluate_server(server)
        rows = {r.label: r for r in result.rows}
        print(f"{name}:")
        for paper_row in paperdata.paper_table(name):
            ours = rows.get(paper_row.label)
            if ours is None:
                print(
                    f"  {paper_row.label:<22} paper "
                    f"{paper_row.watts:>10.2f}  (row not in the "
                    "1/half/full method matrix)"
                )
                continue
            record(
                f"evaluation/{name}",
                paper_row.label,
                paper_row.watts,
                ours.watts,
                "{:.2f}",
            )
        paper_score = paperdata.PAPER_SCORES[name]
        # Table IV prints the PPW sum; compare like with like.
        measured_score = (
            result.score * 10 if name == "Xeon-E5462" else result.score
        )
        record(
            f"evaluation/{name}",
            "score (as printed)",
            paper_score,
            measured_score,
        )

    print("\n== Green500 (Section V-C3) ==")
    for name, paper_value in paperdata.PAPER_GREEN500_PPW.items():
        measured = green500_score(get_server(name)).ppw
        record("green500", name, paper_value, measured)

    print("\n== SPECpower (Section V-C3) ==")
    for name, paper_value in paperdata.PAPER_SPECPOWER_SCORES.items():
        measured = specpower_score(
            get_server(name)
        ).overall_ssj_ops_per_watt
        record("specpower", name, paper_value, measured, "{:.1f}")

    if args.regression:
        print("\n== Regression (Tables VII-VIII, Figs. 12-13) ==")
        server = get_server("Xeon-4870")
        dataset = collect_hpcc_training(server)
        model = train_power_model(dataset, server_name=server.name)
        summary = paperdata.PAPER_REGRESSION_SUMMARY
        record("regression", "R Square", summary["r_square"], model.r_square)
        record(
            "regression",
            "Observations",
            summary["observations"],
            model.n_observations,
            "{:.0f}",
        )
        for klass, paper_r2 in paperdata.PAPER_VERIFICATION_R2.items():
            measured = verify_on_npb(server, model, klass).r_squared
            record("regression", f"NPB-{klass} R^2", paper_r2, measured)
    _save_json_report(
        {"kind": "comparison", "schema_version": 1, "entries": entries},
        getattr(args, "json", None),
    )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro import fleet

    if args.fleet_command == "init":
        spec = (
            fleet.evaluation_campaign(seed=args.seed)
            if args.matrix
            else fleet.demo_campaign()
        )
        if not args.matrix and args.seed:
            import dataclasses

            spec = dataclasses.replace(spec, seed=args.seed)
        path = repro_io.save_json(fleet.campaign_to_dict(spec), args.out)
        print(
            f"wrote campaign {spec.name!r} ({len(spec.jobs())} jobs): {path}"
        )
        return 0

    if args.fleet_command == "run":
        if args.workers is not None and args.workers < 1:
            raise ReproError(f"--workers must be >= 1, got {args.workers}")
        if args.chunk_size is not None and args.chunk_size < 1:
            raise ReproError(
                f"--chunk-size must be >= 1, got {args.chunk_size}"
            )
        campaign = fleet.campaign_from_dict(repro_io.load_json(args.campaign))
        cache = fleet.ResultCache(args.cache_dir) if args.cache_dir else None
        if args.resume:
            from pathlib import Path as _Path

            from repro.errors import CampaignResumeError

            if cache is None:
                raise CampaignResumeError(
                    "--resume needs the result cache the previous run "
                    "wrote (--cache-dir)"
                )
            if not args.events or not _Path(args.events).exists():
                raise CampaignResumeError(
                    "--resume needs the previous run's event journal "
                    f"(--events; {args.events or '<disabled>'} not found)"
                )
            all_ids = {job.job_id for job in campaign.jobs()}
            journaled = fleet.completed_job_ids(
                fleet.read_events(args.events), campaign=campaign.name
            )
            done = sorted(all_ids & journaled)
            print(
                f"resuming {campaign.name!r}: {len(done)}/{len(all_ids)} "
                f"jobs journaled as complete; re-running the rest"
            )
        events = fleet.EventLog(args.events) if args.events else None
        if args.resume and events is not None:
            events.emit(
                "campaign_resume",
                campaign=campaign.name,
                completed=len(done),
                jobs=len(all_ids),
            )
        runner = fleet.FleetRunner(
            workers=1 if args.serial else args.workers,
            cache=cache,
            retry=fleet.RetryPolicy(max_attempts=args.retries),
            events=events,
            chunk_size=args.chunk_size,
            timeout_s=args.job_timeout,
        )
        try:
            with _maybe_trace(args.trace):
                outcome = runner.run(campaign)
        finally:
            if events is not None:
                events.close()
        print(
            f"{'Job':<36} {'GFLOPS':>9} {'Power W':>9} {'PPW':>8} "
            f"{'src':>6} {'wall s':>7}"
        )
        rows = []
        for record in outcome.records:
            job = record.job
            shown = f"{job.server.name}/{job.label}"
            if record.result is None:
                print(f"{shown:<36} {'FAILED':>9}  {record.error}")
                continue
            run = record.result
            gflops = run.demand.gflops
            watts = run.average_power_watts()
            ppw = gflops / watts if watts else 0.0
            src = "cache" if record.cached else "run"
            print(
                f"{shown:<36} {gflops:>9.4f} {watts:>9.2f} "
                f"{ppw:>8.4f} {src:>6} {record.wall_s:>7.3f}"
            )
            rows.append(
                {
                    "job_id": job.job_id,
                    "server": job.server.name,
                    "label": job.label,
                    "gflops": gflops,
                    "watts": watts,
                    "memory_mb": run.average_memory_mb(),
                    "duration_s": run.duration_s,
                    "ppw": ppw,
                    "energy_kj": run.energy_kilojoules(),
                    "cached": record.cached,
                    "attempts": record.attempts,
                    "wall_s": record.wall_s,
                }
            )
        report = outcome.report()
        if outcome.failures:
            print("\nfailures:")
            for failure in outcome.failures:
                print(
                    f"  {failure.job_id}: {failure.error} "
                    f"(after {failure.attempts} attempts)"
                )
        digest = outcome.results_digest()
        print()
        print(report.format())
        print(f"results digest: {digest}")
        _save_json_report(
            {
                "kind": "fleet_results",
                "schema_version": 1,
                "campaign": campaign.name,
                "results_digest": digest,
                "rows": rows,
                "failures": [
                    {
                        "job_id": f.job_id,
                        "label": f.label,
                        "server": f.server,
                        "attempts": f.attempts,
                        "error": f.error,
                    }
                    for f in outcome.failures
                ],
                "report": report.to_dict(),
            },
            args.out,
        )
        return 0 if outcome.ok else 1

    from pathlib import Path

    events = (
        fleet.last_campaign_events(args.events)
        if Path(args.events).exists()
        else []
    )
    if not events:
        print(f"no campaign events in {args.events}", file=sys.stderr)
        return 2

    if args.fleet_command == "status":
        start = events[0]
        total = int(start.get("jobs", 0))
        done = sum(
            1 for e in events if e["kind"] in ("job_finish", "cache_hit")
        )
        failed = sum(1 for e in events if e["kind"] == "job_failed")
        retries = sum(1 for e in events if e["kind"] == "job_retry")
        finished = any(e["kind"] == "campaign_finish" for e in events)
        state = "finished" if finished else "running"
        print(
            f"campaign {start.get('campaign', '?')!r}: {state}  "
            f"{done}/{total} jobs done  {failed} failed  {retries} retries"
        )
        # Failed jobs surface in the exit code, matching `fleet run`.
        return 1 if failed else 0

    # fleet report
    report = fleet.FleetReport.from_events(events)
    print(report.format())
    # FleetReport.to_dict() is the bare dict embedded in fleet_results
    # documents; the standalone export gets the standard envelope.
    _save_json_report(
        {"kind": "fleet_report", "schema_version": 1, **report.to_dict()},
        getattr(args, "json", None),
    )
    return 1 if report.n_failed else 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro import cluster, fleet

    if args.cluster_command == "init":
        if args.server:
            spec = cluster.homogeneous_cluster(
                _load_server(args.server),
                args.nodes,
                nodes_per_rack=args.nodes_per_rack,
            )
        else:
            spec = cluster.demo_cluster(
                args.nodes, nodes_per_rack=args.nodes_per_rack
            )
        campaign = cluster.ClusterCampaign(
            name=spec.name,
            cluster=spec,
            jobs=tuple(
                cluster.synthetic_jobmix(spec, args.jobs, seed=args.seed)
            ),
            seed=args.seed,
        )
        path = repro_io.save_json(
            cluster.campaign_to_dict(campaign), args.out
        )
        print(
            f"wrote cluster campaign {campaign.name!r} "
            f"({spec.n_nodes} nodes / {spec.n_racks} racks, "
            f"{len(campaign.jobs)} jobs): {path}"
        )
        return 0

    if args.cluster_command == "run":
        if args.workers is not None and args.workers < 1:
            raise ReproError(f"--workers must be >= 1, got {args.workers}")
        campaign = cluster.campaign_from_dict(
            repro_io.load_json(args.campaign)
        )
        backend = (
            fleet.FleetBackend(workers=args.workers)
            if args.workers is not None
            else None
        )
        events = fleet.EventLog(args.events) if args.events else None
        try:
            with _maybe_trace(args.trace):
                result = cluster.simulate_campaign(
                    campaign,
                    placement=args.placement,
                    backend=backend,
                    events=events,
                )
        finally:
            if events is not None:
                events.close()
        print(result.format())
        _save_json_report(result.to_dict(), args.json)
        return 0

    # cluster report
    document = repro_io.load_json(args.result)
    print(cluster.format_report_document(document))
    _save_json_report(document, args.json)
    return 0


def _zoo_grid_summary(result) -> str:
    """One-line-per-cell rendering of a grid evaluation."""
    lines = [
        f"{result.server}: {result.grid.n_cells} P-states x "
        f"{result.grid.states_per_cell} states "
        f"(digest {result.digest[:12]})"
    ]
    lines.append(
        f"  {'pstate':<8} {'ratio':>6} {'MHz':>7} {'score':>8} "
        f"{'avg W':>8}  digest"
    )
    for cell in result.cells:
        lines.append(
            f"  P{cell.pstate:<7} {cell.frequency_ratio:>6.2f} "
            f"{cell.frequency_mhz:>7.0f} {cell.score:>8.4f} "
            f"{cell.evaluation.average_watts:>8.1f}  {cell.digest[:12]}"
        )
    best = result.best_cell
    lines.append(
        f"  best operating point: P{best.pstate} "
        f"({best.frequency_mhz:.0f} MHz, {best.score:.4f} GFLOPS/W)"
    )
    return "\n".join(lines)


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.core.grid import StateGrid, evaluate_grid, grid_to_dict
    from repro.hardware.zoo import get_zoo_server, zoo_entries

    if args.zoo_command == "list":
        for entry in zoo_entries():
            spec = entry.spec
            print(
                f"{spec.name:<18} {spec.processor.core_type:<8} "
                f"{spec.total_cores:>3} cores "
                f"({spec.chips} x {spec.cores_per_chip}), "
                f"{spec.n_pstates} P-states, "
                f"{spec.memory.total_gb:>4.0f} GB, "
                f"{spec.gflops_peak:>7.1f} GFLOPS peak"
            )
            print(f"{'':<18} {entry.summary}")
        return 0

    if args.zoo_command == "show":
        spec = get_zoo_server(args.server)
        proc = spec.processor
        print(f"{spec.name} ({proc.model})")
        print(
            f"  {spec.chips} x {proc.cores} {proc.core_type} cores @ "
            f"{proc.frequency_mhz:.0f} MHz nominal, "
            f"{proc.flops_per_cycle} FLOPs/cycle"
        )
        print(
            f"  memory {spec.memory.total_gb:.0f} GB {spec.memory.technology} "
            f"@ {spec.memory.bandwidth_gbs:.1f} GB/s, "
            f"HPL efficiency {spec.hpl_efficiency:.0%}, "
            f"peak {spec.gflops_peak:.1f} GFLOPS"
        )
        if proc.dvfs is None:
            print("  no DVFS ladder (single implicit P-state)")
            return 0
        print(f"  DVFS over {proc.dvfs.tech.name} (alpha-power law):")
        print(
            f"  {'pstate':<8} {'ratio':>6} {'MHz':>7} {'Vdd':>6} "
            f"{'dyn x':>6} {'stat x':>6}"
        )
        for ps in proc.pstates():
            print(
                f"  P{ps.index:<7} {ps.freq_ratio:>6.2f} "
                f"{ps.frequency_mhz:>7.0f} {ps.voltage_v:>6.3f} "
                f"{ps.dynamic_scale:>6.3f} {ps.static_scale:>6.3f}"
            )
        return 0

    if args.zoo_command == "evaluate":
        server = _load_server(args.server)
        if args.pstate is not None:
            pinned = server.at_pstate(args.pstate)
            result = evaluate_server(pinned, Simulator(pinned, seed=args.seed))
            print(
                f"{server.name} at P{args.pstate} "
                f"({pinned.effective_frequency_mhz:.0f} MHz):"
            )
            print(format_evaluation_table(result))
            _save_json_report(repro_io.evaluation_to_dict(result), args.json)
            return 0
        result = evaluate_grid(StateGrid(server), seed=args.seed)
        print(_zoo_grid_summary(result))
        _save_json_report(grid_to_dict(result), args.json)
        return 0

    # zoo matrix
    entries = zoo_entries()
    if args.server:
        wanted = {get_zoo_server(name).name for name in args.server}
        entries = tuple(e for e in entries if e.name in wanted)
    failures: list[str] = []
    grids = {}
    studies = {}
    for entry in entries:
        result = evaluate_grid(StateGrid(entry.spec), seed=args.seed)
        grids[entry.name] = result
        print(_zoo_grid_summary(result))
        if args.study:
            from repro.model.validate import grid_regression_study

            study = grid_regression_study(entry.spec, seed=args.seed)
            studies[entry.name] = study
            print(study.format())
            if not study.ok:
                failures.append(f"{entry.name}: regression R^2 out of band")
    if args.digests:
        pinned = repro_io.load_json(args.digests)
        if pinned.get("kind") != "zoo_grid_digests":
            raise ReproError(f"{args.digests} is not a zoo digest pin file")
        for name, result in grids.items():
            expected = pinned.get("servers", {}).get(name)
            if expected is None:
                failures.append(f"{name}: no pinned digest in {args.digests}")
            elif expected != result.digest:
                failures.append(
                    f"{name}: grid digest {result.digest[:12]} != "
                    f"pinned {expected[:12]}"
                )
        print(f"digest pins checked against {args.digests}")
    if args.update_digests:
        document = {
            "kind": "zoo_grid_digests",
            "schema_version": 1,
            "seed": args.seed,
            "servers": {name: g.digest for name, g in grids.items()},
        }
        saved = repro_io.save_json(document, args.update_digests)
        print(f"pinned {len(grids)} grid digests: {saved}")
    _save_json_report(
        {
            "kind": "zoo_matrix",
            "schema_version": 1,
            "seed": args.seed,
            "ok": not failures,
            "failures": failures,
            "servers": [grid_to_dict(g) for g in grids.values()],
            "studies": [s.to_dict() for s in studies.values()],
        },
        args.json,
    )
    total_states = sum(g.n_states for g in grids.values())
    print(
        f"zoo matrix: {len(grids)} servers, {total_states} states, "
        f"{len(failures)} failure(s)"
    )
    for failure in failures:
        print(f"  FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import bench as obs_bench

    if args.list_scenarios:
        print(f"{'scenario':<16} {'quick':>5} {'full':>5} {'unit':<9} description")
        for scenario in obs_bench.available_scenarios():
            print(
                f"{scenario.name:<16} {scenario.iterations_quick:>5} "
                f"{scenario.iterations_full:>5} {scenario.unit:<9} "
                f"{scenario.description}"
            )
        return 0
    repeat = obs_bench.DEFAULT_REPEAT if args.repeat is None else args.repeat
    seed = obs_bench.DEFAULT_SEED if args.seed is None else args.seed
    document = obs_bench.run_bench(
        quick=args.quick, repeat=repeat, seed=seed, only=args.scenario
    )
    print(obs_bench.format_document(document))
    _save_json_report(document, args.json)
    if args.baseline:
        tolerance = (
            obs_bench.DEFAULT_TOLERANCE
            if args.tolerance is None
            else args.tolerance
        )
        baseline = obs_bench.load_bench_document(args.baseline)
        report = obs_bench.compare_benchmarks(
            baseline, document, tolerance=tolerance
        )
        print()
        print(obs_bench.format_comparison(report))
        if not report["ok"]:
            return 3
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro import chaos

    if args.list_scenarios:
        print(f"{'scenario':<22} {'layer':<9} description")
        for name, layer, description in chaos.available_scenarios():
            print(f"{name:<22} {layer:<9} {description}")
        return 0
    report = chaos.run_chaos(seed=args.seed, only=args.scenario)
    print(report.format())
    _save_json_report(report.to_dict(), args.json)
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    records = obs.load_jsonl(args.file)
    if not records:
        print(f"no spans in {args.file}", file=sys.stderr)
        return 2
    print(obs.format_tree(records))
    return 0


def _model_train(args: argparse.Namespace) -> int:
    from repro.model import ModelRegistry

    server = _load_server(args.server)
    simulator = Simulator(server, seed=args.seed)
    dataset = collect_hpcc_training(server, simulator)
    model = train_power_model(dataset, server_name=server.name)
    print(format_regression_summary(model))
    artifact = ModelRegistry(args.registry).publish(
        model,
        name=args.name,
        dataset=dataset,
        server_spec=repro_io.server_to_dict(server),
    )
    print(
        f"\npublished: {artifact.name} v{artifact.version} "
        f"({artifact.path})"
    )
    print(f"model digest: {artifact.model_digest}")
    print(f"artifact digest: {artifact.digest}")
    _save_json_report(artifact.document, args.json)
    return 0


def _model_load(args: argparse.Namespace):
    """Resolve predict/validate's model source: --model PATH or registry."""
    from repro.errors import ConfigurationError
    from repro.model.registry import ModelRegistry, _slug

    if getattr(args, "model", None):
        return repro_io.model_from_dict(repro_io.load_json(args.model))
    name = args.name or _slug(_load_server(args.server).name)
    if not name:
        raise ConfigurationError("need --name or --model to pick a model")
    return ModelRegistry(args.registry).load(
        name, getattr(args, "model_version", None)
    )


def _model_predict(args: argparse.Namespace) -> int:
    from repro.errors import ConfigurationError
    from repro.model import FeatureBatch, InferenceEngine, collect_feature_batch

    if bool(args.features) == bool(args.from_npb):
        raise ConfigurationError(
            "need exactly one of --features PATH or --from-npb CLASS"
        )
    model = _model_load(args)
    if args.features:
        batch = FeatureBatch.from_dict(repro_io.load_json(args.features))
    else:
        server = _load_server(args.server)
        batch = collect_feature_batch(
            server, args.from_npb, Simulator(server, seed=args.seed)
        )
    prediction = InferenceEngine(model).predict(batch)
    print(
        f"{prediction.n_rows} predictions from {model.server} model "
        f"({batch.features.shape[1]} features)"
    )
    if prediction.measured_watts is not None:
        print(
            f"fitting R^2 vs measured: "
            f"{prediction.r_squared_against_measured():.4f}"
        )
    print(f"predictions digest: {prediction.digest}")
    _save_json_report(prediction.to_dict(), args.json)
    return 0


def _model_registry(args: argparse.Namespace) -> int:
    """List (or ``--verify``) every artifact; a damaged one gets a
    CORRUPT row, is quarantined, and makes the exit status 1."""
    from repro.errors import ModelRegistryError
    from repro.model import ModelRegistry

    registry = ModelRegistry(args.registry)
    versions = [(n, v) for n in registry.names() for v in registry.versions(n)]
    if not versions:
        print(f"no artifacts under {args.registry}")
        return 0
    if not args.verify:
        print(f"{'name':<24} {'ver':>7} {'server':<14} {'R^2':>7}  digest")
    bad = 0
    for name, version in versions:
        try:
            artifact = registry.get(name, version)
        except ModelRegistryError as exc:
            print(f"{name:<24} v{version:06d}  CORRUPT: {exc}")
            bad += 1
            continue
        if args.verify:
            print(f"{name:<24} v{version:06d}  ok")
        else:
            print(
                f"{artifact.name:<24} v{artifact.version:06d} "
                f"{artifact.server:<14} {artifact.r_square:>7.4f}  "
                f"{artifact.digest[:12]}"
            )
    return 1 if bad else 0


def _model_validate(args: argparse.Namespace) -> int:
    from repro.model import validate_model

    server = _load_server(args.server)
    simulator = Simulator(server, seed=args.seed)
    dataset = collect_hpcc_training(server, simulator)
    if args.name:
        model = _model_load(args)
    else:
        model = train_power_model(dataset, server_name=server.name)
    report = validate_model(
        server,
        model,
        dataset,
        klasses=tuple(args.classes),
        folds=args.folds,
        seed=args.seed,
        simulator=simulator,
    )
    print(report.format())
    _save_json_report(report.to_dict(), args.json)
    return 0 if report.ok else 1


def _cmd_model(args: argparse.Namespace) -> int:
    return {
        "train": _model_train,
        "predict": _model_predict,
        "registry": _model_registry,
        "validate": _model_validate,
    }[args.model_command](args)


def _doctor_stores(args: argparse.Namespace) -> list:
    """Assemble the store adapters a doctor subcommand targets."""
    from pathlib import Path

    from repro.doctor import (
        FleetCacheStore,
        JournalStore,
        ModelRegistryStore,
        serve_state_stores,
    )

    stores: list = []
    for root in args.cache:
        stores.append(FleetCacheStore(root))
    for root in args.serve_state:
        root = Path(root)
        if not root.is_dir():
            raise ReproError(f"--serve-state {root}: not a directory")
        stores.extend(serve_state_stores(root))
    for root in args.registry:
        stores.append(ModelRegistryStore(root))
    for path in args.events:
        stores.append(JournalStore(path, name="events"))
    if not stores:
        raise ReproError(
            "name at least one store: "
            "--cache / --serve-state / --registry / --events"
        )
    return stores


def _doctor_emit(args: argparse.Namespace, kind: str, **fields) -> None:
    """Record a maintenance pass in each serve state's event journal,
    unless a daemon holds its writer lock: a failed unlocked append would
    truncate away whatever the daemon appended meanwhile."""
    from pathlib import Path

    from repro.doctor.jsonl import has_live_writer
    from repro.fleet.events import EventLog

    for root in args.serve_state:
        path = Path(root) / "events.jsonl"
        if has_live_writer(path):
            continue
        try:
            with EventLog(path) as events:
                events.emit(kind, **fields)
        except Exception:  # noqa: BLE001 - telemetry is best-effort
            pass


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro import doctor

    stores = _doctor_stores(args)
    if args.doctor_command == "audit":
        report = doctor.audit_stores(stores)
        print(report.format())
        _save_json_report(report.to_dict(), args.json)
        _doctor_emit(
            args,
            "doctor_audit",
            ok=report.ok,
            findings=len(report.findings),
        )
        return 0 if report.ok else 1
    if args.doctor_command == "repair":
        report = doctor.repair_stores(stores)
        print(report.format())
        _save_json_report(report.to_dict(), args.json)
        _doctor_emit(
            args, "doctor_repair", findings=len(report.findings)
        )
        unrepaired = [f for f in report.corrupt if not f.action]
        return 1 if unrepaired else 0
    if args.doctor_command == "gc":
        removed = doctor.gc_stores(
            stores, quarantine_ttl_s=args.quarantine_ttl
        )
        total = 0
        for name, paths in sorted(removed.items()):
            total += len(paths)
            print(f"doctor gc [{name}]: {len(paths)} file(s) removed")
        _save_json_report(
            {"kind": "doctor_gc", "removed": removed}, args.json
        )
        _doctor_emit(args, "doctor_gc", removed=total)
        return 0
    # evict
    policy = doctor.EvictionPolicy(
        max_bytes=args.max_bytes,
        max_entries=args.max_entries,
        ttl_s=args.ttl,
    )
    if not policy.bounded:
        raise ReproError(
            "evict needs at least one of --max-bytes / --max-entries / --ttl"
        )
    pins: set = set(args.pin)
    for root in args.serve_state:
        pins |= doctor.serve_pins(root).all
    reports = []
    satisfied = True
    evicted = 0
    for store in stores:
        report = doctor.evict_store(
            store, policy, pins=pins, dry_run=args.dry_run
        )
        print(report.format())
        satisfied &= report.satisfied
        evicted += len(report.evicted)
        reports.append(report.to_dict())
    _save_json_report(
        {"kind": "doctor_evict", "reports": reports}, args.json
    )
    if not args.dry_run:
        _doctor_emit(args, "doctor_evict", evicted=evicted)
    return 0 if satisfied else 1


def _serve_child_argv(args: argparse.Namespace) -> "list[str]":
    """Rebuild the child's ``repro serve`` command (sans --supervise)."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host", args.host,
        "--port", str(args.port),
        "--state-dir", args.state_dir,
        "--slots", str(args.slots),
        "--fleet-workers", str(args.fleet_workers),
        "--queue-depth", str(args.queue_depth),
        "--max-pending", str(args.max_pending),
        "--shed-fraction", str(args.shed_fraction),
        "--shed-budget", str(args.shed_budget),
        "--drain-timeout", str(args.drain_timeout),
    ]
    for spec in args.weight:
        argv += ["--weight", spec]
    if args.port_file:
        argv += ["--port-file", args.port_file]
    return argv


def _cmd_serve_supervise(args: argparse.Namespace) -> int:
    import signal
    import subprocess
    from pathlib import Path

    from repro.doctor import (
        RestartPolicy,
        Supervisor,
        repair_stores,
        serve_state_stores,
    )
    from repro.fleet.events import EventLog

    state_root = Path(args.state_dir)
    argv = _serve_child_argv(args)
    child: "dict[str, subprocess.Popen | None]" = {"proc": None}

    def _forward(signum: int, _frame) -> None:
        # A drain signal goes to the child; its clean exit (0) then
        # ends the supervisor loop without counting as a crash.
        proc = child["proc"]
        if proc is not None and proc.poll() is None:
            proc.send_signal(signum)

    signal.signal(signal.SIGTERM, _forward)
    signal.signal(signal.SIGINT, _forward)

    def run_child() -> int:
        proc = subprocess.Popen(argv)
        child["proc"] = proc
        try:
            return proc.wait()
        finally:
            child["proc"] = None

    def audit() -> None:
        # Post-crash, pre-restart: sweep torn records and corrupt
        # entries so the child resumes a clean journal.
        report = repair_stores(serve_state_stores(state_root))
        if report.findings:
            print(report.format(), file=sys.stderr)

    def on_event(kind: str, fields: dict) -> None:
        mapped = (
            "supervisor_restart"
            if kind == "restart"
            else "supervisor_halt"
        )
        fields = dict(fields)
        if kind == "clean_exit":
            fields.setdefault("reason", "clean_exit")
        try:
            with EventLog(state_root / "events.jsonl") as events:
                events.emit(mapped, **fields)
        except Exception:  # noqa: BLE001 - telemetry is best-effort
            pass

    policy = RestartPolicy(
        max_restarts=args.max_restarts,
        backoff_initial_s=args.backoff_initial,
        backoff_cap_s=args.backoff_cap,
        min_uptime_s=args.min_uptime,
        breaker_strikes=args.breaker_strikes,
    )
    outcome = Supervisor(
        run_child, policy, audit=audit, on_event=on_event
    ).run()
    print(
        f"supervisor: {outcome.status} after {outcome.restarts} "
        f"restart(s), {outcome.audits} audit(s), last child exit "
        f"{outcome.last_exit_code}"
    )
    return outcome.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import QueuePolicy, ServeApp, ServeScheduler, StateStore

    if args.supervise:
        return _cmd_serve_supervise(args)

    weights: dict[str, int] = {}
    for spec in args.weight:
        tenant, sep, value = spec.partition("=")
        if not sep or not tenant:
            raise ReproError(f"--weight takes TENANT=W, got {spec!r}")
        try:
            weights[tenant] = int(value)
        except ValueError as exc:
            raise ReproError(
                f"--weight {spec!r}: weight must be an int"
            ) from exc
    policy = QueuePolicy(
        max_depth=args.queue_depth,
        max_pending=args.max_pending,
        shed_fraction=args.shed_fraction,
        weights=weights,
    )
    scheduler = ServeScheduler(
        StateStore(args.state_dir),
        policy=policy,
        slots=args.slots,
        fleet_workers=args.fleet_workers,
        shed_job_budget=args.shed_budget,
    )
    app = ServeApp(
        scheduler,
        host=args.host,
        port=args.port,
        drain_timeout_s=args.drain_timeout,
        port_file=args.port_file,
    )

    async def _main() -> "list[str]":
        task = asyncio.ensure_future(app.run())
        await asyncio.sleep(0)  # let start() bind before we print
        while app.port == 0 or app._server is None:
            await asyncio.sleep(0.01)
        print(
            f"repro serve on http://{app.host}:{app.port} "
            f"(state: {args.state_dir}, slots: {args.slots})",
            flush=True,
        )
        return await task

    pending = asyncio.run(_main())
    if pending:
        print(
            f"drained with {len(pending)} campaign(s) journaled for "
            f"resume: {', '.join(pending)}"
        )
    else:
        print("drained clean: no pending campaigns")
    return 0


_HANDLERS = {
    "servers": _cmd_servers,
    "evaluate": _cmd_evaluate,
    "green500": _cmd_green500,
    "specpower": _cmd_specpower,
    "rankings": _cmd_rankings,
    "regression": _cmd_regression,
    "figure": _cmd_figure,
    "breakdown": _cmd_breakdown,
    "energy": _cmd_energy,
    "uncertainty": _cmd_uncertainty,
    "compare": _cmd_compare,
    "export": _cmd_export,
    "fleet": _cmd_fleet,
    "cluster": _cmd_cluster,
    "zoo": _cmd_zoo,
    "serve": _cmd_serve,
    "doctor": _cmd_doctor,
    "bench": _cmd_bench,
    "chaos": _cmd_chaos,
    "trace": _cmd_trace,
    "model": _cmd_model,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed early (`repro ... | head`); not our error,
        # but don't let a traceback outlive the pipe.  Point stdout at
        # /dev/null so the interpreter's exit-time flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
