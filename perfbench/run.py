"""The repo benchmark: end-to-end timings of what users run, and a layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-chain --seed 0 --seconds 24 --trace 0

Workloads: ``paper-chain`` (the library API), ``fleet-campaign``
(``FleetRunner`` with pool, cache and event log) and ``serve-openloop``
(the ``repro serve`` daemon under an open loop); ``all`` runs each in
turn in a fresh interpreter.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` wraps every layer's public
functions and prints the per-layer metrics instead.  The last line of
standard output is one JSON object; the lines above it name each metric
as the workload knows it, with its sample count.  The run exits non-zero
when an output check fails.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback

import common
import fleet_campaign
import layers
import paper_chain
import serve_openloop

IN_PROCESS = {module.NAME: module for module in (paper_chain, fleet_campaign)}
WORKLOADS = (paper_chain.NAME, fleet_campaign.NAME, serve_openloop.NAME)
#: Rounds per untimed run, at least; more while ``--seconds`` lasts.
MIN_ROUNDS = 3
#: A traced run alternates traced and untraced rounds, at least this many.
MIN_TRACED_ROUNDS = 4
#: A generator further behind its schedule than this flags the run.
LATE_LIMIT_S = 0.25
#: Reference-kernel samples taken before each round, and before and
#: after the open loop.
KERNEL_SAMPLES_PER_ROUND = 2
KERNEL_SAMPLES_SERVE = 10
#: Seconds of open loop per daemon when a traced fleet-campaign run
#: traces the serve layers.
SERVE_TRACE_S = 12.0
REFERENCE = common.BENCH_DIR / "reference.json"


def parse_args(argv=None) -> argparse.Namespace:
    spec = common.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help=f"store this run's paper-chain outputs as the seed-{common.DEFAULT_SEED} reference",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.require_checkout()
    if args.update_reference and (
        args.workload != paper_chain.NAME or args.seed != common.DEFAULT_SEED or args.trace
    ):
        raise SystemExit("--update-reference pins an untraced paper-chain run at the default seed")
    if args.workload == "all":
        return run_all(args)
    scratch = common.make_scratch()
    try:
        if args.workload == serve_openloop.NAME:
            return run_serve(args, scratch)
        return run_in_process(IN_PROCESS[args.workload], args, scratch)
    finally:
        common.remove_scratch(scratch)



def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter; worst exit code."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, cwd=common.ROOT).returncode)
    return worst


def _end_to_end(module, values, samples, scale, setups, rss) -> "tuple[list, dict]":
    """Result rows and gated values; CPU-bound times scaled to reference speed."""
    rows = [
        ("setup_s", "setup_s", common.median(setups) * scale, "s", len(setups), common.median(setups)),
        ("peak_rss_mb", "peak_rss_mb", rss, "MB", 1, None),
    ]
    for slot, name, scaled in module.PHASES:
        factor = scale if scaled else 1.0
        rows.append((slot, name, values[name] * factor, "s", samples[name], values[name] if scaled else None))
    return rows, {row[0]: row[2] for row in rows}


def _reference(module, args):
    """The pinned outputs this run must reproduce, if any."""
    if module is not paper_chain or args.seed != common.DEFAULT_SEED or args.update_reference:
        return None
    return json.loads(REFERENCE.read_text())[module.NAME]


def _layers_missing(module_layers, spans) -> "list[str]":
    seen = {span["l"] for span in spans}
    return [f"traced run saw no call into layer {layer}" for layer in module_layers if layer not in seen]


def _self_notes(metrics: dict) -> "list[str]":
    return [
        f"self time {key[len('self.'):]} = {value:.6g} s"
        for key, value in sorted(metrics.items())
        if key.startswith("self.")
    ]


def _per_layer_rows(metrics: dict, samples: int) -> list:
    """Result rows for every per-layer metric; layers not reached read 0."""
    rows = []
    for m in common.load_spec()["per_layer"]:
        metrics.setdefault(m["name"], 0.0)
        rows.append((m["name"], m["name"], metrics[m["name"]], m["unit"], samples, None))
    return rows


def run_in_process(module, args, scratch) -> int:
    trace = bool(args.trace)
    kernel = [common.reference_kernel() for _ in range(KERNEL_SAMPLES_PER_ROUND)]
    setups = [] if trace else common.time_setups(module.NAME, args.seed)
    recorder = None
    if trace:
        recorder = layers.Recorder(scratch / "spans")
        layers.install(recorder)
        recorder.active = True
    inputs = module.prepare(args.seed)
    if recorder is not None:
        recorder.active = False
        layers.uninstall()

    times, prints, traced_flags = [], [], []
    attempted = failed = 0
    properties: dict = {}
    notes: "list[str]" = []
    min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start < args.seconds:
        index = len(times)
        traced = trace and index % 2 == 0
        kernel += [common.reference_kernel() for _ in range(KERNEL_SAMPLES_PER_ROUND)]
        if traced:
            layers.install(recorder)
            recorder.tag = f"r{index}"
            recorder.active = True
        try:
            round_times, out = module.run_round(inputs, scratch / f"round-{index}", index)
        except Exception:  # noqa: BLE001 - a failed operation ends the run, counted
            traceback.print_exc()
            failed += 1
            attempted += 1
            break
        finally:
            if traced:
                recorder.active = False
                layers.uninstall()
        times.append(round_times)
        traced_flags.append(traced)
        prints.append(module.fingerprint(inputs, out))
        round_attempted, round_failed = module.accounting(inputs, out)
        attempted += round_attempted
        failed += round_failed
        if not properties:
            properties = module.properties(inputs, out)
        del out
    rss = common.peak_rss_mb()
    if not times:
        print("perfbench: no round completed", file=sys.stderr)
        return 1

    failures = module.check(inputs, prints, _reference(module, args))
    if args.update_reference:
        REFERENCE.write_text(json.dumps({module.NAME: prints[0]}, indent=1, sort_keys=True) + "\n")
        notes.append(f"wrote {REFERENCE.name}")

    scale = common.speed_scale(kernel)
    properties["speed_scale"] = round(scale, 4)
    if not trace:
        phase_values = {name: common.median([t[name] for t in times]) for _, name, _ in module.PHASES}
        samples = {name: len(times) for _, name, _ in module.PHASES}
        rows, metrics = _end_to_end(module, phase_values, samples, scale, setups, rss)
    else:
        metrics, rows, extra_failures, extra_notes = _traced_in_process(
            module, args, inputs, recorder, times, traced_flags, scratch
        )
        failures += extra_failures
        notes += extra_notes
    correct = not failures and failed == 0
    notes += [f"check failed: {f}" for f in failures]
    common.emit(module.NAME, args.seed, trace, rows, properties, metrics, correct, attempted, failed, notes)
    return 0 if correct else 1


def _traced_in_process(module, args, inputs, recorder, times, traced_flags, scratch):
    """Per-layer metrics: medians over the traced rounds."""
    main_pid = os.getpid()
    extras: dict = {}
    if hasattr(module, "traced_extras"):
        layers.install(recorder)
        try:
            extras = module.traced_extras(inputs, scratch / "extras", recorder)
        finally:
            layers.uninstall()
    spans = recorder.read_spans()
    per_round = []
    for index, traced in enumerate(traced_flags):
        if not traced:
            continue
        round_spans = [s for s in spans if s["r"] == f"r{index}"]
        summary = layers.summarize(round_spans)
        main_self = layers.self_time([s for s in round_spans if s["p"] == main_pid])
        summary["unattributed_s"] = sum(times[index].values()) - main_self
        per_round.append(summary)
    metrics = {key: common.median([m.get(key, 0.0) for m in per_round]) for key in per_round[0]}
    setup = layers.summarize([s for s in spans if s["r"] == "setup"])
    metrics["hardware.calibrate_s"] = setup["hardware.calibrate_s"]
    walls = {flag: [sum(t.values()) for t, f in zip(times, traced_flags) if f == flag] for flag in (True, False)}
    metrics["trace_overhead"] = common.median(walls[True]) / common.median(walls[False])
    metrics.update(common.startup_profile())
    if extras:
        pool_mixed = layers.summarize([s for s in spans if s["r"] == "pool-mixed"])
        metrics["fleet.pool_replaced"] = pool_mixed["fleet.pool_replaced"]
        metrics.update(extras)
    calls = layers.binding_calls(spans, recorder.keys)
    notes = _self_notes(metrics) + [f"calls {key} = {count}" for key, count in calls.items()]
    failures = _layers_missing(module.LAYERS, spans)
    if module is fleet_campaign:
        # The serve daemon runs on the fleet machinery; its layers are
        # traced here, since its latencies are too noisy to gate.
        served = _traced_serve(args.seed, SERVE_TRACE_S, scratch)
        metrics.update({k: v for k, v in served["metrics"].items() if k.startswith(("serve.", "io."))})
        failures += served["failures"]
        attempted, failed, _refused = served["counts"]
        if failed:
            failures.append(f"{failed} of {attempted} served requests were refused, failed or partial")
        notes += [f"serve {note}" for note in served["notes"]]
    rows = _per_layer_rows(metrics, len(per_round))
    return metrics, rows, failures, notes


def run_serve(args, scratch) -> int:
    module = serve_openloop
    trace = bool(args.trace)
    notes: "list[str]" = []
    kernel = [common.reference_kernel() for _ in range(KERNEL_SAMPLES_SERVE)]
    if not trace:
        schedule = module.prepare(args.seed, max(int(round(module.RATE_PER_S * args.seconds)), 12))
        setups = module.time_daemon_setups(scratch, common.SETUP_PROBES - 1)
        loop, stats, failures, rss, setup_s = _serve_once(module, scratch, "daemon", schedule)
        setups.append(setup_s)
        kernel += [common.reference_kernel() for _ in range(KERNEL_SAMPLES_SERVE)]
        values, samples = module.phase_values(loop, schedule)
        rows, metrics = _end_to_end(
            module, values, samples, common.speed_scale(kernel), setups, rss
        )
        attempted, failed, refused = module.accounting(loop, schedule)
    else:
        served = _traced_serve(args.seed, args.seconds / 2, scratch)
        metrics, failures, loop, stats, schedule = (
            served["metrics"], served["failures"], served["loop"], served["stats"], served["schedule"]
        )
        metrics.update(common.startup_profile())
        rows = _per_layer_rows(metrics, 1)
        notes += served["notes"]
        attempted, failed, refused = served["counts"]
    properties = module.properties(loop, schedule, stats)
    properties["speed_scale"] = round(common.speed_scale(kernel), 4)
    late = max(s["late"] for s in loop["sent"])
    if late > LATE_LIMIT_S:
        notes.append(f"generator fell behind its schedule by {late:.3f} s")
        properties["generator_behind"] = True
    if refused:
        notes.append(f"{refused} submissions refused (429/503)")
    correct = not failures and failed == 0
    notes += [f"check failed: {f}" for f in failures]
    common.emit(module.NAME, args.seed, trace, rows, properties, metrics, correct, attempted, failed, notes)
    return 0 if correct else 1


def _traced_serve(seed: int, seconds: float, scratch) -> dict:
    """The serve layers, traced: one schedule on a plain daemon, then on a
    traced one.  The exec-time ratio of the two is the tracing overhead."""
    module = serve_openloop
    schedule = module.prepare(seed, max(int(round(module.RATE_PER_S * seconds)), 12))
    plain, _, failures, _, _ = _serve_once(module, scratch, "plain", schedule)
    span_dir = scratch / "serve-spans"
    loop, stats, traced_failures, _, _ = _serve_once(module, scratch, "traced", schedule, span_dir)
    spans = layers.read_span_files(span_dir)
    metrics = layers.summarize(spans)
    metrics["serve.submit_s"] = metrics["serve.submit_total_s"] / len(schedule)
    metrics["serve.journal_s"] = metrics["serve.journal_total_s"] / len(schedule)
    metrics.update(module.layer_values(loop, schedule, stats))
    slot_self = layers.self_time([s for s in spans if s.get("th", "").startswith("serve-slot")])
    metrics["unattributed_s"] = module.exec_total_s(loop) - slot_self
    metrics["trace_overhead"] = metrics["serve.exec_p50_s"] / module.exec_p50_s(plain)
    calls = layers.binding_calls(spans, json.loads((span_dir / "bindings.json").read_text()))
    counts = [a + b for a, b in zip(module.accounting(loop, schedule), module.accounting(plain, schedule))]
    return {
        "metrics": metrics,
        "failures": failures + traced_failures + _layers_missing(module.LAYERS, spans),
        "notes": _self_notes(metrics) + [f"calls {key} = {count}" for key, count in calls.items()],
        "loop": loop,
        "stats": stats,
        "schedule": schedule,
        "counts": counts,
    }


def _serve_once(module, scratch, label, schedule, span_dir=None):
    """Start a daemon, run the open loop, check the results, stop it."""
    daemon = module.Daemon(scratch, label, span_dir)
    try:
        loop = module.open_loop(daemon, schedule)
        rss = common.peak_rss_mb(daemon.proc.pid)
        stats = daemon.get_json("/v1/stats")
        failures = module.check(daemon, loop, schedule)
    finally:
        daemon.stop()
    return loop, stats, failures, rss, daemon.setup_s


if __name__ == "__main__":
    sys.exit(main())
