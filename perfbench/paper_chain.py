"""paper-chain: the paper's method in one process, through the library API.

Each round runs four phases, in this order:

* ``score_s`` -- the ten-state evaluation (Tables IV-VI) of the three
  builtin servers, for several simulator seeds;
* ``meter_batch_s`` -- the Section V-C2 CSV procedure (``Campaign.run``
  with CSV segments and the merged-file analysis) on the ten-state run
  list of the two smaller builtin servers;
* ``meter_stream_s`` -- the same campaigns with ``streaming=True``;
* ``regression_s`` -- the Section VI study on every builtin server:
  HPCC collection, stepwise OLS, NPB class B and C verification.

Fleet, cache, pool and serve do no work here, which makes this workload
the control for changes to them.
"""

from __future__ import annotations

import math
import random
import shutil
import time
from pathlib import Path

from common import digest

NAME = "paper-chain"
#: (result slot, phase name, scaled to reference speed) in round order.
PHASES = (
    ("phase1_s", "score_s", True),
    ("phase2_s", "meter_batch_s", True),
    ("phase3_s", "meter_stream_s", True),
    ("phase4_s", "regression_s", True),
)
#: Simulator seeds per score phase: enough work for a phase of about 1 s.
SCORE_SEEDS = 3
#: The CSV procedure runs on these servers' ten-state lists (the
#: Xeon-4870's 247k-sample list alone would take a whole round).
METER_SERVERS = ("Xeon-E5462", "Opteron-8347")
#: Layers a traced run must see called.
LAYERS = ("hardware.calibration", "core", "engine", "metering", "stats")


def prepare(seed: int) -> dict:
    """Import the library, derive the inputs from ``seed``, calibrate."""
    from repro.core.evaluation import IDLE_WINDOW_S
    from repro.core.states import evaluation_states
    from repro.demand import ResourceDemand
    from repro.engine import Simulator
    from repro.hardware import BUILTIN_SERVERS

    rng = random.Random(seed)
    servers = list(BUILTIN_SERVERS.values())
    for server in servers:
        Simulator(server)  # the lazy per-server calibration
    return {
        "servers": servers,
        "score_seeds": [rng.randrange(2**31) for _ in range(SCORE_SEEDS)],
        "meter_seed": rng.randrange(2**31),
        "regression_seed": rng.randrange(2**31),
        "meter_runs": {
            name: [
                ResourceDemand.idle(IDLE_WINDOW_S) if state.is_idle else state.workload
                for state in evaluation_states(BUILTIN_SERVERS[name])
            ]
            for name in METER_SERVERS
        },
    }


def run_round(inputs: dict, workdir: Path, index: int) -> "tuple[dict, dict]":
    """One pass of the four phases; returns (phase seconds, outputs)."""
    del index  # every round repeats the same inputs
    from repro import Campaign, Simulator, evaluate_server
    from repro.core.regression import (
        collect_hpcc_training,
        train_power_model,
        verify_on_npb,
    )
    from repro.hardware import get_server

    times: dict = {}
    out: dict = {"score": [], "meter": {}, "regression": {}}

    t0 = time.perf_counter()
    for seed in inputs["score_seeds"]:
        for server in inputs["servers"]:
            out["score"].append(evaluate_server(server, Simulator(server, seed=seed)))
    times["score_s"] = time.perf_counter() - t0

    for phase, streaming in (("meter_batch_s", False), ("meter_stream_s", True)):
        results = {}
        t0 = time.perf_counter()
        for name, runs in inputs["meter_runs"].items():
            simulator = Simulator(get_server(name), seed=inputs["meter_seed"])
            results[name] = Campaign(simulator, streaming=streaming).run(
                runs, csv_dir=workdir / f"{phase}-{name}"
            )
        times[phase] = time.perf_counter() - t0
        out["meter"][phase] = results

    t0 = time.perf_counter()
    for server in inputs["servers"]:
        simulator = Simulator(server, seed=inputs["regression_seed"])
        model = train_power_model(collect_hpcc_training(server, simulator), server.name)
        out["regression"][server.name] = (
            model,
            verify_on_npb(server, model, "B", simulator),
            verify_on_npb(server, model, "C", simulator),
        )
    times["regression_s"] = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    return times, out


def evaluation_digest(result) -> str:
    """SHA-256 of an evaluation's result document (what serve returns)."""
    from repro.io import evaluation_to_dict

    return digest(evaluation_to_dict(result))


def _verification_digest(result) -> str:
    from repro.io import verification_to_dict

    return digest(verification_to_dict(result))


class _BatchEngineBackend:
    """Routes the regression's runs through the vectorised batch engine."""

    def map_runs(self, simulator, workloads):
        from repro.engine.batch import run_batch

        return run_batch(simulator, list(workloads))


def fingerprint(inputs: dict, out: dict) -> dict:
    """The outputs of one round, reduced to comparable digests."""
    n_servers = len(inputs["servers"])
    score = {}
    for i, result in enumerate(out["score"]):
        key = f"{result.server}/seed{i // n_servers}"
        score[key] = evaluation_digest(result)
    meter = {
        phase: {
            name: digest([m.__dict__ for m in result.measurements])
            for name, result in results.items()
        }
        for phase, results in out["meter"].items()
    }
    regression = {
        name: {
            "selected": list(model.selected),
            "verify_B": _verification_digest(vb),
            "verify_C": _verification_digest(vc),
        }
        for name, (model, vb, vc) in out["regression"].items()
    }
    return {"score": score, "meter": meter, "regression": regression}


def accounting(inputs: dict, out: dict) -> "tuple[int, int]":
    """(operations attempted, operations failed) in one round.

    An operation is one evaluation, one metered campaign or one server's
    regression study; one that raises ends the run instead.
    """
    attempted = len(out["score"]) + sum(len(r) for r in out["meter"].values())
    return attempted + len(out["regression"]), 0


def check(inputs: dict, prints: "list[dict]", reference: "dict | None") -> "list[str]":
    """Untimed output checks of the rounds' fingerprints; returns failures."""
    from repro.core.regression import (
        collect_hpcc_training,
        train_power_model,
        verify_on_npb,
    )
    from repro.engine import Simulator
    from repro.core.evaluation import evaluate_server

    failures = []
    first = prints[0]
    if any(p != first for p in prints[1:]):
        failures.append("rounds produced different outputs for the same inputs")

    meter = first["meter"]
    if meter["meter_batch_s"] != meter["meter_stream_s"]:
        failures.append("streaming campaign measurements differ from batch")

    for i, seed_value in enumerate(inputs["score_seeds"]):
        for server in inputs["servers"]:
            serial = evaluate_server(server, Simulator(server, seed=seed_value), engine="serial")
            key = f"{server.name}/seed{i}"
            if evaluation_digest(serial) != first["score"][key]:
                failures.append(f"evaluation {key} differs from the serial engine path")

    backend = _BatchEngineBackend()
    for server in inputs["servers"]:
        simulator = Simulator(server, seed=inputs["regression_seed"])
        model = train_power_model(
            collect_hpcc_training(server, simulator, backend=backend), server.name
        )
        batch = {
            "selected": list(model.selected),
            "verify_B": _verification_digest(verify_on_npb(server, model, "B", simulator, backend)),
            "verify_C": _verification_digest(verify_on_npb(server, model, "C", simulator, backend)),
        }
        if batch != first["regression"][server.name]:
            failures.append(f"regression on {server.name} differs between engines")

    if reference is not None and first != reference:
        failures.append("outputs differ from reference.json")
    return failures


def properties(inputs: dict, out: dict) -> dict:
    """Workload properties of one round that claims must cite."""
    props = {}
    for result in out["score"][: len(inputs["servers"])]:
        samples = sum(max(math.ceil(row.duration_s), 1) for row in result.rows)
        props[f"score_trace_samples[{result.server}]"] = samples
    for name, result in out["meter"]["meter_batch_s"].items():
        props[f"meter_trace_samples[{name}]"] = sum(r.times_s.size for r in result.runs)
    for name, (model, vb, vc) in out["regression"].items():
        props[f"regression_observations[{name}]"] = model.n_observations
        props[f"verification_runs[{name}]"] = f"B={len(vb.labels)} C={len(vc.labels)}"
    return props
