"""fleet-campaign: the paper's run lists sent through ``FleetRunner``.

The valid run lists are, for every builtin server, one campaign spec
holding the ten-state matrix plus the server's class-B NPB verification
sweep: 184 jobs per campaign seed.  Rounds alternate between two campaign
seeds, so a run covers several seeds while every round does the same
work.  Each round runs four passes, in this order:

* ``cold_campaign_s`` -- every spec with the defaults of ``fleet run``
  (auto workers, a result cache in an empty directory, an event log);
* ``warm_campaign_s`` -- the same specs again on the now full cache;
* ``mixed_campaign_s`` -- an inline (``workers=1``) pass over a
  hand-written NPB cross-product in which some process counts are
  invalid, with its own empty cache and the event log;
* ``serial_campaign_s`` -- the valid specs inline with no cache and no
  event log (``fleet run --serial --cache-dir '' --events ''``), the
  base the pool and the cache are measured against.

Pool dispatch and cache writes dominate the cold pass, cache reads the
warm pass and the retry path the mixed pass.  The pooled failure path is
not timed: which jobs an unpicklable worker error takes down varies from
run to run, so a traced run reports it once instead.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path

import layers

NAME = "fleet-campaign"
#: (result slot, phase name, scaled to reference speed).  The mixed pass
#: is mostly the retry policy's fixed backoff sleeps, which machine speed
#: does not change, so it is reported as measured.
PHASES = (
    ("phase1_s", "cold_campaign_s", True),
    ("phase2_s", "warm_campaign_s", True),
    ("phase3_s", "mixed_campaign_s", False),
    ("phase4_s", "serial_campaign_s", True),
)
CAMPAIGN_SEEDS = 2
MIXED_SERVERS = ("Xeon-E5462", "Opteron-8347")
#: The cross-product's process counts each program accepts, written out
#: by hand (NPB: EP any count, CG and MG powers of two, BT squares).
MIXED_VALID = {"ep": (1, 2, 3, 4), "cg": (1, 2, 4), "bt": (1, 4)}
MIXED_COUNTS = (1, 2, 3, 4)
LAYERS = ("fleet.cache", "fleet.runner", "fleet.worker", "fleet.events", "engine")


def prepare(seed: int) -> dict:
    """Import the fleet, expand the campaigns from ``seed``, calibrate."""
    from repro.core.regression import verification_runs
    from repro.engine import Simulator
    from repro.fleet import CampaignSpec, workload_to_dict
    from repro.hardware import BUILTIN_SERVERS, get_server
    from repro.workloads import NpbWorkload

    rng = random.Random(seed)
    servers = list(BUILTIN_SERVERS.values())
    sweeps = {s.name: tuple(workload_to_dict(w) for w in verification_runs(s, "B")) for s in servers}
    seed_sets = [
        [
            CampaignSpec(
                name=f"bench-{server.name}-s{i}",
                servers=(server,),
                workloads=sweeps[server.name],
                evaluation_matrix=True,
                seed=campaign_seed,
            )
            for server in servers
        ]
        for i, campaign_seed in enumerate(rng.randrange(2**31) for _ in range(CAMPAIGN_SEEDS))
    ]
    mixed = CampaignSpec(
        name="bench-mixed",
        servers=tuple(get_server(name) for name in MIXED_SERVERS),
        workloads=tuple(
            workload_to_dict(NpbWorkload(program, "B", n))
            for program in MIXED_VALID
            for n in MIXED_COUNTS
        ),
        seed=rng.randrange(2**31),
    )
    mixed_jobs = mixed.jobs()
    invalid = {
        job.job_id
        for job in mixed_jobs
        if job.workload["nprocs"] not in MIXED_VALID[job.workload["program"]]
    }
    for server in servers:
        Simulator(server)  # the lazy per-server calibration
    return {
        "seed_sets": seed_sets,
        "jobs": {spec.name: spec.jobs() for specs in seed_sets for spec in specs},
        "mixed": mixed,
        "mixed_jobs": mixed_jobs,
        "invalid": invalid,
    }


def _entries(cache_dir: Path) -> int:
    return sum(1 for _ in cache_dir.glob("*/*.json")) if cache_dir.exists() else 0


def _reduce(outcome) -> dict:
    """What the checks need from one outcome; the results themselves go.

    Called between timed campaigns, so the process holds one outcome at a
    time, as one ``fleet run`` does.
    """
    return {
        "campaign": outcome.campaign,
        "digest": outcome.results_digest(),
        "jobs": len(outcome.records),
        "hits": outcome.cache_hits,
        "failed": sorted(f.job_id for f in outcome.failures),
        "samples": sum(r.result.times_s.size for r in outcome.records if r.result is not None),
    }


def _timed(runner, specs) -> "tuple[float, list[dict]]":
    elapsed, reduced = 0.0, []
    for spec in specs:
        t0 = time.perf_counter()
        outcome = runner.run(spec)
        elapsed += time.perf_counter() - t0
        with layers.paused():
            reduced.append(_reduce(outcome))
    return elapsed, reduced


def run_round(inputs: dict, workdir: Path, index: int) -> "tuple[dict, dict]":
    """One pass of the four phases; returns (phase seconds, outputs)."""
    from repro.fleet import EventLog, FleetRunner, ResultCache

    specs = inputs["seed_sets"][index % CAMPAIGN_SEEDS]
    times: dict = {}
    out: dict = {"entries": {}, "seed_set": index % CAMPAIGN_SEEDS}
    cache_dir = workdir / "cache"
    mixed_cache = workdir / "mixed-cache"
    events = EventLog(workdir / "events.jsonl")
    try:
        for phase in ("cold_campaign_s", "warm_campaign_s"):
            out["entries"][f"{phase}:before"] = _entries(cache_dir)
            runner = FleetRunner(cache=ResultCache(cache_dir), events=events)
            times[phase], out[phase] = _timed(runner, specs)
            out["entries"][f"{phase}:after"] = _entries(cache_dir)
        out["entries"]["mixed_campaign_s:before"] = _entries(mixed_cache)
        runner = FleetRunner(workers=1, cache=ResultCache(mixed_cache), events=events)
        times["mixed_campaign_s"], (out["mixed_campaign_s"],) = _timed(runner, [inputs["mixed"]])
        out["entries"]["mixed_campaign_s:after"] = _entries(mixed_cache)
    finally:
        events.close()
    times["serial_campaign_s"], out["serial_campaign_s"] = _timed(FleetRunner(workers=1), specs)
    shutil.rmtree(workdir, ignore_errors=True)
    return times, out


def fingerprint(inputs: dict, out: dict) -> dict:
    """The outputs of one round, reduced to comparable digests."""
    del inputs
    prints = {
        phase: [o["digest"] for o in out[phase]]
        for phase in ("cold_campaign_s", "warm_campaign_s", "serial_campaign_s")
    }
    prints["seed_set"] = out["seed_set"]
    prints["warm_hits"] = {o["campaign"]: o["hits"] for o in out["warm_campaign_s"]}
    prints["mixed"] = out["mixed_campaign_s"]["digest"]
    prints["mixed_failed"] = out["mixed_campaign_s"]["failed"]
    return prints


def check(inputs: dict, prints: "list[dict]", reference) -> "list[str]":
    """Untimed output checks of the rounds' fingerprints; returns failures.

    Nothing is pinned: the inline serial pass is the reference.
    """
    del reference
    failures = []
    firsts = {}
    for p in prints:
        if firsts.setdefault(p["seed_set"], p) != p:
            failures.append("rounds produced different outputs for the same inputs")
    for first in firsts.values():
        if first["cold_campaign_s"] != first["serial_campaign_s"]:
            failures.append("cold pooled digests differ from the inline reference")
        if first["warm_campaign_s"] != first["serial_campaign_s"]:
            failures.append("warm digests differ from the inline reference")
        if any(hits != len(inputs["jobs"][name]) for name, hits in first["warm_hits"].items()):
            failures.append("the warm pass missed the cache")
        if set(first["mixed_failed"]) != inputs["invalid"]:
            failures.append(
                f"mixed pass failed {len(first['mixed_failed'])} jobs, "
                f"expected exactly the {len(inputs['invalid'])} invalid ones"
            )
    return sorted(set(failures))


def accounting(inputs: dict, out: dict) -> "tuple[int, int]":
    """(jobs attempted, jobs whose outcome was wrong) in one round.

    The mixed pass's invalid jobs are expected to fail: a rejection is
    their correct outcome, so only a valid job that failed, or an invalid
    one that ran, counts as failed.
    """
    attempted = failed = 0
    for phase in ("cold_campaign_s", "warm_campaign_s", "serial_campaign_s"):
        for outcome in out[phase]:
            attempted += outcome["jobs"]
            failed += len(outcome["failed"])
    mixed = out["mixed_campaign_s"]
    attempted += mixed["jobs"]
    failed += len(set(mixed["failed"]) ^ inputs["invalid"])
    return attempted, failed


def properties(inputs: dict, out: dict) -> dict:
    props = {}
    for outcome in out["serial_campaign_s"]:
        props[f"trace_samples[{outcome['campaign']}]"] = outcome["samples"]
    props["valid_jobs_per_round"] = sum(o["jobs"] for o in out["serial_campaign_s"])
    props["cache_entries"] = " ".join(f"{k}={v}" for k, v in out["entries"].items())
    props["mixed_jobs"] = len(inputs["mixed_jobs"])
    props["mixed_invalid_share"] = round(len(inputs["invalid"]) / len(inputs["mixed_jobs"]), 4)
    return props


def traced_extras(inputs: dict, workdir: Path, recorder) -> dict:
    """Once per traced run: the pooled failure path and inline vs. pool.

    The mixed cross-product runs at the default worker count; its failed
    job count and pool replacements vary between identical runs, so they
    are reported here and gate nothing.  The valid specs then run with no
    cache inline and pooled, untraced, for the inline-over-pool ratio.
    """
    from repro.fleet import EventLog, FleetRunner, ResultCache

    recorder.tag = "pool-mixed"
    recorder.active = True
    events = EventLog(workdir / "pool-mixed-events.jsonl")
    try:
        outcome = FleetRunner(cache=ResultCache(workdir / "pool-mixed-cache"), events=events).run(
            inputs["mixed"]
        )
    finally:
        events.close()
        recorder.active = False
    walls = {}
    for label, workers in (("fleet.inline_s", 1), ("fleet.pool_s", None)):
        t0 = time.perf_counter()
        for spec in inputs["seed_sets"][0]:
            FleetRunner(workers=workers).run(spec)
        walls[label] = time.perf_counter() - t0
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "fleet.pool_mixed_failed": float(len(outcome.failures)),
        **walls,
        "fleet.inline_over_pool": walls["fleet.inline_s"] / walls["fleet.pool_s"],
    }
