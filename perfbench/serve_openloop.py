"""serve-openloop: ``python -m repro serve`` fed on an open loop.

The daemon runs in its own process, with its defaults (two slots, one
fleet worker per slot), as users run it.  The load generator is this
process: one thread, one connection at a time, sending submission ``i``
at ``start + i / RATE_PER_S`` whether or not earlier ones have finished.
Each request is timed from its due time to the daemon's ``finished_ts``,
so a stall in the daemon or the generator counts against every request
it delays.  A refused, failed or partial request counts as infinitely
late.

Submissions are ``evaluate`` and one-workload ``fleet`` requests on the
two smaller builtin servers, spread over six tenants and three
priorities.  Every third submission repeats earlier content: half of
those repeat the latest content of their kind (often still in flight, so
the daemon follows it: campaign-level dedup), half an older one (served
from the shared cache: job-level dedup).

The rate sits below the knee: at 4.5 submissions/s the median queue wait
is a small fraction of the service time.  The daemon's two slots share
one interpreter lock, so the mix is weighted to keep that lock less than
half busy.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import BENCH_DIR, child_env, digest, percentile

NAME = "serve-openloop"
PHASES = (
    ("phase1_s", "latency_p50_s", True),
    ("phase2_s", "latency_p90_s", True),
    ("phase3_s", "fresh_latency_p50_s", True),
    ("phase4_s", "repeat_latency_p50_s", True),
)
RATE_PER_S = 4.5
SERVERS = ("Xeon-E5462", "Opteron-8347")
#: Request kinds in their fixed order; per ten: five Xeon-E5462
#: evaluations (~70 ms), three fleet requests (~15 ms), two Opteron-8347
#: evaluations (~250 ms).  The median then falls among the Xeon-E5462
#: evaluations and p90 among the Opteron-8347 ones, inside a mode rather
#: than on the edge between two.
CYCLE = ("E", "F", "E", "O", "E", "F", "E", "F", "O", "E")
KINDS = {"E": "evaluate:" + SERVERS[0], "O": "evaluate:" + SERVERS[1], "F": "fleet"}
TENANTS = ("astro", "bio", "chem", "climate", "fusion", "materials")
PRIORITY_CYCLE = ("normal", "high", "normal", "low", "normal", "normal")
#: One-workload fleet requests: (program, class, process count), each
#: valid on both servers.
FLEET_WORKLOADS = (("ep", "A", 1), ("ep", "A", 2), ("cg", "A", 2), ("mg", "A", 4), ("bt", "A", 4), ("lu", "A", 1))
#: Jobs behind each kind of request (the ten-state matrix, one workload).
JOBS = {"evaluate": 10, "fleet": 1}
LAYERS = ("serve", "serve.journal", "core", "engine", "metering", "fleet.cache", "fleet.runner", "fleet.events", "io")
DAEMON_START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 90.0


def prepare(seed: int, count: int) -> "list[dict]":
    """The submission schedule: ``count`` requests derived from ``seed``.

    The mix and its order are fixed by :data:`CYCLE`, for fresh and
    repeated requests alike; the seed draws the contents.  Requests then
    overlap the same way, and latency percentiles fall at the same place
    in the mix, on every seed.
    """
    from repro.fleet import CampaignSpec, campaign_to_dict, workload_to_dict
    from repro.hardware import get_server
    from repro.workloads import NpbWorkload

    rng = random.Random(seed)
    fresh_order = [KINDS[CYCLE[i % len(CYCLE)]] for i in range(count - count // 3)]

    def content(category: str, i: int) -> dict:
        program_seed = rng.randrange(2**31)
        if category != "fleet":
            return {"kind": "evaluate", "server": category.split(":")[1], "seed": program_seed}
        program, klass, nprocs = FLEET_WORKLOADS[rng.randrange(len(FLEET_WORKLOADS))]
        spec = CampaignSpec(
            name=f"openloop-{i:04d}",
            servers=(get_server(SERVERS[i % 2]),),
            workloads=(workload_to_dict(NpbWorkload(program, klass, nprocs)),),
            seed=program_seed,
        )
        return {"kind": "fleet", "campaign": campaign_to_dict(spec)}

    seen: "dict[str, list[dict]]" = {c: [] for c in KINDS.values()}
    schedule = []
    for i in range(count):
        if i % 3 == 2:
            # Repeats follow the same cycle; every other one takes the
            # latest content of its kind (often still in flight), the rest
            # an older one (long done, so served from the cache).
            k = i // 3
            pool = seen[KINDS[CYCLE[k % len(CYCLE)]]] or seen[schedule[-1]["category"]]
            item = pool[-1] if k % 2 == 0 else pool[rng.randrange(len(pool))]
            category, body, repeat = item["category"], item["content"], True
        else:
            category = fresh_order.pop(0)
            body, repeat = content(category, i), False
        entry = {
            "category": category,
            "content": body,
            "repeat": repeat,
            "tenant": TENANTS[i % len(TENANTS)],
            "priority": PRIORITY_CYCLE[i % len(PRIORITY_CYCLE)],
        }
        seen[category].append(entry)
        schedule.append(entry)
    return schedule


class Daemon:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, scratch: Path, label: str, span_dir: "Path | None" = None):
        self.dir = scratch / label
        self.dir.mkdir(parents=True)
        port_file = self.dir / "port"
        serve_args = [
            "serve", "--port", "0",
            "--state-dir", str(self.dir / "state"),
            "--port-file", str(port_file),
        ]
        if span_dir is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "serve_entry.py"), str(span_dir), *serve_args]
        t0 = time.perf_counter()
        with open(self.dir / "stderr.log", "w") as stderr:
            self.proc = subprocess.Popen(
                argv, cwd=self.dir, env=child_env(), stdout=subprocess.DEVNULL, stderr=stderr
            )
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        self.host = self.port = None
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited with {self.proc.returncode}")
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("serve daemon did not answer /v1/health")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text and self.host is None:
                host, _, port = text.rpartition(":")
                self.host, self.port = host, int(port)
            if self.host is not None:
                try:
                    if self.request("GET", "/v1/health")[0] == 200:
                        break
                except OSError:
                    pass
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - t0

    def request(self, method: str, path: str, body: "dict | None" = None, headers=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """SIGTERM (graceful drain) and wait; kill if it will not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def time_daemon_setups(scratch: Path, count: int) -> "list[float]":
    samples = []
    for i in range(count):
        daemon = Daemon(scratch, f"probe-{i}")
        try:
            samples.append(daemon.setup_s)
        finally:
            daemon.stop()
    return samples


def open_loop(daemon: Daemon, schedule: "list[dict]") -> dict:
    """Send every submission at its due time, then wait for all to end."""
    start = time.time() + 0.2
    sent = []
    for i, item in enumerate(schedule):
        due = start + i / RATE_PER_S
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        late = time.time() - due
        body = dict(item["content"], priority=item["priority"])
        status, raw = daemon.request(
            "POST", "/v1/campaigns", body, {"X-Repro-Tenant": item["tenant"]}
        )
        acked = time.time()
        doc = json.loads(raw) if raw else {}
        sent.append({"due": due, "late": late, "status": status, "ack_s": acked - due, "id": doc.get("id")})
    end_of_sends = time.time()
    docs: dict = {}
    pending = [s["id"] for s in sent if s["status"] == 202]
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while pending and time.monotonic() < deadline:
        still = []
        for campaign_id in pending:
            doc = daemon.get_json(f"/v1/campaigns/{campaign_id}")
            if doc["status"] in ("queued", "running"):
                still.append(campaign_id)
            else:
                docs[campaign_id] = doc
        pending = still
        if pending:
            time.sleep(0.05)
    return {"sent": sent, "docs": docs, "horizon": time.time(), "send_s": end_of_sends - start}


def latencies(loop: dict, schedule: "list[dict]") -> "list[tuple[float, dict, dict]]":
    """(latency, schedule item, status doc) per submission; missed = inf."""
    out = []
    for item, sent in zip(schedule, loop["sent"]):
        doc = loop["docs"].get(sent["id"]) if sent["status"] == 202 else None
        ok = doc is not None and doc["status"] == "done" and not doc.get("partial")
        value = doc["finished_ts"] - sent["due"] if ok else float("inf")
        out.append((value, item, doc or {}))
    return out


def finite(value: float, loop: dict, schedule_start: float) -> float:
    """A percentile that landed on a missed request reads as the horizon."""
    return value if value != float("inf") else loop["horizon"] - schedule_start


def phase_values(loop: dict, schedule: "list[dict]") -> "tuple[dict, dict]":
    lat = latencies(loop, schedule)
    start = loop["sent"][0]["due"]
    every = [v for v, _, _ in lat]
    fresh = [v for v, item, _ in lat if not item["repeat"]]
    repeat = [v for v, item, _ in lat if item["repeat"]]
    values = {
        "latency_p50_s": finite(percentile(every, 0.5), loop, start),
        "latency_p90_s": finite(percentile(every, 0.9), loop, start),
        "fresh_latency_p50_s": finite(percentile(fresh, 0.5), loop, start),
        "repeat_latency_p50_s": finite(percentile(repeat, 0.5), loop, start),
    }
    samples = {
        "latency_p50_s": len(every),
        "latency_p90_s": len(every),
        "fresh_latency_p50_s": len(fresh),
        "repeat_latency_p50_s": len(repeat),
    }
    return values, samples


def accounting(loop: dict, schedule: "list[dict]") -> "tuple[int, int, int]":
    """(attempted, failed, refused): refused and partial requests fail."""
    lat = latencies(loop, schedule)
    refused = sum(1 for s in loop["sent"] if s["status"] in (429, 503))
    failed = sum(1 for v, _, _ in lat if v == float("inf"))
    return len(schedule), failed, refused


def check(daemon: Daemon, loop: dict, schedule: "list[dict]") -> "list[str]":
    """Digests against the library, followers against their leaders."""
    from repro.core.evaluation import evaluate_server
    from repro.engine import Simulator
    from repro.fleet import FleetRunner, campaign_from_dict
    from repro.hardware import get_server
    from repro.io import evaluation_to_dict

    failures = []
    reference: dict = {}
    raw: dict = {}
    for item, sent in zip(schedule, loop["sent"]):
        doc = loop["docs"].get(sent["id"])
        if doc is None or doc["status"] != "done":
            continue
        status, body = daemon.request("GET", f"/v1/campaigns/{sent['id']}/result")
        if status != 200:
            failures.append(f"{sent['id']}: result fetch answered {status}")
            continue
        raw[sent["id"]] = body
        content = item["content"]
        key = json.dumps(content, sort_keys=True)
        if key not in reference:
            if content["kind"] == "evaluate":
                server = get_server(content["server"])
                result = evaluate_server(server, Simulator(server, seed=content["seed"]))
                reference[key] = digest(evaluation_to_dict(result))
            else:
                outcome = FleetRunner(workers=1).run(campaign_from_dict(content["campaign"]))
                reference[key] = outcome.results_digest()
        if doc.get("digest") != reference[key]:
            failures.append(f"{sent['id']}: digest differs from the library's result")
        if content["kind"] == "evaluate" and digest(json.loads(body)) != doc.get("digest"):
            failures.append(f"{sent['id']}: result document does not match its digest")
    for sent in loop["sent"]:
        doc = loop["docs"].get(sent["id"]) or {}
        leader = doc.get("dedup_of")
        if leader and sent["id"] in raw and raw.get(leader) != raw[sent["id"]]:
            failures.append(f"{sent['id']}: follower result differs from leader {leader}")
    return failures


def _executed(loop: dict) -> "list[dict]":
    """Status documents of the campaigns a slot ran (followers never run)."""
    return [d for d in loop["docs"].values() if d.get("started_ts") and not d.get("dedup_of")]


def exec_p50_s(loop: dict) -> float:
    execs = [d["finished_ts"] - d["started_ts"] for d in _executed(loop)]
    return percentile(execs, 0.5) if execs else 0.0


def exec_total_s(loop: dict) -> float:
    return sum(d["finished_ts"] - d["started_ts"] for d in _executed(loop))


def layer_values(loop: dict, schedule: "list[dict]", stats: dict) -> dict:
    """Serve-layer metrics read from the daemon's own documents."""
    waits = [d["started_ts"] - d["created_ts"] for d in _executed(loop)]
    counters = stats["counters"]
    requested = followed = 0
    for item, sent in zip(schedule, loop["sent"]):
        doc = loop["docs"].get(sent["id"])
        if doc is None or doc["status"] != "done":
            continue
        jobs = JOBS[item["content"]["kind"]]
        requested += jobs
        if doc.get("dedup_of"):
            followed += jobs
    _, _, refused = accounting(loop, schedule)
    return {
        "serve.queue_wait_p50_s": percentile(waits, 0.5) if waits else 0.0,
        "serve.queue_wait_p90_s": percentile(waits, 0.9) if waits else 0.0,
        "serve.exec_p50_s": exec_p50_s(loop),
        "serve.dedup_ratio": (counters["deduped_jobs"] + followed) / requested if requested else 0.0,
        "serve.generator_late_max_s": max(s["late"] for s in loop["sent"]),
        "serve.rejected_share": refused / len(schedule),
    }


def properties(loop: dict, schedule: "list[dict]", stats: dict) -> dict:
    lat = latencies(loop, schedule)
    counters = stats["counters"]
    return {
        "submissions": len(schedule),
        "rate_per_s": RATE_PER_S,
        "repeat_share": round(sum(1 for i in schedule if i["repeat"]) / len(schedule), 4),
        "evaluate_share": round(
            sum(1 for i in schedule if i["content"]["kind"] == "evaluate") / len(schedule), 4
        ),
        "followers": counters["deduped_campaigns"],
        "deduped_jobs": counters["deduped_jobs"],
        "max_pending_seen": stats["max_pending_seen"],
        "generator_late_max_s": round(max(s["late"] for s in loop["sent"]), 4),
        "ack_p50_s": round(percentile([s["ack_s"] for s in loop["sent"]], 0.5), 5),
        "missed": sum(1 for v, _, _ in lat if v == float("inf")),
    }

