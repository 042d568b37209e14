"""Pins of the serve campaign path: shed rule, settle matrix, doctor pins.

Every value here was recorded from the scheduler as it runs, so any
rewrite of how a submission becomes jobs, which jobs a backlog sheds,
or how a campaign and its dedup followers end must leave these bytes,
statuses, counters, journal records and events exactly as they are.

* **Shed.** A campaign dispatched while the backlog is deep runs its
  cached jobs plus ``shed_job_budget`` uncached ones.  The evaluate
  kind pins its result document and its ``(kind, label)`` event
  sequence; the fleet kind pins its status digest, its ``skipped`` ids
  and its report counts (the report carries wall times, so its bytes
  differ between two runs).  Each on a cold cache and on a cache that
  already holds some of the campaign's jobs.
* **Settle matrix.** A primary with one dedup follower that ends done,
  failed, or degraded (a real ENOSPC from
  :func:`repro.doctor.safewrite.inject_disk_full`).
* **Doctor pins.** The cache keys the scheduler looks up are exactly
  :func:`repro.doctor.submission_cache_keys`.
"""

import hashlib
import json

import pytest

from repro.core.states import evaluation_states
from repro.doctor import safewrite, submission_cache_keys
from repro.fleet import (
    FleetRunner,
    ResultCache,
    campaign_to_dict,
    demo_campaign,
    make_job,
    read_events,
)
from repro.fleet.spec import CampaignSpec
from repro.hardware.specs import get_server
from repro.serve import (
    QueuePolicy,
    ServeScheduler,
    StateStore,
    Submission,
    parse_submission,
)

_SERVER = "Xeon-E5462"
_EVAL_SEED = 3
_TERMINAL = ("done", "failed", "degraded")


def _evaluate(tenant="alice", seed=_EVAL_SEED):
    return parse_submission(
        {
            "kind": "evaluate",
            "server": _SERVER,
            "seed": seed,
            "priority": "high",
        },
        tenant,
    )


def _fleet(spec, tenant="alice"):
    return parse_submission(
        {"campaign": campaign_to_dict(spec), "priority": "high"}, tenant
    )


def _filler():
    # A one-job campaign queued behind the shed target: it keeps the
    # backlog deep when the target is dispatched.
    server = get_server(_SERVER)
    spec = CampaignSpec(
        name="filler",
        servers=(server,),
        workloads=(
            {"type": "npb", "program": "ep", "class": "C", "nprocs": 1},
        ),
        seed=99,
    )
    return _fleet(spec, tenant="bob")


def _wait_terminal(scheduler, campaign_id, timeout_s=120.0):
    import time

    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = scheduler.status(campaign_id)
        if status and status["status"] in _TERMINAL:
            return status
        time.sleep(0.02)
    raise AssertionError(f"{campaign_id} never settled")


def _sha(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


def _run_shed(root, target, warm_jobs=()):
    """Dispatch ``target`` behind a deep backlog; returns (scheduler, id).

    The first scheduler journals the target and a filler and drains
    without running them; a second one over the same state directory
    resumes both.  With one slot and a soft threshold of one pending
    campaign, the target is popped with the filler still queued, so it
    sheds; the filler then runs in full.  ``warm_jobs`` go into the
    shared cache first.
    """
    policy = QueuePolicy(max_depth=8, max_pending=2, shed_fraction=0.5)
    if warm_jobs:
        FleetRunner(workers=1, cache=ResultCache(root / "cache")).run_jobs(
            tuple(warm_jobs), name="warm"
        )
    first = ServeScheduler(StateStore(root), policy=policy, slots=1)
    target_id = first.submit(target).campaign.campaign_id
    filler_id = first.submit(_filler()).campaign.campaign_id
    assert first.drain(timeout_s=1) == [target_id, filler_id]
    second = ServeScheduler(
        StateStore(root), policy=policy, slots=1, shed_job_budget=2
    )
    assert second.start() == 2
    try:
        _wait_terminal(second, target_id)
        _wait_terminal(second, filler_id)
    finally:
        second.drain(timeout_s=60)
    return second, target_id


def _event_labels(root, campaign_id):
    return [
        [event["kind"], event.get("label")]
        for event in read_events(root / "events.jsonl")
        if event.get("campaign") == campaign_id
    ]


def _eval_jobs(labels):
    server = get_server(_SERVER)
    return [
        make_job(server, state.workload, _EVAL_SEED, "compact")
        for state in evaluation_states(server)
        if state.label in labels
    ]


class TestShedEvaluatePins:
    @pytest.mark.parametrize(
        "warm, document_sha, events_sha, rows, missing",
        [
            (
                (),
                "dfdbcd4dc0e0e4f5e99a7a6ec64030f7d7dca082f81c007864972decc9e8e0c8",
                "d7b97bd45f21633f20dfbf7357ecabb293fb90526c3e17697f0e342f86991c30",
                ["Idle", "ep.C.1"],
                [
                    "ep.C.2",
                    "ep.C.4",
                    "HPL P1 Mh",
                    "HPL P2 Mh",
                    "HPL P4 Mh",
                    "HPL P1 Mf",
                    "HPL P2 Mf",
                    "HPL P4 Mf",
                ],
            ),
            (
                ("ep.C.4", "HPL P2 Mh"),
                "9d2c556f1dfc7a99e943689716d89a2bfd60f43931d2492978a212351226fc5c",
                "f69da92bf64b06702aa9398452f5bc2881cad4ed253bca7ce880c9eb32158995",
                ["Idle", "ep.C.1", "ep.C.4", "HPL P2 Mh"],
                [
                    "ep.C.2",
                    "HPL P1 Mh",
                    "HPL P4 Mh",
                    "HPL P1 Mf",
                    "HPL P2 Mf",
                    "HPL P4 Mf",
                ],
            ),
        ],
        ids=["cold", "partly-warm"],
    )
    def test_shed_evaluate_document_and_events(
        self, tmp_path, warm, document_sha, events_sha, rows, missing
    ):
        root = tmp_path / "state"
        scheduler, cid = _run_shed(root, _evaluate(), _eval_jobs(warm))
        status = scheduler.status(cid)
        assert status["status"] == "done" and status["partial"] is True
        document = scheduler.result(cid)
        assert [row["label"] for row in document["rows"]] == rows
        assert document["missing"] == missing
        raw = scheduler.state.result_path(cid).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == document_sha
        assert _sha(_event_labels(root, cid)) == events_sha


class TestShedFleetPins:
    @pytest.mark.parametrize(
        "warm, digest, skipped, counts",
        [
            (
                (),
                "313f96872415af05a3f7411e62c7b81ca54e5d3aac20845f1de0a2fad8c81d17",
                [
                    "Xeon-E5462/HPL P4 Mf/s2015/c65e76ee",
                    "Xeon-E5462/HPL P4 Mh/s2015/08035dda",
                    "Xeon-E5462/ep.C.4/s2015/15cdbfd9",
                ],
                {
                    "n_jobs": 2,
                    "n_ok": 2,
                    "n_failed": 0,
                    "n_cache_hits": 0,
                    "n_retries": 0,
                },
            ),
            (
                ("ep.C.4", "HPL P4 Mf"),
                "da4d79a2918548b7f29facf13816ce5e4fecb2c6dc3233181fd8d42963467643",
                ["Xeon-E5462/HPL P4 Mh/s2015/08035dda"],
                {
                    "n_jobs": 4,
                    "n_ok": 4,
                    "n_failed": 0,
                    "n_cache_hits": 2,
                    "n_retries": 0,
                },
            ),
        ],
        ids=["cold", "partly-warm"],
    )
    def test_shed_fleet_digest_skipped_and_counts(
        self, tmp_path, warm, digest, skipped, counts
    ):
        root = tmp_path / "state"
        spec = demo_campaign()
        warm_jobs = [job for job in spec.jobs() if job.label in warm]
        scheduler, cid = _run_shed(root, _fleet(spec), warm_jobs)
        status = scheduler.status(cid)
        assert status["status"] == "done" and status["partial"] is True
        assert status["digest"] == digest
        document = scheduler.result(cid)
        assert document["partial"] is True
        assert document["skipped"] == skipped
        report = document["report"]
        assert {
            key: report[key]
            for key in ("n_jobs", "n_ok", "n_failed", "n_cache_hits", "n_retries")
        } == counts


def _normalise(value, root):
    """Drop timestamps and spell the state directory as ``<state>``."""
    if isinstance(value, dict):
        return {
            key: _normalise(item, root)
            for key, item in value.items()
            if key != "ts" and not key.endswith("_ts")
        }
    if isinstance(value, list):
        return [_normalise(item, root) for item in value]
    if isinstance(value, str):
        return value.replace(str(root), "<state>")
    return value


def _settle(tmp_path, primary, follower, full_disk_ids=()):
    """Run a primary and its dedup follower to a terminal state.

    Both are submitted after :meth:`ServeScheduler.start`, as the daemon
    does, with the scheduler's lock held so the slot cannot pop the
    primary before the follower attaches to it.  A result write for an
    id in ``full_disk_ids`` runs with the disk-full injector armed.
    """
    root = tmp_path / "state"
    scheduler = ServeScheduler(StateStore(root), slots=1)
    save_result = scheduler.state.save_result

    def save_on_full_disk(campaign_id, document):
        if campaign_id not in full_disk_ids:
            return save_result(campaign_id, document)
        safewrite.inject_disk_full(0)
        try:
            return save_result(campaign_id, document)
        finally:
            safewrite.clear_disk_fault()

    scheduler.state.save_result = save_on_full_disk
    scheduler.start()
    try:
        with scheduler._cond:
            head = scheduler.submit(primary).campaign.campaign_id
            tail = scheduler.submit(follower).campaign.campaign_id
        for campaign_id in (head, tail):
            _wait_terminal(scheduler, campaign_id)
    finally:
        scheduler.drain(timeout_s=60)
    statuses = [
        _normalise(scheduler.status(cid), root) for cid in (head, tail)
    ]
    journal = [
        _normalise(json.loads(line), root)
        for line in (root / "journal.jsonl").read_text().splitlines()
    ]
    events = [
        _normalise(event, root)
        for event in read_events(root / "events.jsonl")
        if event["kind"].startswith("serve_")
        or event["kind"] == "storage_degraded"
    ]
    return statuses, scheduler.stats()["counters"], journal, events


def _counters(**changed):
    counters = {
        "submitted": 2,
        "admitted": 1,
        "rejected": 0,
        "deduped_campaigns": 1,
        "deduped_jobs": 0,
        "shed_campaigns": 0,
        "completed": 0,
        "failed": 0,
        "resumed": 0,
        "storage_degraded": 0,
    }
    counters.update(changed)
    return counters


def _small_fleet(tenant):
    server = get_server(_SERVER)
    spec = CampaignSpec(
        name="settle",
        servers=(server,),
        workloads=(
            {"type": "npb", "program": "ep", "class": "C", "nprocs": 2},
        ),
        seed=5,
    )
    return _fleet(spec, tenant=tenant)


class TestSettleMatrix:
    def test_done_primary_and_follower(self, tmp_path):
        statuses, counters, journal, events = _settle(
            tmp_path, _evaluate("alice"), _evaluate("bob")
        )
        assert [s["status"] for s in statuses] == ["done", "done"]
        assert statuses[1]["dedup_of"] == statuses[0]["id"]
        assert counters == _counters(completed=2)
        assert [r["kind"] for r in journal] == [
            "submit",
            "submit",
            "done",
            "done",
            "drain",
        ]
        assert _sha(statuses) == (
            "c92acd43880225b3d7130bdf992ec44d16c2ee5749d2d714ac9c80f64dbf3d3a"
        )
        assert _sha(journal) == (
            "9a059d4897745f53c0e9ba36fb0b7d20e3e6706fa26b14e3038808d7b0dd1f0e"
        )
        assert _sha(events) == (
            "cccd894f31d419aad75d05621e6fd7bf8648b15a70c8c1d392c3b72f83574de7"
        )

    def test_failed_primary_and_follower(self, tmp_path):
        def unknown(tenant):
            return Submission(
                tenant=tenant,
                priority="normal",
                kind="evaluate",
                spec={"server": "PDP-11", "seed": 0},
            )

        statuses, counters, journal, events = _settle(
            tmp_path, unknown("alice"), unknown("bob")
        )
        assert [s["status"] for s in statuses] == ["failed", "failed"]
        assert statuses[0]["error"] == statuses[1]["error"]
        assert "PDP-11" in statuses[0]["error"]
        assert counters == _counters(failed=2)
        assert _sha(statuses) == (
            "ff0d6c0a05684824803d02511c2b2422e45f43e31f4f4ec7d825939787f64f0e"
        )
        assert _sha(journal) == (
            "74b4ca663c055b81c7e2c4dde849d30e10a4867ca9bbd625314badfc855492bb"
        )
        assert _sha(events) == (
            "71c9ddb421ff8f6a6ef45c3e134f62043e803912e5e4c9ee320ea98f06576c5f"
        )

    def test_degraded_primary_degrades_its_follower(self, tmp_path):
        statuses, counters, journal, events = _settle(
            tmp_path,
            _small_fleet("alice"),
            _small_fleet("bob"),
            full_disk_ids=("c-000001",),
        )
        assert [s["status"] for s in statuses] == ["degraded", "degraded"]
        assert all("storage_degraded" in s["error"] for s in statuses)
        assert counters == _counters(storage_degraded=2)
        # No done record: both stay pending for the next boot.
        assert [r["kind"] for r in journal] == ["submit", "submit", "drain"]
        assert _sha(statuses) == (
            "f21597727a6096cc66f371edbc06c66367de0c8940c01918a58581bd6ebeb555"
        )
        assert _sha(journal) == (
            "713ed155b7dc9cc872a82980834a26352349a2d648ac93d33edb55e7a8b25c60"
        )
        assert _sha(events) == (
            "113a864ade81f1fd9d0c9a21a20fa3ebbff324a9cfe361e8431eaebeca91d9f1"
        )

    def test_follower_degrades_after_its_primary_is_done(self, tmp_path):
        # An evaluate primary: a fleet document carries wall times, so
        # its journaled document digest changes from run to run.
        statuses, counters, journal, events = _settle(
            tmp_path,
            _evaluate("alice"),
            _evaluate("bob"),
            full_disk_ids=("c-000002",),
        )
        assert [s["status"] for s in statuses] == ["done", "degraded"]
        assert counters == _counters(completed=1, storage_degraded=1)
        assert [r["kind"] for r in journal] == [
            "submit",
            "submit",
            "done",
            "drain",
        ]
        assert _sha(statuses) == (
            "419b24b10a2bff89621749fb802aa3560ce6e38ea54821a02327598835c7c802"
        )
        assert _sha(journal) == (
            "3acc47b1f9082ba27e96d9f5192a5137ed7d05ae681454eec0b9493e6ac6baf4"
        )
        assert _sha(events) == (
            "f00a5ff1fc26ddef56b534c791602b25714c47a09ad18c570d36106cc5fbf942"
        )


class TestDoctorPinsMatchTheScheduler:
    def test_cache_lookups_equal_submission_cache_keys(
        self, tmp_path, monkeypatch
    ):
        looked_up: "list[str]" = []
        get = ResultCache.get

        def spy(self, key):
            looked_up.append(key)
            return get(self, key)

        monkeypatch.setattr(ResultCache, "get", spy)
        scheduler = ServeScheduler(StateStore(tmp_path / "state"), slots=1)
        scheduler.start()
        try:
            for submission in (_evaluate(), _fleet(demo_campaign())):
                looked_up.clear()
                cid = scheduler.submit(submission).campaign.campaign_id
                assert _wait_terminal(scheduler, cid)["status"] == "done"
                assert set(looked_up) == submission_cache_keys(
                    submission.kind, submission.spec
                )
        finally:
            scheduler.drain(timeout_s=60)
