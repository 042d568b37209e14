"""ServeScheduler: execution, dedup, shedding, drain + resume."""

import json
import time

import pytest

from repro import io as repro_io
from repro.core.evaluation import evaluate_server
from repro.engine.simulator import Simulator
from repro.fleet import campaign_to_dict, demo_campaign, read_events
from repro.hardware.specs import get_server
from repro.serve import (
    QueuePolicy,
    ServeScheduler,
    StateStore,
    Submission,
    parse_submission,
)


def _evaluate_submission(server="Xeon-E5462", tenant="alice", **extra):
    return parse_submission(
        {"kind": "evaluate", "server": server, **extra}, tenant
    )


def _wait_done(scheduler, campaign_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status = scheduler.status(campaign_id)
        if status and status["status"] in ("done", "failed"):
            return status
        time.sleep(0.05)
    raise AssertionError(f"{campaign_id} never finished")


@pytest.fixture()
def scheduler(tmp_path):
    sched = ServeScheduler(StateStore(tmp_path / "state"), slots=2)
    sched.start()
    yield sched
    if not sched.draining:
        sched.drain(timeout_s=30)


class TestExecution:
    def test_evaluate_result_matches_direct_evaluation(
        self, scheduler, tmp_path
    ):
        outcome = scheduler.submit(_evaluate_submission(seed=0))
        assert outcome.accepted
        status = _wait_done(scheduler, outcome.campaign.campaign_id)
        assert status["status"] == "done"
        document = scheduler.result(outcome.campaign.campaign_id)
        server = get_server("Xeon-E5462")
        expected = repro_io.evaluation_to_dict(
            evaluate_server(server, Simulator(server, seed=0))
        )
        assert document == expected

    def test_fleet_campaign_executes_with_digest(self, scheduler):
        submission = parse_submission(
            {"campaign": campaign_to_dict(demo_campaign())}, "alice"
        )
        outcome = scheduler.submit(submission)
        status = _wait_done(scheduler, outcome.campaign.campaign_id)
        assert status["status"] == "done"
        document = scheduler.result(outcome.campaign.campaign_id)
        assert document["kind"] == "fleet-outcome"
        assert document["digest"] == status["digest"]
        assert document["report"]["n_failed"] == 0

    def test_invalid_spec_fails_the_campaign_not_the_slot(
        self, scheduler
    ):
        # Construct directly (bypassing eager parse validation) to
        # exercise the slot's failure path.
        bad = Submission(
            tenant="alice",
            priority="normal",
            kind="evaluate",
            spec={"server": "PDP-11", "seed": 0},
        )
        outcome = scheduler.submit(bad)
        status = _wait_done(scheduler, outcome.campaign.campaign_id)
        assert status["status"] == "failed"
        assert "PDP-11" in status["error"]
        # The slot survives: new work still executes.
        ok = scheduler.submit(_evaluate_submission())
        assert _wait_done(scheduler, ok.campaign.campaign_id)[
            "status"
        ] == "done"


class TestDedup:
    def test_inflight_identical_submissions_share_one_execution(
        self, scheduler
    ):
        first = scheduler.submit(_evaluate_submission(tenant="alice"))
        second = scheduler.submit(_evaluate_submission(tenant="bob"))
        assert second.campaign.dedup_of == first.campaign.campaign_id
        status_a = _wait_done(scheduler, first.campaign.campaign_id)
        status_b = _wait_done(scheduler, second.campaign.campaign_id)
        assert status_a["digest"] == status_b["digest"]
        # Byte-identical result documents for both tenants.
        path_a = scheduler.state.result_path(first.campaign.campaign_id)
        path_b = scheduler.state.result_path(second.campaign.campaign_id)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert scheduler.stats()["counters"]["deduped_campaigns"] == 1

    def test_sequential_identical_submissions_dedup_via_cache(
        self, scheduler
    ):
        first = scheduler.submit(_evaluate_submission())
        _wait_done(scheduler, first.campaign.campaign_id)
        second = scheduler.submit(_evaluate_submission(tenant="bob"))
        status = _wait_done(scheduler, second.campaign.campaign_id)
        # Not campaign-deduped (the primary already finished)...
        assert second.campaign.dedup_of is None
        # ...but every job came from the shared content-addressed
        # cache, and the result is bit-identical.
        assert scheduler.stats()["counters"]["deduped_jobs"] >= 10
        assert status["digest"] == scheduler.status(
            first.campaign.campaign_id
        )["digest"]


class TestOverload:
    def test_shed_lookup_never_sizes_the_cache(self, tmp_path, monkeypatch):
        # Sizing the cache globs its whole directory; the shed rule's
        # per-job lookup must only ever ask for its own key.
        from repro.fleet import FleetRunner, ResultCache
        from repro.serve.protocol import submission_jobs

        scheduler = ServeScheduler(
            StateStore(tmp_path / "state"), slots=1, shed_job_budget=1
        )
        submission = _evaluate_submission()
        jobs = submission_jobs(submission.kind, submission.spec)
        cold = FleetRunner(workers=1, cache=scheduler.cache).run_jobs(jobs)

        def no_len(self):
            raise AssertionError("ResultCache.__len__ called")

        monkeypatch.setattr(ResultCache, "__len__", no_len)
        try:
            # Every job is cached, so none is shed despite the budget.
            kept, skipped = scheduler._shed(jobs)
            assert kept == jobs and not skipped
            warm = FleetRunner(workers=1, cache=scheduler.cache).run_jobs(kept)
        finally:
            scheduler.drain(timeout_s=1)
        assert warm.cache_hits == len(jobs)
        assert [r.result.measured_watts.tolist() for r in warm.records] == [
            r.result.measured_watts.tolist() for r in cold.records
        ]

    def test_backlog_sheds_to_partial_evaluation(self, tmp_path):
        # One slot and a tiny backlog bound: drown it so dispatch
        # crosses the shed threshold and degrades to partial.
        scheduler = ServeScheduler(
            StateStore(tmp_path / "state"),
            policy=QueuePolicy(max_depth=8, max_pending=8),
            slots=1,
            shed_job_budget=1,
        )
        try:
            # Six distinct contents (seeds) so campaign-level dedup
            # cannot collapse the backlog before it crosses the shed
            # threshold (8 * 0.5 = 4 pending).
            submissions = [
                _evaluate_submission(
                    tenant="a", priority="high", seed=seed
                )
                for seed in range(6)
            ]
            accepted = []
            for submission in submissions:
                outcome = scheduler.submit(submission)
                if outcome.accepted:
                    accepted.append(outcome.campaign.campaign_id)
            scheduler.start()
            statuses = [_wait_done(scheduler, cid) for cid in accepted]
            assert all(s["status"] == "done" for s in statuses)
            partials = [s for s in statuses if s["partial"]]
            assert partials, "deep backlog never degraded to partial"
            # Partial evaluate results record what is missing.
            document = scheduler.result(partials[0]["id"])
            assert document["missing"]
            assert 0 < document["coverage"] < 1
        finally:
            scheduler.drain(timeout_s=30)

    def test_rejection_carries_retry_after(self, tmp_path):
        scheduler = ServeScheduler(
            StateStore(tmp_path / "state"),
            policy=QueuePolicy(max_depth=2, max_pending=8),
            slots=1,
        )
        # Slots not started: the queue cannot drain.
        servers = ("Xeon-E5462", "Opteron-8347", "Xeon-4870")
        outcomes = [
            scheduler.submit(
                _evaluate_submission(server=s, priority="high")
            )
            for s in servers
        ]
        assert [o.accepted for o in outcomes] == [True, True, False]
        assert outcomes[2].reason == "tenant_queue_full"
        assert outcomes[2].retry_after_s >= 1
        scheduler.drain(timeout_s=1)


class TestDurability:
    def test_drain_journals_pending_and_restart_resumes(self, tmp_path):
        state_root = tmp_path / "state"
        first = ServeScheduler(StateStore(state_root), slots=1)
        submissions = [
            _evaluate_submission(server=s, tenant=t)
            for s, t in (
                ("Xeon-E5462", "alice"),
                ("Opteron-8347", "bob"),
            )
        ]
        ids = [first.submit(s).campaign.campaign_id for s in submissions]
        # Never started: drain leaves everything journaled.
        pending = first.drain(timeout_s=1)
        assert pending == ids
        drain_records = [
            json.loads(line)
            for line in (state_root / "journal.jsonl")
            .read_text()
            .splitlines()
            if '"drain"' in line
        ]
        assert drain_records[-1]["pending"] == ids

        second = ServeScheduler(StateStore(state_root), slots=2)
        assert second.start() == len(ids)
        try:
            for campaign_id in ids:
                assert (
                    _wait_done(second, campaign_id)["status"] == "done"
                )
            # Resumed ids continue the same sequence: a new submission
            # does not collide with journaled ones.
            fresh = second.submit(
                _evaluate_submission(server="Xeon-4870")
            )
            assert fresh.campaign.campaign_id not in ids
        finally:
            second.drain(timeout_s=30)

    def test_resumed_result_is_bit_identical_to_uninterrupted(
        self, tmp_path
    ):
        submission = _evaluate_submission(seed=7)
        # Uninterrupted reference run.
        ref = ServeScheduler(StateStore(tmp_path / "ref"), slots=1)
        ref.start()
        ref_id = ref.submit(submission).campaign.campaign_id
        _wait_done(ref, ref_id)
        ref_bytes = ref.state.result_path(ref_id).read_bytes()
        ref.drain(timeout_s=30)

        # Interrupted: journal, drain before execution, restart.
        state_root = tmp_path / "state"
        first = ServeScheduler(StateStore(state_root), slots=1)
        cid = first.submit(submission).campaign.campaign_id
        first.drain(timeout_s=1)
        second = ServeScheduler(StateStore(state_root), slots=1)
        second.start()
        try:
            assert _wait_done(second, cid)["status"] == "done"
            assert (
                second.state.result_path(cid).read_bytes() == ref_bytes
            )
        finally:
            second.drain(timeout_s=30)

    def test_start_after_submit_keeps_live_campaigns_as_they_are(
        self, tmp_path
    ):
        # A library caller may submit before start().  The journal then
        # holds campaigns this process already owns; replaying them must
        # not rebuild the primary as its own dedup follower.
        root = tmp_path / "state"
        scheduler = ServeScheduler(StateStore(root), slots=1)
        first = scheduler.submit(_evaluate_submission(tenant="alice"))
        second = scheduler.submit(_evaluate_submission(tenant="bob"))
        ids = [first.campaign.campaign_id, second.campaign.campaign_id]
        assert scheduler.start() == 0
        try:
            for campaign_id in ids:
                assert _wait_done(scheduler, campaign_id)["status"] == "done"
        finally:
            scheduler.drain(timeout_s=30)
        assert "dedup_of" not in scheduler.status(ids[0])
        assert scheduler.status(ids[1])["dedup_of"] == ids[0]
        counters = scheduler.stats()["counters"]
        assert counters["completed"] == 2
        assert counters["resumed"] == 0
        done = [
            record["id"]
            for record in map(
                json.loads, (root / "journal.jsonl").read_text().splitlines()
            )
            if record["kind"] == "done"
        ]
        assert sorted(done) == ids
        finishes = [
            e
            for e in read_events(scheduler.state.events_path)
            if e["kind"] == "serve_finish"
        ]
        assert sorted(e["campaign"] for e in finishes) == ids
        assert all(e.get("dedup_of") != e["campaign"] for e in finishes)

    def test_storage_failure_degrades_instead_of_failing(self, tmp_path):
        # A result write dying mid-campaign is not a failure: the
        # journal still carries the submission, so the terminal status
        # must be the retried-on-restart "degraded", never "failed".
        from repro.errors import StorageDegradedError

        scheduler = ServeScheduler(StateStore(tmp_path / "state"), slots=1)

        def full_disk(campaign_id, document):
            raise StorageDegradedError("save_result", "disk full")

        scheduler.state.save_result = full_disk
        scheduler.start()
        try:
            cid = scheduler.submit(_evaluate_submission()).campaign.campaign_id
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                status = scheduler.status(cid)
                if status["status"] in ("done", "failed", "degraded"):
                    break
                time.sleep(0.05)
            assert status["status"] == "degraded"
            assert "storage_degraded" in status["error"]
            assert scheduler.counters["storage_degraded"] == 1
            assert scheduler.counters["failed"] == 0
        finally:
            scheduler.drain(timeout_s=30)
        # No done record was journaled: a restart resumes the campaign.
        pending, _counter = StateStore(tmp_path / "state").replay()
        assert [p.campaign_id for p in pending] == [cid]

    def test_events_journal_carries_serve_lifecycle(self, scheduler):
        outcome = scheduler.submit(_evaluate_submission())
        campaign_id = outcome.campaign.campaign_id
        _wait_done(scheduler, campaign_id)
        events = [
            e
            for e in read_events(scheduler.state.events_path)
            if e.get("campaign") == campaign_id
        ]
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "serve_submit"
        assert kinds[-1] == "serve_finish"
        assert "job_finish" in kinds  # fleet jobs share the journal

    def test_live_window_stats_streamed_per_state(self, scheduler):
        outcome = scheduler.submit(_evaluate_submission(seed=0))
        campaign_id = outcome.campaign.campaign_id
        _wait_done(scheduler, campaign_id)
        windows = [
            e
            for e in read_events(scheduler.state.events_path)
            if e.get("campaign") == campaign_id
            and e["kind"] == "serve_stream_window"
        ]
        # One live window record per measured state of the matrix.
        assert len(windows) == 10
        labels = {e["label"] for e in windows}
        assert "Idle" in labels
        for event in windows:
            assert event["n_used"] <= event["n_total"]
            assert event["mean"] > 0

    def test_window_stats_match_evaluation_rows(self, scheduler):
        # The streamed mean is the same trimmed mean the evaluation row
        # reports — the live view never disagrees with the result.
        outcome = scheduler.submit(_evaluate_submission(seed=0))
        campaign_id = outcome.campaign.campaign_id
        _wait_done(scheduler, campaign_id)
        document = scheduler.result(campaign_id)
        by_label = {r["label"]: r for r in document["rows"]}
        for event in read_events(scheduler.state.events_path):
            if (
                event.get("campaign") != campaign_id
                or event["kind"] != "serve_stream_window"
            ):
                continue
            assert event["mean"] == by_label[event["label"]]["watts"]

    def test_window_events_pinned(self, scheduler):
        # Every field of every serve_stream_window event of one seeded
        # campaign, in state order: (label, mean, std, n_used, n_total),
        # floats as hex.  No window falls back, so the event omits the
        # field (a None field is not written).
        pinned = [
            ("Idle", "0x1.0c4b4e81b4e82p+7", "0x1.fcba3d430206fp-2", 96, 120),
            ("ep.C.1", "0x1.3799f9ccb4c01p+7", "0x1.2b97d7060765ap-1", 109, 135),
            ("ep.C.2", "0x1.474a9b101767ep+7", "0x1.24d1745a6c7aap-1", 56, 68),
            ("ep.C.4", "0x1.6243f8f01c3f9p+7", "0x1.2dad4c2abae51p-1", 29, 35),
            ("HPL P1 Mh", "0x1.54e9e5dd87424p+7", "0x1.30444734d7fccp-1", 565, 705),
            ("HPL P2 Mh", "0x1.7ff2f2c657f5cp+7", "0x1.989cad4bcea6bp-1", 295, 367),
            ("HPL P4 Mh", "0x1.d2ef4e4228174p+7", "0x1.2a174a0c2cc8cp+0", 165, 205),
            ("HPL P1 Mf", "0x1.54b4652f0c4f2p+7", "0x1.46021ff1c4d5bp-1", 1465, 1829),
            ("HPL P2 Mf", "0x1.805843c8e79ffp+7", "0x1.902379c74d105p-1", 765, 955),
            ("HPL P4 Mf", "0x1.d35c8d8af6e3bp+7", "0x1.271117873adc4p+0", 417, 521),
        ]
        outcome = scheduler.submit(_evaluate_submission(seed=7))
        campaign_id = outcome.campaign.campaign_id
        _wait_done(scheduler, campaign_id)
        events = [
            (
                e["label"],
                float(e["mean"]).hex(),
                float(e["std"]).hex(),
                e["n_used"],
                e["n_total"],
                e.get("fallback"),
            )
            for e in read_events(scheduler.state.events_path)
            if e.get("campaign") == campaign_id
            and e["kind"] == "serve_stream_window"
        ]
        assert events == [row + (None,) for row in pinned]
