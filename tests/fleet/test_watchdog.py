"""Watchdog and backoff: hung/crashed workers must never stall a run."""

import numpy as np
import pytest

from repro.fleet import (
    EventLog,
    FaultInjection,
    FleetRunner,
    RetryPolicy,
    demo_campaign,
    read_events,
)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


@pytest.fixture(scope="module")
def baseline_digest():
    return FleetRunner(workers=1).run(demo_campaign()).results_digest()


def _pooled_runner(fault, **kwargs):
    defaults = dict(
        workers=2,
        retry=FAST_RETRY,
        fault=fault,
        timeout_s=2.0,
        chunk_size=1,
    )
    defaults.update(kwargs)
    return FleetRunner(**defaults)


class TestWatchdog:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_hung_worker_is_killed_and_job_retried(
        self, baseline_digest, workers
    ):
        fault = FaultInjection(
            "ep.C.4", fail_attempts=1, kind="hang", delay_s=30.0
        )
        outcome = _pooled_runner(fault, workers=workers).run(demo_campaign())
        assert outcome.ok
        assert outcome.results_digest() == baseline_digest

    def test_crashed_worker_is_replaced(self, baseline_digest):
        fault = FaultInjection("ep.C.4", fail_attempts=1, kind="crash")
        outcome = _pooled_runner(fault).run(demo_campaign())
        assert outcome.ok
        assert outcome.results_digest() == baseline_digest

    def test_slow_worker_completes_without_retry(self, baseline_digest):
        fault = FaultInjection(
            "ep.C.4", fail_attempts=1, kind="slow", delay_s=0.2
        )
        outcome = _pooled_runner(fault).run(demo_campaign())
        assert outcome.ok
        assert outcome.results_digest() == baseline_digest
        record = next(
            r for r in outcome.records if r.job.label == "ep.C.4"
        )
        assert record.attempts == 1

    def test_permanent_hang_lands_in_the_failure_report(
        self, tmp_path, baseline_digest
    ):
        fault = FaultInjection(
            "ep.C.4", fail_attempts=99, kind="hang", delay_s=30.0
        )
        events_path = tmp_path / "events.jsonl"
        with EventLog(events_path) as events:
            outcome = _pooled_runner(
                fault, timeout_s=0.5, events=events
            ).run(demo_campaign())
        assert not outcome.ok
        (failure,) = outcome.failures
        assert failure.label == "ep.C.4"
        assert failure.attempts == FAST_RETRY.max_attempts
        assert "no result within" in failure.error
        # The other four jobs still completed with correct numbers.
        assert len(outcome.results()) == 4
        kinds = {e["kind"] for e in read_events(events_path)}
        assert "job_timeout" in kinds
        assert "pool_replaced" in kinds

    def test_one_worker_with_a_timeout_still_has_a_watchdog(
        self, tmp_path, baseline_digest
    ):
        # One worker runs inline, where a hung call could never be
        # interrupted; with a timeout it runs in a one-process pool.
        fault = FaultInjection(
            "ep.C.4", fail_attempts=1, kind="hang", delay_s=3.0
        )
        events_path = tmp_path / "events.jsonl"
        with EventLog(events_path) as events:
            outcome = _pooled_runner(
                fault, workers=1, timeout_s=0.5, events=events
            ).run(demo_campaign())
        assert outcome.ok
        assert outcome.results_digest() == baseline_digest
        kinds = [e["kind"] for e in read_events(events_path)]
        assert kinds.count("job_timeout") == 1
        assert "pool_replaced" in kinds

    def test_chunked_dispatch_survives_a_crash(self, baseline_digest):
        fault = FaultInjection("ep.C.2", fail_attempts=1, kind="crash")
        outcome = _pooled_runner(fault, chunk_size=3).run(demo_campaign())
        assert outcome.ok
        assert outcome.results_digest() == baseline_digest

    def test_rejects_bad_timeout(self):
        with pytest.raises(Exception):
            FleetRunner(workers=1, timeout_s=0.0).run_jobs(
                tuple(demo_campaign().jobs())
            )


class TestBackoff:
    def test_cap_bounds_the_schedule(self):
        policy = RetryPolicy(
            max_attempts=10, backoff_s=1.0, multiplier=2.0, max_backoff_s=5.0
        )
        assert policy.delay_s(1) == pytest.approx(1.0)
        assert policy.delay_s(3) == pytest.approx(4.0)
        assert policy.delay_s(4) == pytest.approx(5.0)
        assert policy.delay_s(9) == pytest.approx(5.0)

    def test_seeded_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=1.0, max_backoff_s=8.0, jitter=0.1)
        delays = [policy.delay_s(2, seed=42) for _ in range(3)]
        assert delays[0] == delays[1] == delays[2]
        assert 2.0 * 0.9 <= delays[0] < 2.0 * 1.1
        # Plain schedule stays jitter-free for callers without a seed.
        assert policy.delay_s(2) == pytest.approx(2.0)

    def test_different_seeds_decorrelate(self):
        policy = RetryPolicy(backoff_s=1.0, jitter=0.1)
        delays = {policy.delay_s(2, seed=s) for s in range(8)}
        assert len(delays) > 1

    def test_rejects_bad_jitter_and_cap(self):
        with pytest.raises(Exception):
            RetryPolicy(jitter=1.5)
        with pytest.raises(Exception):
            RetryPolicy(max_backoff_s=-1.0)


class TestResultsDigest:
    def test_identical_across_schedules(self, baseline_digest):
        chunked = FleetRunner(workers=2, chunk_size=2).run(demo_campaign())
        assert chunked.results_digest() == baseline_digest

    def test_sensitive_to_results(self):
        campaign = demo_campaign()
        a = FleetRunner(workers=1).run(campaign)
        b = FleetRunner(workers=1).run(
            type(campaign)(
                name=campaign.name,
                servers=campaign.servers,
                workloads=campaign.workloads[:-1],
                seed=campaign.seed,
            )
        )
        assert a.results_digest() != b.results_digest()
