"""Fleet runner: pool execution, caching, retries, graceful degradation."""

import dataclasses
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    InsufficientMemoryError,
    InvalidProcessCountError,
    JobTimeoutError,
)
from repro.fleet import (
    EventLog,
    FaultInjection,
    FleetRunner,
    ResultCache,
    RetryPolicy,
    demo_campaign,
    read_events,
)
from repro.fleet.spec import workload_to_dict
from repro.fleet.worker import InjectedFaultError
from repro.workloads.npb import NpbWorkload

NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_s=0.0)


@pytest.fixture(scope="module")
def campaign():
    return demo_campaign()


@pytest.fixture(scope="module")
def serial_outcome(campaign):
    return FleetRunner(workers=1).run(campaign)


class TestExecution:
    def test_pool_matches_inline(self, campaign, serial_outcome):
        pooled = FleetRunner(workers=2).run(campaign)
        assert pooled.ok and serial_outcome.ok
        for a, b in zip(serial_outcome.records, pooled.records):
            assert a.job.job_id == b.job.job_id
            assert np.array_equal(
                a.result.measured_watts, b.result.measured_watts
            )

    def test_records_preserve_campaign_order(self, campaign, serial_outcome):
        assert [r.job.label for r in serial_outcome.records] == [
            j.label for j in campaign.jobs()
        ]

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetRunner(workers=1).run_jobs((), "empty")

    def test_inline_interrupt_propagates(self, monkeypatch, campaign):
        # The inline executor hands an Exception to the loop's fault
        # barrier, but a KeyboardInterrupt stops the campaign.
        from repro.fleet import runner

        def interrupted(payloads):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "execute_chunk", interrupted)
        with pytest.raises(KeyboardInterrupt):
            FleetRunner(workers=1).run(campaign)


class TestCacheIntegration:
    def test_warm_run_hits_every_job(self, tmp_path, campaign):
        cache = ResultCache(tmp_path / "cache")
        runner = FleetRunner(workers=2, cache=cache)
        cold = runner.run(campaign)
        assert cold.cache_hits == 0
        warm = runner.run(campaign)
        assert warm.cache_hits == len(campaign.jobs())
        for a, b in zip(cold.records, warm.records):
            assert np.array_equal(
                a.result.measured_watts, b.result.measured_watts
            )
        # Warm wall_s carries the original execution cost for speedup
        # accounting, not the (near-zero) cache read time.
        assert all(r.wall_s > 0 for r in warm.records)

    def test_lookup_never_sizes_the_cache(
        self, tmp_path, campaign, monkeypatch
    ):
        # Sizing the cache globs its whole directory; a per-job lookup
        # must only ever ask for its own key.
        cache = ResultCache(tmp_path / "cache")
        FleetRunner(workers=1, cache=cache).run(campaign)

        def no_len(self):
            raise AssertionError("ResultCache.__len__ called")

        monkeypatch.setattr(ResultCache, "__len__", no_len)
        warm = FleetRunner(workers=1, cache=cache).run(campaign)
        assert warm.ok
        assert warm.cache_hits == len(campaign.jobs())

    def test_cache_shared_between_runners(self, tmp_path, campaign):
        cache = ResultCache(tmp_path / "cache")
        FleetRunner(workers=1, cache=cache).run(campaign)
        warm = FleetRunner(workers=2, cache=cache).run(campaign)
        assert warm.cache_hits == len(campaign.jobs())


class TestFaultTolerance:
    def test_transient_fault_is_retried_to_success(self, campaign):
        runner = FleetRunner(
            workers=2,
            retry=NO_BACKOFF,
            fault=FaultInjection("ep.C.2", fail_attempts=2),
        )
        outcome = runner.run(campaign)
        assert outcome.ok
        record = next(
            r for r in outcome.records if r.job.label == "ep.C.2"
        )
        assert record.attempts == 3
        report = outcome.report()
        assert report.n_retries == 2
        assert report.n_failed == 0

    def test_permanent_fault_degrades_gracefully(self, campaign):
        runner = FleetRunner(
            workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            fault=FaultInjection("HPL P4 Mf", fail_attempts=99),
        )
        outcome = runner.run(campaign)  # must not raise
        assert not outcome.ok
        assert [f.label for f in outcome.failures] == ["HPL P4 Mf"]
        assert outcome.failures[0].attempts == 2
        assert "InjectedFaultError" in outcome.failures[0].error
        # Every other job still completed.
        assert sum(1 for r in outcome.records if r.ok) == len(
            campaign.jobs()
        ) - 1

    def test_domain_error_from_a_pool_worker_fails_only_its_job(
        self, tmp_path, campaign
    ):
        # bt needs a square process count: the worker's bind raises
        # InvalidProcessCountError, which must come back through the
        # result pipe intact instead of breaking the pool, and fail its
        # job on the first attempt under the default retry policy.
        mixed = dataclasses.replace(
            campaign,
            workloads=campaign.workloads
            + (workload_to_dict(NpbWorkload("bt", "B", 3)),),
        )
        for workers in (1, 2):
            log_path = tmp_path / f"events-{workers}.jsonl"
            with EventLog(log_path) as events:
                outcome = FleetRunner(
                    workers=workers, retry=RetryPolicy(), events=events
                ).run(mixed)
            (failure,) = outcome.failures
            assert failure.label == "bt.B.3"
            assert failure.attempts == 1
            assert failure.error.startswith("InvalidProcessCountError: ")
            assert sum(1 for r in outcome.records if r.ok) == len(
                campaign.jobs()
            )
            kinds = {r["kind"] for r in read_events(log_path)}
            assert "pool_replaced" not in kinds
            assert "job_retry" not in kinds

    def test_inline_runner_retries_too(self, campaign):
        runner = FleetRunner(
            workers=1,
            retry=NO_BACKOFF,
            fault=FaultInjection("ep.C.1", fail_attempts=1),
        )
        outcome = runner.run(campaign)
        assert outcome.ok
        record = next(r for r in outcome.records if r.job.label == "ep.C.1")
        assert record.attempts == 2

    def test_backoff_schedule_is_exponential(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1)
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)

    def test_only_transient_errors_are_retried(self):
        policy = RetryPolicy(max_attempts=3)
        deterministic = [
            ConfigurationError("bad spec"),
            InvalidProcessCountError("bt", 3, "a square number"),
            InsufficientMemoryError("cg.C.4", 9156.0, 7592.0),
        ]
        for exc in deterministic:
            assert not policy.should_retry(1, exc)
        transient = [
            InjectedFaultError("injected"),
            JobTimeoutError("no result"),
            BrokenProcessPool("worker died"),
            OSError("disk hiccup"),
        ]
        for exc in transient:
            assert policy.should_retry(1, exc)
            assert policy.should_retry(2, exc)
            assert not policy.should_retry(3, exc)


class TestEventLog:
    def test_campaign_emits_lifecycle_events(self, tmp_path, campaign):
        log_path = tmp_path / "events.jsonl"
        cache = ResultCache(tmp_path / "cache")
        with EventLog(log_path) as events:
            FleetRunner(workers=2, cache=cache, events=events).run(campaign)
            FleetRunner(workers=2, cache=cache, events=events).run(campaign)
        records = read_events(log_path)
        kinds = [r["kind"] for r in records]
        assert kinds.count("campaign_start") == 2
        assert kinds.count("campaign_finish") == 2
        assert kinds.count("job_finish") == len(campaign.jobs())
        assert kinds.count("cache_hit") == len(campaign.jobs())
        finish = next(r for r in records if r["kind"] == "job_finish")
        assert finish["wall_s"] > 0
        assert isinstance(finish["worker"], int)
        assert finish["ts"] > 0

    def test_retry_and_failure_events(self, tmp_path, campaign):
        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path) as events:
            FleetRunner(
                workers=1,
                retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
                fault=FaultInjection("ep.C.4", fail_attempts=99),
                events=events,
            ).run(campaign)
        kinds = [r["kind"] for r in read_events(log_path)]
        assert kinds.count("job_retry") == 1
        assert kinds.count("job_failed") == 1


class TestJobAccounting:
    def test_job_id_is_hashed_once_per_job(self, tmp_path, monkeypatch):
        """Regression: ``FleetJob.job_id`` re-hashed the workload on every
        read, 55 times for the demo campaign's 5 jobs through its
        expansion and a cold and a warm run with a cache and a log."""
        import hashlib
        import types

        from repro.fleet import spec

        hashed = []

        def sha256(data):
            hashed.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(spec, "hashlib", types.SimpleNamespace(sha256=sha256))
        jobs = demo_campaign().jobs()
        cache = ResultCache(tmp_path / "cache")
        with EventLog(tmp_path / "events.jsonl") as events:
            runner = FleetRunner(workers=1, cache=cache, events=events)
            cold = runner.run_jobs(jobs)
            warm = runner.run_jobs(jobs)
        assert cold.ok and warm.cache_hits == len(jobs)
        assert len(hashed) == len(jobs)

    def test_each_job_reports_its_own_wall_time(self, tmp_path, campaign):
        """A chunk's wall time is not split evenly: the record, the
        ``job_finish`` event and the cache entry of each job carry the
        job's own time in the worker."""
        from repro.fleet import job_cache_key
        from repro.fleet.cache import read_entry

        cache = ResultCache(tmp_path / "cache")
        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path) as events:
            outcome = FleetRunner(
                workers=1,
                cache=cache,
                events=events,
                fault=FaultInjection("ep.C.2", kind="slow", delay_s=0.3),
            ).run(campaign)
        finished = {
            r["job_id"]: r["wall_s"]
            for r in read_events(log_path)
            if r["kind"] == "job_finish"
        }
        entries = {path.stem: path for path in cache.paths()}
        for record in outcome.records:
            wall_s = record.wall_s
            assert (wall_s >= 0.3) == (record.job.label == "ep.C.2")
            assert finished[record.job.job_id] == wall_s
            entry = entries[job_cache_key(record.job)]
            assert read_entry(entry).wall_s == wall_s
