"""Chunked fleet execution: batching jobs per worker round-trip.

Chunking is the default; ``chunk_size=1`` restores per-job dispatch.
The contract: identical results either way (the chunk body runs its
jobs one after another, exactly as per-job dispatch does), identical
retry arithmetic (the chunk pass counts as attempt 1, retries go out as
single jobs), and identical event/cache behaviour.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    EventLog,
    FaultInjection,
    FleetRunner,
    ResultCache,
    RetryPolicy,
    auto_chunk_size,
    demo_campaign,
    read_events,
)

NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_s=0.0)


@pytest.fixture(scope="module")
def campaign():
    return demo_campaign()


@pytest.fixture(scope="module")
def per_job_outcome(campaign):
    """The pre-chunking behaviour: one job per dispatch."""
    return FleetRunner(workers=1, chunk_size=1).run(campaign)


class TestAutoChunkSize:
    def test_inline_gets_one_big_chunk(self):
        assert auto_chunk_size(17, 1) == 17
        assert auto_chunk_size(17, 0) == 17

    def test_pool_aims_for_four_chunks_per_worker(self):
        assert auto_chunk_size(32, 2) == 4
        assert auto_chunk_size(33, 2) == 5  # ceiling division
        assert auto_chunk_size(100, 4) == 7

    def test_never_below_one(self):
        assert auto_chunk_size(0, 1) == 1
        assert auto_chunk_size(3, 8) == 1


class TestResultParity:
    def test_chunked_inline_matches_per_job(self, campaign, per_job_outcome):
        chunked = FleetRunner(workers=1).run(campaign)
        assert chunked.ok
        for a, b in zip(per_job_outcome.records, chunked.records):
            assert a.job.job_id == b.job.job_id
            assert np.array_equal(
                a.result.measured_watts, b.result.measured_watts
            )
            assert a.result.pmu_samples == b.result.pmu_samples

    def test_chunked_pool_matches_per_job(self, campaign, per_job_outcome):
        chunked = FleetRunner(workers=2, chunk_size=2).run(campaign)
        assert chunked.ok
        for a, b in zip(per_job_outcome.records, chunked.records):
            assert a.job.job_id == b.job.job_id
            assert np.array_equal(
                a.result.measured_watts, b.result.measured_watts
            )

    def test_every_record_charges_some_wall_time(self, campaign):
        outcome = FleetRunner(workers=2, chunk_size=3).run(campaign)
        assert all(r.wall_s > 0 for r in outcome.records)
        assert all(r.attempts == 1 for r in outcome.records)

    def test_bad_chunk_size_rejected(self, campaign):
        with pytest.raises(ConfigurationError):
            FleetRunner(workers=1, chunk_size=0).run(campaign)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_chunk_size_rejected_when_every_job_hits(
        self, tmp_path, campaign, workers
    ):
        cache = ResultCache(tmp_path / "cache")
        FleetRunner(workers=1, cache=cache).run(campaign)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            FleetRunner(workers=workers, chunk_size=0, cache=cache).run(
                campaign
            )


class TestChunkRetries:
    def test_chunk_member_fault_is_retried_solo(self, campaign):
        # The chunk pass is attempt 1; the failing member is re-sent as
        # a single job while its chunk-mates keep their first result.
        runner = FleetRunner(
            workers=2,
            chunk_size=len(campaign.jobs()),
            retry=NO_BACKOFF,
            fault=FaultInjection("ep.C.2", fail_attempts=2),
        )
        outcome = runner.run(campaign)
        assert outcome.ok
        record = next(
            r for r in outcome.records if r.job.label == "ep.C.2"
        )
        assert record.attempts == 3
        others = [r for r in outcome.records if r.job.label != "ep.C.2"]
        assert all(r.attempts == 1 for r in others)
        assert outcome.report().n_retries == 2

    def test_inline_chunk_fault_is_retried_too(self, campaign):
        runner = FleetRunner(
            workers=1,
            retry=NO_BACKOFF,
            fault=FaultInjection("ep.C.1", fail_attempts=1),
        )
        outcome = runner.run(campaign)
        assert outcome.ok
        record = next(r for r in outcome.records if r.job.label == "ep.C.1")
        assert record.attempts == 2

    def test_exhausted_retries_fail_only_the_member(self, campaign):
        runner = FleetRunner(
            workers=2,
            chunk_size=4,
            retry=RetryPolicy(max_attempts=2, backoff_s=0.0),
            fault=FaultInjection("HPL P4 Mf", fail_attempts=99),
        )
        outcome = runner.run(campaign)
        assert not outcome.ok
        assert [f.label for f in outcome.failures] == ["HPL P4 Mf"]
        assert outcome.failures[0].attempts == 2
        assert sum(1 for r in outcome.records if r.ok) == len(
            campaign.jobs()
        ) - 1

    def test_single_attempt_policy_fails_straight_from_chunk(self, campaign):
        runner = FleetRunner(
            workers=2,
            chunk_size=4,
            retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
            fault=FaultInjection("ep.C.4", fail_attempts=99),
        )
        outcome = runner.run(campaign)
        assert not outcome.ok
        assert outcome.failures[0].attempts == 1


class TestChunkEventsAndCache:
    def test_lifecycle_events_are_per_job(self, tmp_path, campaign):
        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path) as events:
            FleetRunner(workers=2, chunk_size=3, events=events).run(campaign)
        kinds = [r["kind"] for r in read_events(log_path)]
        n = len(campaign.jobs())
        assert kinds.count("job_start") == n
        assert kinds.count("job_finish") == n
        assert kinds.count("campaign_finish") == 1

    def test_chunked_run_fills_the_cache(self, tmp_path, campaign):
        cache = ResultCache(tmp_path / "cache")
        cold = FleetRunner(workers=2, chunk_size=3, cache=cache).run(campaign)
        assert cold.cache_hits == 0
        # A per-job runner sees every entry the chunked run wrote.
        warm = FleetRunner(workers=1, chunk_size=1, cache=cache).run(campaign)
        assert warm.cache_hits == len(campaign.jobs())
        for a, b in zip(cold.records, warm.records):
            assert np.array_equal(
                a.result.measured_watts, b.result.measured_watts
            )

    def test_chunked_metrics_reach_the_outcome(self, campaign):
        from repro import obs
        from repro.obs import runtime

        registry = obs.MetricsRegistry()
        obs.enable()
        try:
            with obs.use_registry(registry):
                outcome = FleetRunner(workers=1, cache=None).run(campaign)
                counters = outcome.metrics["counters"]
                assert counters["sim.run.count"] == float(
                    len(campaign.jobs())
                )
        finally:
            runtime.reset()
