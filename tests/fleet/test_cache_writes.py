"""Cache writes of a campaign, inline and under a pool.

A computed job's entry is written once and is durable before the job's
``checkpoint`` names it.  A write the disk refuses (ENOSPC) degrades: the
campaign keeps its results and the next lookup recomputes.  Any other
write error escapes ``run_jobs`` and is never charged to a job as a
failed attempt.  ``cache.stats`` counts every write and every degraded
one, whichever process made it.
"""

import multiprocessing

import pytest

from repro.doctor import safewrite
from repro.fleet import (
    EventLog,
    FleetRunner,
    ResultCache,
    demo_campaign,
    job_cache_key,
    read_events,
)
from repro.fleet.cache import read_entry

FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def campaign():
    return demo_campaign()


@pytest.fixture(scope="module")
def inline_digest(campaign):
    return FleetRunner(workers=1).run(campaign).results_digest()


@pytest.fixture(autouse=True)
def _disarm():
    yield
    safewrite.clear_disk_fault()


class TestWriteErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_cache_root_that_is_a_file_escapes_run_jobs(
        self, tmp_path, campaign, workers
    ):
        root = tmp_path / "cache"
        root.write_text("a file, not a directory")
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            runner = FleetRunner(
                workers=workers, cache=ResultCache(root), events=events
            )
            with pytest.raises(NotADirectoryError):
                runner.run(campaign)
        kinds = {event["kind"] for event in read_events(log)}
        # Not a job's fault: no attempt was charged, and no job was
        # checkpointed without a durable entry.
        assert not kinds & {"job_retry", "job_failed", "checkpoint"}


class TestPooledWrites:
    @pytest.mark.parametrize("chunk_size", [1, None], ids=["chunk1", "auto"])
    def test_every_computed_job_lands_one_entry(
        self, tmp_path, campaign, inline_digest, chunk_size
    ):
        jobs = campaign.jobs()
        cache = ResultCache(tmp_path / "cache")
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            cold = FleetRunner(
                workers=2, cache=cache, events=events, chunk_size=chunk_size
            ).run(campaign)
        assert cold.ok
        computed = sum(1 for r in cold.records if r.ok and not r.cached)
        assert cache.stats.writes == computed
        assert len(cache) == len(jobs)

        entries = {path.stem: path for path in cache.paths()}
        keys = {job.job_id: job_cache_key(job) for job in jobs}
        checkpointed = [
            job_id
            for event in read_events(log)
            if event["kind"] == "checkpoint"
            for job_id in event["job_ids"]
        ]
        assert sorted(checkpointed) == sorted(keys)
        for job_id in checkpointed:
            read_entry(entries[keys[job_id]])

        warm = FleetRunner(workers=2, cache=cache, chunk_size=chunk_size).run(
            campaign
        )
        assert warm.cache_hits == len(jobs)
        assert warm.results_digest() == inline_digest


@pytest.mark.skipif(not FORK, reason="needs forked workers")
class TestDiskFull:
    def test_pooled_cold_campaign_degrades_every_write(
        self, tmp_path, campaign, inline_digest
    ):
        cache = ResultCache(tmp_path / "cache")
        safewrite.inject_disk_full(0)
        outcome = FleetRunner(workers=2, cache=cache).run(campaign)
        assert cache.stats.degraded == len(campaign.jobs())
        assert cache.stats.writes == 0
        assert outcome.results_digest() == inline_digest
        assert not list(cache.root.rglob("*.entry"))
        assert not list(cache.root.rglob("*.tmp*"))
