"""Same campaign, same bytes -- on the failure path, in every mode.

One small Xeon-E5462 campaign mixes valid jobs with the three kinds of
invalid job the paper's tables leave empty: a non-square count for BT,
a count that is not a power of two for CG, and CG class C, whose
9156 MB footprint does not fit the server's 7592 MB.  Its results
digest and its failure set must not depend on the worker count, the
chunk size, the cache state or observability, and every invalid job
must fail on its first attempt with its own error type.
"""

import itertools

import pytest

from repro.fleet import (
    CampaignSpec,
    EventLog,
    FleetRunner,
    ResultCache,
    read_events,
    workload_to_dict,
)
from repro.hardware import XEON_E5462
from repro.workloads import NpbWorkload

VALID = [
    ("ep", "B", 1),
    ("ep", "B", 4),
    ("cg", "B", 2),
    ("bt", "B", 4),
    ("is", "B", 4),
]
EXPECTED_FAILURES = {
    "bt.B.3": "InvalidProcessCountError",
    "cg.B.3": "InvalidProcessCountError",
    "cg.C.4": "InsufficientMemoryError",
}


@pytest.fixture(scope="module")
def campaign():
    invalid = [("bt", "B", 3), ("cg", "B", 3), ("cg", "C", 4)]
    return CampaignSpec(
        name="failure-matrix",
        servers=(XEON_E5462,),
        workloads=tuple(
            workload_to_dict(NpbWorkload(program, cls, n))
            for program, cls, n in VALID + invalid
        ),
        seed=2015,
    )


def fingerprint(outcome):
    """(results digest, failure set) with every failure on attempt 1."""
    assert all(f.attempts == 1 for f in outcome.failures)
    failures = {
        (f.job_id, f.label, f.error.split(":", 1)[0]) for f in outcome.failures
    }
    return outcome.results_digest(), failures


@pytest.fixture(scope="module")
def reference(campaign):
    digest, failures = fingerprint(FleetRunner(workers=1).run(campaign))
    assert {(label, kind) for _, label, kind in failures} == set(
        EXPECTED_FAILURES.items()
    )
    return digest, failures


@pytest.mark.parametrize(
    "workers, chunk_size", list(itertools.product((1, 2, 4), (1, None)))
)
def test_every_mode_gives_the_same_bytes_and_failures(
    tmp_path, campaign, reference, workers, chunk_size
):
    def run(cache):
        runner = FleetRunner(workers=workers, chunk_size=chunk_size, cache=cache)
        return runner.run(campaign)

    assert fingerprint(run(None)) == reference  # cache off
    cache = ResultCache(tmp_path / "cache")
    cold = run(cache)
    assert cold.cache_hits == 0
    assert fingerprint(cold) == reference
    warm = run(cache)
    assert warm.cache_hits == len(VALID)  # failures are never cached
    assert fingerprint(warm) == reference


def test_observability_on_changes_nothing(
    tmp_path, monkeypatch, campaign, reference
):
    monkeypatch.setenv("REPRO_OBS", "1")
    log_path = tmp_path / "events.jsonl"
    with EventLog(log_path) as events:
        outcome = FleetRunner(
            workers=2, cache=ResultCache(tmp_path / "cache"), events=events
        ).run(campaign)
    assert outcome.metrics is not None
    assert fingerprint(outcome) == reference
    kinds = [record["kind"] for record in read_events(log_path)]
    assert "job_retry" not in kinds
    assert kinds.count("job_failed") == len(EXPECTED_FAILURES)
