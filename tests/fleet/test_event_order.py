"""The event sequence of an inline campaign.

An inline runner (``workers=1``) keeps one unit in flight, so its event
log is a fixed sequence of ``(kind, label, attempt)`` triples.  These
tests pin that sequence for ``demo_campaign()`` per job (``chunk_size=1``)
and in one chunk (the inline default), with no fault and with a fault
that exhausts its job's retries.  A retried attempt queues behind the
units already queued, as it does in a pool.
"""

import pytest

from repro.fleet import (
    EventLog,
    FaultInjection,
    FleetRunner,
    RetryPolicy,
    demo_campaign,
    read_events,
)

NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_s=0.0)
LABELS = [job.label for job in demo_campaign().jobs()]
LAST = LABELS[-1]

CHECKPOINT = ("checkpoint", None, None)


def sequence(tmp_path, chunk_size, fault):
    log_path = tmp_path / "events.jsonl"
    with EventLog(log_path) as events:
        FleetRunner(
            workers=1,
            chunk_size=chunk_size,
            retry=NO_BACKOFF,
            fault=fault,
            events=events,
        ).run(demo_campaign())
    return [
        (record["kind"], record.get("label"), record.get("attempt"))
        for record in read_events(log_path)
    ]


def campaign(*events):
    return [("campaign_start", None, None), *events, ("campaign_finish", None, None)]


def solo(label, attempt=1):
    """One job run on its own, finished and checkpointed."""
    return [("job_start", label, attempt), ("job_finish", label, attempt), CHECKPOINT]


def retries(label, first=1, last=3):
    """``job_retry`` of attempt ``first``, ..., then the start of ``last``."""
    out = []
    for attempt in range(first, last):
        out += [("job_retry", label, attempt), ("job_start", label, attempt + 1)]
    return out


def starts(labels):
    return [("job_start", label, 1) for label in labels]


def finishes(labels):
    return [("job_finish", label, 1) for label in labels]


PERMANENT = FaultInjection(LAST, fail_attempts=99)
EXPECTED = {
    (1, "none"): campaign(*(e for label in LABELS for e in solo(label))),
    (1, "permanent"): campaign(
        *(e for label in LABELS[:-1] for e in solo(label)),
        ("job_start", LAST, 1),
        *retries(LAST),
        ("job_failed", LAST, 3),
    ),
    (None, "none"): campaign(*starts(LABELS), *finishes(LABELS), CHECKPOINT),
    (None, "permanent"): campaign(
        *starts(LABELS),
        *finishes(LABELS[:-1]),
        CHECKPOINT,
        *retries(LAST),
        ("job_failed", LAST, 3),
    ),
}


@pytest.mark.parametrize(
    "chunk_size, fault", sorted(EXPECTED, key=str), ids=str
)
def test_inline_event_sequence(tmp_path, chunk_size, fault):
    injected = PERMANENT if fault == "permanent" else None
    assert sequence(tmp_path, chunk_size, injected) == EXPECTED[chunk_size, fault]


def test_a_retry_queues_behind_queued_jobs(tmp_path):
    # Per-job dispatch: ep.C.2's second attempt runs after every job
    # that was queued when its first attempt failed.
    flaky = LABELS[1]
    assert sequence(
        tmp_path, 1, FaultInjection(flaky, fail_attempts=1)
    ) == campaign(
        *solo(LABELS[0]),
        ("job_start", flaky, 1),
        ("job_retry", flaky, 1),
        *(e for label in LABELS[2:] for e in solo(label)),
        *solo(flaky, attempt=2),
    )
