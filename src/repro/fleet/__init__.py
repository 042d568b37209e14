"""repro.fleet — parallel, cached, fault-tolerant batch evaluation.

The scaling substrate for campaign-sized work: a *campaign spec* (servers
x workloads, JSON-loadable) executes over a process pool with a
content-addressed result cache, per-job retry with exponential backoff,
a JSONL event log, and an aggregate report.  Results are bit-identical
to serial execution because the simulator seeds every run from
``(seed, program label)``.

Quickstart::

    from repro.fleet import (
        FleetRunner, ResultCache, demo_campaign, evaluation_campaign,
    )

    runner = FleetRunner(workers=4, cache=ResultCache("fleet-cache"))
    outcome = runner.run(evaluation_campaign())
    print(outcome.report().format())

CLI: ``python -m repro fleet init|run|status|report``.  See
``docs/fleet.md`` for the campaign-spec format, cache layout, and
event-log schema.
"""

from repro.fleet.cache import (
    CACHE_SALT,
    ResultCache,
    canonical_digest,
    canonical_json,
    job_cache_key,
)
from repro.fleet.events import (
    EVENT_KINDS,
    EventLog,
    EventTail,
    completed_job_ids,
    last_campaign_events,
    read_events,
)
from repro.fleet.report import FleetReport
from repro.fleet.runner import (
    FleetOutcome,
    FleetRunner,
    JobFailure,
    JobRecord,
    RetryPolicy,
    auto_chunk_size,
    default_workers,
)
from repro.fleet.spec import (
    CampaignSpec,
    FleetJob,
    bind_jobs,
    campaign_from_dict,
    campaign_to_dict,
    demo_campaign,
    evaluation_campaign,
    make_job,
    workload_from_dict,
    workload_label,
    workload_to_dict,
)
from repro.fleet.worker import FAULT_KINDS, FaultInjection, InjectedFaultError

__all__ = [
    "CACHE_SALT",
    "EVENT_KINDS",
    "FAULT_KINDS",
    "CampaignSpec",
    "EventLog",
    "EventTail",
    "FaultInjection",
    "FleetJob",
    "FleetOutcome",
    "FleetReport",
    "FleetRunner",
    "InjectedFaultError",
    "JobFailure",
    "JobRecord",
    "ResultCache",
    "RetryPolicy",
    "auto_chunk_size",
    "bind_jobs",
    "campaign_from_dict",
    "campaign_to_dict",
    "canonical_digest",
    "canonical_json",
    "completed_job_ids",
    "default_workers",
    "demo_campaign",
    "evaluation_campaign",
    "job_cache_key",
    "last_campaign_events",
    "make_job",
    "read_events",
    "workload_from_dict",
    "workload_label",
    "workload_to_dict",
]
