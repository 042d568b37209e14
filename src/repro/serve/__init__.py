"""repro.serve — evaluation-as-a-service on top of the fleet.

A stdlib-only asyncio HTTP/JSON daemon (``python -m repro serve``) that
accepts concurrent campaign submissions from many tenants and
multiplexes them onto a shared fleet worker pool:

* **per-tenant FIFO queues** with stride-based weighted fair
  scheduling and three priority classes,
* **bounded admission** — 429 + ``Retry-After`` backpressure, soft
  shedding of low/normal priorities before the hard caps,
* **cross-tenant dedup** — identical in-flight submissions share one
  execution; distinct campaigns share individual jobs through the
  content-addressed result cache,
* **graceful degradation** — under sustained overload a dispatched
  campaign runs its cached jobs plus a bounded budget of new ones and
  returns a result flagged ``partial``,
* **durability** — submissions are journaled (fsynced) before the 202;
  SIGTERM drains cleanly and a restarted daemon resumes the journaled
  backlog bit-identically (the chaos suite SIGKILLs it to prove it).

Quickstart::

    # terminal 1
    python -m repro serve --state-dir serve-state --port 8787

    # terminal 2
    from repro.serve import ServeClient
    client = ServeClient(port=8787)
    sub = client.submit_evaluate("Xeon-E5462", tenant="alice")
    client.wait(sub["id"])
    result = client.result(sub["id"])

See ``docs/serve.md`` for the full API reference, error codes, and the
overload contract.
"""

from repro.serve.app import BackgroundServer, ServeApp
from repro.serve.client import ServeClient, ServeError, ServeRejected
from repro.serve.protocol import (
    PRIORITIES,
    HttpError,
    Submission,
    parse_submission,
    submission_content_key,
    submission_jobs,
)
from repro.serve.queues import Admission, QueuePolicy, TenantQueues
from repro.serve.scheduler import CampaignState, ServeScheduler
from repro.serve.state import StateStore

__all__ = [
    "PRIORITIES",
    "Admission",
    "BackgroundServer",
    "CampaignState",
    "HttpError",
    "QueuePolicy",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServeRejected",
    "ServeScheduler",
    "StateStore",
    "Submission",
    "TenantQueues",
    "parse_submission",
    "submission_content_key",
    "submission_jobs",
]
