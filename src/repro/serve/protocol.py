"""HTTP/1.1 framing and the campaign-submission wire schema.

The serve daemon speaks plain HTTP/JSON over :mod:`asyncio` streams —
stdlib only, one request per connection (``Connection: close``), which
keeps the protocol layer small enough to audit and lets any HTTP client
(curl, ``http.client``, a browser) talk to it.  This module owns the
two halves of the wire contract:

* request parsing / response formatting (:func:`read_request`,
  :func:`json_response`, :class:`HttpError`), with hard limits on line,
  header, and body sizes so a misbehaving client cannot balloon server
  memory, and
* submission validation (:func:`parse_submission`): the JSON body of
  ``POST /v1/campaigns`` normalised into a :class:`Submission`.

Submission document::

    {
      "tenant": "alice",            // optional; X-Repro-Tenant wins
      "priority": "normal",         // "high" | "normal" | "low"
      "kind": "fleet",              // or "evaluate"
      "campaign": { ... },          // kind=fleet: a fleet_campaign doc
      "server": "Xeon-E5462",       // kind=evaluate
      "seed": 0                     //   "
    }

Error responses are always ``{"error": "<code>", "detail": "..."}``;
the codes are listed in ``docs/serve.md``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ConfigurationError

__all__ = [
    "MAX_BODY_BYTES",
    "PRIORITIES",
    "HttpError",
    "Request",
    "Submission",
    "read_request",
    "json_response",
    "stream_head",
    "parse_submission",
    "submission_content_key",
    "submission_jobs",
]

#: Hard request-body cap; a campaign spec is a few KB, so 8 MB is
#: generous headroom without letting one client balloon server memory.
MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_LINE_BYTES = 16 * 1024
_MAX_HEADERS = 100

#: Admission-priority classes, highest first.
PRIORITIES = ("high", "normal", "low")

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that must be answered with an error response."""

    def __init__(
        self,
        status: int,
        code: str,
        detail: str = "",
        headers: "dict[str, str] | None" = None,
    ):
        super().__init__(detail or code)
        self.status = status
        self.code = code
        self.detail = detail
        self.headers = headers or {}

    def body(self) -> dict[str, Any]:
        document: dict[str, Any] = {"error": self.code}
        if self.detail:
            document["detail"] = self.detail
        return document


@dataclass(frozen=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: "dict[str, str]" = field(default_factory=dict)
    headers: "dict[str, str]" = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body parsed as JSON (400 on syntax errors)."""
        if not self.body:
            raise HttpError(400, "empty_body", "request body required")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(
                400, "invalid_json", f"request body is not JSON: {exc}"
            ) from exc


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""
        line = exc.partial
    except asyncio.LimitOverrunError as exc:
        raise HttpError(400, "line_too_long") from exc
    if len(line) > _MAX_LINE_BYTES:
        raise HttpError(400, "line_too_long")
    return line


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> "Request | None":
    """Parse one HTTP/1.1 request; ``None`` on a closed/empty connection.

    Raises :class:`HttpError` on malformed framing (the caller turns it
    into a 4xx response).  Bodies larger than ``max_body`` get a 413.
    """
    request_line = (await _read_line(reader)).decode("latin-1").strip()
    if not request_line:
        return None
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, "malformed_request_line", request_line[:200])
    method, target, _version = parts
    headers: dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        raw = await _read_line(reader)
        line = raw.decode("latin-1").strip()
        if not line:
            break
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, "malformed_header", line[:200])
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too_many_headers")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "malformed_content_length") from exc
        if length < 0:
            raise HttpError(400, "malformed_content_length")
        if length > max_body:
            raise HttpError(
                413,
                "payload_too_large",
                f"body of {length} bytes exceeds the {max_body} byte cap",
            )
        body = await reader.readexactly(length) if length else b""
    split = urlsplit(target)
    query = {k: v for k, v in parse_qsl(split.query)}
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=query,
        headers=headers,
        body=body,
    )


def _head(
    status: int, headers: "dict[str, str]", content_length: "int | None"
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def json_response(
    status: int,
    document: Any,
    headers: "dict[str, str] | None" = None,
) -> bytes:
    """A complete JSON response (headers + body) as bytes."""
    payload = (
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    ).encode()
    head = dict(headers or {})
    head.setdefault("Content-Type", "application/json")
    return _head(status, head, len(payload)) + payload


def stream_head(content_type: str = "application/x-ndjson") -> bytes:
    """Response head for a stream terminated by connection close."""
    return _head(200, {"Content-Type": content_type}, None)


@dataclass(frozen=True)
class Submission:
    """A validated campaign submission, ready for admission control."""

    tenant: str
    priority: str
    kind: str  # "fleet" | "evaluate"
    spec: "dict[str, Any]"  # fleet: campaign doc; evaluate: {server, seed}

    def to_dict(self) -> dict[str, Any]:
        """Round-trippable form — what the server journal records."""
        return {
            "tenant": self.tenant,
            "priority": self.priority,
            "kind": self.kind,
            "spec": self.spec,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Submission":
        return Submission(
            tenant=str(data["tenant"]),
            priority=str(data["priority"]),
            kind=str(data["kind"]),
            spec=dict(data["spec"]),
        )


def _valid_tenant(name: str) -> bool:
    return (
        0 < len(name) <= 64
        and all(c.isalnum() or c in "-_." for c in name)
    )


def parse_submission(
    document: Any, tenant_header: "str | None" = None
) -> Submission:
    """Validate a ``POST /v1/campaigns`` body into a :class:`Submission`.

    The tenant comes from the ``X-Repro-Tenant`` header when present,
    else the body's ``tenant`` field, else ``"default"``.  The campaign
    spec itself is validated eagerly (servers resolved, workloads
    parsed) so a bad submission fails at the door with a 400, never
    inside a worker slot.
    """
    if not isinstance(document, dict):
        raise HttpError(400, "invalid_submission", "body must be an object")
    tenant = tenant_header or document.get("tenant") or "default"
    if not isinstance(tenant, str) or not _valid_tenant(tenant):
        raise HttpError(
            400,
            "invalid_tenant",
            "tenant must be 1-64 chars of [alnum-_.]",
        )
    priority = document.get("priority", "normal")
    if priority not in PRIORITIES:
        raise HttpError(
            400,
            "invalid_priority",
            f"priority must be one of {PRIORITIES}, got {priority!r}",
        )
    kind = document.get("kind")
    if kind is None:
        kind = "fleet" if "campaign" in document else "evaluate"
    if kind == "fleet":
        campaign_doc = document.get("campaign")
        if not isinstance(campaign_doc, dict):
            raise HttpError(
                400, "invalid_submission", "kind=fleet needs a campaign object"
            )
        from repro.fleet.spec import campaign_from_dict

        try:
            # Expanding the jobs catches what only the expansion sees,
            # such as a workload that repeats an evaluation-matrix state.
            campaign_from_dict(campaign_doc).jobs()
        except ConfigurationError as exc:
            raise HttpError(400, "invalid_campaign", str(exc)) from exc
        return Submission(
            tenant=tenant, priority=priority, kind="fleet", spec=campaign_doc
        )
    if kind == "evaluate":
        server = document.get("server")
        if not isinstance(server, str) or not server:
            raise HttpError(
                400, "invalid_submission", "kind=evaluate needs a server name"
            )
        from repro.hardware.zoo import resolve_server

        try:
            resolve_server(server)
        except ConfigurationError as exc:
            raise HttpError(404, "unknown_server", str(exc)) from exc
        seed = document.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise HttpError(
                400, "invalid_seed", f"seed must be an int, got {seed!r}"
            )
        return Submission(
            tenant=tenant,
            priority=priority,
            kind="evaluate",
            spec={"server": server, "seed": seed},
        )
    raise HttpError(
        400, "invalid_kind", f"kind must be 'fleet' or 'evaluate', got {kind!r}"
    )


def submission_content_key(submission: Submission) -> str:
    """Content digest of *what would be computed* — the dedup key.

    Tenant and priority are deliberately excluded: two tenants asking
    for the same work share one execution.
    """
    from repro.fleet.cache import canonical_digest

    return canonical_digest({"kind": submission.kind, "spec": submission.spec})


def submission_jobs(kind: str, spec: "dict[str, Any]") -> tuple:
    """The fleet jobs one submission runs, in order.

    ``fleet`` is the campaign's own job list.  ``evaluate`` is one job
    per evaluation state the server can run, at the default placement:
    exactly the jobs :meth:`~repro.fleet.FleetRunner.map_runs` runs for
    ``evaluate_server(server, Simulator(server, seed=seed))``.  The
    scheduler sheds from this list and runs what it keeps, and ``repro
    doctor`` pins its cache keys, so an eviction never takes what a
    pending campaign will read.
    """
    from repro.fleet.spec import FleetJob, bind_jobs, campaign_from_dict

    if kind == "fleet":
        return campaign_from_dict(spec).jobs()
    if kind != "evaluate":
        raise ConfigurationError(f"unknown submission kind {kind!r}")
    from repro.core.evaluation import state_workload
    from repro.core.states import evaluation_states
    from repro.engine.simulator import DEFAULT_PLACEMENT_POLICY
    from repro.hardware.zoo import resolve_server

    server = resolve_server(spec["server"])
    workloads = [state_workload(state) for state in evaluation_states(server)]
    bound = bind_jobs(
        server, workloads, int(spec.get("seed", 0)), DEFAULT_PLACEMENT_POLICY
    )
    return tuple(job for job in bound if isinstance(job, FleetJob))
