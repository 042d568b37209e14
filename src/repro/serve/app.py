"""The asyncio HTTP daemon: ``python -m repro serve``.

Stdlib-only (``asyncio`` streams, no web framework): one listener, one
request per connection, JSON in and out.  The event loop never executes
a campaign — it hands submissions to the :class:`ServeScheduler`'s slot
threads and answers from the scheduler's in-memory records, so the API
stays responsive while campaigns run.

Routes::

    GET  /v1/health                 liveness + drain state
    GET  /v1/stats                  queue depths, counters, shed stats
    POST /v1/campaigns              submit (202 | 400 | 429 | 503)
    GET  /v1/campaigns/<id>         status document
    GET  /v1/campaigns/<id>/result  result document (404 until done)
    GET  /v1/campaigns/<id>/events  x-ndjson event stream (tails the
                                    shared fleet journal, filtered)

Shutdown: SIGTERM (or SIGINT) starts a graceful drain — the listener
refuses new submissions with 503, running slots get
``drain_timeout_s`` to finish, queued work stays journaled, and the
process exits 0.  A restarted server replays the journal and resumes
exactly the campaigns the drain left behind (see ``docs/serve.md``).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from pathlib import Path
from typing import Any

from repro import obs
from repro.serve.protocol import (
    HttpError,
    Request,
    json_response,
    parse_submission,
    read_request,
    stream_head,
)
from repro.serve.scheduler import ServeScheduler

__all__ = ["ServeApp", "BackgroundServer"]

#: Seconds between event-journal polls while streaming.
_TAIL_INTERVAL_S = 0.05


class ServeApp:
    """One daemon: a listener plus a scheduler, wired for drain."""

    def __init__(
        self,
        scheduler: ServeScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        drain_timeout_s: float = 30.0,
        port_file: "str | Path | None" = None,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.drain_timeout_s = drain_timeout_s
        self.port_file = Path(port_file) if port_file else None
        self._drain_event: "asyncio.Event | None" = None
        self._server: "asyncio.base_events.Server | None" = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener, start the scheduler, publish the port."""
        self._drain_event = asyncio.Event()
        resumed = self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        if self.port_file is not None:
            self.port_file.write_text(f"{self.host}:{self.port}\n")
        if resumed:
            obs.inc("serve.campaigns.resumed", resumed)

    def request_drain(self) -> None:
        """Signal-safe trigger for a graceful drain."""
        if self._drain_event is not None:
            self._drain_event.set()

    async def run(self, install_signals: bool = True) -> "list[str]":
        """Serve until SIGTERM/SIGINT, then drain; returns pending ids."""
        await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self.request_drain)
        assert self._drain_event is not None
        await self._drain_event.wait()
        return await self.shutdown()

    async def shutdown(self) -> "list[str]":
        """Stop the listener and drain the scheduler."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        pending = await loop.run_in_executor(
            None, self.scheduler.drain, self.drain_timeout_s
        )
        if self.port_file is not None and self.port_file.exists():
            self.port_file.unlink()
        return pending

    # -- request handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                writer.write(json_response(exc.status, exc.body()))
                await writer.drain()
                return
            if request is None:
                return
            with obs.timed(
                "serve.request", method=request.method, path=request.path
            ):
                try:
                    await self._dispatch(request, writer)
                except HttpError as exc:
                    writer.write(
                        json_response(exc.status, exc.body(), exc.headers)
                    )
                    await writer.drain()
                except Exception as exc:  # noqa: BLE001 - 500, not a crash
                    obs.inc("serve.request.errors")
                    writer.write(
                        json_response(
                            500,
                            {
                                "error": "internal_error",
                                "detail": f"{type(exc).__name__}: {exc}",
                            },
                        )
                    )
                    await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        parts = [p for p in request.path.split("/") if p]
        if parts[:1] != ["v1"]:
            raise HttpError(404, "not_found", request.path)
        route = parts[1:]
        if route == ["health"]:
            self._require(request, "GET")
            writer.write(
                json_response(
                    200,
                    {
                        "status": "ok",
                        "draining": self.scheduler.draining,
                    },
                )
            )
        elif route == ["stats"]:
            self._require(request, "GET")
            writer.write(json_response(200, self.scheduler.stats()))
        elif route == ["campaigns"]:
            self._require(request, "POST")
            await self._submit(request, writer)
        elif len(route) == 2 and route[0] == "campaigns":
            self._require(request, "GET")
            self._status(route[1], writer)
        elif len(route) == 3 and route[0] == "campaigns":
            self._require(request, "GET")
            if route[2] == "result":
                self._result(route[1], writer)
            elif route[2] == "events":
                await self._events(route[1], writer)
            else:
                raise HttpError(404, "not_found", request.path)
        else:
            raise HttpError(404, "not_found", request.path)
        await writer.drain()

    @staticmethod
    def _require(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405,
                "method_not_allowed",
                f"{request.path} accepts {method}",
                headers={"Allow": method},
            )

    async def _submit(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        submission = parse_submission(
            request.json(), request.headers.get("x-repro-tenant")
        )
        # submit() fsyncs the journal — keep that off the event loop.
        loop = asyncio.get_running_loop()
        outcome = await loop.run_in_executor(
            None, self.scheduler.submit, submission
        )
        if not outcome.accepted:
            retry = max(1, outcome.retry_after_s)
            # Server-side conditions (drain, full disk) are 503; queue
            # backpressure against the client's own rate is 429.
            status = (
                503
                if outcome.reason in ("draining", "storage_degraded")
                else 429
            )
            raise HttpError(
                status,
                outcome.reason,
                "backpressure: resubmit after the Retry-After delay",
                headers={"Retry-After": str(retry)},
            )
        assert outcome.campaign is not None
        writer.write(json_response(202, outcome.campaign.to_dict()))

    def _status(
        self, campaign_id: str, writer: asyncio.StreamWriter
    ) -> None:
        document = self.scheduler.status(campaign_id)
        if document is None:
            raise HttpError(404, "unknown_campaign", campaign_id)
        writer.write(json_response(200, document))

    def _result(
        self, campaign_id: str, writer: asyncio.StreamWriter
    ) -> None:
        status = self.scheduler.status(campaign_id)
        if status is None:
            raise HttpError(404, "unknown_campaign", campaign_id)
        if status["status"] == "failed":
            raise HttpError(
                409, "campaign_failed", status.get("error", "")
            )
        if status["status"] == "degraded":
            # Not a permanent failure: the submission is still
            # journaled, and a restarted daemon re-executes it — the
            # result may yet materialize under the same campaign id.
            raise HttpError(
                503,
                "campaign_degraded",
                status.get("error", ""),
                headers={
                    "Retry-After": str(
                        max(
                            1,
                            self.scheduler.queues.retry_after_s(
                                self.scheduler.slots
                            ),
                        )
                    )
                },
            )
        document = self.scheduler.result(campaign_id)
        if document is None:
            raise HttpError(
                404,
                "result_not_ready",
                f"{campaign_id} is {status['status']}",
                headers={"Retry-After": "1"},
            )
        writer.write(json_response(200, document))

    async def _events(
        self, campaign_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """Stream the campaign's journal slice as x-ndjson until done."""
        from repro.doctor.jsonl import encode
        from repro.fleet.events import EventTail

        if self.scheduler.status(campaign_id) is None:
            raise HttpError(404, "unknown_campaign", campaign_id)
        tail = EventTail(
            self.scheduler.state.events_path, campaign=campaign_id
        )
        writer.write(stream_head())
        await writer.drain()
        while True:
            records = tail.poll()
            for record in records:
                writer.write(encode(record))
            if records:
                await writer.drain()
            status = self.scheduler.status(campaign_id)
            finished = status is None or status["status"] in (
                "done",
                "failed",
                "degraded",
            )
            if finished and not records and not tail.poll():
                return
            await asyncio.sleep(_TAIL_INTERVAL_S)


class BackgroundServer:
    """A ServeApp on a daemon thread — the test and bench harness.

    Runs the app's event loop off the main thread, exposes the bound
    ephemeral port, and tears down with a clean drain::

        with BackgroundServer(scheduler) as server:
            client = ServeClient(port=server.port)
            ...
    """

    def __init__(self, scheduler: ServeScheduler, host: str = "127.0.0.1"):
        self.app = ServeApp(scheduler, host=host, port=0)
        self._thread: "threading.Thread | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._started = threading.Event()
        self._result: "list[str] | None" = None

    @property
    def port(self) -> int:
        return self.app.port

    @property
    def host(self) -> str:
        return self.app.host

    def start(self) -> "BackgroundServer":
        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)

            async def _main() -> "list[str]":
                await self.app.start()
                self._started.set()
                assert self.app._drain_event is not None
                await self.app._drain_event.wait()
                return await self.app.shutdown()

            try:
                self._result = loop.run_until_complete(_main())
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="serve-bg", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("background server failed to start")
        return self

    def stop(self, timeout_s: float = 30.0) -> "list[str]":
        """Drain and join; returns the pending campaign ids."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.app.request_drain)
        if self._thread is not None:
            self._thread.join(timeout_s)
        return self._result or []

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
