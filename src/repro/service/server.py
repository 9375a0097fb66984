"""The asyncio HTTP front end: what-if predictions at interactive latency.

Hand-rolled HTTP/1.1 on one :class:`asyncio.Protocol` connection class
(``loop.create_server``) — no dependencies beyond the standard
library.  One request per connection (``Connection: close``), JSON
bodies, and close-delimited NDJSON for the job progress stream.

Endpoints::

    POST /v1/predict       app x machine x P x executor x seed -> result
                           (body = RunConfig JSON + optional "wait": false)
    GET  /v1/jobs          all tracked jobs (summaries)
    GET  /v1/jobs/<id>     NDJSON event stream (replays, then live)
    GET  /v1/machines      the platform catalog, paper column order
    GET  /v1/whatif/<name> the paper counterfactuals (sx8_fplram,
                           x1_registers, sensitivity, all)
    GET  /v1/stats         cache hit rate, queue depth, coalescing
    GET  /v1/healthz       liveness probe
    POST /v1/shutdown      clean stop (drains the accept loop)

The connection parses its request as the bytes arrive, in
``data_received``.  Request flow for ``/v1/predict``: validate ->
``JobQueue.submit``, synchronous on the event loop: attach to the
in-flight job for the campaign's SHA-256 content key, or open a
one-config campaign (one cache lookup; a hit appends its ``run-done``
to the service journal ``repro-perfdb`` ingests).  A hit, a ``wait:
false`` acceptance and a rejected body need no waiting: the reply goes
out from the same ``data_received`` call, in one ``transport.write``.
A miss becomes a task that waits for one of ``workers`` slots and
computes in a thread (on the ``ProcessExecutor`` pool by default); the
connection's own task waits for it and responds.  Identical in-flight
requests attach to one computation; identical later requests are warm
cache hits, and never wait behind a computation.  Every other route
runs in the connection's task too, writing through the transport with
``pause_writing``/``resume_writing`` flow control.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path
from typing import Any, Coroutine

from .. import __version__
from ..campaign.cache import ResultCache
from ..campaign.engine import resolve_scheduler
from ..campaign.manifest import Manifest, NullManifest
from ..experiments import whatif
from ..machines.catalog import PAPER_ORDER, get_machine
from ..runtime.executors import Executor
from .api import ApiError, parse_predict
from .jobs import FAILED, Job, JobQueue

#: Largest accepted request body.
MAX_BODY_BYTES = 1 << 20
#: Longest accepted request or header line, newline excluded.
MAX_LINE_BYTES = 1 << 16
#: Seconds a client has to send its whole request.
READ_TIMEOUT_S = 30.0

_ROUTES_HELP = (
    "POST /v1/predict, GET /v1/jobs[/<id>], GET /v1/machines, "
    "GET /v1/whatif/<name>, GET /v1/stats, GET /v1/healthz, "
    "POST /v1/shutdown"
)


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "route", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path = path
        self.route = path.rstrip("/") or "/"
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}")


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    431: "Request Header Fields Too Large", 500: "Internal Server Error",
}


def _head(
    status: int, content_type: str, length: int | None = None
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
        f"Server: repro-service/{__version__}",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _json_reply(status: int, payload: Any) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return _head(status, "application/json", len(body)) + body


class _Connection(asyncio.Protocol):
    """One client connection: one request in, one response out.

    :meth:`data_received` parses the request incrementally, with the
    limits above (431 for a line over ``MAX_LINE_BYTES``, 400 for a bad
    ``Content-Length``, 413 for a body over ``MAX_BODY_BYTES``) and
    ``READ_TIMEOUT_S`` to finish it.  The service then either answers
    at once (:meth:`send`) or gives the connection one task
    (:meth:`spawn`), which writes through ``transport`` and
    :meth:`drain`, and is cancelled if the client goes away.
    """

    def __init__(self, service: "ReproService") -> None:
        self.service = service
        self.transport: asyncio.Transport | None = None
        self._buf = bytearray()
        #: start of the first line not parsed yet
        self._pos = 0
        #: (method, path) once the request line is in
        self._start: tuple[str, str] | None = None
        self._headers: dict[str, str] = {}
        #: body length once the blank line ending the head is in
        self._length = -1
        #: the one request (or its refusal) is in hand: read no more
        self._taken = False
        self._task: asyncio.Task | None = None
        #: set while the transport's write buffer is over its high mark
        self._writable: asyncio.Future | None = None

    # -- asyncio.Protocol ---------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self._deadline = asyncio.get_running_loop().call_later(
            READ_TIMEOUT_S, transport.abort
        )

    def data_received(self, data: bytes) -> None:
        if self._taken:
            return
        self._buf += data
        try:
            request = self._parse()
        except ApiError as exc:
            # the client may still be sending: half-close so it reads
            # the refusal, and close once it is done (or the deadline)
            self._taken = True
            self.transport.write(
                _json_reply(exc.status, {"error": exc.message})
            )
            self.transport.write_eof()
            return
        if request is not None:
            self._taken = True
            self._deadline.cancel()
            self.service._serve(request, self)

    def eof_received(self) -> bool:
        # a client may half-close once its request is sent: keep the
        # connection while its task still has a reply to write
        return self._task is not None and not self._task.done()

    def connection_lost(self, exc: Exception | None) -> None:
        self._deadline.cancel()
        if self._task is not None:
            self._task.cancel()
        self.resume_writing()

    def pause_writing(self) -> None:
        self._writable = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        if self._writable is not None:
            if not self._writable.done():  # a cancelled task's is
                self._writable.set_result(None)
            self._writable = None

    # -- request parsing ----------------------------------------------------

    def _parse(self) -> _Request | None:
        """The request once all of it is buffered, else ``None``."""
        buf = self._buf
        while self._length < 0:
            what = "request line" if self._start is None else "header line"
            end = buf.find(b"\n", self._pos, self._pos + MAX_LINE_BYTES + 1)
            if end < 0:
                if len(buf) - self._pos > MAX_LINE_BYTES:
                    raise ApiError(
                        431, f"{what} exceeds the {MAX_LINE_BYTES}-byte limit"
                    )
                return None
            line = buf[self._pos:end + 1].decode("latin-1")
            self._pos = end + 1
            if self._start is None:
                try:
                    method, target, _version = line.split()
                except ValueError:  # not HTTP: nothing to answer
                    self._taken = True
                    self.transport.close()
                    return None
                self._start = (method.upper(), target.split("?", 1)[0])
            elif line in ("\r\n", "\n"):
                self._length = _body_length(self._headers)
            else:
                name, _, value = line.partition(":")
                self._headers[name.strip().lower()] = value.strip()
        if len(buf) - self._pos < self._length:
            return None
        body = bytes(buf[self._pos:self._pos + self._length])
        return _Request(*self._start, self._headers, body)

    # -- responding ---------------------------------------------------------

    def send(self, status: int, payload: Any) -> None:
        """The whole JSON response in one write, then close."""
        self.transport.write(_json_reply(status, payload))
        self.transport.close()

    def spawn(self, work: Coroutine[Any, Any, None]) -> None:
        """Run ``work`` as this connection's task; close when it ends."""
        self._task = asyncio.get_running_loop().create_task(self._run(work))

    async def _run(self, work: Coroutine[Any, Any, None]) -> None:
        try:
            await work
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self.service._fail(exc, self)
        finally:
            self.transport.close()

    async def drain(self) -> None:
        """Wait until the transport takes writes again."""
        if self._writable is not None:
            await self._writable


def _body_length(headers: dict[str, str]) -> int:
    declared = headers.get("content-length") or "0"
    if not declared.isdecimal():
        raise ApiError(
            400, f"bad Content-Length header {declared!r}: "
            "expected a non-negative integer"
        )
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    return length


def _predict_reply(
    job: Job, coalesced: bool, wait: bool
) -> tuple[int, dict[str, Any]]:
    reply = {**job.summary(), "coalesced": coalesced}
    if not wait:
        return 202, reply
    if job.state == FAILED:
        return 500, reply
    return 200, {**reply, "result": job.result}


class ReproService:
    """The long-running prediction service over one shared cache."""

    def __init__(
        self,
        cache_dir: "str | Path",
        *,
        workers: int = 2,
        scheduler: "str | Executor" = "processes",
        manifest: "str | Path | Manifest | NullManifest | None" = None,
        campaign_name: str = "service",
    ) -> None:
        self.cache = ResultCache(cache_dir)
        self.scheduler = resolve_scheduler(scheduler)
        self.queue = JobQueue(
            cache=self.cache,
            manifest=manifest,
            scheduler=self.scheduler,
            workers=workers,
            campaign_name=campaign_name,
        )
        self.manifest = self.queue.manifest
        self.started_at = time.time()
        self.requests: dict[str, int] = {}
        self._whatif_cache: dict[str, Any] = {}
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self.host: str | None = None
        self.port: int | None = None

    # -- lifecycle --------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``self.port`` holds the real port."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), host, port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]

    def request_stop(self) -> None:
        """Ask the serve loop to exit (event-loop thread only)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_stopped(self) -> None:
        """Block until ``request_stop`` (or ``POST /v1/shutdown``)."""
        assert self._stop_event is not None, "start() first"
        await self._stop_event.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.queue.stop()

    # -- request handling -------------------------------------------------

    def _serve(self, request: _Request, conn: _Connection) -> None:
        """Answer ``request`` on ``conn``: a predict that needs no
        waiting right here, anything else from the connection's task."""
        try:
            if request.route == "/v1/predict" and request.method == "POST":
                self._count("predict")
                config, wait = parse_predict(request.json())
                job, coalesced = self.queue.submit(config)
                if job.finished or not wait:
                    conn.send(*_predict_reply(job, coalesced, wait))
                else:
                    conn.spawn(self._await_predict(job, coalesced, conn))
            else:
                conn.spawn(self._dispatch(request, conn))
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._fail(exc, conn)

    def _fail(self, exc: Exception, conn: _Connection) -> None:
        self._count("errors")
        if isinstance(exc, ApiError):
            conn.send(exc.status, {"error": exc.message})
        else:
            conn.send(500, {"error": f"{type(exc).__name__}: {exc}"})

    async def _dispatch(self, request: _Request, conn: _Connection) -> None:
        method, path = request.method, request.route
        if path == "/v1/jobs" and method == "GET":
            self._count("jobs")
            conn.send(200, {"jobs": [j.summary() for j in self.queue.jobs()]})
        elif path.startswith("/v1/jobs/") and method == "GET":
            self._count("jobs")
            await self._stream_job(path.removeprefix("/v1/jobs/"), conn)
        elif path == "/v1/machines" and method == "GET":
            self._count("machines")
            conn.send(200, {"machines": _machine_rows()})
        elif path.startswith("/v1/whatif/") and method == "GET":
            self._count("whatif")
            await self._whatif(path.removeprefix("/v1/whatif/"), conn)
        elif path == "/v1/stats" and method == "GET":
            self._count("stats")
            conn.send(200, self.stats())
        elif path == "/v1/healthz" and method == "GET":
            conn.send(200, {"ok": True, "version": __version__})
        elif path == "/v1/shutdown" and method == "POST":
            conn.send(200, {"ok": True, "stopping": True})
            self.request_stop()
        else:
            raise ApiError(
                404, f"no route {method} {request.path}; try: {_ROUTES_HELP}"
            )

    # -- endpoints --------------------------------------------------------

    async def _await_predict(
        self, job: Job, coalesced: bool, conn: _Connection
    ) -> None:
        await job.wait()
        conn.send(*_predict_reply(job, coalesced, True))

    async def _stream_job(self, job_id: str, conn: _Connection) -> None:
        job = self.queue.get(job_id)
        if job is None:
            raise ApiError(404, f"no such job: {job_id!r}")
        conn.transport.write(_head(200, "application/x-ndjson"))
        await conn.drain()
        async for event in job.stream():
            conn.transport.write(
                (json.dumps(event, sort_keys=True) + "\n").encode()
            )
            await conn.drain()

    async def _whatif(self, name: str, conn: _Connection) -> None:
        cases = dict(whatif.WHATIF_CASES)
        cases["all"] = whatif.run
        fn = cases.get(name)
        if fn is None:
            raise ApiError(
                404,
                f"unknown what-if {name!r}; available: "
                + ", ".join(sorted(cases)),
            )
        if name not in self._whatif_cache:
            # pure model evaluation — compute once off-loop, serve forever
            self._whatif_cache[name] = await asyncio.to_thread(fn)
        conn.send(200, {"whatif": name, "data": self._whatif_cache[name]})

    # -- stats ------------------------------------------------------------

    def _count(self, endpoint: str) -> None:
        self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def stats(self) -> dict[str, Any]:
        """The ``/v1/stats`` payload: cache, queue, coalescing, traffic."""
        session = self.cache.stats
        return {
            "uptime_s": time.time() - self.started_at,
            "version": __version__,
            "scheduler": self.scheduler.name,
            "requests": {
                **self.requests,
                "total": sum(self.requests.values()),
            },
            "cache": {
                "entries": len(self.cache),
                "hits": session.hits,
                "misses": session.misses,
                "puts": session.puts,
                "hit_rate": session.hit_rate,
                "lifetime": self.cache.lifetime_stats().as_dict(),
            },
            "coalesce": {
                "in_flight": self.queue.in_flight,
                "coalesced_total": self.queue.coalesced_total,
            },
            "queue": {
                "depth": self.queue.depth,
                "running": self.queue.running,
                "workers": self.queue.workers,
            },
            "jobs": {
                "completed": self.queue.completed,
                "failed": self.queue.failed,
                "tracked": len(self.queue.jobs()),
            },
        }


def _machine_rows() -> list[dict[str, Any]]:
    rows = []
    for name in PAPER_ORDER:
        m = get_machine(name)
        rows.append(
            {
                "name": m.name,
                "kind": m.kind.name.lower(),
                "clock_mhz": m.clock_mhz,
                "peak_gflops": m.peak_gflops,
                "stream_bw_gbs": m.stream_bw_gbs,
                "mpi_latency_us": m.mpi_latency_us,
                "mpi_bw_gbs": m.mpi_bw_gbs,
                "interconnect": m.interconnect_name,
                "max_processors": m.max_processors,
                "notes": m.notes,
            }
        )
    return rows


class ServiceThread:
    """Run a :class:`ReproService` on a background event-loop thread.

    The test-suite / benchmark harness: ``with ServiceThread(service)
    as svc:`` binds an ephemeral port, serves until the block exits,
    and tears down cleanly (queue drained, sockets closed).
    """

    def __init__(
        self,
        service: ReproService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )

    @property
    def port(self) -> int:
        assert self.service.port is not None
        return self.service.port

    def start(self) -> "ServiceThread":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if self.service.port is None:
            raise RuntimeError("service failed to start within 30 s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(timeout=30.0)

    def _main(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        try:
            await self.service.start(self._host, self._port)
        except BaseException as exc:  # pragma: no cover - bind failures
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.service.serve_until_stopped()

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
