"""The asyncio HTTP front end: what-if predictions at interactive latency.

Hand-rolled HTTP/1.1 over ``asyncio.start_server`` — no dependencies
beyond the standard library.  One request per connection
(``Connection: close``), JSON bodies, and close-delimited NDJSON for
the job progress stream.

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

Request flow for ``/v1/predict``: validate -> ``JobQueue.submit``,
synchronous on the event loop: attach to the in-flight job for the
campaign's SHA-256 content key, or open a one-config campaign (one
cache lookup, journaled to the service manifest ``repro-perfdb``
ingests) -> a hit is answered right there; a miss becomes a task that
waits for one of ``workers`` slots and computes in a thread (on the
``ProcessExecutor`` pool by default) -> respond.  Identical in-flight
requests attach to one computation; identical later requests are warm
cache hits, and never wait behind a computation.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path
from typing import Any

from .. import __version__
from ..campaign.cache import ResultCache
from ..campaign.engine import default_manifest_path, resolve_scheduler
from ..campaign.manifest import Manifest, NullManifest
from ..experiments import whatif
from ..machines.catalog import PAPER_ORDER, get_machine
from ..runtime.executors import Executor
from .api import ApiError, parse_predict
from .jobs import FAILED, JobQueue

#: Largest accepted request body.
MAX_BODY_BYTES = 1 << 20

_ROUTES_HELP = (
    "POST /v1/predict, GET /v1/jobs[/<id>], GET /v1/machines, "
    "GET /v1/whatif/<name>, GET /v1/stats, GET /v1/healthz, "
    "POST /v1/shutdown"
)


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "headers", "body")

    def __init__(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}")


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one request off the stream, or ``None`` on EOF/garbage."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        return None
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    if not declared.isdecimal():
        raise ApiError(
            400, f"bad Content-Length header {declared!r}: "
            "expected a non-negative integer"
        )
    length = int(declared)
    if length > MAX_BODY_BYTES:
        raise ApiError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return _Request(method.upper(), target.split("?", 1)[0], headers, body)


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error",
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


async def _send_json(
    writer: asyncio.StreamWriter, status: int, payload: Any
) -> None:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    writer.write(_head(status, "application/json", len(body)))
    writer.write(body)
    await writer.drain()


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
        if manifest is None:
            manifest = Manifest(
                default_manifest_path(self.cache.root, campaign_name)
            )
        elif isinstance(manifest, (str, Path)):
            manifest = Manifest(manifest)
        self.manifest = manifest
        self.scheduler = resolve_scheduler(scheduler)
        self.queue = JobQueue(
            cache=self.cache,
            manifest=self.manifest,
            scheduler=self.scheduler,
            workers=workers,
            campaign_name=campaign_name,
        )
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
        self._server = await asyncio.start_server(self._handle, host, port)
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

    # -- connection handling ----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader), timeout=30.0
                )
            except (ApiError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                if isinstance(exc, ApiError):
                    await _send_json(
                        writer, exc.status, {"error": exc.message}
                    )
                return
            if request is None:
                return
            try:
                await self._dispatch(request, writer)
            except ApiError as exc:
                self._count("errors")
                await _send_json(writer, exc.status, {"error": exc.message})
            except (ConnectionError, BrokenPipeError):
                pass
            except Exception as exc:  # noqa: BLE001 - last-resort boundary
                self._count("errors")
                await _send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/v1/predict" and method == "POST":
            self._count("predict")
            await self._predict(request, writer)
        elif path == "/v1/jobs" and method == "GET":
            self._count("jobs")
            await _send_json(
                writer,
                200,
                {"jobs": [j.summary() for j in self.queue.jobs()]},
            )
        elif path.startswith("/v1/jobs/") and method == "GET":
            self._count("jobs")
            await self._stream_job(path.removeprefix("/v1/jobs/"), writer)
        elif path == "/v1/machines" and method == "GET":
            self._count("machines")
            await _send_json(writer, 200, {"machines": _machine_rows()})
        elif path.startswith("/v1/whatif/") and method == "GET":
            self._count("whatif")
            await self._whatif(path.removeprefix("/v1/whatif/"), writer)
        elif path == "/v1/stats" and method == "GET":
            self._count("stats")
            await _send_json(writer, 200, self.stats())
        elif path == "/v1/healthz" and method == "GET":
            await _send_json(
                writer, 200, {"ok": True, "version": __version__}
            )
        elif path == "/v1/shutdown" and method == "POST":
            await _send_json(writer, 200, {"ok": True, "stopping": True})
            self.request_stop()
        else:
            self._count("errors")
            raise ApiError(
                404, f"no route {method} {request.path}; try: {_ROUTES_HELP}"
            )

    # -- endpoints --------------------------------------------------------

    async def _predict(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        config, wait = parse_predict(request.json())
        job, coalesced = self.queue.submit(config)
        if not wait:
            await _send_json(
                writer, 202, {**job.summary(), "coalesced": coalesced}
            )
            return
        await job.wait()
        if job.state == FAILED:
            await _send_json(
                writer,
                500,
                {**job.summary(), "coalesced": coalesced},
            )
            return
        await _send_json(
            writer,
            200,
            {**job.summary(), "coalesced": coalesced, "result": job.result},
        )

    async def _stream_job(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        job = self.queue.get(job_id)
        if job is None:
            raise ApiError(404, f"no such job: {job_id!r}")
        writer.write(_head(200, "application/x-ndjson"))
        await writer.drain()
        async for event in job.stream():
            writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
            await writer.drain()

    async def _whatif(
        self, name: str, writer: asyncio.StreamWriter
    ) -> None:
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
        await _send_json(
            writer, 200, {"whatif": name, "data": self._whatif_cache[name]}
        )

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
