"""The remote half of distributed dispatch: ``repro-distrib worker``.

A :class:`DistribWorker` connects to a coordinator, introduces itself
(``hello`` with host, cpu_count, and package version), then loops:
``next`` -> run the config / ask again on ``wait`` / leave on
``shutdown``.  ``next`` is a long-poll — the coordinator holds the
request until it has work, so an idle worker sits in ``recv`` and
starts a config the moment one is dispatched; ``wait`` is only the
keepalive that ends a long park.  Configs execute through the same
:func:`repro.campaign.worker.execute_config` a local campaign's pool
workers run.  The worker only computes and ships the result dict; the
campaign engine behind the coordinator publishes it to the cache, so a
worker needs no view of the cache directory.

While a config is computing (in a thread), the connection thread sends
``heartbeat`` frames so the coordinator can tell "slow but alive" from
"dead" — a worker that stops heartbeating past the coordinator's
heartbeat timeout gets its assignment retried elsewhere.

The worker exits cleanly when the coordinator says ``shutdown`` or
simply goes away (EOF): campaign over, nothing to reconnect to.
"""

from __future__ import annotations

import os
import socket
import threading
from dataclasses import dataclass
from typing import Any, Callable

from .. import __version__
from ..campaign.spec import RunConfig
from ..campaign.worker import execute_config
from .protocol import recv_msg, send_msg

#: Heartbeat cadence while a config is computing.  Must be comfortably
#: inside the coordinator's ``heartbeat_timeout_s`` (default 10s).
HEARTBEAT_S = 2.0
#: How long to wait for the coordinator's reply to ``hello``/``next``.
#: ``hello`` is answered at once and a parked ``next`` within the
#: coordinator's ``PARK_S`` (which must stay below this); a coordinator
#: silent for longer is a dead one.
REPLY_TIMEOUT_S = 30.0


class WorkerError(RuntimeError):
    """The coordinator rejected us or broke the handshake contract."""


@dataclass
class WorkerStats:
    """What one worker session did, for the CLI summary line."""

    completed: int = 0
    failed: int = 0
    waits: int = 0
    heartbeats: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "completed": self.completed,
            "failed": self.failed,
            "waits": self.waits,
            "heartbeats": self.heartbeats,
        }


def _default_runner(config: dict[str, Any]) -> dict[str, Any]:
    """Execute one wire config dict the way a local campaign worker
    would."""
    return execute_config(RunConfig.from_dict(config))


class DistribWorker:
    """One pull-based worker session against a coordinator.

    ``runner`` is injectable for tests (e.g. a barrier-gated stub that
    guarantees two workers each take work); the default is the real
    campaign execution path.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        name: str | None = None,
        runner: "Callable[[dict[str, Any]], dict[str, Any]] | None" = None,
        heartbeat_s: float = HEARTBEAT_S,
        reply_timeout_s: float = REPLY_TIMEOUT_S,
    ) -> None:
        from .protocol import parse_endpoint

        self.host, self.port = parse_endpoint(endpoint)
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.runner = runner or _default_runner
        self.heartbeat_s = float(heartbeat_s)
        self.reply_timeout_s = float(reply_timeout_s)
        self.stats = WorkerStats()
        #: The (possibly deduplicated) name the coordinator assigned.
        self.assigned_name: str | None = None
        self._stop = threading.Event()

    def stop(self) -> None:
        """Finish the in-flight config (if any), then disconnect; an
        idle worker notices at its next reply, at most the coordinator's
        ``PARK_S`` away."""
        self._stop.set()

    # -- session ----------------------------------------------------------

    def run(self, max_configs: int | None = None) -> WorkerStats:
        """Connect, pull configs until the campaign ends, return stats.

        ``max_configs`` bounds how many configs this session will take
        (tests use it to force a predictable split across workers).
        """
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.reply_timeout_s
        )
        try:
            # ``result`` is followed at once by ``next``: without this the
            # second frame waits (~40 ms) for the first one's delayed ACK
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.reply_timeout_s)
            send_msg(
                sock,
                {
                    "type": "hello",
                    "name": self.name,
                    "host": socket.gethostname(),
                    "cpu_count": os.cpu_count() or 1,
                    "version": __version__,
                },
            )
            welcome = recv_msg(sock)
            if welcome is None:
                raise WorkerError("coordinator hung up during the handshake")
            if welcome.get("type") == "reject":
                raise WorkerError(
                    "coordinator rejected this worker: "
                    f"{welcome.get('reason', 'no reason given')}"
                )
            if welcome.get("type") != "welcome":
                raise WorkerError(
                    f"expected welcome/reject, got {welcome.get('type')!r}"
                )
            self.assigned_name = str(welcome.get("name") or self.name)

            taken = 0
            while not self._stop.is_set():
                if max_configs is not None and taken >= max_configs:
                    break
                send_msg(sock, {"type": "next"})
                reply = recv_msg(sock)
                if reply is None:
                    return self.stats  # coordinator gone: campaign over
                kind = reply.get("type")
                if kind == "shutdown":
                    break
                if kind == "wait":
                    self.stats.waits += 1  # keepalive: ask again at once
                    continue
                if kind != "run":
                    continue  # forward compatibility: ignore the unknown
                taken += 1
                self._execute(sock, reply)
            try:
                send_msg(sock, {"type": "bye"})
            except OSError:
                pass
        finally:
            sock.close()
        return self.stats

    def _execute(self, sock: socket.socket, msg: dict[str, Any]) -> None:
        """Run one assigned config, heartbeating while it computes."""
        tid = msg.get("tid")
        key = msg.get("key")
        config = msg.get("config") or {}
        box: dict[str, Any] = {}

        def _target() -> None:
            try:
                box["result"] = self.runner(config)
            except BaseException as exc:  # noqa: BLE001 - shipped as failed
                box["error"] = exc

        thread = threading.Thread(
            target=_target, name="distrib-run", daemon=True
        )
        thread.start()
        while True:
            thread.join(self.heartbeat_s)
            if not thread.is_alive():
                break
            self.stats.heartbeats += 1
            # an OSError here means the coordinator vanished mid-config;
            # let it propagate — there is nobody to ship the result to
            send_msg(sock, {"type": "heartbeat", "tid": tid})

        error = box.get("error")
        if error is not None:
            self.stats.failed += 1
            send_msg(
                sock,
                {
                    "type": "failed",
                    "tid": tid,
                    "key": key,
                    "error": f"{type(error).__name__}: {error}",
                },
            )
            return
        result = dict(box.get("result") or {})
        # per-worker provenance: the campaign manifest journals this so
        # repro-perfdb can tell which host computed which cell
        result.setdefault("worker", self.assigned_name or self.name)
        self.stats.completed += 1
        send_msg(
            sock,
            {"type": "result", "tid": tid, "key": key, "result": result},
        )
