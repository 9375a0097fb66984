"""The campaign-side half of distributed dispatch.

A :class:`Coordinator` owns a listening TCP socket and a table of work
*tickets*.  ``repro-distrib worker`` processes connect, identify
themselves (``hello``), and then *pull* configs one at a time
(``next``) — pull-based dispatch is the work-stealing scheduler: a
host that finishes fast asks again sooner and naturally takes more
cells, a slow host takes fewer, and nobody needs to know anybody's
speed in advance.  ``next`` is a long-poll: with nothing pending the
connection handler *parks* on a condition over the coordinator lock
and answers ``run`` the moment :meth:`Coordinator.dispatch` registers
tickets or a failed attempt is requeued, so an idle worker costs a
cell no polling interval — only the frame's round trip.

:meth:`Coordinator.dispatch` is the campaign engine's seam.  It takes
the same :class:`~repro.campaign.spec.RunConfig` items the engine hands
any executor, registers them as tickets, and yields
``(index, result, exc)`` triples in completion order — exactly the
``imap_unordered`` contract — while connection handler threads move
frames.  A config travels as its ``to_dict()``; a result comes home as
the plain dict the worker computed.  Nothing here touches the cache:
the engine publishes what the dispatch yields, as it does for any
executor.

Failure model (every path bounded and accounted in
:class:`~repro.distrib.faults.DistribStats`):

* **per-config timeout** — an assigned ticket whose deadline expires
  is retried on another worker;
* **dead worker** — EOF, a socket error, or heartbeat silence while
  busy requeues the assignment;
* **attempt budget** — each failure/death/timeout consumes one of
  ``max_attempts``; exhaustion surfaces as the config's terminal
  error (the campaign engine's per-config failure isolation takes it
  from there);
* **no workers at all** — after ``grace_s`` with nobody connected,
  pending tickets are drained by a local fallback thread running the
  ordinary in-process worker function, so ``--scheduler distrib:...``
  degrades to a slow-but-correct local campaign instead of hanging.

Version discipline: a worker whose package version differs from the
coordinator's is rejected at ``hello`` — content keys hash the
version, so a mismatched worker's results would be cached under a key
that promises code it did not run.
"""

from __future__ import annotations

import select
import socket
import threading
import time
from collections import deque
from queue import Empty, Queue
from typing import Any, Callable, Iterator

from .. import __version__
from ..campaign.spec import RunConfig
from .faults import AttemptTracker, DistribStats, WorkerHealth
from .protocol import ProtocolError, recv_msg, send_msg

#: Ticket lifecycle states.
PENDING, ASSIGNED, DONE, FAILED = "pending", "assigned", "done", "failed"

#: How long a connecting worker has to say ``hello``.
HELLO_TIMEOUT_S = 10.0
#: Poll cadence for handler select loops and the monitor thread; also
#: how soon a parked handler notices that its worker hung up.
POLL_S = 0.2
#: How long a ``next`` may stay parked before it is answered with a
#: keepalive ``wait``.  Must stay below the worker's ``REPLY_TIMEOUT_S``.
PARK_S = 10.0


class RemoteRunError(RuntimeError):
    """A config exhausted its attempt budget across the worker pool."""


#: The engine's worker function shape (the local fallback runs it).
LocalFn = Callable[[RunConfig], dict[str, Any]]


class _Ticket:
    """One config's journey through the dispatch table."""

    __slots__ = ("tid", "owner", "index", "config", "key", "state",
                 "worker", "deadline")

    def __init__(self, tid, owner, index, config: RunConfig):
        self.tid = tid
        self.owner = owner
        self.index = index
        self.config = config
        self.key = config.key()  # memoized: the engine keyed it already
        self.state = PENDING
        self.worker: str | None = None
        self.deadline: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in (DONE, FAILED)

    @property
    def label(self) -> str:
        return self.config.app


class _Dispatch:
    """One :meth:`Coordinator.dispatch` invocation's routing state."""

    __slots__ = ("results", "outstanding", "local_fn")

    def __init__(self, outstanding: int, local_fn: "LocalFn | None"):
        self.results: "Queue[tuple[int, dict | None, BaseException | None]]" \
            = Queue()
        self.outstanding = outstanding
        self.local_fn = local_fn


class Coordinator:
    """Listen for workers; dispatch campaign configs pull-based."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout_s: float = 600.0,
        max_attempts: int = 3,
        grace_s: float = 5.0,
        heartbeat_timeout_s: float = 10.0,
        local_fallback: bool = True,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if grace_s < 0:
            raise ValueError(f"grace_s must be >= 0, got {grace_s}")
        self.host = host
        self.port = port
        self.timeout_s = float(timeout_s)
        self.grace_s = float(grace_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self.local_fallback = bool(local_fallback)
        self.stats = DistribStats()
        self.attempts = AttemptTracker(max_attempts)

        self._lock = threading.RLock()
        #: Parked ``next`` handlers wait here; notified (lock held) by
        #: whatever makes a ticket pending, and by :meth:`stop`.
        self._work = threading.Condition(self._lock)
        self._tickets: dict[int, _Ticket] = {}
        self._pending: deque[_Ticket] = deque()
        self._workers: dict[str, WorkerHealth] = {}
        self._conns: dict[str, socket.socket] = {}
        self._next_tid = 0
        self._no_worker_since: float | None = None
        self._stopping = False
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._local_thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._listener is not None

    def ensure_started(self) -> None:
        """Bind, listen, and spin up the accept + monitor threads."""
        with self._lock:
            if self._listener is not None:
                return
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((self.host, self.port))
            except OSError as exc:
                listener.close()
                raise OSError(
                    f"distrib coordinator cannot bind "
                    f"{self.host}:{self.port}: {exc}"
                ) from exc
            listener.listen(64)
            listener.settimeout(POLL_S)
            self._listener = listener
            self.port = listener.getsockname()[1]
            self._no_worker_since = time.monotonic()
            for fn, name in (
                (self._accept_loop, "accept"),
                (self._monitor_loop, "monitor"),
            ):
                t = threading.Thread(
                    target=fn, name=f"distrib-{name}", daemon=True
                )
                t.start()
                self._threads.append(t)

    def stop(self) -> None:
        """Close the listener and every worker connection; join threads."""
        with self._lock:
            if self._listener is None:
                return
            self._stopping = True
            self._work.notify_all()  # parked handlers answer ``shutdown``
            listener, self._listener = self._listener, None
            conns = list(self._conns.values())
        listener.close()
        for conn in conns:
            _close(conn)
        for t in self._threads:
            t.join(timeout=5.0)
        local = self._local_thread
        if local is not None:
            local.join(timeout=5.0)
        with self._lock:
            self._threads.clear()
            self._stopping = False

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def workers(self) -> list[WorkerHealth]:
        """A snapshot of the currently connected workers."""
        with self._lock:
            return list(self._workers.values())

    # -- the engine seam --------------------------------------------------

    def dispatch(
        self, configs: "list[RunConfig]", local_fn: "LocalFn | None" = None
    ) -> Iterator[tuple[int, dict[str, Any] | None, BaseException | None]]:
        """Schedule ``configs``; yield completions.

        The generator satisfies the executor ``imap_unordered``
        contract: one ``(index, result, exc)`` triple per config, in
        completion order, with ``result`` the dict
        :func:`repro.campaign.worker.execute_config` returns.
        ``local_fn`` is that very worker function — the fallback path
        runs it in-process when no workers are connected.

        Concurrent ``dispatch`` calls are safe (the service's job queue
        runs several single-config campaigns at once); tickets from all
        of them share one pending deque and one worker pool.
        """
        self.ensure_started()
        configs = list(configs)
        disp = _Dispatch(
            len(configs), local_fn if self.local_fallback else None
        )
        tickets: list[_Ticket] = []
        with self._lock:
            for index, config in enumerate(configs):
                self._next_tid += 1
                ticket = _Ticket(self._next_tid, disp, index, config)
                self._tickets[ticket.tid] = ticket
                self._pending.append(ticket)
                tickets.append(ticket)
            self._work.notify_all()
        try:
            done = 0
            while done < disp.outstanding:
                try:
                    triple = disp.results.get(timeout=POLL_S)
                except Empty:
                    continue
                done += 1
                yield triple
        finally:
            # consumer gone (or sweep complete): retire our tickets so
            # late worker messages and the fallback thread skip them
            with self._lock:
                for ticket in tickets:
                    if not ticket.terminal:
                        ticket.state = FAILED
                    self._tickets.pop(ticket.tid, None)
                    self.attempts.forget(ticket.tid)

    # -- ticket state transitions (always under the lock) -----------------

    def _fail_attempt(self, ticket: _Ticket, error: str) -> None:
        """Book one failed attempt: requeue while budget remains,
        otherwise the ticket is terminal with the whole history."""
        ticket.deadline = None
        ticket.worker = None
        if self.attempts.record_failure(ticket.tid, error):
            ticket.state = PENDING
            self._pending.append(ticket)
            self.stats.retried += 1
            self._work.notify_all()  # a parked worker takes it at once
            return
        ticket.state = FAILED
        self.stats.failed += 1
        ticket.owner.results.put(
            (
                ticket.index,
                None,
                RemoteRunError(
                    f"config {ticket.label!r} (key {ticket.key[:8]}): "
                    + self.attempts.history(ticket.tid)
                ),
            )
        )

    def _pop_pending(self) -> _Ticket | None:
        while self._pending:
            ticket = self._pending.popleft()
            if not ticket.terminal:
                return ticket
        return None

    # -- accept / connection handling -------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                listener = self._listener
                if listener is None:
                    return
            try:
                conn, addr = listener.accept()
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            t = threading.Thread(
                target=self._serve_worker,
                args=(conn, addr),
                name=f"distrib-conn-{addr[0]}:{addr[1]}",
                daemon=True,
            )
            t.start()

    def _register(self, hello: dict[str, Any], conn: socket.socket,
                  addr) -> WorkerHealth | str:
        """Validate a ``hello``; returns the health record or a
        rejection reason."""
        version = str(hello.get("version", ""))
        if version != __version__:
            return (
                f"version mismatch: worker runs {version or 'unknown'}, "
                f"coordinator runs {__version__} (content keys would "
                "never match)"
            )
        base = str(hello.get("name") or f"{addr[0]}:{addr[1]}")
        with self._lock:
            name = base
            n = 1
            while name in self._workers:
                n += 1
                name = f"{base}#{n}"
            health = WorkerHealth(
                name,
                host=str(hello.get("host", "")),
                cpu_count=int(hello.get("cpu_count") or 0),
                version=version,
            )
            self._workers[name] = health
            self._conns[name] = conn
            self._no_worker_since = None
        return health

    def _unregister(self, health: WorkerHealth | None,
                    conn: socket.socket) -> None:
        _close(conn)
        if health is None:
            return
        with self._lock:
            self._workers.pop(health.name, None)
            self._conns.pop(health.name, None)
            if not self._workers:
                self._no_worker_since = time.monotonic()
            tid = health.busy_tid
            health.busy_tid = None
            ticket = self._tickets.get(tid) if tid is not None else None
            if ticket is not None and ticket.state == ASSIGNED \
                    and ticket.worker == health.name:
                self.stats.dead_workers += 1
                self._fail_attempt(
                    ticket,
                    f"worker {health.name!r} died mid-config",
                )

    def _serve_worker(self, conn: socket.socket, addr) -> None:
        health: WorkerHealth | None = None
        try:
            # frames are small and answered at once: never hold one back
            # for the peer's delayed ACK
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(HELLO_TIMEOUT_S)
            hello = recv_msg(conn)
            if hello is None or hello.get("type") != "hello":
                return
            outcome = self._register(hello, conn, addr)
            if isinstance(outcome, str):
                with self._lock:
                    self.stats.rejected_workers += 1
                send_msg(conn, {"type": "reject", "reason": outcome})
                return
            health = outcome
            send_msg(conn, {"type": "welcome", "version": __version__,
                            "name": health.name})
            conn.settimeout(HELLO_TIMEOUT_S)  # safety net per frame
            while True:
                with self._lock:
                    if self._stopping:
                        return
                if not _readable(conn, POLL_S):
                    continue
                msg = recv_msg(conn)
                if msg is None:
                    return  # clean EOF
                health.touch()
                kind = msg.get("type")
                if kind == "next":
                    self._handle_next(health, conn)
                elif kind == "result":
                    self._handle_result(health, msg)
                elif kind == "failed":
                    self._handle_failed(health, msg)
                elif kind == "heartbeat":
                    pass  # touch() above is the whole point
                elif kind == "bye":
                    return
                # unknown types are ignored: forward compatibility
        except (ProtocolError, TimeoutError, OSError):
            pass  # handled as a dead worker below
        finally:
            self._unregister(health, conn)

    def _handle_next(self, health: WorkerHealth,
                     conn: socket.socket) -> None:
        """Answer one ``next`` — a long-poll.

        With nothing pending the handler parks on the work condition:
        ``run`` goes out the moment a ticket is pending, ``shutdown``
        the moment :meth:`stop` is called, and a keepalive ``wait``
        after ``PARK_S``.  A parked worker sends nothing, so a readable
        socket is EOF (or a protocol violation): the park ends with a
        ``wait`` before any ticket is taken and the read loop deals
        with whatever arrived — a worker that died idle is never
        assigned work and burns no attempt.
        """
        keepalive_at = time.monotonic() + PARK_S
        with self._work:
            while True:
                if self._stopping:
                    reply = {"type": "shutdown"}
                    break
                left = keepalive_at - time.monotonic()
                if left <= 0 or _readable(conn, 0):
                    reply = {"type": "wait"}
                    break
                ticket = self._pop_pending()
                if ticket is not None:
                    ticket.state = ASSIGNED
                    ticket.worker = health.name
                    ticket.deadline = time.monotonic() + self.timeout_s
                    health.busy_tid = ticket.tid
                    # silence counts from the assignment, not from a
                    # ``next`` that may have been parked for PARK_S
                    health.touch()
                    self.stats.dispatched += 1
                    reply = {
                        "type": "run",
                        "tid": ticket.tid,
                        "key": ticket.key,
                        "attempt": self.attempts.attempts(ticket.tid) + 1,
                        "config": ticket.config.to_dict(),
                    }
                    break
                self._work.wait(min(left, POLL_S))
        send_msg(conn, reply)

    def _ticket_for(self, health: WorkerHealth,
                    msg: dict[str, Any]) -> _Ticket | None:
        """The live ticket a result/failed message refers to (by tid
        echo), or ``None`` when it is stale — already completed
        elsewhere, or retired with its dispatch."""
        tid = msg.get("tid")
        if not isinstance(tid, int):
            return None
        if health.busy_tid == tid:
            health.busy_tid = None
        ticket = self._tickets.get(tid)
        if ticket is None or ticket.terminal:
            return None
        return ticket

    def _handle_result(self, health: WorkerHealth,
                       msg: dict[str, Any]) -> None:
        with self._lock:
            ticket = self._ticket_for(health, msg)
            if ticket is None:
                return
            result = msg.get("result")
            if msg.get("key") != ticket.key or not isinstance(result, dict):
                self._fail_attempt(
                    ticket,
                    f"worker {health.name!r} returned a mismatched "
                    "result frame (key or payload)",
                )
                return
            # a ticket requeued by timeout may still be in the pending
            # deque; _pop_pending skips it once terminal
            ticket.state = DONE
            ticket.deadline = None
            self.stats.completed += 1
        ticket.owner.results.put((ticket.index, result, None))

    def _handle_failed(self, health: WorkerHealth,
                       msg: dict[str, Any]) -> None:
        with self._lock:
            ticket = self._ticket_for(health, msg)
            if ticket is None:
                return
            self._fail_attempt(
                ticket,
                f"worker {health.name!r}: "
                f"{str(msg.get('error') or 'unknown failure')}",
            )

    # -- monitor: deadlines, heartbeats, local fallback -------------------

    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._listener is None:
                    return
                now = time.monotonic()
                for ticket in list(self._tickets.values()):
                    if ticket.state != ASSIGNED or ticket.deadline is None:
                        continue
                    if now < ticket.deadline:
                        continue
                    worker = self._workers.get(ticket.worker or "")
                    if worker is not None and worker.busy_tid == ticket.tid:
                        worker.busy_tid = None
                    self.stats.timeouts += 1
                    self._fail_attempt(
                        ticket,
                        f"timed out after {self.timeout_s:g}s on worker "
                        f"{ticket.worker!r}",
                    )
                dead: list[str] = []
                for name, worker in self._workers.items():
                    if worker.busy_tid is not None and \
                            worker.silent_for() > self.heartbeat_timeout_s:
                        dead.append(name)
                conns = [self._conns.get(name) for name in dead]
                want_local = self._want_local_fallback(now)
            for conn in conns:
                if conn is not None:
                    # handler thread sees the error and unregisters,
                    # which books the failed attempt exactly once
                    _close(conn)
            if want_local:
                self._start_local_runner()
            time.sleep(POLL_S / 2)

    def _want_local_fallback(self, now: float) -> bool:
        if self._workers or self._no_worker_since is None:
            return False
        if now - self._no_worker_since < self.grace_s:
            return False
        if self._local_thread is not None and self._local_thread.is_alive():
            return False
        return any(
            not t.terminal and t.owner.local_fn is not None
            for t in self._pending
        )

    def _start_local_runner(self) -> None:
        t = threading.Thread(
            target=self._local_loop, name="distrib-local", daemon=True
        )
        with self._lock:
            if self._local_thread is not None and \
                    self._local_thread.is_alive():
                return
            self._local_thread = t
        t.start()

    def _local_loop(self) -> None:
        """Drain pending tickets in-process while no workers exist.

        Stops the moment a worker connects (it will pull the rest) or
        the pending deque empties.  Runs the engine's own worker
        function, so fallback results are bitwise what a plain local
        campaign would produce.
        """
        while True:
            with self._lock:
                if self._stopping or self._workers:
                    return
                ticket = self._pop_pending()
                if ticket is None:
                    return
                if ticket.owner.local_fn is None:
                    # can't run it here; put it back for a future worker
                    self._pending.append(ticket)
                    return
                ticket.state = ASSIGNED
                ticket.worker = "<local>"
                fn = ticket.owner.local_fn
            try:
                result = fn(ticket.config)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - isolation seam
                with self._lock:
                    self.stats.local_runs += 1
                    if not ticket.terminal:
                        self._fail_attempt(
                            ticket,
                            f"local fallback: {type(exc).__name__}: {exc}",
                        )
                continue
            with self._lock:
                self.stats.local_runs += 1
                if not ticket.terminal:
                    ticket.state = DONE
                    self.stats.completed += 1
                    ticket.owner.results.put((ticket.index, result, None))


def _readable(conn: socket.socket, timeout: float) -> bool:
    """Whether ``conn`` has bytes (or EOF) to read within ``timeout``.

    A socket the monitor or :meth:`Coordinator.stop` closed under us
    has fd -1, which ``select`` reports as ``ValueError``; that is a
    dead connection like any other, so it leaves as ``OSError``.
    """
    try:
        return bool(select.select([conn], [], [], timeout)[0])
    except ValueError as exc:
        raise OSError(f"connection closed under its handler: {exc}") from exc


def _close(conn: socket.socket) -> None:
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        conn.close()
    except OSError:  # pragma: no cover - close never raises in practice
        pass
