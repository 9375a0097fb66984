"""One persistent rank team behind ``ProcessExecutor.map_segments``.

The paper's codes are SPMD programs whose ranks live for the whole run
and exchange only data each step.  A :class:`RankTeam` is that shape on
the host: ``W`` worker processes forked **once**, lazily, at the first
parallel region (so they inherit the solver the parent has built), then
handed one contiguous shard of every later region as a *message* and
answering with the shard's marshalled outcomes.  Between regions the
workers sit in a blocking ``recv``.

What a region message carries follows one data-flow rule:

* a NumPy array whose memory lies in a live
  :class:`~repro.runtime.shm.SharedArenaPool` slab travels **by
  reference** (:func:`repro.runtime.shm.reduce_ndarray`), strided
  views included, in both directions;
* a :class:`Tokened` object (``Communicator``, ``Arena``,
  ``KernelBackend``) travels **by token** and resolves to the worker's
  inherited copy;
* everything else travels **by value**.

A region that cannot be expressed against the snapshot the workers were
forked from — the callable or an argument does not pickle, or a token
was minted after the fork — re-forks the team from the current parent
state and runs that region *inherited* (nothing pickled in).  That is
the only fallback; it costs what every region used to cost.

A segment therefore reads only its arguments and returns, or writes
through shared-memory arguments, its effects.  State a worker keeps
between regions (its inherited arena's scratch buffers, say) is private
to the worker and never the parent's.
"""

from __future__ import annotations

import copyreg
import ctypes
import gc
import io
import itertools
import os
import pickle
import signal
import sys
import threading
import time
import traceback
import weakref
from collections import ChainMap
from multiprocessing.connection import Connection, Pipe
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "RankTeam",
    "RegionArgs",
    "Tokened",
    "contiguous_shards",
    "live_workers",
]

#: Seconds a worker gets to honour a shutdown message before SIGKILL.
_JOIN_S = 5.0
_PR_SET_PDEATHSIG = 1


def contiguous_shards(n: int, workers: int) -> list[tuple[int, int]]:
    """``range(n)`` as ``min(n, workers)`` contiguous half-open
    ``(lo, hi)`` ranges whose lengths differ by at most one (the longer
    ones first): 8 over 3 is ``(0, 3), (3, 6), (6, 8)``."""
    w = min(n, workers)
    if w < 1:
        return []
    base, extra = divmod(n, w)
    shards = []
    lo = 0
    for k in range(w):
        hi = lo + base + (k < extra)
        shards.append((lo, hi))
        lo = hi
    return shards


# -- tokens ---------------------------------------------------------------

_tokens = itertools.count(1)
_TOKENED: "weakref.WeakValueDictionary[int, Tokened]" = (
    weakref.WeakValueDictionary()
)
#: ``.watermark`` is set on the thread that is pickling for a team.
_wire = threading.local()


class _NotInSnapshot(Exception):
    """A token minted after the team's workers were forked."""


def _by_token(token: int) -> "Tokened":
    return _TOKENED[token]


class Tokened:
    """An object a team message names instead of copying.

    Safe for a class whose fields *segments read* are fixed at
    construction: a worker resolves the token to the copy it inherited
    at fork, which never sees the parent's later mutations.  Tokens
    come from one monotonic counter, so "minted after the fork" is a
    comparison with the team's watermark.  Outside a team message the
    object pickles and copies as it always did (the copy gets a token
    of its own).
    """

    def __new__(cls, *args: Any, **kwargs: Any) -> "Tokened":
        self = super().__new__(cls)
        self._token = next(_tokens)
        _TOKENED[self._token] = self
        return self

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_token", None)
        return state

    def __reduce_ex__(self, protocol: int):
        watermark = getattr(_wire, "watermark", None)
        if watermark is None:
            return super().__reduce_ex__(protocol)
        if self._token > watermark:
            raise _NotInSnapshot(repr(self))
        return _by_token, (self._token,)


class RegionArgs(Tokened):
    """What every region of one solver reads: its arena buffers, rank
    geometry and constants.  All fixed at construction — the buffers'
    contents change, in shared memory under a process executor — so a
    rank-team message names it by token instead of copying it."""

    def __init__(self, **fields: Any) -> None:
        self.__dict__.update(fields)


# -- the wire format ----------------------------------------------------------


class _Pickler(pickle.Pickler):
    """``pickle`` plus the by-reference rule for shared-memory arrays
    (the by-token rule is :meth:`Tokened.__reduce_ex__`)."""

    dispatch_table: "ChainMap[type, Callable] | None" = None


def _dumps(obj: Any, watermark: int) -> bytes:
    if _Pickler.dispatch_table is None:
        from .shm import reduce_ndarray  # shm imports arena imports us

        _Pickler.dispatch_table = ChainMap(
            {np.ndarray: reduce_ndarray}, copyreg.dispatch_table
        )
    buf = io.BytesIO()
    _wire.watermark = watermark
    try:
        _Pickler(buf, pickle.HIGHEST_PROTOCOL).dump(obj)
    finally:
        _wire.watermark = None
    return buf.getvalue()


def _run_shard(
    fn: Callable, lo: int, items: Sequence, watermark: int
) -> bytes:
    """Run one shard in a worker; its outcome, marshalled.

    The outcome is ``(results, error)``: the results of the items that
    completed, in order, and the exception that stopped the shard (or
    ``None``).  A result or exception that refuses to pickle becomes a
    ``RuntimeError`` naming the segment.
    """
    results: list = []
    error: BaseException | None = None
    for item in items:
        try:
            results.append(fn(item))
        except BaseException as exc:  # noqa: BLE001 - marshalled to parent
            error = exc
            break
    try:
        return _dumps((results, error), watermark)
    except Exception:  # noqa: BLE001 - find which part, below
        pass
    for k, value in enumerate(results):
        try:
            _dumps(value, watermark)
        except Exception as exc:  # noqa: BLE001 - named for the parent
            return _dumps(
                (
                    results[:k],
                    RuntimeError(
                        f"segment {lo + k} produced a result that cannot "
                        f"be pickled back to the parent: {exc!r}"
                    ),
                ),
                watermark,
            )
    return _dumps(
        (
            results,
            RuntimeError(
                f"segment {lo + len(results)} raised an exception that "
                f"cannot be pickled back to the parent: {error!r}"
            ),
        ),
        watermark,
    )


# -- workers ------------------------------------------------------------------


class _Member:
    """One worker as its team sees it.  ``owner`` is the process that
    forked it — the only one that may signal or reap it; a later fork
    of the owner inherits the record and must not."""

    __slots__ = ("pid", "conn", "owner")

    def __init__(self, pid: int, conn: Connection, owner: int) -> None:
        self.pid = pid
        self.conn = conn
        self.owner = owner


#: Every team of this process, so a freshly forked worker can close the
#: parent ends it inherited (its own team's and every other's) and the
#: test suite can ask who is alive.
_TEAMS: "weakref.WeakSet[RankTeam]" = weakref.WeakSet()


def live_workers() -> list[int]:
    """Pids of every team worker this process owns right now."""
    me = os.getpid()
    return [
        m.pid
        for team in list(_TEAMS)
        for m in team._members
        if m.owner == me
    ]


def _die_with_parent(parent_pid: int) -> None:
    """Ask the kernel to SIGKILL this worker when its parent goes."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:  # it went before we asked
        os._exit(1)


def _worker_main(
    conn: Connection,
    parent_pid: int,
    watermark: int,
    first: tuple[Callable, int, Sequence] | None,
) -> None:
    """A forked worker's whole life; never returns.

    Leaves through ``os._exit`` so none of the parent's ``atexit``
    hooks, finalizers or buffered output run a second time here.
    """
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent decides
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        _die_with_parent(parent_pid)
        # Later forks inherit every parent end alive at that moment; a
        # worker that kept them would hold its siblings' (and other
        # teams') pipes open after their parent ends are closed.
        for team in list(_TEAMS):
            for member in team._members:
                member.conn.close()
        # the inherited heap is the snapshot tokens resolve against:
        # keep it alive, and keep the collector from copying its pages
        snapshot = list(_TOKENED.values())  # noqa: F841
        gc.freeze()
        if first is not None:
            fn, lo, items = first
            conn.send_bytes(_run_shard(fn, lo, items, watermark))
        while True:
            head = conn.recv_bytes()  # idle: blocked here
            if not head:
                break  # the shutdown message
            body = conn.recv_bytes()
            try:
                fn = pickle.loads(head)
                lo, items = pickle.loads(body)
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                reply = _dumps(
                    ([], RuntimeError(
                        f"team worker could not read its region: {exc!r}"
                    )),
                    watermark,
                )
            else:
                reply = _run_shard(fn, lo, items, watermark)
            conn.send_bytes(reply)
        code = 0
    except (EOFError, OSError):
        pass  # the parent closed its end without a shutdown message
    except Exception:  # noqa: BLE001 - a bug in this loop
        traceback.print_exc()  # the exit below would hide it
    finally:
        os._exit(code)


def _reap(member: _Member, timeout: float) -> int | None:
    """Wait up to ``timeout`` for a worker to exit, kill it otherwise;
    always reaps.  Returns its exit code (negative signal number if it
    was killed), or ``None`` if someone else reaped it first."""
    try:
        # the worker's end closes when it exits, which reads as EOF
        if not member.conn.poll(timeout):
            os.kill(member.pid, signal.SIGKILL)
    except (OSError, ValueError):
        pass  # connection already closed / process already gone
    try:
        _, status = os.waitpid(member.pid, 0)
    except ChildProcessError:
        return None
    return os.waitstatus_to_exitcode(status)


def _disband(members: list[_Member], kill: bool) -> None:
    """Stop and reap ``members`` (module-level so ``weakref.finalize``
    can call it without keeping the team alive).  Of workers this
    process merely inherited it only drops its copies of the pipe
    ends."""
    me = os.getpid()
    mine = [m for m in members if m.owner == me]
    for m in mine:
        try:
            if kill:
                os.kill(m.pid, signal.SIGKILL)
            else:
                m.conn.send_bytes(b"")
        except OSError:
            pass  # already dead; reaped below
    deadline = time.monotonic() + _JOIN_S
    for m in mine:
        _reap(m, max(0.0, deadline - time.monotonic()))
    for m in members:
        m.conn.close()
    members.clear()


class RankTeam:
    """``workers`` long-lived forked processes stepping region shards.

    ``spawns`` (times the team was forked), ``regions``, ``bytes_sent``
    and ``bytes_received`` are the whole observability surface.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.spawns = 0
        self.regions = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self._members: list[_Member] = []
        self._watermark = 0
        self._lock = threading.Lock()  # one region at a time
        # backstop for an executor nobody closed; also runs at exit
        self._finalizer = weakref.finalize(
            self, _disband, self._members, False
        )
        _TEAMS.add(self)

    def close(self) -> None:
        """Shutdown message, join with a timeout, then kill; a later
        :meth:`run` forks a fresh team.  Idempotent."""
        with self._lock:
            _disband(self._members, False)

    def _spawn(self, fn: Callable, items: Sequence, shards) -> None:
        """Fork the team from the parent as it is now; the new workers
        start by running ``fn`` over their shard of ``items``, which
        they inherited rather than received."""
        _disband(self._members, False)
        parent = os.getpid()
        # anything constructed from here on is not in the snapshot
        self._watermark = next(_tokens)
        for stream in (sys.stdout, sys.stderr):
            try:  # or the workers inherit what is still buffered
                stream.flush()
            except (AttributeError, ValueError):
                pass  # no such stream, or it is closed
        for k in range(self.workers):
            ours, theirs = Pipe(duplex=True)
            first = None
            if k < len(shards):
                lo, hi = shards[k]
                first = (fn, lo, items[lo:hi])
            pid = os.fork()
            if pid == 0:
                ours.close()
                _worker_main(theirs, parent, self._watermark, first)
            theirs.close()
            self._members.append(_Member(pid, ours, parent))
        self.spawns += 1

    def run(self, fn: Callable, items: Sequence, shards) -> list:
        """``[fn(item) for item in items]``, shard ``k`` of ``shards``
        on worker ``k``.  Raises the first failure in item order; if a
        worker dies, raises ``RuntimeError`` and discards the team (the
        next region forks a new one)."""
        with self._lock:
            self.regions += 1
            try:
                results, error = self._run(fn, items, shards)
            except BaseException:
                # replies may be half-read or still in flight: nothing
                # about the team's state can be trusted any more
                _disband(self._members, True)
                raise
        if error is not None:
            raise error
        return results

    def _run(
        self, fn: Callable, items: Sequence, shards
    ) -> tuple[list, BaseException | None]:
        sent = False
        if self._members and self._members[0].owner == os.getpid():
            try:
                head = _dumps(fn, self._watermark)
                bodies = [
                    _dumps((lo, items[lo:hi]), self._watermark)
                    for lo, hi in shards
                ]
            except Exception:  # noqa: BLE001
                # whatever the reason it does not pickle, the cure is
                # the same: let fresh workers inherit it instead
                pass
            else:
                for m, body in zip(self._members, bodies):
                    try:
                        m.conn.send_bytes(head)
                        m.conn.send_bytes(body)
                    except OSError:
                        raise self._death(
                            m, "before taking its shard"
                        ) from None
                    self.bytes_sent += len(head) + len(body)
                sent = True
        if not sent:
            self._spawn(fn, items, shards)
        active = self._members[: len(shards)]
        results: list = []
        error: BaseException | None = None
        for m in active:
            try:
                reply = m.conn.recv_bytes()
            except (EOFError, OSError):
                raise self._death(m, "before returning results") from None
            self.bytes_received += len(reply)
            part, exc = pickle.loads(reply)
            results.extend(part)
            if error is None:
                error = exc  # shards are in item order: first wins
        return results, error

    def _death(self, member: _Member, when: str) -> RuntimeError:
        code = _reap(member, 0.0)
        member.conn.close()
        self._members.remove(member)  # reaped: its pid is not ours now
        return RuntimeError(
            f"team worker (pid {member.pid}) died with exit code {code} "
            f"{when}"
        )
