"""Shared-memory arena backing: rank state visible across processes.

The executor seam made per-rank compute segments schedulable on a
thread pool; this module makes them schedulable on *worker processes*.
A :class:`SharedArenaPool` owns a handful of POSIX shared-memory slabs
(``multiprocessing.shared_memory``) and hands out NumPy views into
them; an :class:`ShmArena` is a drop-in :class:`~repro.runtime.arena.
Arena` whose buffers live in those slabs, so a forked worker's in-place
writes to a rank's state block are visible to the parent with zero
copies and zero pickling.

Design points, in the order they bit:

* **Bump allocation, no reuse.**  Freshly ``ftruncate``-extended shm is
  zero-filled by the kernel, and the pool never hands the same bytes
  out twice, so every buffer honors the arena contract (zeroed on first
  request) without an explicit ``memset``.  Buffers are 64-byte
  aligned; a request larger than the slab size gets its own slab.
* **Creator-only allocation.**  Only the process that built the pool
  may allocate (``try_allocate`` returns ``None`` elsewhere, and
  :class:`ShmArena` then falls back to private memory).  A forked
  segment that invents a new scratch key mid-region gets an ordinary
  private buffer — correct, just not shared — instead of creating an
  shm segment the parent would never learn about (and could therefore
  never unlink).
* **Unlink exactly once, deterministically.**  ``close()`` unlinks
  every slab (idempotent: first call wins) and is backstopped by a
  ``weakref.finalize`` so an abandoned pool still unlinks at garbage
  collection rather than tripping the interpreter's resource-tracker
  "leaked shared_memory objects" warning.  Live NumPy views keep the
  *mapping* valid after unlink (POSIX semantics), so results handed to
  callers survive the pool they were allocated from.
* **Graceful degradation.**  :func:`shm_available` actually probes a
  segment create (cached) and honors the ``REPRO_SHM_DISABLE``
  environment toggle, so hosts without a usable ``/dev/shm`` — and CI
  jobs simulating them — fall back to serial execution instead of
  failing mid-run.

:class:`ShmHandles` (from :meth:`SharedArenaPool.handles`) names the
pool's slabs as ``/dev/shm`` lists them.  Workers never need it: they
are forked, and inherit the mappings.

Every slab a process can see (created here, inherited at fork, or
attached since) is in one per-process table; :func:`reduce_ndarray`
and :func:`slab_view` use it to send an array that lives in a slab
across a process boundary as ``(slab name, offset, shape, strides,
dtype)`` instead of as bytes — the by-reference rule of
:mod:`repro.runtime.team`.
"""

from __future__ import annotations

import mmap
import os
import pickle
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from .arena import Arena

__all__ = [
    "SharedArenaPool",
    "ShmArena",
    "ShmHandles",
    "shm_available",
]

_ENV_DISABLE = "REPRO_SHM_DISABLE"
_ALIGN = 64
_DEFAULT_SLAB_BYTES = 16 * 1024 * 1024

_probe_lock = threading.Lock()
_probe_result: bool | None = None


def shm_available() -> bool:
    """Can this host actually create POSIX shared memory?

    Probes one tiny segment create/unlink (result cached for the
    process).  Setting ``REPRO_SHM_DISABLE`` to any non-empty value
    forces ``False`` — the CI fallback job uses this to exercise the
    degrade-to-serial path on hosts that do have ``/dev/shm``.
    """
    if os.environ.get(_ENV_DISABLE):
        return False
    global _probe_result
    with _probe_lock:
        if _probe_result is None:
            try:
                seg = shared_memory.SharedMemory(create=True, size=_ALIGN)
            except (OSError, ValueError):
                _probe_result = False
            else:
                _detach_segment(seg)
                try:
                    seg.unlink()
                except OSError:  # pragma: no cover - raced cleanup
                    pass
                _probe_result = True
    return _probe_result


def _detach_segment(seg: shared_memory.SharedMemory) -> None:
    """Close one segment handle without unmapping under live views.

    ``SharedMemory.close()`` must never be called here: it unmaps
    unconditionally.  NumPy arrays built on ``seg.buf`` keep the
    memoryview only as their ``base`` — they hold no PEP-3118 export —
    so ``close()`` raises no ``BufferError`` and would pull the mapping
    out from under live result arrays (a segfault on the next read).
    Dropping the handle's own references instead leaves the mapping
    governed by refcount: any view chains ndarray -> memoryview ->
    mmap, so the memory is unmapped by ``mmap.__del__`` exactly when
    the last view dies (immediately, if there are none).  The fd
    closes now, and ``SharedMemory.__del__`` finds nothing left to
    close (no "Exception ignored" noise at GC).
    """
    seg._buf = None
    seg._mmap = None
    if seg._fd >= 0:
        os.close(seg._fd)
        seg._fd = -1


def _release_segments(segments: list, owner_pid: int) -> None:
    """Unlink + detach every slab (close/finalize callback, runs once).

    Guarded by pid so a forked child that garbage-collects its copy of
    a pool can never unlink the parent's live segments.
    """
    if os.getpid() != owner_pid:
        return
    _forget_slabs([seg.name for seg in segments])
    for seg in segments:
        try:
            seg.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - raced
            pass
        _detach_segment(seg)


def _attach(name: str) -> memoryview:
    """Map an existing segment by name: mapped, never owned.

    ``SharedMemory(name)`` is not used because before Python 3.13 it
    registers the segment with the resource tracker, and a process
    forked from the creator *shares the creator's tracker*: the guest's
    register/unregister pair cancels the owner's registration, and the
    tracker prints a ``KeyError`` traceback when the owner unlinks.  A
    guest has nothing to tell the tracker, so it maps the segment
    itself.
    """
    import _posixshmem  # what SharedMemory itself is built on

    fd = _posixshmem.shm_open("/" + name.lstrip("/"), os.O_RDWR, mode=0o600)
    try:
        return memoryview(mmap.mmap(fd, os.fstat(fd).st_size))
    finally:
        os.close(fd)


# -- arrays by reference ----------------------------------------------------

#: name -> (first address, end address, buffer) of every slab mapped in
#: this process.  Replaced, never mutated, so readers need no lock.
_SLABS: dict[str, tuple[int, int, memoryview]] = {}
_slabs_lock = threading.Lock()


def _remember_slab(name: str, buf: memoryview) -> None:
    global _SLABS
    start = np.frombuffer(buf, dtype=np.uint8).__array_interface__["data"][0]
    with _slabs_lock:
        _SLABS = {**_SLABS, name: (start, start + len(buf), buf)}


def _forget_slabs(names: list[str]) -> None:
    global _SLABS
    with _slabs_lock:
        _SLABS = {k: v for k, v in _SLABS.items() if k not in names}


def slab_view(
    name: str,
    offset: int,
    shape: tuple[int, ...],
    strides: tuple[int, ...],
    dtype: np.dtype,
) -> np.ndarray:
    """The array :func:`reduce_ndarray` described, over this process's
    mapping of the slab; a slab not seen before (created after this
    process forked) is attached by name and kept."""
    entry = _SLABS.get(name)
    if entry is None:
        _remember_slab(name, _attach(name))
        entry = _SLABS[name]
    return np.ndarray(
        shape, dtype=dtype, buffer=entry[2], offset=offset, strides=strides
    )


def reduce_ndarray(arr: np.ndarray):
    """Pickle reducer: an array whose memory lies in a live slab goes
    by reference, any other array by value.

    A view's first element lies inside the slab it was cut from, so
    one address comparison settles it, whatever the strides.
    """
    if arr.size:
        ptr = arr.__array_interface__["data"][0]
        for name, (start, end, _buf) in _SLABS.items():
            if start <= ptr < end:
                return slab_view, (
                    name, ptr - start, arr.shape, arr.strides, arr.dtype
                )
    return arr.__reduce_ex__(pickle.HIGHEST_PROTOCOL)


@dataclass(frozen=True)
class ShmHandles:
    """The names of a pool's live slabs, as ``/dev/shm`` lists them."""

    segments: tuple[str, ...]


class SharedArenaPool:
    """Owner of shared-memory slabs serving zero-filled NumPy buffers.

    Build one per run in the process that steps the solver, draw the
    run's arenas from :meth:`arena`, and :meth:`close` it when the run
    ends — segments are created once (partition-and-build-once), reused
    across every step, and unlinked exactly once.
    """

    def __init__(
        self,
        slab_bytes: int = _DEFAULT_SLAB_BYTES,
        name: str = "repro-shm",
    ) -> None:
        if slab_bytes < _ALIGN:
            raise ValueError(f"slab_bytes must be >= {_ALIGN}")
        if not shm_available():
            raise RuntimeError(
                "POSIX shared memory is unavailable on this host"
                + (
                    f" ({_ENV_DISABLE} is set)"
                    if os.environ.get(_ENV_DISABLE)
                    else " (no usable /dev/shm)"
                )
            )
        self.name = name
        self._slab_bytes = int(slab_bytes)
        self._lock = threading.Lock()
        self._segments: list[shared_memory.SharedMemory] = []
        self._spare = 0  # bytes left in the last slab
        self._owner_pid = os.getpid()
        self._closed = False
        self._buffers = 0
        self._used_bytes = 0
        # GC backstop: an abandoned pool still unlinks its slabs (the
        # callback must not reference self, or it would never fire).
        self._finalizer = weakref.finalize(
            self, _release_segments, self._segments, self._owner_pid
        )

    # -- allocation -----------------------------------------------------

    @property
    def writable(self) -> bool:
        """True when this process may allocate from the pool."""
        return not self._closed and os.getpid() == self._owner_pid

    def try_allocate(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        label: str | None = None,
    ) -> np.ndarray | None:
        """A zero-filled shared buffer, or ``None`` when not writable.

        The ``None`` return is the graceful path a forked worker (or a
        closed pool) takes — callers substitute private memory.
        ``label`` is the caller's name for the buffer; the pool keeps
        no record of it.
        """
        if not self.writable:
            return None
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        shape = tuple(int(s) for s in shape)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        need = max(_ALIGN, -(-max(nbytes, 1) // _ALIGN) * _ALIGN)
        with self._lock:
            if self._closed:
                return None
            if not self._segments or self._spare < need:
                size = max(self._slab_bytes, need)
                seg = shared_memory.SharedMemory(create=True, size=size)
                self._segments.append(seg)
                self._spare = size
                _remember_slab(seg.name, seg.buf)
            seg = self._segments[-1]
            offset = seg.size - self._spare
            self._spare -= need
            self._buffers += 1
            self._used_bytes += nbytes
        return np.ndarray(shape, dtype=dt, buffer=seg.buf, offset=offset)

    def allocate(
        self,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
        label: str | None = None,
    ) -> np.ndarray:
        """Like :meth:`try_allocate` but raising instead of ``None``."""
        buf = self.try_allocate(shape, dtype, label=label)
        if buf is None:
            raise RuntimeError(
                f"pool {self.name!r} is not writable here "
                f"(closed={self._closed}, owner pid {self._owner_pid}, "
                f"this pid {os.getpid()})"
            )
        return buf

    def arena(self, name: str = "shm-arena") -> "ShmArena":
        """A fresh :class:`ShmArena` drawing its buffers from this pool."""
        return ShmArena(self, name=name)

    def handles(self) -> ShmHandles:
        """The names of the pool's slabs so far."""
        with self._lock:
            return ShmHandles(tuple(seg.name for seg in self._segments))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Unlink every slab (exactly once; safe to call repeatedly).

        Live views stay valid — POSIX keeps an unlinked mapping alive
        until the last reference dies — but no further shared
        allocations are served (:meth:`try_allocate` returns ``None``).
        """
        with self._lock:
            self._closed = True
        self._finalizer()  # weakref.finalize: runs the callback once

    @property
    def closed(self) -> bool:
        return self._closed

    # -- introspection --------------------------------------------------

    @property
    def num_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    @property
    def num_buffers(self) -> int:
        return self._buffers

    @property
    def nbytes(self) -> int:
        """Bytes handed out (excluding alignment/slab slack)."""
        return self._used_bytes

    def __enter__(self) -> "SharedArenaPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SharedArenaPool({self.name!r}, slabs={self.num_segments}, "
            f"buffers={self._buffers}, bytes={self._used_bytes}, "
            f"closed={self._closed})"
        )


class ShmArena(Arena):
    """An :class:`Arena` whose buffers are shared-memory views.

    Behaviorally identical to the base arena (zeroed on first request
    of a key, contents persist, per-rank children disjoint) — only the
    backing storage differs, which is what lets forked rank segments
    mutate state blocks the parent can see.  When the pool is not
    writable (forked child, closed pool), new keys silently fall back
    to private memory: still correct, just not shared, so a worker that
    invents a scratch key mid-segment cannot leak an shm segment.
    """

    def __init__(self, pool: SharedArenaPool, name: str = "shm-arena") -> None:
        super().__init__(name=name)
        self._shm_pool = pool

    @property
    def pool(self) -> SharedArenaPool:
        return self._shm_pool

    @property
    def shared(self) -> bool:
        return self._shm_pool.writable

    def _new_buffer(
        self, key: str, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        buf = self._shm_pool.try_allocate(shape, dtype)
        if buf is None:
            return np.zeros(shape, dtype=dtype)
        return buf

    def _make_child(self, rank: int) -> "ShmArena":
        return ShmArena(self._shm_pool, name=f"{self.name}[{rank}]")
