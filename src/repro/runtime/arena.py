"""Scratch-buffer arena: reusable, shape/dtype-keyed workspaces.

The simulated machine runs every rank in one Python process, so the
"bandwidth-bound" kernels the paper studies spend a large share of
their real wall-clock time in ``malloc``/``free`` churn: every LBMHD
collision re-allocates its equilibrium temporaries, every GTC deposit
its stencil stacks, every PARATEC transpose its pack buffers.  An
:class:`Arena` hands those kernels persistent buffers instead.

Contract
--------
* ``scratch(key, shape, dtype)`` returns a buffer that is **zeroed the
  first time** a given ``(key, shape, dtype)`` is requested and
  returned **as-is** (previous contents intact) afterwards.  Callers
  must therefore either fully overwrite the buffer or explicitly clear
  it — the hot kernels here always do the former.
* Distinct call sites use distinct ``key`` strings, so two kernels can
  never collide on a workspace even when their shapes agree.
* Pool bookkeeping is lock-guarded, so concurrent ``scratch`` calls
  are safe and two threads asking for the same key get the same
  buffer.  That is still *aliasing* if the threads are different
  ranks: concurrent rank segments must draw from per-rank child arenas
  (:meth:`Arena.for_rank`), which hold disjoint pools by construction.
* Buffers must not be held across a second ``scratch`` call with the
  same key on the same arena: the second call returns the same memory.

A *solver* always steps through an arena: given none, it takes one
from the executor that runs its segments
(:meth:`~repro.runtime.executors.Executor.arena` — private memory in
process, shared memory for worker processes).  A *kernel* called with
``arena=None`` draws fresh memory for its temporaries instead
(:func:`scratch_or_empty`): another buffer source for the same
arithmetic, which the tests use to call kernels bare.
"""

from __future__ import annotations

import mmap
import threading
from dataclasses import dataclass, field

import numpy as np

from .team import Tokened

#: NumPy advises the kernel to back its own allocations of this size
#: and more with transparent huge pages.
_HUGE_PAGE_ADVICE_BYTES = 1 << 22


@dataclass
class Arena(Tokened):
    """A pool of named, shape/dtype-keyed scratch buffers.

    Travels to a rank-team worker by token (:class:`~repro.runtime.
    team.Tokened`): a segment given an arena draws scratch from the
    worker's own copy, private to that worker.

    Attributes
    ----------
    hits, misses:
        Reuse statistics: ``misses`` counts fresh allocations,
        ``hits`` counts calls served from the pool.  A steady-state hot
        loop should show ``hits`` growing while ``misses`` stays flat.
    """

    name: str = "arena"
    hits: int = 0
    misses: int = 0
    _pool: dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _children: dict[int, "Arena"] = field(
        default_factory=dict, repr=False, compare=False
    )

    def scratch(
        self,
        key: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """A persistent workspace for one call site.

        Zero-filled on the first request of a ``(key, shape, dtype)``;
        returned with its previous contents on every later request.
        """
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        k = (key, tuple(int(s) for s in shape), np.dtype(dtype).str)
        with self._lock:
            buf = self._pool.get(k)
            if buf is None:
                buf = self._new_buffer(key, k[1], np.dtype(dtype))
                self._pool[k] = buf
                self.misses += 1
            else:
                self.hits += 1
        return buf

    def _new_buffer(
        self, key: str, shape: tuple[int, ...], dtype: np.dtype
    ) -> np.ndarray:
        """Allocation hook: where a first-request buffer comes from.

        Must return zero-filled memory of exactly ``shape``/``dtype``
        (the contract callers rely on).  The base arena uses private
        process memory; :class:`~repro.runtime.shm.ShmArena` overrides
        this to place buffers in shared-memory segments.

        Large buffers are anonymous mappings of the arena's own rather
        than ``np.zeros``: zero-filled all the same, but without the
        huge-page advice, under which the first touch of a fresh block
        stalls in page compaction whenever the host's memory is
        fragmented (100+ ms per 25 MB measured, against ~15 ms in 4 KiB
        pages).  An arena buffer is touched for the first time exactly
        once per run, so a short run never wins that back.
        """
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes < _HUGE_PAGE_ADVICE_BYTES:
            return np.zeros(shape, dtype=dtype)
        private = mmap.mmap(
            -1, nbytes, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        )
        return np.frombuffer(private, dtype=dtype).reshape(shape)

    @property
    def shared(self) -> bool:
        """True when buffers are visible to forked worker processes.

        Private-memory arenas answer ``False``.  A process executor
        accepts only arenas that answer ``True``: its workers write
        rank state in place.
        """
        return False

    def for_rank(self, rank: int) -> "Arena":
        """The per-rank child arena — disjoint pool, stable identity.

        Rank kernels share arena keys ("lbmhd.collide.rho",
        "gtc.deposit.rho", ...) because the key names the *call site*,
        not the rank.  When rank segments run concurrently those keys
        must not resolve to one buffer, so each rank draws scratch from
        its own child.  Children are cached: the same child (hence the
        same buffers) comes back every step, preserving the reuse the
        arena exists for.
        """
        rank = int(rank)
        with self._lock:
            child = self._children.get(rank)
            if child is None:
                child = self._make_child(rank)
                self._children[rank] = child
        return child

    def _make_child(self, rank: int) -> "Arena":
        """Construction hook for per-rank children (same arena kind)."""
        return Arena(name=f"{self.name}[{rank}]")

    # -- introspection -------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes held by the pool, including per-rank children."""
        with self._lock:
            own = sum(int(b.nbytes) for b in self._pool.values())
            children = list(self._children.values())
        return own + sum(c.nbytes for c in children)

    @property
    def num_buffers(self) -> int:
        with self._lock:
            own = len(self._pool)
            children = list(self._children.values())
        return own + sum(c.num_buffers for c in children)

    def keys(self) -> list[tuple]:
        """The (key, shape, dtype) triples pooled by *this* arena."""
        with self._lock:
            return sorted(self._pool, key=str)

    def clear(self) -> None:
        """Drop every pooled buffer and child (and reset statistics)."""
        with self._lock:
            self._pool.clear()
            self._children.clear()
            self.hits = 0
            self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Arena({self.name!r}, buffers={self.num_buffers}, "
            f"bytes={self.nbytes}, hits={self.hits}, misses={self.misses})"
        )


def scratch_or_empty(
    arena: Arena | None,
    key: str,
    shape: tuple[int, ...] | int,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Arena workspace when pooling, fresh zeroed memory when not.

    The single helper hot kernels route every temporary through: the
    two branches return buffers with identical contents guarantees
    (zeroed on first use of a key), so a kernel's arithmetic cannot
    depend on which branch served it.
    """
    if arena is not None:
        return arena.scratch(key, shape, dtype)
    if isinstance(shape, (int, np.integer)):
        shape = (int(shape),)
    return np.zeros(shape, dtype=np.dtype(dtype))
