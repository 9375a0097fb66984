"""Shared-memory arena pool: lifecycle, visibility, and cleanup.

The pool's contract has three hard edges this file pins down:

* **Allocation** — zero-filled, 64-byte aligned views; per-rank child
  arenas hand out disjoint buffers; a forked child (or a closed pool)
  degrades to private memory instead of allocating shm the owner could
  never unlink.
* **Visibility** — a forked worker's in-place writes land in the
  parent's views (the whole point); :class:`ShmHandles` names the slabs
  those views live in.
* **Cleanup** — ``close()`` unlinks exactly once, is safe to repeat,
  never invalidates live views (results outlive the pool they were
  allocated from), and the interpreter exits without a single
  resource-tracker "leaked shared_memory" complaint.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.runtime.shm import (
    SharedArenaPool,
    ShmArena,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def pool():
    p = SharedArenaPool(slab_bytes=1 << 20, name="test-pool")
    yield p
    p.close()


# -- allocation -----------------------------------------------------------


class TestAllocation:
    def test_buffers_are_zero_filled(self, pool):
        buf = pool.allocate((64, 64))
        assert buf.shape == (64, 64)
        assert buf.dtype == np.float64
        assert not buf.any()

    def test_buffers_are_aligned(self, pool):
        for shape in [(3,), (7, 5), (100,)]:
            buf = pool.allocate(shape)
            addr = buf.__array_interface__["data"][0]
            assert addr % 64 == 0

    def test_buffers_are_disjoint(self, pool):
        a = pool.allocate(100)
        b = pool.allocate(100)
        a[:] = 1.0
        b[:] = 2.0
        assert (a == 1.0).all() and (b == 2.0).all()

    def test_int_shape_and_dtype(self, pool):
        buf = pool.allocate(10, dtype=np.int32)
        assert buf.shape == (10,)
        assert buf.dtype == np.int32

    def test_oversized_request_gets_own_slab(self, pool):
        small = pool.allocate(8)
        big = pool.allocate((1 << 18,))  # 2 MB > the 1 MB slab
        assert big.nbytes > (1 << 20)
        assert pool.num_segments == 2
        small[:] = 3.0
        big[:] = 4.0
        assert (small == 3.0).all()

    def test_writes_persist(self, pool):
        buf = pool.allocate((32, 32))
        buf[:] = 42.0
        assert float(buf.sum()) == 42.0 * 32 * 32


# -- arena semantics ------------------------------------------------------


class TestShmArena:
    def test_scratch_contract(self, pool):
        arena = pool.arena("a")
        buf = arena.scratch("k", (16, 16))
        assert not buf.any()
        buf[:] = 5.0
        again = arena.scratch("k", (16, 16))
        assert again is buf  # same pooled buffer, contents intact
        assert (again == 5.0).all()

    def test_shared_flag(self, pool):
        arena = pool.arena("a")
        assert arena.shared
        pool.close()
        assert not arena.shared

    def test_for_rank_children_are_disjoint(self, pool):
        arena = pool.arena("a")
        bufs = [arena.for_rank(r).scratch("k", 64) for r in range(4)]
        for r, buf in enumerate(bufs):
            buf[:] = float(r + 1)
        for r, buf in enumerate(bufs):
            assert (buf == float(r + 1)).all()

    def test_for_rank_children_are_cached(self, pool):
        arena = pool.arena("a")
        assert arena.for_rank(2) is arena.for_rank(2)
        assert isinstance(arena.for_rank(2), ShmArena)

    def test_fallback_after_close_is_private_but_correct(self, pool):
        arena = pool.arena("a")
        pool.close()
        buf = arena.scratch("new-key", (8, 8))
        assert not buf.any()  # the contract holds either way
        buf[:] = 1.0
        assert arena.scratch("new-key", (8, 8)) is buf


# -- lifecycle ------------------------------------------------------------


class TestLifecycle:
    def test_double_close_is_safe(self):
        pool = SharedArenaPool(slab_bytes=1 << 20)
        pool.allocate(100)
        pool.close()
        pool.close()
        assert pool.closed

    def test_views_outlive_the_pool(self):
        pool = SharedArenaPool(slab_bytes=1 << 20)
        buf = pool.arena("a").scratch("x", (100, 100))
        buf[:] = 7.0
        pool.close()
        # the mapping must survive unlink while views reference it
        assert float(buf.sum()) == 7.0 * 100 * 100

    def test_allocate_after_close_returns_none(self):
        pool = SharedArenaPool(slab_bytes=1 << 20)
        pool.close()
        assert pool.try_allocate(10) is None
        with pytest.raises(RuntimeError, match="not writable"):
            pool.allocate(10)

    def test_unlink_exactly_once(self):
        pool = SharedArenaPool(slab_bytes=1 << 20)
        pool.allocate(100)
        names = [seg.name for seg in pool._segments]
        pool.close()
        for name in names:
            assert not Path("/dev/shm", name.lstrip("/")).exists()
        pool.close()  # second close must not raise on missing segments

    def test_context_manager_closes(self):
        with SharedArenaPool(slab_bytes=1 << 20) as pool:
            pool.allocate(10)
        assert pool.closed

    def test_introspection_counts(self, pool):
        pool.allocate(10)
        pool.allocate((20, 20), label="lab")
        assert pool.num_buffers == 2
        assert pool.nbytes == 10 * 8 + 20 * 20 * 8
        assert pool.num_segments == 1


# -- cross-process visibility ---------------------------------------------


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestForkVisibility:
    def test_forked_writes_visible_to_parent(self, pool):
        arena = pool.arena("a")
        views = [arena.for_rank(r).scratch("block", 64) for r in range(4)]

        def worker(rank):
            views[rank][:] = float(rank + 10)

        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=worker, args=(r,)) for r in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0
        for r, view in enumerate(views):
            assert (view == float(r + 10)).all()

    def test_forked_child_allocation_falls_back_private(self, pool):
        arena = pool.arena("a")

        def worker(conn):
            # a brand-new key in the child: must not create shm the
            # parent never learns about — plain private zeros instead
            buf = arena.scratch("child-only-key", 16)
            conn.send(bool(buf.any()))
            conn.close()

        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        p = ctx.Process(target=worker, args=(send,))
        p.start()
        send.close()
        dirty = recv.recv()
        p.join()
        assert p.exitcode == 0
        assert not dirty
        # and the parent's segment count is unchanged
        assert pool.num_buffers == 0

    def test_child_close_cannot_unlink_parent_segments(self, pool):
        pool.allocate(100)
        names = [seg.name for seg in pool._segments]

        ctx = multiprocessing.get_context("fork")
        p = ctx.Process(target=pool.close)
        p.start()
        p.join()
        assert p.exitcode == 0
        for name in names:  # pid guard: the child was not the owner
            assert Path("/dev/shm", name.lstrip("/")).exists()


class TestHandles:
    def test_handles_resolve_labels(self, pool):
        assert pool.handles().segments == ()
        pool.allocate((8, 8), label="a/b")
        pool.allocate(1 << 17)  # 1 MiB: more than the first slab has left
        names = pool.handles().segments
        assert len(names) == pool.num_segments == 2
        assert all(Path("/dev/shm", n.lstrip("/")).exists() for n in names)
        pool.close()
        assert not any(
            Path("/dev/shm", n.lstrip("/")).exists() for n in names
        )


# -- availability / degradation -------------------------------------------


class TestAvailability:
    def test_disable_env_forces_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        assert not shm_available()
        with pytest.raises(RuntimeError, match="REPRO_SHM_DISABLE"):
            SharedArenaPool()

    def test_available_here(self):
        assert shm_available()


# -- interpreter-exit hygiene ---------------------------------------------


_EXIT_SCRIPT = """
import numpy as np
from repro.runtime.shm import SharedArenaPool

pool = SharedArenaPool(slab_bytes=1 << 20)
arena = pool.arena("a")
buf = arena.for_rank(0).scratch("x", (64, 64))
buf[:] = 3.0
{closing}
print(float(buf.sum()))
"""


_LATE_SLAB_SCRIPT = """
from functools import partial

from repro.runtime.executors import ProcessExecutor
from repro.runtime.shm import SharedArenaPool


def fill(k, view):
    view[k] = k + 1.0


if __name__ == "__main__":
    ex = ProcessExecutor(2)
    pool = SharedArenaPool(slab_bytes=1 << 16)
    early = pool.allocate((2, 8))
    ex.map_segments(partial(fill, view=early), [0, 1])  # the fork...
    late = pool.allocate((2, 1 << 14))  # ...and a slab that comes after
    assert pool.num_segments == 2
    ex.map_segments(partial(fill, view=late), [0, 1])
    assert ex.team.spawns == 1
    print(float(early.sum()), float(late.sum()))
    print(*pool.handles().segments)
    {closing}
"""


_EXECUTOR_POOL_SCRIPT = """
from repro import harness
from repro.apps.lbmhd import LBMHD3D, LBMHDParams
from repro.simmpi import Communicator

if __name__ == "__main__":
    params = LBMHDParams(shape=(8, 8, 8))
    {run}
    arena = solver.arena
    assert solver.comm.executor.team.spawns == 1
    print(type(arena).__name__, float(solver.global_state().sum()))
    print(*arena.pool.handles().segments)
"""


class TestExitHygiene:
    @pytest.mark.parametrize(
        "closing", ["pool.close()", "del pool, arena"], ids=["close", "gc"]
    )
    def test_no_resource_tracker_warnings(self, closing):
        """Exit clean whether the pool is closed or merely abandoned:
        no 'leaked shared_memory' tracker complaints, no 'Exception
        ignored' GC noise, and live views still readable."""
        proc = subprocess.run(
            [sys.executable, "-c", _EXIT_SCRIPT.format(closing=closing)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(3.0 * 64 * 64)
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "Exception ignored" not in proc.stderr, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
    @pytest.mark.parametrize(
        "closing", ["ex.close(); pool.close()", "pass"], ids=["close", "exit"]
    )
    def test_team_worker_attaching_a_late_slab_exits_clean(self, closing):
        """A rank-team worker attaches a slab created after its fork by
        name.  It shares the owner's resource tracker, so it must not
        register (or unregister) the slab there: the owner's unlink
        would then draw a KeyError traceback from the tracker at exit."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _LATE_SLAB_SCRIPT.format(closing=closing),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        sums, names = proc.stdout.strip().splitlines()
        assert sums == f"{3.0 * 8} {3.0 * (1 << 14)}"
        assert proc.stderr == ""
        for name in names.split():
            assert not Path("/dev/shm", name.lstrip("/")).exists()

    @pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
    @pytest.mark.parametrize(
        "run",
        [
            'solver = harness.run("lbmhd", params, steps=2, nprocs=4, '
            'executor="processes:2").state',
            'solver = LBMHD3D(params, Communicator(4, executor="processes:2"))'
            "; solver.run(2)",
        ],
        ids=["harness", "abandoned"],
    )
    def test_executor_owned_pool_exits_clean(self, run):
        """No ``arena=`` anywhere: the shared memory is the executor's.
        ``harness.run`` unlinks it with the run; a solver built by hand
        and never closed leaves it to the finalizers at exit.  Either
        way no segment and no tracker warning is left behind."""
        proc = subprocess.run(
            [sys.executable, "-c", _EXECUTOR_POOL_SCRIPT.format(run=run)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        summary, names = proc.stdout.strip().splitlines()
        assert summary.startswith("ShmArena ")
        assert proc.stderr == ""
        assert names.split()
        for name in names.split():
            assert not Path("/dev/shm", name.lstrip("/")).exists()

    def test_no_segments_left_behind(self):
        before = set(os.listdir("/dev/shm"))
        pool = SharedArenaPool(slab_bytes=1 << 20, name="leak-check")
        pool.allocate(100)
        pool.close()
        after = set(os.listdir("/dev/shm"))
        assert after <= before
