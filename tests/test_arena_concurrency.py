"""Per-rank arenas under concurrency: checkout must never alias.

Rank-independent scratch keys ("lbmhd.collide.rho", "paratec.line",
...) were safe when ranks stepped in lockstep; with a thread pool two
ranks can hold the "same" buffer simultaneously.  ``Arena.for_rank``
gives each rank a disjoint child pool, and the pool bookkeeping itself
is lock-guarded so concurrent checkout cannot corrupt it.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.runtime import Arena


class TestForRank:
    def test_children_are_cached(self):
        arena = Arena()
        assert arena.for_rank(3) is arena.for_rank(3)
        assert arena.for_rank(0) is not arena.for_rank(1)

    def test_same_key_disjoint_buffers(self):
        arena = Arena()
        a = arena.for_rank(0).scratch("k", (16,))
        b = arena.for_rank(1).scratch("k", (16,))
        assert a is not b
        assert not np.shares_memory(a, b)

    def test_child_distinct_from_parent_key(self):
        arena = Arena()
        parent = arena.scratch("k", (16,))
        child = arena.for_rank(0).scratch("k", (16,))
        assert not np.shares_memory(parent, child)

    def test_aggregate_stats_include_children(self):
        arena = Arena()
        arena.for_rank(0).scratch("k", (4,), np.float64)
        arena.for_rank(1).scratch("k", (4,), np.float64)
        assert arena.num_buffers >= 2
        assert arena.nbytes >= 2 * 4 * 8

    def test_large_buffers_keep_the_contract(self):
        """Buffers of 4 MiB and more are the arena's own anonymous
        mappings (no huge-page advice); the contract is np.zeros'."""
        arena = Arena()
        big = arena.scratch("big", (3, 1 << 18), np.complex128)  # 12 MiB
        assert big.shape == (3, 1 << 18) and big.dtype == np.complex128
        assert big.flags.c_contiguous and big.flags.writeable
        assert not big.any()
        big[1, 5] = 2 - 1j
        assert arena.scratch("big", (3, 1 << 18), np.complex128) is big
        assert arena.nbytes == big.nbytes

    def test_clear_releases_children(self):
        arena = Arena()
        child = arena.for_rank(0)
        child.scratch("k", (4,))
        arena.clear()
        assert arena.num_buffers == 0
        # a fresh child is handed out after clear
        assert arena.for_rank(0) is not child


class TestConcurrentCheckout:
    def test_two_threads_same_key_never_alias(self):
        """The regression the ISSUE names: concurrent checkout of the
        same scratch key from two threads must hand out disjoint
        buffers whose contents survive the other thread's writes."""
        arena = Arena()
        nthreads = 2
        iterations = 200
        start = threading.Barrier(nthreads, timeout=10.0)
        failures: list[str] = []

        def worker(rank: int) -> None:
            child = arena.for_rank(rank)
            start.wait()
            for i in range(iterations):
                buf = child.scratch("shared.key", (256,), np.float64)
                buf.fill(rank * 1000 + i)
                # yield so the other thread's checkout interleaves
                if i % 8 == 0:
                    threading.Event().wait(0)
                if not (buf == rank * 1000 + i).all():
                    failures.append(
                        f"rank {rank} iteration {i}: buffer clobbered"
                    )
                    return

        threads = [
            threading.Thread(target=worker, args=(r,))
            for r in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not failures, failures
        assert not np.shares_memory(
            arena.for_rank(0).scratch("shared.key", (256,)),
            arena.for_rank(1).scratch("shared.key", (256,)),
        )

    def test_concurrent_for_rank_returns_single_child(self):
        """Racing for_rank(r) calls must agree on one child arena."""
        arena = Arena()
        nthreads = 8
        start = threading.Barrier(nthreads, timeout=10.0)
        children: list[Arena] = [None] * nthreads

        def worker(i: int) -> None:
            start.wait()
            children[i] = arena.for_rank(7)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert all(c is children[0] for c in children)

    def test_concurrent_distinct_keys_pool_consistent(self):
        """Hammering one arena with distinct keys from many threads
        leaves the pool bookkeeping intact (no lost or doubled
        buffers)."""
        arena = Arena()
        nthreads = 8
        keys_per_thread = 50
        start = threading.Barrier(nthreads, timeout=10.0)

        def worker(t: int) -> None:
            start.wait()
            for k in range(keys_per_thread):
                buf = arena.scratch(f"key.{t}.{k}", (8,), np.float64)
                buf.fill(t * 100 + k)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)

        assert arena.num_buffers == nthreads * keys_per_thread
        for t in range(nthreads):
            for k in range(keys_per_thread):
                buf = arena.scratch(f"key.{t}.{k}", (8,), np.float64)
                assert (buf == t * 100 + k).all()

    def test_concurrent_same_key_same_arena_single_buffer(self):
        """Without for_rank isolation, racing checkouts of one key on
        one arena still resolve to exactly one pooled buffer."""
        arena = Arena()
        nthreads = 8
        start = threading.Barrier(nthreads, timeout=10.0)
        got: list[np.ndarray] = [None] * nthreads

        def worker(i: int) -> None:
            start.wait()
            got[i] = arena.scratch("one.key", (32,), np.float64)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(nthreads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert all(g is got[0] for g in got)
        assert arena.num_buffers == 1
