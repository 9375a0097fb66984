"""Whose arena backs a run must not show in its results.

Every solver steps through arena buffers; a caller may hand it the
arena (to reuse across runs, or to place it in shared memory) or let
the solver take its own from the executor.  These tests pin that the
two are bitwise-identical across at least two decompositions each, that
an arena reused by a second run carries nothing over from the first,
that the kernels' ``arena=`` / ``out=`` buffer sources do not change
their arithmetic, and the two independent references the one step path
is held to: the seed commit's step loop and the per-message halo
exchange.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.apps.gtc.deposit import deposit_scalar, deposit_work_vector
from repro.apps.gtc.particles import load_particles
from repro.apps.gtc.solver import GTC, GTCParams
from repro.apps.lbmhd.collision import CollisionParams, collide
from repro.apps.lbmhd.decomp import (
    CartesianDecomposition3D,
    charge_halo_exchange,
)
from repro.apps.lbmhd.fields import split_state
from repro.apps.lbmhd.solver import LBMHD3D, LBMHDParams
from repro.apps.lbmhd.stream import stream_block
from repro.apps.paratec.fft3d import ParallelFFT3D
from repro.apps.paratec.gvectors import GSphere, SphereDistribution
from repro import harness
from repro.machines import get_machine
from repro.runtime import Arena, SharedArenaPool, shm_available
from repro.simmpi import Communicator
from seed_lbmhd import SeedLBMHD3D
from seed_lbmhd_block import stream_per_rank


def _with_given_arena(cls, params, nprocs):
    """``cls`` built on an arena its caller provides — from the
    executor, so the suite also runs under ``REPRO_EXECUTOR=processes``
    (where a private ``Arena()`` is refused)."""
    comm = Communicator(nprocs)
    return cls(params, comm, arena=comm.executor.arena("given"))


def _random_state(shape, seed=0):
    rng = np.random.default_rng(seed)
    state = np.empty((72, *shape))
    f, g = split_state(state)
    f[:] = 1.0 / 27.0 + 0.01 * rng.standard_normal(f.shape)
    g[:] = 0.01 * rng.standard_normal(g.shape)
    return state


class TestLBMHDArenaBitwise:
    @pytest.mark.parametrize("shape", [(6, 5, 4), (8, 8, 16)])
    def test_collide_arena_matches_allocating(self, shape):
        state = _random_state(shape)
        params = CollisionParams(tau=0.8, tau_m=0.9)
        base = collide(state, params)
        again = collide(state, params, arena=Arena())
        assert_array_equal(base, again)

    def test_collide_out_and_inplace(self):
        state = _random_state((4, 6, 5), seed=3)
        params = CollisionParams(tau=0.7, tau_m=1.1)
        base = collide(state, params)
        dest = np.empty_like(state)
        assert collide(state, params, out=dest, arena=Arena()) is dest
        assert_array_equal(base, dest)
        aliased = state.copy()
        collide(aliased, params, out=aliased, arena=Arena())
        assert_array_equal(base, aliased)

    @pytest.mark.parametrize("nprocs", [2, 8])
    def test_solver_fast_path_bitwise(self, nprocs):
        """A caller's arena and the solver's own: the same bits."""
        params = LBMHDParams(shape=(8, 8, 8))
        own = LBMHD3D(params, Communicator(nprocs))
        given = _with_given_arena(LBMHD3D, params, nprocs)
        own.run(3)
        given.run(3)
        assert_array_equal(own.global_state(), given.global_state())

    def test_seed_step_loop_agrees_to_roundoff(self):
        """The seed commit's step loop (an independent implementation)
        and today's solver compute the same physics."""
        params = LBMHDParams(shape=(8, 8, 8))
        seed = SeedLBMHD3D(params, Communicator(8))
        cur = LBMHD3D(params, Communicator(8))
        seed.run(3)
        cur.run(3)
        np.testing.assert_allclose(
            seed.global_state(), cur.global_state(), rtol=0.0, atol=1e-13
        )

    @pytest.mark.parametrize("nprocs", [2, 4, 12])
    def test_solver_fast_path_odd_shape(self, nprocs):
        params = LBMHDParams(shape=(12, 6, 10))
        own = LBMHD3D(params, Communicator(nprocs))
        given = _with_given_arena(LBMHD3D, params, nprocs)
        own.run(2)
        given.run(2)
        assert_array_equal(own.global_state(), given.global_state())

    @pytest.mark.parametrize("nprocs", [4, 8])
    def test_block_halo_exchange_matches_legacy(self, nprocs):
        """The pull-stream over the flat block and the halo charge: same
        states AND same virtual clocks as padding each rank, exchanging
        its ghosts message by message and streaming it alone."""
        shape = (8, 8, 8)
        decomp = CartesianDecomposition3D.create(shape, nprocs)
        lx, ly, lz = decomp.local_shape
        rng = np.random.default_rng(11)
        post = rng.standard_normal((72, nprocs, lx, ly, lz))
        legacy_comm = Communicator(nprocs, machine=get_machine("X1"))
        block_comm = Communicator(nprocs, machine=get_machine("X1"))

        want = stream_per_rank(
            legacy_comm, decomp, [post[:, r] for r in range(nprocs)]
        )
        charge_halo_exchange(block_comm, decomp)
        got = stream_block(post, decomp.proc_grid, np.empty_like(post))

        for r in range(nprocs):
            assert_array_equal(got[:, r], want[r])
        assert block_comm.times.tolist() == legacy_comm.times.tolist()

    def test_block_halo_exchange_rejects_a_strided_block(self):
        decomp = CartesianDecomposition3D.create((8, 8, 8), 4)
        lx, ly, lz = decomp.local_shape
        strided = np.zeros((72, 8, lx, ly, lz))[:, ::2]
        out = np.zeros((72, 4, lx, ly, lz))
        with pytest.raises(ValueError, match="C-contiguous"):
            stream_block(strided, decomp.proc_grid, out)
        with pytest.raises(ValueError, match="C-contiguous"):
            stream_block(out, decomp.proc_grid, strided)


class TestGTCArenaBitwise:
    def _particles(self, n=1500, seed=5):
        torus = GTCParams(ntoroidal=4).make_torus()
        return torus, load_particles(torus, n, 0, np.random.default_rng(seed))

    def test_deposit_scalar_arena_and_out(self):
        torus, p = self._particles()
        grid = torus.plane
        base = deposit_scalar(grid, p, gyro_radius=0.04)
        assert_array_equal(
            base, deposit_scalar(grid, p, gyro_radius=0.04, arena=Arena())
        )
        dest = np.empty(grid.shape)
        deposit_scalar(grid, p, gyro_radius=0.04, out=dest)
        assert_array_equal(base, dest)

    def test_deposit_work_vector_arena(self):
        torus, p = self._particles(seed=6)
        grid = torus.plane
        base = deposit_work_vector(grid, p, num_copies=4, gyro_radius=0.03)
        fast = deposit_work_vector(
            grid, p, num_copies=4, gyro_radius=0.03, arena=Arena()
        )
        assert_array_equal(base, fast)

    @pytest.mark.parametrize("nprocs,ntoroidal", [(4, 4), (8, 4)])
    def test_solver_fast_path_bitwise(self, nprocs, ntoroidal):
        """A caller's arena and the solver's own: the same bits."""
        params = GTCParams(ntoroidal=ntoroidal, particles_per_cell=4)
        own = GTC(params, Communicator(nprocs))
        given = _with_given_arena(GTC, params, nprocs)
        own.run(3)
        given.run(3)
        for a, b in zip(own.charge, given.charge):
            assert_array_equal(a, b)
        for a, b in zip(own.phi, given.phi):
            assert_array_equal(a, b)
        for pa, pb in zip(own.particles, given.particles):
            for field in ("r", "theta", "zeta", "vpar", "weight", "species"):
                assert_array_equal(getattr(pa, field), getattr(pb, field))


class TestParatecArenaBitwise:
    NBANDS = 3

    @pytest.mark.parametrize("nranks", [4, 16])
    def test_transposes_bitwise_and_roundtrip(self, nranks):
        """The stacked, view-posting transposes move every (i, j)
        sub-block of every band to where a block-by-block placement
        puts it, all bands in one Alltoallv — with the engine's own
        arena and with a caller's."""
        sphere = GSphere(25.0, (18, 18, 18))
        dist = SphereDistribution(sphere, nranks)
        own = ParallelFFT3D(dist, Communicator(nranks))
        given = _with_given_arena(ParallelFFT3D, dist, nranks)
        rng = np.random.default_rng(2)
        shapes = [
            (self.NBANDS, len(own._col_keys[r]), 18) for r in range(nranks)
        ]
        lines = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in shapes
        ]
        # the transposes deliver only the x-rows (to the slabs) and
        # take only the y-columns (from them) that the sphere touches
        rows, cols = np.flatnonzero(own._rows), np.flatnonzero(own._cols)
        dense = []
        for j in range(nranks):
            lo, hi = own.slab_range(j)
            slab = np.zeros((self.NBANDS, *own.slab_shape(j)), dtype=complex)
            for i in range(nranks):
                keys = own._col_keys[i]
                slab[:, keys[:, 0], keys[:, 1], :] = lines[i][:, :, lo:hi]
            dense.append(slab)
        for fft in (own, given):
            for got, want in zip(
                fft.transpose_columns_to_slabs(lines), dense
            ):
                assert_array_equal(got, want[:, rows])

        for fft in (own, given):
            recv = fft.transpose_slabs_to_columns(
                [slab[:, :, cols] for slab in dense]
            )
            for i in range(nranks):
                keys = own._col_keys[i]
                for j in range(nranks):
                    assert_array_equal(
                        recv[i][j], dense[j][:, keys[:, 0], keys[:, 1], :]
                    )

    @pytest.mark.parametrize("nranks", [4, 16])
    def test_full_transform_bitwise(self, nranks):
        """A caller's arena and the engine's own: the same bits, and a
        band block transforms each band exactly as it alone would."""
        sphere = GSphere(25.0, (18, 18, 18))
        dist = SphereDistribution(sphere, nranks)
        own = ParallelFFT3D(dist, Communicator(nranks))
        given = _with_given_arena(ParallelFFT3D, dist, nranks)
        rng = np.random.default_rng(4)
        shapes = [
            (self.NBANDS, len(dist.points_of(r))) for r in range(nranks)
        ]
        coeffs = [
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in shapes
        ]
        slabs_own = own.sphere_to_real(coeffs)
        slabs_given = given.sphere_to_real(coeffs)
        for a, b in zip(slabs_own, slabs_given):
            assert_array_equal(a, b)
        back_own = own.real_to_sphere(slabs_own)
        back_given = given.real_to_sphere([s.copy() for s in slabs_given])
        for a, b in zip(back_own, back_given):
            assert_array_equal(a, b)
        for band in range(self.NBANDS):
            alone = own.sphere_to_real([c[band] for c in coeffs])
            for a, b in zip(slabs_own, alone):
                assert_array_equal(a[band], b)


_REUSE = {
    "lbmhd": LBMHDParams(shape=(8, 8, 8)),
    # few particles a rank, so every shift changes the populations and
    # the second run asks the arena for other lengths than the first
    "gtc": GTCParams(mpsi=8, mtheta=16, ntoroidal=4, particles_per_cell=3),
    "paratec": None,
}


class TestArenaReuse:
    """What a campaign-style repeat loop relies on: a second run on an
    arena the first run left full (ghost layers, staging buffers, GTC's
    grown particle buffers) starts as clean as one on a fresh arena."""

    @pytest.mark.parametrize("app", sorted(_REUSE))
    @pytest.mark.parametrize(
        "shared",
        [
            False,
            pytest.param(
                True,
                marks=pytest.mark.skipif(
                    not shm_available(), reason="no POSIX shared memory"
                ),
            ),
        ],
        ids=["private", "shared"],
    )
    def test_second_run_on_a_used_arena_matches_fresh_ones(self, app, shared):
        def run(arena, steps):
            return harness.run(
                app, _REUSE[app], steps=steps, nprocs=4, machine="X1",
                arena=arena,
            )

        def same(a, b):
            assert_array_equal(
                a.app.state_vector(a.state), b.app.state_vector(b.state)
            )
            assert_array_equal(a.comm.times, b.comm.times)

        pool = SharedArenaPool() if shared else None
        try:
            arena = pool.arena("reused") if shared else Arena()
            run(arena, 3)
            same(run(arena, 2), run(None, 2))
            same(run(arena, 3), run(None, 3))
        finally:
            if pool is not None:
                pool.close()
