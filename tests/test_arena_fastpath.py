"""Arena fast paths must be bitwise-identical to the allocating paths.

The decomposition-independence suite is the numerical oracle of this
repository; these tests pin the stronger per-kernel guarantee that the
PR's zero-copy/arena variants (LBMHD collide + block halo exchange, GTC
deposit/push, PARATEC FFT transposes) reproduce the allocating code
paths bit for bit, across at least two decompositions each.
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
    exchange_halos,
    exchange_halos_block,
)
from repro.apps.lbmhd.fields import split_state
from repro.apps.lbmhd.solver import LBMHD3D, LBMHDParams
from repro.apps.paratec.fft3d import ParallelFFT3D
from repro.apps.paratec.gvectors import GSphere, SphereDistribution
from repro.machines import get_machine
from repro.runtime.arena import Arena
from repro.simmpi import Communicator
from seed_lbmhd import SeedLBMHD3D


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
        params = LBMHDParams(shape=(8, 8, 8))
        ref = LBMHD3D(params, Communicator(nprocs))
        fast = LBMHD3D(params, Communicator(nprocs), arena=Arena())
        ref.run(3)
        fast.run(3)
        assert_array_equal(ref.global_state(), fast.global_state())

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
        ref = LBMHD3D(params, Communicator(nprocs))
        fast = LBMHD3D(params, Communicator(nprocs), arena=Arena())
        ref.run(2)
        fast.run(2)
        assert_array_equal(ref.global_state(), fast.global_state())

    @pytest.mark.parametrize("nprocs", [4, 8])
    def test_block_halo_exchange_matches_legacy(self, nprocs):
        """Same ghost cells AND same virtual clocks as the per-pair path."""
        shape = (8, 8, 8)
        decomp = CartesianDecomposition3D.create(shape, nprocs)
        lx, ly, lz = decomp.local_shape
        rng = np.random.default_rng(11)
        block = rng.standard_normal((72, nprocs, lx + 2, ly + 2, lz + 2))
        legacy_comm = Communicator(nprocs, machine=get_machine("X1"))
        block_comm = Communicator(nprocs, machine=get_machine("X1"))

        padded = [block[:, r].copy() for r in range(nprocs)]
        exchange_halos(legacy_comm, decomp, padded)
        blk = block.copy()
        exchange_halos_block(block_comm, decomp, blk)

        for r in range(nprocs):
            assert_array_equal(blk[:, r], padded[r])
        assert block_comm.times.tolist() == legacy_comm.times.tolist()


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
        params = GTCParams(ntoroidal=ntoroidal, particles_per_cell=4)
        ref = GTC(params, Communicator(nprocs))
        fast = GTC(params, Communicator(nprocs), arena=Arena())
        ref.run(3)
        fast.run(3)
        for a, b in zip(ref.charge, fast.charge):
            assert_array_equal(a, b)
        for a, b in zip(ref.phi, fast.phi):
            assert_array_equal(a, b)
        for pa, pb in zip(ref.particles, fast.particles):
            for field in ("r", "theta", "zeta", "vpar", "weight", "species"):
                assert_array_equal(getattr(pa, field), getattr(pb, field))


class TestParatecArenaBitwise:
    @pytest.mark.parametrize("nranks", [4, 16])
    def test_transposes_bitwise_and_roundtrip(self, nranks):
        sphere = GSphere(25.0, (18, 18, 18))
        dist = SphereDistribution(sphere, nranks)
        ref = ParallelFFT3D(dist, Communicator(nranks))
        fast = ParallelFFT3D(dist, Communicator(nranks), arena=Arena())
        rng = np.random.default_rng(2)
        lines = [
            rng.standard_normal((len(ref._col_keys[r]), 18))
            + 1j * rng.standard_normal((len(ref._col_keys[r]), 18))
            for r in range(nranks)
        ]
        s_ref = ref.transpose_columns_to_slabs(lines)
        s_fast = fast.transpose_columns_to_slabs(lines)
        for a, b in zip(s_ref, s_fast):
            assert_array_equal(a, b)

        slabs = [np.asarray(s).copy() for s in s_ref]
        r_ref = ref.transpose_slabs_to_columns(slabs)
        r_fast = fast.transpose_slabs_to_columns(slabs)
        for row_a, row_b in zip(r_ref, r_fast):
            for a, b in zip(row_a, row_b):
                assert_array_equal(a, b)

    @pytest.mark.parametrize("nranks", [4, 16])
    def test_full_transform_bitwise(self, nranks):
        sphere = GSphere(25.0, (18, 18, 18))
        dist = SphereDistribution(sphere, nranks)
        ref = ParallelFFT3D(dist, Communicator(nranks))
        fast = ParallelFFT3D(dist, Communicator(nranks), arena=Arena())
        rng = np.random.default_rng(4)
        coeffs = [
            rng.standard_normal(len(dist.points_of(r)))
            + 1j * rng.standard_normal(len(dist.points_of(r)))
            for r in range(nranks)
        ]
        slabs_ref = ref.sphere_to_real(coeffs)
        slabs_fast = fast.sphere_to_real(coeffs)
        for a, b in zip(slabs_ref, slabs_fast):
            assert_array_equal(a, b)
        back_ref = ref.real_to_sphere(slabs_ref)
        back_fast = fast.real_to_sphere([s.copy() for s in slabs_fast])
        for a, b in zip(back_ref, back_fast):
            assert_array_equal(a, b)
