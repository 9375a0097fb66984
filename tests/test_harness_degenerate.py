"""Degenerate layouts: P=1 harness runs and flat halo-exchange axes.

The harness (phase scopes, ledger attachment) must be numerically
invisible: a single-rank run through ``harness.run`` is bitwise
identical to constructing and stepping the solver directly.  And the
flat-block pull-stream must handle processor grids that are flat along
one or more axes (``_halo_plan`` returns ``None`` there — the periodic
wrap is purely local and charged nothing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import harness
from repro.machines import get_machine
from repro.simmpi import Communicator


class TestSingleRankBitwise:
    def test_lbmhd(self):
        from repro.apps.lbmhd import LBMHD3D, LBMHDParams

        params = LBMHDParams(shape=(8, 8, 8))
        direct = LBMHD3D(params, Communicator(1))
        direct.run(3)
        via_harness = harness.run("lbmhd", params, steps=3, nprocs=1)
        assert np.array_equal(
            direct.global_state(), via_harness.state.global_state()
        )

    def test_gtc(self):
        from repro.apps.gtc import GTC, GTCParams

        params = GTCParams(
            mpsi=8, mtheta=16, ntoroidal=1, particles_per_cell=3
        )
        direct = GTC(params, Communicator(1))
        direct.run(2)
        via_harness = harness.run("gtc", params, steps=2, nprocs=1)
        assert np.array_equal(direct.charge[0], via_harness.state.charge[0])
        for attr in ("r", "theta", "zeta", "vpar", "weight"):
            assert np.array_equal(
                getattr(direct.particles[0], attr),
                getattr(via_harness.state.particles[0], attr),
            )

    def test_fvcam(self):
        from repro.apps.fvcam import FVCAM, FVCAMParams, LatLonGrid

        # 4 steps crosses both the physics and remap intervals
        params = FVCAMParams(grid=LatLonGrid(im=24, jm=18, km=4))
        direct = FVCAM(params, Communicator(1))
        direct.run(4)
        via_harness = harness.run("fvcam", params, steps=4, nprocs=1)
        for a, b in zip(
            direct.global_fields(), via_harness.state.global_fields()
        ):
            assert np.array_equal(a, b)

    def test_paratec(self):
        from repro.apps.paratec import Paratec, ParatecParams

        params = ParatecParams()
        direct = Paratec(params, Communicator(1))
        for _ in range(2):
            eigenvalues = direct.driver.solve_bands(direct.bands)
            direct.driver.update_potential(direct.bands)
        via_harness = harness.run("paratec", params, steps=2, nprocs=1)
        assert np.array_equal(
            eigenvalues, via_harness.state.result.eigenvalues
        )
        for a, b in zip(direct.bands, via_harness.state.bands):
            assert np.array_equal(a, b)


class TestFlatAxisHaloExchange:
    @pytest.mark.parametrize(
        "proc_grid", [(4, 1, 1), (1, 4, 1), (1, 1, 4), (2, 2, 1), (1, 1, 1)]
    )
    def test_block_matches_per_rank_path(self, proc_grid):
        from repro.apps.lbmhd.decomp import (
            CartesianDecomposition3D,
            charge_halo_exchange,
        )
        from repro.apps.lbmhd.stream import stream_block
        from seed_lbmhd_block import stream_per_rank

        decomp = CartesianDecomposition3D(
            global_shape=(8, 4, 4), proc_grid=proc_grid
        )
        lx, ly, lz = decomp.local_shape
        rng = np.random.default_rng(3)
        post = rng.standard_normal((72, decomp.nprocs, lx, ly, lz))
        block_comm = Communicator(decomp.nprocs, machine=get_machine("X1"))
        rank_comm = Communicator(decomp.nprocs, machine=get_machine("X1"))

        charge_halo_exchange(block_comm, decomp)
        got = stream_block(post, proc_grid, np.empty_like(post))
        want = stream_per_rank(
            rank_comm, decomp, [post[:, r] for r in range(decomp.nprocs)]
        )
        for r in range(decomp.nprocs):
            assert np.array_equal(got[:, r], want[r]), proc_grid
        assert block_comm.times.tolist() == rank_comm.times.tolist()

    def test_flat_axes_wrap_periodically(self):
        from repro.apps.lbmhd.decomp import CartesianDecomposition3D
        from repro.apps.lbmhd.lattice import slot_shifts
        from repro.apps.lbmhd.stream import stream_block

        decomp = CartesianDecomposition3D(
            global_shape=(8, 4, 4), proc_grid=(4, 1, 1)
        )
        lx, ly, lz = decomp.local_shape
        post = np.arange(72 * 4 * lx * ly * lz, dtype=float).reshape(
            72, 4, lx, ly, lz
        )
        out = stream_block(post, decomp.proc_grid, np.empty_like(post))
        slot = {tuple(c): s for s, c in enumerate(slot_shifts().tolist())}
        # y and z are flat: a rank pulls from the far side of its own core
        sy, sz = slot[(0, 1, 0)], slot[(0, 0, -1)]
        assert np.array_equal(out[sy, :, :, 0], post[sy, :, :, -1])
        assert np.array_equal(out[sz, :, :, :, -1], post[sz, :, :, :, 0])
        # x is decomposed: rank 0's low plane comes from rank 3's high one
        sx = slot[(1, 0, 0)]
        assert np.array_equal(out[sx, 0, 0], post[sx, 3, -1])
        assert np.array_equal(out[sx, 2, 0], post[sx, 1, -1])
