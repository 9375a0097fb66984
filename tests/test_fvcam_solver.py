"""Integration tests for the FVCAM solver, decomposition, and Table 3."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.fvcam import (
    FVCAM,
    FVCAMParams,
    FVCAMScenario,
    FVDecomposition,
    LatLonGrid,
    TABLE3_ROWS,
    predict,
    simulated_days_per_day,
)
from repro.machines import get_machine
from repro.runtime.executors import SerialExecutor
from repro.simmpi import Communicator

GRID = LatLonGrid(im=24, jm=18, km=4)


def make_sim(py=1, pz=1, **kw) -> FVCAM:
    params = FVCAMParams(grid=GRID, py=py, pz=pz, dt=60.0, **kw)
    return FVCAM(params, Communicator(py * pz))


class TestDecomposition:
    def test_min_latitude_constraint(self):
        with pytest.raises(ValueError):
            FVDecomposition(grid=GRID, py=9)  # 2 lats per subdomain

    def test_km_divisibility(self):
        with pytest.raises(ValueError):
            FVDecomposition(grid=GRID, py=1, pz=3)

    def test_scatter_gather_roundtrip(self, rng):
        d = FVDecomposition(grid=GRID, py=3, pz=2)
        field = rng.random(GRID.shape)
        np.testing.assert_array_equal(d.gather(d.scatter(field)), field)

    def test_rank_layout_latitude_major(self):
        d = FVDecomposition(grid=GRID, py=3, pz=2)
        # rank = z * py + y
        assert d.coords(0) == (0, 0)
        assert d.coords(2) == (2, 0)
        assert d.coords(3) == (0, 1)

    def test_lat_neighbors_walls(self):
        d = FVDecomposition(grid=GRID, py=3, pz=1)
        assert d.lat_neighbors(0) == (None, 1)
        assert d.lat_neighbors(2) == (1, None)

    def test_level_group(self):
        d = FVDecomposition(grid=GRID, py=3, pz=2)
        assert d.level_group(1) == [1, 4]


@pytest.mark.parametrize("py,pz", [(1, 1), (3, 1), (1, 2), (3, 2), (6, 2)])
def test_decomposition_independence(py, pz):
    ref = make_sim(1, 1)
    par = make_sim(py, pz)
    ref.run(6)
    par.run(6)
    h_ref, u_ref, v_ref = ref.global_fields()
    h_par, u_par, v_par = par.global_fields()
    np.testing.assert_allclose(h_par, h_ref, atol=1e-10)
    np.testing.assert_allclose(u_par, u_ref, atol=1e-10)
    np.testing.assert_allclose(v_par, v_ref, atol=1e-10)


class TestConservation:
    def test_mass_conserved_serial(self):
        sim = make_sim(1, 1)
        m0 = sim.total_mass()
        sim.run(10)
        assert sim.total_mass() == pytest.approx(m0, rel=1e-13)

    def test_mass_conserved_parallel(self):
        sim = make_sim(3, 2)
        m0 = sim.total_mass()
        sim.run(10)
        assert sim.total_mass() == pytest.approx(m0, rel=1e-13)

    def test_mass_conserved_without_physics(self):
        sim = make_sim(3, 1, with_physics=False)
        m0 = sim.total_mass()
        sim.run(10)
        assert sim.total_mass() == pytest.approx(m0, rel=1e-13)

    def test_layers_stay_positive(self):
        sim = make_sim(2, 2)
        sim.run(10)
        h, _, _ = sim.global_fields()
        assert (h > 0).all()

    def test_winds_bounded(self):
        sim = make_sim(1, 1)
        sim.run(10)
        _, u, v = sim.global_fields()
        assert np.abs(u).max() < 500.0 and np.abs(v).max() < 500.0


class _CountingExecutor(SerialExecutor):
    """Serial executor counting the regions handed through the seam."""

    def __init__(self) -> None:
        self.regions = 0

    def map(self, fn, items):
        self.regions += 1
        return super().map(fn, items)


class TestBlockStepping:
    """Rank blocks live in the arena; each phase is one shard region."""

    LADDER = FVCAMParams(grid=LatLonGrid(im=48, jm=48, km=8), py=4, pz=2)

    def test_regions_per_step(self):
        # per 4-step physics/remap cycle: 4 column sums + 4 sweeps, the
        # physics' increment and update, one remap for every group
        counter = _CountingExecutor()
        sim = FVCAM(self.LADDER, Communicator(8, executor=counter))
        sim.run(4)
        assert counter.regions == 11

    def test_one_dimensional_regions_per_step(self):
        # pz == 1: no partial column sums to combine
        counter = _CountingExecutor()
        params = FVCAMParams(grid=GRID, py=3)
        FVCAM(params, Communicator(3, executor=counter)).run(4)
        assert counter.regions == 7

    def test_arena_buffers_stay_flat(self):
        sim = FVCAM(self.LADDER, Communicator(8))
        sim.run(2)
        buffers, nbytes = sim.arena.num_buffers, sim.arena.nbytes
        sim.run(8)  # crosses physics and remap twice
        assert (sim.arena.num_buffers, sim.arena.nbytes) == (buffers, nbytes)

    def test_fields_are_views_into_the_blocks(self):
        sim = make_sim(3, 2, with_tracer=True)
        sim.q[1][:] = 0.25  # rank 1: levels 0-1, latitudes 6-11
        sim.h[0][0, 0, 0] = 7.0
        assert (sim.global_tracer()[:2, 6:12] == 0.25).all()
        assert sim.global_fields()[0][0, 0, 0] == 7.0

    def test_restore_writes_through(self):
        sim = make_sim(2, 2)
        snap = sim.checkpoint_state()
        before = [f.copy() for f in sim.global_fields()]
        sim.run(4)
        sim.restore_state(snap)
        for got, want in zip(sim.global_fields(), before):
            np.testing.assert_array_equal(got, want)
        sim.run(4)  # the restored blocks step like fresh ones
        fresh = make_sim(2, 2)
        fresh.run(4)
        for got, want in zip(sim.global_fields(), fresh.global_fields()):
            np.testing.assert_array_equal(got, want)


class TestTimedRuns:
    def test_virtual_time_accumulates(self):
        params = FVCAMParams(grid=GRID, py=2, pz=2)
        sim = FVCAM(params, Communicator(4, machine=get_machine("ES")))
        sim.run(2)
        assert sim.comm.elapsed > 0.0

    def test_es_faster_than_power3(self):
        t = {}
        for m in ("ES", "Power3"):
            sim = FVCAM(
                FVCAMParams(grid=GRID, py=2, pz=2),
                Communicator(4, machine=get_machine(m)),
            )
            sim.run(2)
            t[m] = sim.comm.elapsed
        assert t["ES"] < t["Power3"]


class TestTable3Shape:
    """Qualitative claims of the paper's Table 3 / Figures 3-4."""

    def cell(self, machine, nprocs, pz):
        return predict(machine, FVCAMScenario(nprocs, pz))

    def test_x1e_highest_absolute(self):
        # "the newly-released X1E attains the highest per-processor
        # performance for FVCAM"
        rates = {
            m: self.cell(m, 32, 1).gflops_per_proc
            for m in ("Power3", "Itanium2", "X1", "X1E", "ES")
        }
        assert max(rates, key=rates.get) == "X1E"

    def test_es_highest_pct_peak(self):
        pcts = {
            m: self.cell(m, 32, 1).pct_peak
            for m in ("Power3", "Itanium2", "X1", "X1E", "ES")
        }
        assert max(pcts, key=pcts.get) == "ES"

    def test_x1e_gain_over_x1_limited(self):
        # "the X1E processor increases FVCAM performance by about 14%
        # compared to the X1, even though its peak speed is 41% higher"
        for nprocs, pz in ((128, 4), (256, 4), (336, 7)):
            ratio = (
                self.cell("X1E", nprocs, pz).gflops_per_proc
                / self.cell("X1", nprocs, pz).gflops_per_proc
            )
            assert 1.0 < ratio < 1.41

    def test_x1e_pct_peak_below_x1(self):
        # "the X1E percentage of peak is somewhat lower than the X1"
        assert (
            self.cell("X1E", 256, 4).pct_peak
            < self.cell("X1", 256, 4).pct_peak
        )

    def test_pct_peak_declines_with_p(self):
        for m in ("Power3", "Itanium2", "X1E", "ES"):
            pcts = [
                self.cell(m, p, 4).pct_peak for p in (128, 256, 512)
            ]
            assert pcts == sorted(pcts, reverse=True)

    def test_table3_rows_cover_paper(self):
        labels = {(s.label, s.nprocs) for s in TABLE3_ROWS}
        assert ("1D", 32) in labels
        assert ("2D-7v", 1680) in labels

    def test_simulated_days_headline(self):
        # "The speedup over real time of over 4200 on 672 processors of
        # the Cray X1E is the highest performance ever achieved for
        # FVCAM at this resolution."
        rate = simulated_days_per_day("X1E", FVCAMScenario(672, 7))
        assert rate == pytest.approx(4200.0, rel=0.25)
        others = [
            simulated_days_per_day(m, FVCAMScenario(672, 7))
            for m in ("Power3", "Itanium2", "X1", "ES")
        ]
        assert rate > max(others)

    def test_more_processors_more_throughput(self):
        # Figure 4: throughput still rises where the paper ran.
        small = simulated_days_per_day("ES", FVCAMScenario(128, 4))
        large = simulated_days_per_day("ES", FVCAMScenario(512, 4))
        assert large > small
