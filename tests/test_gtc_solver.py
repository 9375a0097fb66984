"""Integration tests for the GTC solver and Table 4 predictions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.gtc import GTC, GTCParams, TABLE4_ROWS, predict
from repro.machines import get_machine
from repro.simmpi import Communicator


def make_gtc(nprocs=4, **kw) -> GTC:
    params = GTCParams(
        mpsi=12, mtheta=16, ntoroidal=4, particles_per_cell=5, **kw
    )
    return GTC(params, Communicator(nprocs))


class TestSolver:
    def test_nprocs_must_match_toroidal(self):
        with pytest.raises(ValueError):
            GTC(GTCParams(ntoroidal=4), Communicator(6))

    def test_particle_count_invariant(self):
        sim = make_gtc(8)  # 2-way particle split
        n0 = sim.total_particles()
        sim.run(4)
        assert sim.total_particles() == n0

    def test_charge_invariant(self):
        sim = make_gtc(4)
        q0 = sim.total_charge()
        sim.run(4)
        assert sim.total_charge() == pytest.approx(q0)

    def test_charge_grid_consistent_across_subgroup(self):
        """Every rank of a domain sees the same reduced charge."""
        sim = make_gtc(8)
        sim.charge_phase()
        d = sim.decomp
        for domain in range(d.ntoroidal):
            ranks = [d.rank_of(domain, s) for s in range(d.npe_per_domain)]
            for r in ranks[1:]:
                np.testing.assert_array_equal(
                    sim.charge[ranks[0]], sim.charge[r]
                )

    def test_particle_split_does_not_change_fields(self):
        """The new particle decomposition is physics-neutral.

        4 ranks (1 per domain) and 8 ranks (2-way split) must produce
        the same reduced charge grids, because the subgroup Allreduce
        reassembles exactly the domain's particle population.
        """
        a = make_gtc(4)
        b = make_gtc(8)
        a.charge_phase()
        b.charge_phase()
        for domain in range(4):
            np.testing.assert_allclose(
                a.domain_charge(domain), b.domain_charge(domain), atol=1e-10
            )

    def test_work_vector_mode_matches_scalar_mode(self):
        a = make_gtc(4, use_work_vector=False)
        b = make_gtc(4, use_work_vector=True)
        a.run(2)
        b.run(2)
        for domain in range(4):
            np.testing.assert_allclose(
                a.domain_charge(domain), b.domain_charge(domain), atol=1e-9
            )

    def test_timed_run_accumulates(self):
        params = GTCParams(mpsi=12, mtheta=16, ntoroidal=4, particles_per_cell=5)
        sim = GTC(params, Communicator(4, machine=get_machine("ES")))
        sim.run(2)
        assert sim.comm.elapsed > 0.0

    def test_flops_per_step_positive(self):
        sim = make_gtc(4)
        assert sim.flops_per_step > 0

    def test_restore_resizes_the_blocks(self):
        """A snapshot whose per-rank populations differ from the fresh
        load — shifted ones, and fewer in total — sizes the blocks, and
        the restored run steps on as the one it came from."""
        source = make_gtc(8, dt=0.05)
        source.run(4)
        snap = source.checkpoint_state()
        fresh = make_gtc(8, dt=0.05)
        counts = [len(p) for p in source.particles]
        assert counts != [len(p) for p in fresh.particles]
        fresh.restore_state(snap)
        assert [len(p) for p in fresh.particles] == counts
        source.run(3)
        fresh.run(3)
        for got, want in zip(fresh.particles, source.particles):
            for name in ("r", "theta", "zeta", "vpar", "weight"):
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(want, name)
                )
        for domain in range(4):
            np.testing.assert_array_equal(
                fresh.domain_charge(domain), source.domain_charge(domain)
            )

        fewer = source.checkpoint_state()
        fewer["particles"][0] = {
            name: values[:-7] for name, values in fewer["particles"][0].items()
        }
        fresh.restore_state(fewer)
        total = sum(counts) - 7
        assert fresh.total_particles() == total
        fresh.run(2)
        assert fresh.total_particles() == total
        assert sum(len(p) for p in fresh.particles) == total

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ({"mpsi": 2}, "grid must be at least 4x4"),
            ({"mtheta": 3}, "grid must be at least 4x4"),
            ({"ntoroidal": 0}, "need at least one toroidal domain"),
            ({"particles_per_cell": -3}, "must be non-negative"),
            ({"dt": -1.0}, "push parameters must be positive"),
            ({"dt": 0.0}, "push parameters must be positive"),
            (
                {"use_work_vector": True, "work_vector_copies": 0},
                "work_vector_copies must be >= 1",
            ),
        ],
    )
    def test_bad_params_fail_at_construction(self, bad, fragment):
        with pytest.raises(ValueError, match=fragment):
            GTCParams(**bad)

    def test_copies_are_not_checked_without_the_work_vector(self):
        assert GTCParams(work_vector_copies=0).work_vector_copies == 0


class TestTable4Shape:
    """Headline qualitative claims of the paper's Table 4."""

    def row(self, nprocs):
        return next(r for r in TABLE4_ROWS if r.nprocs == nprocs)

    def test_es_highest_pct_peak(self):
        # "the Earth Simulator sustains a significantly higher
        # percentage of peak (24%) compared with other platforms"
        row = self.row(64)
        machines = ("Power3", "Itanium2", "Opteron", "X1", "ES", "SX-8")
        pcts = {m: predict(m, row).pct_peak for m in machines}
        assert max(pcts, key=pcts.get) == "ES"
        assert pcts["ES"] > 15.0

    def test_sx8_fastest_but_not_2x_es(self):
        # "the SX-8 attains the fastest time to solution ... only about
        # 50% higher than the performance of the ES processor, even
        # though the SX-8 peak is twice that of the ES"
        row = self.row(64)
        sx8 = predict("SX-8", row).gflops_per_proc
        es = predict("ES", row).gflops_per_proc
        machines = ("Power3", "Itanium2", "Opteron", "X1", "ES", "SX-8")
        rates = {m: predict(m, row).gflops_per_proc for m in machines}
        assert max(rates, key=rates.get) == "SX-8"
        assert 1.2 < sx8 / es < 1.8

    def test_opteron_beats_itanium2_by_half(self):
        # "GTC ... was 50% faster than on the Itanium2 Quadrics cluster"
        row = self.row(64)
        ratio = (
            predict("Opteron", row).gflops_per_proc
            / predict("Itanium2", row).gflops_per_proc
        )
        assert 1.25 < ratio < 1.8

    def test_msp_beats_ssp_slightly(self):
        # "the X1(SSP) achieves even slightly lower performance than
        # the MSP version"
        row = self.row(64)
        msp = predict("X1", row).gflops_per_proc
        agg_ssp = 4 * predict("X1-SSP", row).gflops_per_proc
        assert 1.0 < msp / agg_ssp < 1.4

    def test_es_2048_teraflop_barrier(self):
        # "GTC fulfilled the very strict scaling requirements of the ES
        # and achieved an unprecedented 3.7 Tflop/s on 2,048 processors"
        r = predict("ES", self.row(2048))
        assert r.aggregate_tflops > 1.0  # broke the Teraflop barrier
        assert r.aggregate_tflops == pytest.approx(3.7, rel=0.25)

    def test_flat_scaling_on_scalar_machines(self):
        # Power3/Itanium2 hold their rate through 2048 processors.
        for m in ("Power3", "Itanium2"):
            rates = [predict(m, r).gflops_per_proc for r in TABLE4_ROWS]
            assert max(rates) / min(rates) < 1.15
