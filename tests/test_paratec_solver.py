"""Tests for PARATEC's Hamiltonian, CG eigensolver, SCF, and Table 6."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.paratec import (
    Atom,
    GSphere,
    Hamiltonian,
    ParallelFFT3D,
    Paratec,
    ParatecParams,
    SphereDistribution,
    TABLE6_ROWS,
    block_cg,
    build_local_potential,
    hartree_potential,
    exchange_potential,
    initial_bands,
    mix_potentials,
    overlaps,
    predict,
)
from repro.apps.paratec.cg import CGOptions
from repro.apps.paratec.scf import SCFDriver
from repro.apps.paratec.workload import ParatecScenario
from repro.machines import get_machine
from repro.runtime.executors import SerialExecutor
from repro.simmpi import Communicator

SPHERE = GSphere(ecut=4.0, grid_shape=(10, 10, 10))


def setup(nranks=2, atoms=None):
    dist = SphereDistribution(SPHERE, nranks)
    comm = Communicator(nranks)
    fft = ParallelFFT3D(dist, comm)
    if atoms is None:
        ham = Hamiltonian(fft=fft)  # free electrons
    else:
        ham = Hamiltonian.from_atoms(fft, atoms)
    return comm, fft, ham


class TestPotentials:
    def test_local_potential_is_real_and_attractive(self):
        v = build_local_potential((10, 10, 10), [Atom(position=(0.5, 0.5, 0.5))])
        assert v.min() < 0
        assert np.isrealobj(v)

    def test_potential_peaks_at_atom(self):
        v = build_local_potential((10, 10, 10), [Atom(position=(0.5, 0.5, 0.5))])
        assert np.unravel_index(np.argmin(v), v.shape) == (5, 5, 5)

    def test_hartree_solves_poisson(self, rng):
        rho = rng.standard_normal((8, 8, 8))
        rho -= rho.mean()
        v = hartree_potential(rho)
        # check nabla^2 v = -4 pi rho spectrally
        v_g = np.fft.fftn(v)
        freqs = np.fft.fftfreq(8, d=1 / 8)
        gx, gy, gz = np.meshgrid(freqs, freqs, freqs, indexing="ij")
        g2 = (2 * np.pi) ** 2 * (gx**2 + gy**2 + gz**2)
        lap_v = np.fft.ifftn(-g2 * v_g).real
        np.testing.assert_allclose(lap_v, -4 * np.pi * rho, atol=1e-10)

    def test_exchange_negative_and_monotone(self):
        rho = np.array([0.0, 1.0, 8.0])
        vx = exchange_potential(rho)
        assert vx[0] == 0.0
        assert vx[2] < vx[1] < 0.0

    def test_mixing_validation(self):
        with pytest.raises(ValueError):
            mix_potentials(np.zeros(2), np.ones(2), alpha=0.0)


class TestHamiltonian:
    def test_free_electron_apply_is_kinetic(self, rng):
        comm, fft, ham = setup(2)
        dist = fft.dist
        psi = rng.standard_normal(SPHERE.num_g) + 0j
        out = dist.gather(ham.apply(dist.scatter(psi)))
        np.testing.assert_allclose(out, SPHERE.kinetic * psi, atol=1e-12)

    def test_hermitian(self, rng):
        comm, fft, ham = setup(2, atoms=[Atom(position=(0.3, 0.4, 0.5))])
        dist = fft.dist
        a = rng.standard_normal(SPHERE.num_g) + 1j * rng.standard_normal(SPHERE.num_g)
        b = rng.standard_normal(SPHERE.num_g) + 1j * rng.standard_normal(SPHERE.num_g)
        ha = dist.gather(ham.apply(dist.scatter(a)))
        hb = dist.gather(ham.apply(dist.scatter(b)))
        assert np.vdot(a, hb) == pytest.approx(np.vdot(ha, b), rel=1e-10)

    def test_potential_slab_shape_validated(self):
        comm, fft, ham = setup(2)
        with pytest.raises(ValueError):
            ham.set_potential([np.zeros((3, 3, 3)), np.zeros((3, 3, 3))])

    def test_block_apply_matches_per_band(self, rng):
        """One batched apply == one apply per band (two transposes for
        the whole block instead of two per band)."""
        comm, fft, ham = setup(3, atoms=[Atom(position=(0.3, 0.4, 0.5))])
        dist = fft.dist
        shape = (5, SPHERE.num_g)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        together = dist.gather(ham.apply(dist.scatter(block)))
        apart = np.stack(
            [dist.gather(ham.apply(dist.scatter(band))) for band in block]
        )
        np.testing.assert_allclose(together, apart, rtol=0, atol=1e-12)

    def test_free_electron_block_apply_is_kinetic(self, rng):
        comm, fft, ham = setup(2)
        dist = fft.dist
        block = rng.standard_normal((4, SPHERE.num_g)) + 0j
        out = dist.gather(ham.apply(dist.scatter(block)))
        np.testing.assert_allclose(out, SPHERE.kinetic * block, atol=1e-12)


def _dense_hamiltonian(fft, ham) -> np.ndarray:
    """H as an explicit ``num_g x num_g`` matrix: one batched apply to
    the identity block (row b is H e_b)."""
    dist = fft.dist
    eye = np.eye(dist.sphere.num_g, dtype=complex)
    return dist.gather(ham.apply(dist.scatter(eye)))


class TestCG:
    def test_free_electron_ground_state(self):
        """Free electrons: the lowest seven levels are exactly the
        kinetic energies 0 and 1/2 (six-fold)."""
        comm, fft, ham = setup(2)
        bands = initial_bands(fft, 7, seed=3)
        for _ in range(3):
            eps = block_cg(comm, ham, bands, CGOptions(iterations=10))
        np.testing.assert_allclose(eps, [0.0] + [0.5] * 6, atol=1e-10)

    def test_orthogonality_maintained(self):
        comm, fft, ham = setup(2, atoms=[Atom(position=(0.5, 0.5, 0.5))])
        bands = initial_bands(fft, 3, seed=4)
        driver = SCFDriver(
            comm=comm, ham=ham, occupations=np.array([2.0, 2.0, 2.0])
        )
        driver.solve_bands(bands)
        gram = overlaps(comm, bands, bands)
        assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_subspace_rotation_sorts_eigenvalues(self):
        """The last Rayleigh–Ritz is the subspace rotation: the bands
        come out as Ritz vectors, H diagonal among them, ascending."""
        comm, fft, ham = setup(2, atoms=[Atom(position=(0.5, 0.5, 0.5))])
        bands = initial_bands(fft, 3, seed=5)
        driver = SCFDriver(
            comm=comm, ham=ham, occupations=np.array([2.0, 2.0, 2.0])
        )
        vals = driver.solve_bands(bands)
        assert (np.diff(vals) >= -1e-10).all()
        h_sub = overlaps(comm, ham.apply(bands), bands)
        np.testing.assert_allclose(h_sub, np.diag(vals), atol=1e-9)

    def test_cg_monotone_energy(self):
        """The sum of band energies never rises across block iterations."""
        comm, fft, ham = setup(1, atoms=[Atom(position=(0.5, 0.5, 0.5))])
        bands = initial_bands(fft, 3, seed=6)
        sums = [
            block_cg(comm, ham, bands, CGOptions(iterations=1)).sum()
            for _ in range(8)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(sums, sums[1:]))
        assert sums[-1] < sums[0]

    @pytest.mark.parametrize("nranks", [1, 3])
    def test_matches_dense_eigh_at_fixed_potential(self, nranks):
        comm, fft, ham = setup(nranks, atoms=[Atom(position=(0.5, 0.5, 0.5))])
        want = np.linalg.eigvalsh(_dense_hamiltonian(fft, ham))[:4]
        bands = initial_bands(fft, 4, seed=7)
        for _ in range(3):
            got = block_cg(comm, ham, bands, CGOptions(iterations=10))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)

    def test_singular_basis_drops_the_trailing_block(self, rng):
        """A P that repeats W makes the overlap singular: the Ritz pairs
        are those of [X, W], with zero weight on P."""
        from repro.apps.paratec.cg import _lowest_ritz_pairs

        n, nb = 30, 3
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = a + a.conj().T
        x = np.linalg.qr(rng.standard_normal((n, nb)))[0].T + 0j
        w = rng.standard_normal((nb, n)) + 1j * rng.standard_normal((nb, n))

        def pencil(z):
            return z @ (z @ h).conj().T, z @ z.conj().T

        vals, coeffs = _lowest_ritz_pairs(*pencil(np.vstack([x, w, w])), nb)
        want, want_coeffs = _lowest_ritz_pairs(*pencil(np.vstack([x, w])), nb)
        np.testing.assert_allclose(vals, want, atol=1e-12)
        assert not coeffs[2 * nb :].any()
        np.testing.assert_allclose(coeffs[: 2 * nb], want_coeffs, atol=1e-12)


class _CountingExecutor(SerialExecutor):
    """Serial executor counting the parallel regions it is handed."""

    def __init__(self) -> None:
        self.regions = 0

    def map(self, fn, items):
        self.regions += 1
        return super().map(fn, items)


#: The ladder's ``solver_serial`` PARATEC class.
LADDER = ParatecParams(grid_shape=(16, 16, 16), nbands=8)


class TestParatecSolver:
    def test_decomposition_independence(self):
        r1 = Paratec(ParatecParams(), Communicator(1)).run()
        r4 = Paratec(ParatecParams(), Communicator(4)).run()
        np.testing.assert_allclose(
            r1.eigenvalues, r4.eigenvalues, atol=1e-10
        )

    def test_bound_states_below_free(self):
        p = Paratec(ParatecParams(scf_iterations=1), Communicator(2))
        res = p.run(update_density=False)
        assert res.eigenvalues[0] < 0.0  # bound in the Gaussian wells

    def test_density_positive_and_normalized(self):
        p = Paratec(ParatecParams(), Communicator(2))
        p.run()
        rho = p.density()
        assert (rho >= -1e-12).all()
        # sum over grid of |psi|^2 * occ: occupations x norm / N factor
        occ_total = p.driver.occupations.sum()
        n = np.prod(p.params.grid_shape)
        assert rho.sum() * n == pytest.approx(occ_total, rel=1e-6)

    def test_scf_converges_potential(self):
        p = Paratec(
            ParatecParams(scf_iterations=6, mixing=0.3), Communicator(2)
        )
        res = p.run()
        assert res.potential_change < 0.5

    def test_meter_records_work(self):
        comm = Communicator(2)
        p = Paratec(ParatecParams(scf_iterations=1), comm)
        p.run(update_density=False)
        assert comm.meter.total_flops() > 0

    def test_charged_flops_are_flops_per_step(self):
        """One source for both: a step charges exactly flops_per_step."""
        comm = Communicator(3)
        p = Paratec(ParatecParams(), comm)
        for steps in (1, 2):
            p.scf_step()
            assert comm.meter.total_flops() == pytest.approx(
                steps * p.flops_per_step, rel=1e-12
            )

    def test_run_stops_at_tolerance(self, monkeypatch):
        monkeypatch.setattr(
            "repro.apps.paratec.solver._SCF_TOLERANCE", 1e3
        )
        p = Paratec(ParatecParams(scf_iterations=4), Communicator(2))
        assert p.run().iterations == 1
        with pytest.raises(ValueError):
            ParatecParams(scf_iterations=0)

    def test_checkpoint_round_trip_is_per_rank_blocks(self):
        p = Paratec(ParatecParams(), Communicator(2))
        p.scf_step()
        snap = p.checkpoint_state()
        assert [b.shape for b in snap["bands"]] == [
            (4, n) for n in p.dist.counts()
        ]
        expected = p.scf_step().eigenvalues
        p.restore_state(snap)
        assert np.array_equal(p.scf_step().eigenvalues, expected)
        with pytest.raises(ValueError):
            p.restore_state({**snap, "bands": [b[:2] for b in snap["bands"]]})

    def test_regions_and_messages_per_step(self):
        """At the ladder's configuration a step is at least 5x fewer
        regions and messages than the band-at-a-time sweep's 361 and
        2848: each H application is six regions and two Alltoallv for
        all eight bands."""
        counter = _CountingExecutor()
        comm = Communicator(4, machine=get_machine("ES"), executor=counter)
        comm.attach_phase_ledger()
        p = Paratec(LADDER, comm)
        steps = 2
        for _ in range(steps):
            p.scf_step()
        messages = comm.phase_ledger.totals().messages.sum() / steps
        assert counter.regions / steps <= 72
        assert messages <= 570

    def test_arena_stays_flat_after_the_first_step(self):
        """Scratch is keyed per call site, not per band: its buffers do
        not multiply with the block width, and later steps reuse them."""
        counts = {}
        for nbands in (4, 8):
            comm = Communicator(4)
            arena = comm.executor.arena("paratec")
            p = Paratec(
                ParatecParams(grid_shape=(16, 16, 16), nbands=nbands),
                comm,
                arena=arena,
            )
            p.scf_step()
            after_first = (arena.nbytes, arena.num_buffers, arena.misses)
            for _ in range(2):
                p.scf_step()
            now = (arena.nbytes, arena.num_buffers, arena.misses)
            assert now == after_first
            counts[nbands] = arena.num_buffers
        assert counts[4] == counts[8]


class TestTable6Shape:
    """Qualitative claims of the paper's Table 6."""

    def test_power3_runs_over_half_peak(self):
        # "achieving over 60% of peak on the Power3 using 128 processors"
        r = predict("Power3", ParatecScenario(128))
        assert r.pct_peak > 50.0

    def test_highest_pct_of_all_apps_on_scalar(self):
        # PARATEC %peak on Power3 far exceeds its GTC/LBMHD showings.
        from repro.apps.gtc import GTCScenario
        from repro.apps.gtc import predict as gtc_predict

        paratec_pct = predict("Power3", ParatecScenario(256)).pct_peak
        gtc_pct = gtc_predict("Power3", GTCScenario(256, 400)).pct_peak
        assert paratec_pct > 3 * gtc_pct

    def test_ssp_mode_beats_msp_for_paratec(self):
        # "using the 128 MSP in SSP mode ... resulted in a performance
        # increase of 16%"
        msp = predict("X1", ParatecScenario(128)).gflops_per_proc
        ssp4 = 4 * predict("X1-SSP", ParatecScenario(128)).gflops_per_proc
        assert 1.0 < ssp4 / msp < 1.35

    def test_itanium2_beats_opteron(self):
        # "the situation reversed for PARATEC" (vs GTC/LBMHD)
        r_ita = predict("Itanium2", ParatecScenario(256)).gflops_per_proc
        r_opt = predict("Opteron", ParatecScenario(256)).gflops_per_proc
        assert r_ita > r_opt

    def test_es_declines_at_scale(self):
        # "declining performance at higher concurrencies is caused by
        # the increased communication overhead of the 3D FFTs"
        rates = [
            predict("ES", ParatecScenario(p)).gflops_per_proc
            for p in (128, 512, 2048)
        ]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] / rates[-1] > 1.5

    def test_es_2048_headline(self):
        # "sustaining 5.5 Tflop/s for 2048 processors"
        r = predict("ES", ParatecScenario(2048))
        assert r.aggregate_tflops == pytest.approx(5.5, rel=0.2)

    def test_x1_below_es_absolute(self):
        # "absolute X1 performance is lower than the ES, even though it
        # has a higher peak speed"
        assert (
            predict("X1", ParatecScenario(256)).gflops_per_proc
            < predict("ES", ParatecScenario(256)).gflops_per_proc
        )
