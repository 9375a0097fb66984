"""Tests for the Kleinman–Bylander nonlocal pseudopotential."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.paratec import (
    Atom,
    GSphere,
    Hamiltonian,
    ParallelFFT3D,
    SphereDistribution,
    block_cg,
    initial_bands,
)
from repro.apps.paratec.cg import CGOptions
from repro.apps.paratec.projectors import (
    NonlocalChannel,
    NonlocalPotential,
    attach_nonlocal,
)
from repro.simmpi import Communicator

SPHERE = GSphere(ecut=6.0, grid_shape=(12, 12, 12))


def setup(nranks=2, strength=1.0):
    dist = SphereDistribution(SPHERE, nranks)
    comm = Communicator(nranks)
    fft = ParallelFFT3D(dist, comm)
    ham = Hamiltonian(fft=fft)
    channels = [
        NonlocalChannel(
            atom=Atom(position=(0.5, 0.5, 0.5)), strength=strength
        )
    ]
    vnl = NonlocalPotential(dist, comm, channels)
    return comm, dist, ham, vnl


class TestNonlocalOperator:
    def test_channel_validation(self):
        with pytest.raises(ValueError):
            NonlocalChannel(atom=Atom(position=(0, 0, 0)), width=0.0)

    def test_projector_normalized(self):
        comm, dist, ham, vnl = setup(3)
        beta_full = dist.gather(vnl._beta_local)[0]
        assert np.linalg.norm(beta_full) == pytest.approx(1.0)

    def test_rank_one_action(self):
        """V_nl |psi> = D <beta|psi> |beta> for a single channel."""
        comm, dist, ham, vnl = setup(2, strength=2.5)
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(SPHERE.num_g) + 1j * rng.standard_normal(
            SPHERE.num_g
        )
        out = dist.gather(vnl.apply(dist.scatter(psi)))
        beta = dist.gather(vnl._beta_local)[0]
        want = 2.5 * np.vdot(beta, psi) * beta
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_hermitian(self):
        comm, dist, ham, vnl = setup(2)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(SPHERE.num_g) + 1j * rng.standard_normal(SPHERE.num_g)
        b = rng.standard_normal(SPHERE.num_g) + 1j * rng.standard_normal(SPHERE.num_g)
        va = dist.gather(vnl.apply(dist.scatter(a)))
        vb = dist.gather(vnl.apply(dist.scatter(b)))
        assert np.vdot(a, vb) == pytest.approx(np.vdot(va, b), rel=1e-10)

    def test_decomposition_independence(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(SPHERE.num_g) + 0j
        results = []
        for n in (1, 2, 4):
            comm, dist, ham, vnl = setup(n)
            results.append(dist.gather(vnl.apply(dist.scatter(psi))))
        np.testing.assert_allclose(results[0], results[1], atol=1e-12)
        np.testing.assert_allclose(results[0], results[2], atol=1e-12)

    def test_block_apply_matches_per_band(self):
        """Two projectors, a five-band block: one GEMM + one Allreduce
        gives what five single-band applications give."""
        dist = SphereDistribution(SPHERE, 3)
        comm = Communicator(3)
        vnl = NonlocalPotential(
            dist,
            comm,
            [
                NonlocalChannel(atom=Atom(position=(0.5, 0.5, 0.5))),
                NonlocalChannel(
                    atom=Atom(position=(0.2, 0.7, 0.1)), strength=-1.5
                ),
            ],
        )
        rng = np.random.default_rng(4)
        shape = (5, SPHERE.num_g)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert vnl.projections(dist.scatter(block)).shape == (5, 2)
        together = dist.gather(vnl.apply(dist.scatter(block)))
        apart = np.stack(
            [dist.gather(vnl.apply(dist.scatter(band))) for band in block]
        )
        np.testing.assert_allclose(together, apart, rtol=0, atol=1e-12)

    def test_work_descriptor(self):
        comm, dist, ham, vnl = setup(2)
        w = vnl.apply_work()
        assert w.flops > 0 and w.blas3_fraction == 1.0


class TestAttachedHamiltonian:
    def test_attach_composes(self):
        comm, dist, ham, vnl = setup(2, strength=3.0)
        attach_nonlocal(ham, vnl)
        rng = np.random.default_rng(3)
        psi = dist.scatter(  # a three-band block
            rng.standard_normal((3, SPHERE.num_g))
            + 1j * rng.standard_normal((3, SPHERE.num_g))
        )
        full = dist.gather(ham.apply(psi))
        local = dist.gather(ham.apply_local(psi))
        nl = dist.gather(vnl.apply(psi))
        np.testing.assert_allclose(full, local + nl, atol=1e-12)

    def test_double_attach_rejected(self):
        comm, dist, ham, vnl = setup(2)
        attach_nonlocal(ham, vnl)
        with pytest.raises(ValueError):
            attach_nonlocal(ham, vnl)

    def test_repulsive_channel_raises_ground_state(self):
        """First-order perturbation: D > 0 pushes the lowest band up."""
        def ground_energy(strength):
            comm, dist, ham, vnl = setup(2, strength=strength)
            if strength != 0.0:
                attach_nonlocal(ham, vnl)
            bands = initial_bands(ham.fft, 1, seed=5)
            for _ in range(3):
                e = block_cg(comm, ham, bands, CGOptions(iterations=20))
            return e[0]

        e_free = ground_energy(0.0)
        e_repulsive = ground_energy(0.5)
        e_attractive = ground_energy(-0.5)
        assert e_attractive < e_free < e_repulsive

    def test_attractive_channel_binds(self):
        comm, dist, ham, vnl = setup(2, strength=-2.0)
        attach_nonlocal(ham, vnl)
        bands = initial_bands(ham.fft, 2, seed=6)
        for _ in range(3):
            e = block_cg(comm, ham, bands, CGOptions(iterations=20))
        assert e[0] < -0.5  # bound well below the free-electron zero
