"""Tests for GTC's deposition, Poisson solve, push, and shift kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.gtc import (
    PARTICLE_FIELDS,
    PARTICLE_WORDS,
    ParticleArray,
    PoloidalGrid,
    TorusGrid,
    deposit_scalar,
    deposit_work,
    deposit_work_vector,
    electric_field,
    gather_field,
    laplacian,
    load_particles,
    push_particles,
    push_work,
    solve_poisson,
    work_vector_memory_overhead,
)
from repro.apps.gtc.push import PushParams
from repro.apps.gtc.shift import classify, shift_block, wrap_zeta
from repro.apps.gtc.decomp import GTCDecomposition, choose_decomposition
from repro.machines import get_machine
from repro.simmpi import Communicator

import seed_gtc as seed

GRID = PoloidalGrid(mpsi=16, mtheta=24)
TORUS = TorusGrid(plane=GRID, ntoroidal=4)


def particles(n=2000, seed=0, domain=0) -> ParticleArray:
    return load_particles(TORUS, n, domain, np.random.default_rng(seed))


def cells(p: ParticleArray):
    return GRID.locate_cells(p.r, p.theta)


def shift(
    comm: Communicator,
    torus: TorusGrid,
    decomp: GTCDecomposition,
    pops: list[ParticleArray],
) -> list[ParticleArray]:
    """The per-rank populations through :func:`shift_block`: packed
    into one block, shifted into another, and cut by the new offsets."""
    off = np.concatenate([[0], np.cumsum([len(p) for p in pops])])
    src = np.stack(
        [
            np.concatenate([getattr(p, f) for p in pops])
            for f in PARTICLE_FIELDS
        ]
    )
    dst = np.empty_like(src)
    ranks = range(decomp.nprocs)
    new = shift_block(
        comm,
        torus,
        np.array([decomp.domain_of(r) for r in ranks]),
        np.array([decomp.shift_neighbors(r) for r in ranks]),
        off,
        src,
        dst,
    )
    assert new[-1] == off[-1]
    return [ParticleArray(*dst[:, new[r] : new[r + 1]]) for r in ranks]


class TestDeposition:
    def test_conserves_total_charge(self):
        p = particles()
        rho = deposit_scalar(GRID, p)
        assert rho.sum() == pytest.approx(p.total_charge, rel=1e-12)

    def test_gyro_averaged_conserves_charge(self):
        p = particles()
        rho = deposit_scalar(GRID, p, gyro_radius=0.05)
        assert rho.sum() == pytest.approx(p.total_charge, rel=1e-12)

    @pytest.mark.parametrize("copies", [1, 3, 8, 64])
    def test_work_vector_matches_scalar(self, copies):
        p = particles()
        a = deposit_scalar(GRID, p, gyro_radius=0.04)
        b = deposit_work_vector(GRID, p, num_copies=copies, gyro_radius=0.04)
        np.testing.assert_allclose(a, b, atol=1e-11)

    def test_work_vector_bad_copies(self):
        with pytest.raises(ValueError):
            deposit_work_vector(GRID, particles(10), num_copies=0)

    def test_empty_particles(self):
        p = particles(0)
        rho = deposit_scalar(GRID, p)
        assert rho.sum() == 0.0

    def test_single_particle_at_node(self):
        # a particle exactly on a node deposits all weight there
        p = ParticleArray(
            r=np.array([GRID.r0 + 3 * GRID.dr]),
            theta=np.array([5 * GRID.dtheta]),
            zeta=np.array([0.1]),
            vpar=np.array([0.0]),
            weight=np.array([2.5]),
        )
        rho = deposit_scalar(GRID, p)
        assert rho[3, 5] == pytest.approx(2.5)

    def test_memory_overhead_formula(self):
        assert work_vector_memory_overhead(GRID, 256) == 256 * GRID.num_points * 8

    def test_work_descriptor_scaling(self):
        w1 = deposit_work(100, vectorized=True)
        w2 = deposit_work(200, vectorized=True)
        assert w2.flops == pytest.approx(2 * w1.flops)
        assert deposit_work(100, vectorized=False).vector_fraction == 0.0


class TestPoisson:
    def test_solver_inverts_discrete_laplacian(self, rng):
        phi_true = rng.standard_normal(GRID.shape)
        rho = -laplacian(GRID, phi_true)
        phi = solve_poisson(GRID, rho)
        np.testing.assert_allclose(phi, phi_true, atol=1e-11)

    def test_laplacian_of_harmonic_mode(self):
        # a pure theta-harmonic stays a pure harmonic under the operator
        theta = GRID.thetas
        phi = np.outer(np.sin(np.pi * np.arange(GRID.mpsi) / (GRID.mpsi - 1)),
                       np.cos(3 * theta))
        lap = laplacian(GRID, phi)
        spec = np.abs(np.fft.rfft(lap, axis=1))
        # all energy in harmonic m=3
        m_energy = spec.sum(axis=0)
        assert m_energy[3] > 100 * (m_energy.sum() - m_energy[3] + 1e-30)

    def test_electric_field_of_linear_potential_is_uniformish(self):
        r = GRID.radii
        phi = np.repeat(r[:, None], GRID.mtheta, axis=1)
        e_r, e_theta = electric_field(GRID, phi)
        np.testing.assert_allclose(
            e_r[1:-1], -1.0, atol=1e-9
        )
        np.testing.assert_allclose(e_theta, 0.0, atol=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_poisson(GRID, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            laplacian(GRID, np.zeros((3, 3)))


class TestGatherPush:
    def test_gather_constant_field(self):
        p = particles(500)
        e_r = np.full(GRID.shape, 1.5)
        e_t = np.full(GRID.shape, -0.5)
        er_p, et_p = gather_field(GRID, e_r, e_t, cells(p))
        np.testing.assert_allclose(er_p, 1.5, atol=1e-12)
        np.testing.assert_allclose(et_p, -0.5, atol=1e-12)

    def test_gather_deposit_adjointness(self):
        """<deposit(p), phi> == <w, gather(phi)(p)> — the CIC pair."""
        p = particles(300)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(GRID.shape)
        rho = deposit_scalar(GRID, p)
        lhs = float((rho * phi).sum())
        phi_at_p, _ = gather_field(GRID, phi, phi, cells(p))
        rhs = float((p.weight * phi_at_p).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_push_zero_field_is_free_streaming(self):
        # No E field: radius fixed, theta advances only by the parallel
        # transit term, zeta by v_par / R0.
        p = particles(100)
        zeros = np.zeros(len(p))
        params = PushParams(dt=0.1)
        out = push_particles(TORUS, p, zeros, zeros, params)
        np.testing.assert_allclose(out.r, p.r)
        expected_theta = np.mod(
            p.theta
            + 0.1 * p.vpar / (params.safety_q * TORUS.major_radius * p.r),
            2 * np.pi,
        )
        np.testing.assert_allclose(out.theta, expected_theta)
        expected_zeta = p.zeta + 0.1 * p.vpar / TORUS.major_radius
        np.testing.assert_allclose(out.zeta, expected_zeta)

    def test_push_reflects_at_walls(self):
        p = particles(500)
        big_e_theta = np.full(len(p), 50.0)  # strong inward/outward drift
        out = push_particles(TORUS, p, np.zeros(len(p)), big_e_theta,
                             PushParams(dt=0.5))
        assert (out.r >= GRID.r0).all() and (out.r <= GRID.r1).all()

    def test_push_work_descriptor(self):
        assert push_work(10, True).vector_fraction > 0.9
        assert push_work(10, False).avg_vector_length == 1.0


class TestShift:
    def test_classify_single_hop(self):
        p = particles(200, domain=1)
        # nudge some into the neighbors
        p.zeta[:20] -= TORUS.dzeta  # into domain 0
        p.zeta[20:40] += TORUS.dzeta  # into domain 2
        movers, side = classify(TORUS, 1, p.zeta, p.vpar)
        np.testing.assert_array_equal(movers, np.arange(40))
        np.testing.assert_array_equal(side, np.repeat([0, 1], 20))

    def test_classify_rejects_multi_hop(self):
        p = particles(10, domain=0)
        p.zeta[0] += 2.5 * TORUS.dzeta
        with pytest.raises(ValueError, match="more than one toroidal"):
            classify(TORUS, 0, p.zeta, p.vpar)

    def test_multi_hop_shift_raises_before_anything_is_charged(self):
        comm = Communicator(4, trace=True)
        decomp = GTCDecomposition(ntoroidal=4, npe_per_domain=1)
        pops = [particles(50, seed=d, domain=d) for d in range(4)]
        pops[2].zeta[7] += 2.0 * TORUS.dzeta
        with pytest.raises(ValueError, match="reduce dt"):
            shift(comm, TORUS, decomp, pops)
        assert comm.elapsed == 0.0 and not comm.trace.calls

    def test_shift_conserves_particles_and_charge(self):
        comm = Communicator(4)
        decomp = GTCDecomposition(ntoroidal=4, npe_per_domain=1)
        pops = [particles(100, seed=d, domain=d) for d in range(4)]
        for d, p in enumerate(pops):
            p.zeta[:10] += TORUS.dzeta * 0.99  # push some over the edge
        total_before = sum(len(p) for p in pops)
        charge_before = sum(p.total_charge for p in pops)
        out = shift(comm, TORUS, decomp, pops)
        assert sum(len(p) for p in out) == total_before
        assert sum(p.total_charge for p in out) == pytest.approx(charge_before)
        # every particle now lives in its rank's domain
        for rank, p in enumerate(out):
            if len(p):
                assert (TORUS.domain_of(p.zeta) == decomp.domain_of(rank)).all()

    def test_shift_two_domains_conserves_particles_and_charge(self):
        """Both neighbours of a domain are the other one: a crossing
        particle leaves by the side its ``vpar`` points to."""
        torus = TorusGrid(plane=GRID, ntoroidal=2)
        comm = Communicator(4, trace=True)
        decomp = GTCDecomposition(ntoroidal=2, npe_per_domain=2)
        assert decomp.shift_neighbors(0) == (2, 2)
        rng = np.random.default_rng(3)
        pops = []
        for rank in range(4):
            p = load_particles(torus, 100, decomp.domain_of(rank), rng)
            p.weight[:] = rng.random(len(p))
            # cross the upper edge moving up, the lower one moving down
            p.zeta[:10] += torus.dzeta
            p.vpar[:10] = np.abs(p.vpar[:10])
            p.zeta[10:20] -= torus.dzeta
            p.vpar[10:20] = -np.abs(p.vpar[10:20])
            pops.append(p)
        first = pops[0].copy()
        wrap_zeta(first.zeta)
        movers, side = classify(
            torus, decomp.domain_of(0), first.zeta, first.vpar
        )
        np.testing.assert_array_equal(movers, np.arange(20))
        np.testing.assert_array_equal(side, np.repeat([1, 0], 10))
        total_before = sum(len(p) for p in pops)
        charge_before = sum(p.total_charge for p in pops)
        sent = [p.copy() for p in pops]
        out = shift(comm, torus, decomp, pops)
        assert sum(len(p) for p in out) == total_before
        assert sum(p.total_charge for p in out) == pytest.approx(charge_before)
        for rank, p in enumerate(out):
            assert (torus.domain_of(p.zeta) == decomp.domain_of(rank)).all()
        # rank 2 keeps its stayers, then takes rank 0's left message
        # (the particles that went down) before its right one
        arrived = out[2].zeta[80:]
        np.testing.assert_array_equal(
            arrived[:10], np.mod(sent[0].zeta[10:20], 2 * np.pi)
        )
        np.testing.assert_array_equal(arrived[10:], sent[0].zeta[:10])
        # rank 0 sends both its messages to rank 2, 10 particles each
        assert comm.trace.matrix()[0, 2] == 20 * PARTICLE_WORDS * 8

    @pytest.mark.parametrize("ntoroidal,npe", [(4, 1), (4, 3), (3, 2), (8, 2)])
    def test_shift_matches_the_per_rank_exchange_bitwise(self, ntoroidal, npe):
        """Layout, clocks and traffic of the one-block shift equal the
        per-rank pack/exchange/append reference's, empty messages and
        particles on the domain edges included."""
        torus = TorusGrid(plane=GRID, ntoroidal=ntoroidal)
        decomp = GTCDecomposition(ntoroidal=ntoroidal, npe_per_domain=npe)
        rng = np.random.default_rng(ntoroidal * 10 + npe)
        pops = []
        for rank in range(decomp.nprocs):
            p = load_particles(torus, 60, decomp.domain_of(rank), rng)
            p.weight[:] = rng.random(len(p))
            p.zeta += rng.normal(0.0, 0.2 * torus.dzeta, len(p))
            lo, hi = torus.domain_bounds(decomp.domain_of(rank))
            p.zeta[:3] = (lo, hi, -0.0 if lo == 0.0 else lo)
            pops.append(p)
        pops[-1] = pops[-1].keep(np.zeros(len(pops[-1]), bool))  # empty
        machine = get_machine("ES")
        got_comm = Communicator(decomp.nprocs, machine=machine, trace=True)
        want_comm = Communicator(decomp.nprocs, machine=machine, trace=True)
        want = seed.seed_shift_particles(
            want_comm,
            torus,
            [decomp.domain_of(r) for r in range(decomp.nprocs)],
            [decomp.shift_neighbors(r) for r in range(decomp.nprocs)],
            [p.copy() for p in pops],
        )
        got = shift(got_comm, torus, decomp, pops)
        for g, w in zip(got, want):
            for f in PARTICLE_FIELDS:
                assert getattr(g, f).tobytes() == getattr(w, f).tobytes()
        assert got_comm.times.tobytes() == want_comm.times.tobytes()
        assert np.array_equal(
            got_comm.trace.matrix(), want_comm.trace.matrix()
        )

    def test_wrap_touches_only_what_mod_changes(self):
        two_pi = 2.0 * np.pi
        edges = np.array(
            [-0.0, 0.0, two_pi, np.nextafter(two_pi, 0.0), -1e-300,
             3.0 * two_pi + 0.5, -two_pi - 0.25, 1.0, 5e-324]
        )
        noise = np.random.default_rng(1).normal(3.0, 4.0, 500)
        zeta = np.concatenate([edges, noise])
        want = np.mod(zeta, two_pi)
        wrap_zeta(zeta)
        assert zeta.tobytes() == want.tobytes()
        assert not np.signbit(zeta[0]) and zeta[2] == 0.0

    def test_particles_at_zero_and_two_pi_belong_to_domain_zero(self):
        comm = Communicator(4)
        decomp = GTCDecomposition(ntoroidal=4, npe_per_domain=1)
        pops = [particles(20, seed=d, domain=d) for d in range(4)]
        pops[0].zeta[0] = -0.0  # stays
        pops[3].zeta[0] = 2.0 * np.pi  # wraps to 0: one step right
        out = shift(comm, TORUS, decomp, pops)
        assert [len(p) for p in out] == [21, 20, 20, 19]
        assert out[0].zeta[0] == 0.0 and not np.signbit(out[0].zeta[0])
        assert out[0].zeta[20] == 0.0  # the arrival, after the stayers


class TestDecomposition:
    def test_rank_mapping_roundtrip(self):
        d = GTCDecomposition(ntoroidal=4, npe_per_domain=3)
        for r in range(d.nprocs):
            assert d.rank_of(d.domain_of(r), d.split_of(r)) == r

    def test_shift_neighbors_preserve_split(self):
        d = GTCDecomposition(ntoroidal=4, npe_per_domain=3)
        left, right = d.shift_neighbors(5)  # domain 1, split 2
        assert d.split_of(left) == d.split_of(5)
        assert d.domain_of(left) == 0 and d.domain_of(right) == 2

    def test_choose_decomposition(self):
        d = choose_decomposition(2048)
        assert d.ntoroidal == 64 and d.npe_per_domain == 32
        d = choose_decomposition(64)
        assert d.ntoroidal == 64 and d.npe_per_domain == 1
        d = choose_decomposition(48)
        assert d.nprocs == 48

    @given(st.integers(min_value=1, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_choose_always_consistent(self, p):
        d = choose_decomposition(p)
        assert d.nprocs == p
        assert d.ntoroidal <= 64
