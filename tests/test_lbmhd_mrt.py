"""Tests for the projected-MRT collision option."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.lbmhd import (
    LBMHD3D,
    LBMHDParams,
    MRTParams,
    collide,
    collide_mrt,
    equilibrium_state,
    orszag_tang_fields,
)
from repro.apps.lbmhd.collision import CollisionParams
from repro.apps.lbmhd.fields import (
    density,
    magnetic_field,
    momentum,
    split_state,
)
from repro.apps.lbmhd.mrt import _project_f_neq, _project_g_neq
from repro.simmpi import Communicator

SHAPE = (8, 8, 8)


@pytest.fixture
def noisy_state(rng) -> np.ndarray:
    rho, u, B = orszag_tang_fields(SHAPE, 0.05, 0.05)
    return equilibrium_state(rho, u, B) + 0.001 * rng.standard_normal(
        (72, *SHAPE)
    )


class TestMRTOperator:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            MRTParams(tau_ghost=0.5)

    def test_reduces_to_bgk(self, noisy_state):
        bgk = collide(noisy_state, CollisionParams(tau=0.8, tau_m=0.9))
        mrt = collide_mrt(
            noisy_state,
            MRTParams(tau=0.8, tau_m=0.9, tau_ghost=0.8, tau_ghost_m=0.9),
        )
        np.testing.assert_allclose(mrt, bgk, atol=1e-14)

    def test_conserves_moments(self, noisy_state):
        out = collide_mrt(noisy_state, MRTParams(tau=0.8, tau_m=0.9))
        f0, g0 = split_state(noisy_state)
        f1, g1 = split_state(out)
        np.testing.assert_allclose(density(f1), density(f0), atol=1e-13)
        np.testing.assert_allclose(momentum(f1), momentum(f0), atol=1e-13)
        np.testing.assert_allclose(
            magnetic_field(g1), magnetic_field(g0), atol=1e-13
        )

    def test_equilibrium_fixed_point(self):
        rho, u, B = orszag_tang_fields(SHAPE, 0.03, 0.03)
        state = equilibrium_state(rho, u, B)
        out = collide_mrt(state, MRTParams())
        np.testing.assert_allclose(out, state, atol=1e-12)

    def test_projections_carry_no_conserved_moments(self, rng):
        f_neq = 0.01 * rng.standard_normal((27, *SHAPE))
        proj = _project_f_neq(f_neq)
        np.testing.assert_allclose(density(proj), 0.0, atol=1e-14)
        np.testing.assert_allclose(momentum(proj), 0.0, atol=1e-14)
        g_neq = 0.01 * rng.standard_normal((15, 3, *SHAPE))
        gproj = _project_g_neq(g_neq)
        np.testing.assert_allclose(gproj.sum(axis=0), 0.0, atol=1e-14)

    def test_ghost_unity_wipes_nonshear_residue(self, noisy_state):
        """tau_ghost = 1 leaves only equilibrium + shear projection."""
        out = collide_mrt(
            noisy_state, MRTParams(tau=0.8, tau_m=0.8, tau_ghost=1.0)
        )
        f1, _ = split_state(out)
        from repro.apps.lbmhd import f_equilibrium
        from repro.apps.lbmhd.fields import moments

        rho, u, B = moments(noisy_state)
        feq = f_equilibrium(rho, u, B)
        residual = f1 - feq
        # residual must be pure shear projection: projecting it again
        # reproduces it
        np.testing.assert_allclose(
            _project_f_neq(residual), residual, atol=1e-12
        )


class TestMRTSolver:
    def test_solver_mrt_conserves(self):
        sim = LBMHD3D(
            LBMHDParams(shape=SHAPE, use_mrt=True), Communicator(4)
        )
        d0 = sim.diagnostics()
        sim.run(5)
        d1 = sim.diagnostics()
        assert d1.mass == pytest.approx(d0.mass, rel=1e-12)
        np.testing.assert_allclose(d1.momentum, d0.momentum, atol=1e-10)

    def test_mrt_damps_ghost_noise_faster(self, rng):
        """Off-equilibrium noise decays faster with tau_ghost = 1 than
        under BGK with the same viscosity at tau = 1.6."""
        rho, u, B = orszag_tang_fields(SHAPE, 0.03, 0.03)
        noise = 0.001 * rng.standard_normal((72, *SHAPE))
        state = equilibrium_state(rho, u, B) + noise

        bgk_out = collide(state, CollisionParams(tau=1.6, tau_m=1.6))
        mrt_out = collide_mrt(
            state, MRTParams(tau=1.6, tau_m=1.6, tau_ghost=1.0, tau_ghost_m=1.0)
        )
        eq = equilibrium_state(rho, u, B)
        assert np.abs(mrt_out - eq).sum() < np.abs(bgk_out - eq).sum()

    def test_mrt_matches_bgk_dynamics_when_rates_equal(self):
        a = LBMHD3D(LBMHDParams(shape=SHAPE), Communicator(2))
        b = LBMHD3D(
            LBMHDParams(shape=SHAPE, use_mrt=True, tau_ghost=0.8),
            Communicator(2),
        )
        a.run(4)
        b.run(4)
        np.testing.assert_allclose(
            a.global_state(), b.global_state(), atol=1e-13
        )

    @pytest.mark.parametrize("nprocs", [2, 4, 8])
    def test_mrt_is_decomposition_independent(self, nprocs):
        """MRT collides rank by rank inside the shard step and rides the
        same block halo exchange and stream: any P gives P=1's bits."""
        params = LBMHDParams(shape=(8, 8, 8), use_mrt=True, tau_ghost=1.1)
        one = LBMHD3D(params, Communicator(1))
        many = LBMHD3D(params, Communicator(nprocs))
        one.run(3)
        many.run(3)
        np.testing.assert_array_equal(many.global_state(), one.global_state())
