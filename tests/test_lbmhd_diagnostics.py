"""Tests for LBMHD spectra and checkpoint/restart."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.lbmhd import (
    LBMHD3D,
    LBMHDParams,
    load_checkpoint,
    moments,
    save_checkpoint,
    shell_spectrum,
    turbulence_report,
)
from repro.simmpi import Communicator

SHAPE = (8, 8, 8)


class TestShellSpectrum:
    def test_parseval(self, rng):
        field = rng.standard_normal((3, *SHAPE))
        k, spectrum = shell_spectrum(field)
        n = np.prod(SHAPE)
        f_hat = np.fft.fftn(field, axes=(1, 2, 3)) / n
        e0 = 0.5 * (np.abs(f_hat[:, 0, 0, 0]) ** 2).sum()
        total = 0.5 * (field**2).sum(axis=0).mean()
        assert spectrum.sum() + e0 == pytest.approx(total, rel=1e-10)

    def test_single_mode_lands_in_its_shell(self):
        x = 2 * np.pi * np.arange(8) / 8
        field = np.zeros((3, *SHAPE))
        field[0] = np.cos(3 * x)[:, None, None]
        k, spectrum = shell_spectrum(field)
        assert np.argmax(spectrum) == np.where(k == 3)[0][0]
        others = spectrum.sum() - spectrum[k == 3].sum()
        assert others < 1e-12 * spectrum.sum()

    def test_uniform_field_has_empty_spectrum(self):
        field = np.ones((3, *SHAPE))
        _, spectrum = shell_spectrum(field)
        np.testing.assert_allclose(spectrum, 0.0, atol=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            shell_spectrum(np.zeros((2, 4, 4, 4)))


class TestTurbulenceReport:
    def test_centroid_rises_as_turbulence_develops(self):
        sim = LBMHD3D(
            LBMHDParams(shape=(16, 16, 8), tau=0.6, tau_m=0.6, u0=0.08, b0=0.08),
            Communicator(4),
        )
        before = turbulence_report(sim)
        sim.run(40)
        after = turbulence_report(sim)
        # nonlinear interactions move kinetic energy to higher shells
        assert after.kinetic_centroid > before.kinetic_centroid

    def test_report_fields(self):
        sim = LBMHD3D(LBMHDParams(shape=SHAPE), Communicator(1))
        rep = turbulence_report(sim)
        assert rep.step == 0
        assert len(rep.shells) == len(rep.kinetic_spectrum)
        assert (rep.kinetic_spectrum >= 0).all()


class TestCheckpoint:
    def test_roundtrip_exact(self):
        sim = LBMHD3D(LBMHDParams(shape=SHAPE), Communicator(4))
        sim.run(3)
        blob = save_checkpoint(sim)
        restored = load_checkpoint(blob, Communicator(4))
        np.testing.assert_array_equal(
            restored.global_state(), sim.global_state()
        )
        assert restored.step_count == 3

    def test_restart_across_different_rank_count(self):
        sim = LBMHD3D(LBMHDParams(shape=SHAPE), Communicator(8))
        sim.run(2)
        blob = save_checkpoint(sim)
        restored = load_checkpoint(blob, Communicator(2))
        sim.step()
        restored.step()
        np.testing.assert_array_equal(
            restored.global_state(), sim.global_state()
        )

    def test_parameters_survive(self):
        params = LBMHDParams(shape=SHAPE, tau=0.9, tau_m=0.7, u0=0.02, b0=0.03)
        sim = LBMHD3D(params, Communicator(1))
        restored = load_checkpoint(save_checkpoint(sim), Communicator(1))
        assert restored.params == params

    def test_mrt_parameters_survive(self):
        params = LBMHDParams(
            shape=SHAPE, tau=0.9, tau_m=0.7, use_mrt=True, tau_ghost=1.3
        )
        sim = LBMHD3D(params, Communicator(2))
        sim.run(2)
        restored = load_checkpoint(save_checkpoint(sim), Communicator(2))
        assert restored.params == params
        sim.step()
        restored.step()
        np.testing.assert_array_equal(
            restored.global_state(), sim.global_state()
        )

    def test_blob_is_compact(self):
        sim = LBMHD3D(LBMHDParams(shape=SHAPE), Communicator(1))
        blob = save_checkpoint(sim)
        raw = sim.global_state().nbytes
        assert len(blob) < raw  # compression actually engaged
