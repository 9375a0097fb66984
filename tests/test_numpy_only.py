"""The runtime needs numpy alone.

scipy and networkx are test oracles, nothing more: a process that
imports the command-line modules and steps GTC and PARATEC never loads
them, and the two kernels that replaced scipy's LAPACK calls — GTC's
radial tridiagonal sweep and PARATEC's Rayleigh–Ritz reduction — are
held to what scipy's LAPACK gives.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh, solve_banded

from repro.apps.gtc.grid import PoloidalGrid
from repro.apps.gtc.poisson import (
    _radial_operators,
    _radial_solve,
    solve_poisson,
)
from repro.apps.paratec.cg import _lowest_ritz_pairs

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_FOOTPRINT = """
import sys
import repro.service.cli, repro.campaign.cli, repro.distrib.cli
import repro.perfdb.cli, repro.experiments.runner
from repro import harness
from repro.campaign.worker import build_params
harness.run("gtc", build_params("gtc", {"particles_per_cell": 2}),
            steps=1, nprocs=4)
harness.run("paratec", build_params("paratec", {"grid_shape": [12, 12, 12],
                                                "nbands": 4}),
            steps=1, nprocs=2)
print(" ".join(sorted({m.split(".")[0] for m in sys.modules}
                      & {"scipy", "networkx"})))
"""


def test_clis_and_a_step_of_gtc_and_paratec_load_neither():
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        env={**os.environ, "PYTHONPATH": _SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded: {proc.stdout.strip()}"


# -- GTC: the radial sweep against LAPACK's gtsv ------------------------------

GRIDS = [
    PoloidalGrid(mpsi=16, mtheta=32),
    PoloidalGrid(mpsi=12, mtheta=20),
    PoloidalGrid(mpsi=5, mtheta=7, r0=0.3, r1=2.0),
    PoloidalGrid(mpsi=32, mtheta=64),
]
GRID_IDS = ["16x32", "12x20", "5x7", "32x64"]


def _gtsv(grid: PoloidalGrid, rhs: np.ndarray) -> np.ndarray:
    """One ``solve_banded`` per harmonic, a column per plane: the
    solve as it was written against scipy."""
    out = np.empty_like(rhs)
    for k, ab in enumerate(_radial_operators(grid)):
        out[:, :, k] = solve_banded((1, 1), ab, rhs[:, :, k].T).T
    return out


def _sweep(grid: PoloidalGrid, rhs: np.ndarray) -> np.ndarray:
    x = rhs.copy()
    _radial_solve(grid, x)
    return x


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("planes", [1, 3, 8])
def test_radial_sweep_is_bitwise_gtsv(grid, planes):
    rng = np.random.default_rng(planes * 1000 + grid.mpsi)
    nm = grid.mtheta // 2 + 1
    for magnitude in (1e-6, 1.0, 1e6):
        rhs = magnitude * (
            rng.standard_normal((planes, grid.mpsi, nm))
            + 1j * rng.standard_normal((planes, grid.mpsi, nm))
        )
        # exact zeros of both signs, scattered over both parts
        parts = rhs.view(np.float64)
        zero = rng.random(parts.shape) < 0.15
        parts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        assert _sweep(grid, rhs).tobytes() == _gtsv(grid, rhs).tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_radial_sweep_of_a_zero_part_is_zero(grid):
    """A part that is zero down a whole column (the imaginary part of
    the m = 0 harmonic of a real charge) solves to zeros; only the sign
    of those zeros may differ from gtsv's."""
    rng = np.random.default_rng(7)
    nm = grid.mtheta // 2 + 1
    rhs = rng.standard_normal((2, grid.mpsi, nm)) + 0j
    rhs.imag[0] = -0.0
    got, want = _sweep(grid, rhs), _gtsv(grid, rhs)
    assert np.array_equal(got, want)
    assert not got.imag.any()


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_solve_poisson_is_bitwise_the_gtsv_solve(grid):
    """The zeros the sweep may sign differently are ones irfft drops:
    the potential is bit for bit the one of the gtsv solve."""
    rng = np.random.default_rng(11)
    rho = rng.standard_normal((4,) + grid.shape)
    rho -= rho.mean(axis=(1, 2), keepdims=True)
    rho_m = np.fft.rfft(rho, axis=-1)
    want = np.fft.irfft(_gtsv(grid, -rho_m), n=grid.mtheta, axis=-1)
    assert solve_poisson(grid, rho).tobytes() == want.tobytes()


# -- PARATEC: the Rayleigh–Ritz reduction against LAPACK's hegvx -------------

NB, NG = 4, 60


def _basis(rng, drop_p: bool) -> tuple[np.ndarray, np.ndarray]:
    """An ``[X, W, P]`` basis of ``3 NB`` rows over ``NG`` plane waves,
    the ``W`` and ``P`` rows small as when bands converge; with
    ``drop_p``, ``P`` lies within 1e-7 of ``W``'s span."""

    def block(scale):
        return scale * (
            rng.standard_normal((NB, NG)) + 1j * rng.standard_normal((NB, NG))
        )

    x, w = block(1.0), block(1e-3)
    p = w + block(1e-10) if drop_p else block(1e-4)
    return np.concatenate([x, w, p]), np.diag(rng.uniform(0.0, 50.0, NG))


def _ritz_reference(h, s, k):
    vals, vecs = eigh(h[:k, :k], s[:k, :k], subset_by_index=(0, NB - 1))
    coeffs = np.zeros((len(s), NB), dtype=complex)
    coeffs[:k] = vecs
    return vals, coeffs


def _projector(coeffs, z):
    """Orthogonal projector onto the span of the Ritz vectors
    ``coeffs^H z`` (rows orthonormal)."""
    ritz = coeffs.conj().T @ z
    return ritz.conj().T @ ritz


@pytest.mark.parametrize(
    "drop_p,kept", [(False, 3 * NB), (True, 2 * NB)], ids=["XWP", "XW"]
)
def test_lowest_ritz_pairs_match_hegvx(drop_p, kept):
    rng = np.random.default_rng(5)
    z, ham = _basis(rng, drop_p)
    h = z @ ham @ z.conj().T
    s = z @ z.conj().T
    vals, coeffs = _lowest_ritz_pairs(h, s, NB)
    want_vals, want_coeffs = _ritz_reference(h, s, kept)
    assert not coeffs[kept:].any()
    np.testing.assert_allclose(vals, want_vals, rtol=1e-12, atol=0.0)
    got_p, want_p = _projector(coeffs, z), _projector(want_coeffs, z)
    assert np.abs(got_p - want_p).max() < 1e-10
    # Ritz vectors orthonormal in the basis' own metric
    np.testing.assert_allclose(
        coeffs.conj().T @ s @ coeffs, np.eye(NB), atol=1e-10
    )
