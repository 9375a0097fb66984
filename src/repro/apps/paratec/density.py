"""Charge density and self-consistent potentials (Hartree + LDA-x).

The density is accumulated in real space on the distributed z-slabs
from one all-band FFT; the SCF potential update (Hartree solve in
G-space plus a Slater exchange term) runs on the gathered dense grid —
a replicated, O(grid) step that is negligible next to the per-band FFT
and BLAS3 work, mirroring PARATEC's own cost structure.
"""

from __future__ import annotations

import numpy as np


def accumulate_density(
    band_slabs: list[np.ndarray], occupations: np.ndarray
) -> list[np.ndarray]:
    """rho(r) slabs from per-rank real-space band stacks.

    ``band_slabs[rank]`` is ``(nb, n1, n2, nz)``: every band's
    wavefunction on the rank's slab, as one all-band transform returns.
    """
    if any(len(s) != len(occupations) for s in band_slabs):
        raise ValueError("need one occupation per band")
    return [
        np.tensordot(occupations, np.abs(s) ** 2, axes=1)
        for s in band_slabs
    ]


def hartree_potential(rho: np.ndarray) -> np.ndarray:
    """V_H from  nabla^2 V_H = -4 pi rho  on the periodic dense grid.

    The G=0 component (net charge) is dropped, as in any plane-wave
    code with a compensating background.
    """
    shape = rho.shape
    axes_freqs = [np.fft.fftfreq(n, d=1.0 / n) for n in shape]
    gx, gy, gz = np.meshgrid(*axes_freqs, indexing="ij")
    g_sq = (2.0 * np.pi) ** 2 * (gx**2 + gy**2 + gz**2)
    rho_g = np.fft.fftn(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        v_g = np.where(g_sq > 0, 4.0 * np.pi * rho_g / g_sq, 0.0)
    return np.fft.ifftn(v_g).real


def exchange_potential(rho: np.ndarray) -> np.ndarray:
    """Slater LDA exchange  V_x = -(3 rho / pi)^(1/3)."""
    return -np.cbrt(3.0 * np.maximum(rho, 0.0) / np.pi)


def total_potential(
    rho: np.ndarray, v_external: np.ndarray
) -> np.ndarray:
    """V_eff = V_ext + V_H[rho] + V_x[rho]."""
    if rho.shape != v_external.shape:
        raise ValueError("density and potential grids differ")
    return v_external + hartree_potential(rho) + exchange_potential(rho)


def mix_potentials(
    v_old: np.ndarray, v_new: np.ndarray, alpha: float = 0.5
) -> np.ndarray:
    """Linear (Kerker-free) potential mixing for SCF stability."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("mixing parameter must be in (0, 1]")
    return (1.0 - alpha) * v_old + alpha * v_new
