"""Kohn–Sham Hamiltonian: kinetic + local pseudopotential.

The mini-app uses norm-conserving-style *local* Gaussian
pseudopotentials: each atom contributes

    V_a(G) = -amplitude * exp(-|G|^2 sigma^2 / 2) * e^{-i G . tau_a}

built on the dense FFT grid and transformed to real space once.  The
Hamiltonian application is PARATEC's inner kernel: diagonal kinetic in
G-space plus a real-space potential multiply reached through the
parallel 3-D FFT (forward + inverse per application, all bands at
once).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...workload import Work
from .fft3d import ParallelFFT3D, plane_major
from .gvectors import GSphere, SphereDistribution


@dataclass(frozen=True)
class Atom:
    """One pseudo-atom: fractional position and Gaussian potential."""

    position: tuple[float, float, float]
    amplitude: float = 4.0
    sigma: float = 0.6

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def build_local_potential(
    grid_shape: tuple[int, int, int], atoms: list[Atom]
) -> np.ndarray:
    """Real-space local potential on the dense grid (real-valued)."""
    n1, n2, n3 = grid_shape
    g1 = np.fft.fftfreq(n1, d=1.0 / n1)
    g2 = np.fft.fftfreq(n2, d=1.0 / n2)
    g3 = np.fft.fftfreq(n3, d=1.0 / n3)
    gx, gy, gz = np.meshgrid(g1, g2, g3, indexing="ij")
    g_sq = gx**2 + gy**2 + gz**2

    v_g = np.zeros(grid_shape, dtype=complex)
    for atom in atoms:
        tau = np.asarray(atom.position, dtype=float)
        phase = np.exp(
            -2j * np.pi * (gx * tau[0] + gy * tau[1] + gz * tau[2])
        )
        v_g += -atom.amplitude * np.exp(-0.5 * g_sq * atom.sigma**2) * phase
    v_r = np.fft.ifftn(v_g) * (n1 * n2 * n3)
    return v_r.real


@dataclass
class Hamiltonian:
    """Distributed H = -1/2 nabla^2 + V_loc(r) over a sphere distribution.

    ``potential_slabs[r]`` is rank r's ``(n1, n2, nz)`` potential, held
    as a copy stored plane-major like the FFT's slabs, so ``slab *= V``
    runs over contiguous planes.
    """

    fft: ParallelFFT3D
    potential_slabs: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self) -> None:
        dist = self.fft.dist
        kin = dist.sphere.kinetic
        self._kinetic_local = [
            kin[dist.points_of(r)] for r in range(dist.nranks)
        ]
        if not self.potential_slabs:
            self.potential_slabs = [
                np.zeros(self.fft.slab_shape(r))
                for r in range(dist.nranks)
            ]
        self.set_potential(self.potential_slabs)

    @classmethod
    def from_atoms(
        cls,
        fft: ParallelFFT3D,
        atoms: list[Atom],
    ) -> "Hamiltonian":
        v_full = build_local_potential(fft.grid_shape, atoms)
        slabs = [
            v_full[:, :, slice(*fft.slab_range(r))]
            for r in range(fft.dist.nranks)
        ]
        return cls(fft=fft, potential_slabs=slabs)

    def set_potential(self, slabs: list[np.ndarray]) -> None:
        """Replace the local potential (SCF update) with plane-major
        copies of ``(n1, n2, nz)`` slabs."""
        for r, slab in enumerate(slabs):
            if slab.shape != self.fft.slab_shape(r):
                raise ValueError("potential slab shape mismatch")
        self.potential_slabs = [plane_major(s) for s in slabs]

    def kinetic_of(self, rank: int) -> np.ndarray:
        return self._kinetic_local[rank]

    def apply(self, psi_locals: list[np.ndarray]) -> list[np.ndarray]:
        """H |psi> for every band of per-rank ``(nb, ng_local)`` stacks
        (or one ``(ng_local,)`` band): one sphere->real and one
        real->sphere transform for the whole block."""
        slabs = self.fft.sphere_to_real(psi_locals)
        for r, slab in enumerate(slabs):
            slab *= self.potential_slabs[r]
        v_psi = self.fft.real_to_sphere(slabs)
        return [
            self._kinetic_local[r] * psi_locals[r] + v_psi[r]
            for r in range(len(psi_locals))
        ]

    def apply_work(self, name: str = "paratec.h_apply") -> Work:
        """Per-rank compute Work of one H application to one band
        (2 FFTs + axpys)."""
        fft_work = self.fft.transform_work(name)
        points = self.fft.dist.sphere.num_g / self.fft.dist.nranks
        extra = Work(
            name=name,
            flops=8.0 * points,
            bytes_unit=16.0 * points * 3,
            vector_fraction=0.97,
            fma_fraction=0.9,
        )
        return fft_work.scaled(2.0).combined(extra, name=name)
