"""Self-consistent field driver for the PARATEC mini-app."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...simmpi.comm import Communicator
from .cg import CGOptions, block_cg
from .density import (
    accumulate_density,
    exchange_potential,
    hartree_potential,
    mix_potentials,
)
from .fft3d import ParallelFFT3D
from .hamiltonian import Hamiltonian


@dataclass
class SCFResult:
    """Outcome of one SCF cycle."""

    eigenvalues: np.ndarray
    band_energy: float
    potential_change: float
    iterations: int


def initial_bands(
    fft: ParallelFFT3D, nbands: int, seed: int = 11
) -> list[np.ndarray]:
    """Random starting bands as per-rank ``(nbands, ng_local)`` stacks
    (orthonormalized by the first CG sweep).

    Coefficients are drawn for the *full sphere* and then scattered, so
    the starting point — and hence every SCF iterate — is independent of
    the processor count (tests rely on this decomposition invariance).
    """
    rng = np.random.default_rng(seed)
    num_g = fft.dist.sphere.num_g
    full = np.stack(
        [
            rng.standard_normal(num_g) + 1j * rng.standard_normal(num_g)
            for _ in range(nbands)
        ]
    )
    return fft.dist.scatter(full)


@dataclass
class SCFDriver:
    """The two halves of one SCF iteration: a band solve, then the
    density -> potential update (``Paratec`` iterates them)."""

    comm: Communicator
    ham: Hamiltonian
    occupations: np.ndarray
    cg_options: CGOptions = field(default_factory=CGOptions)
    mixing: float = 0.5
    v_external: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.v_external is None:
            # the current hamiltonian potential *is* the external one
            self.v_external = self.ham.fft.gather_slabs(
                self.ham.potential_slabs
            ).copy()

    def solve_bands(self, bands: list[np.ndarray]) -> np.ndarray:
        """One all-band CG sweep; returns the eigenvalues."""
        with self.comm.phase("cg"):
            return block_cg(self.comm, self.ham, bands, self.cg_options)

    def update_potential(self, bands: list[np.ndarray]) -> float:
        """Recompute V_eff from the band density; returns |dV|_max."""
        fft = self.ham.fft
        with self.comm.phase("density"):
            rho_slabs = accumulate_density(
                fft.sphere_to_real(bands), self.occupations
            )
            rho = np.concatenate(rho_slabs, axis=2)
            v_new = (
                self.v_external
                + hartree_potential(rho)
                + exchange_potential(rho)
            )
            v_old = fft.gather_slabs(self.ham.potential_slabs)
            v_mixed = mix_potentials(v_old, v_new, self.mixing)
            slabs = [
                v_mixed[:, :, slice(*fft.slab_range(r))]
                for r in range(fft.dist.nranks)
            ]
            self.ham.set_potential(slabs)
            return float(np.abs(v_mixed - v_old).max())
