"""Kleinman–Bylander nonlocal pseudopotential projectors.

"The pseudopotentials are of the standard norm-conserving variety" —
norm-conserving pseudopotentials carry, besides the local part, a
separable *nonlocal* term acting per angular-momentum channel:

    V_nl |psi> = sum_a sum_p  D_p  |beta_p^a> <beta_p^a | psi>

The projectors live naturally in G-space (a radial form factor times a
structure phase), so applying ``V_nl`` to a band block is two zgemms —
more of exactly the BLAS3-regime work the paper's PARATEC
analysis leans on.

The mini-app uses Gaussian s-channel projectors (one per atom), which
keeps the Hamiltonian Hermitian (tested) and shifts eigenvalues with
the sign of ``D_p`` (tested against perturbation theory).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...simmpi.comm import Communicator
from ...workload import Work
from .gvectors import SphereDistribution
from .hamiltonian import Atom


@dataclass(frozen=True)
class NonlocalChannel:
    """One separable projector channel on one atom."""

    atom: Atom
    strength: float = 1.0  # D_p: positive = repulsive channel
    width: float = 0.8  # Gaussian form-factor width (reciprocal units)

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("projector width must be positive")


class NonlocalPotential:
    """Distributed separable V_nl over a sphere distribution.

    Each rank keeps its slice of every projector as one
    ``(nproj, ng_local)`` matrix; an application to a band block is
    ``<beta|psi>`` as one GEMM per rank plus one subgroup Allreduce,
    then the update as a second GEMM — the same communication/BLAS3
    pattern as the production code's nonlocal term.
    """

    def __init__(
        self,
        dist: SphereDistribution,
        comm: Communicator,
        channels: list[NonlocalChannel],
    ) -> None:
        if comm.nprocs != dist.nranks:
            raise ValueError("communicator size does not match distribution")
        self.dist = dist
        self.comm = comm
        self.channels = list(channels)
        self._strengths = np.array([ch.strength for ch in self.channels])

        sphere = dist.sphere
        g = sphere.vectors.astype(np.float64)
        g_sq = (g**2).sum(axis=1)
        beta = np.empty((len(self.channels), sphere.num_g), dtype=complex)
        for p, ch in enumerate(self.channels):
            tau = np.asarray(ch.atom.position)
            phase = np.exp(-2j * np.pi * (g @ tau))
            form = np.exp(-0.5 * g_sq * ch.width**2)
            beta[p] = form * phase
            # normalize so <beta|beta> = 1 over the full sphere
            beta[p] /= np.linalg.norm(beta[p])
        #: per rank, the ``(nproj, ng_local)`` projector matrix
        self._beta_local: list[np.ndarray] = dist.scatter(beta)

    @property
    def num_projectors(self) -> int:
        return len(self.channels)

    def projections(self, psi_locals: list[np.ndarray]) -> np.ndarray:
        """``<beta_p|psi_b>`` as ``(nb, nproj)`` for per-rank
        ``(nb, ng_local)`` blocks (``(nproj,)`` for one band): one GEMM
        per rank, one Allreduce."""
        partial = [
            psi @ beta.conj().T
            for psi, beta in zip(psi_locals, self._beta_local)
        ]
        return self.comm.allreduce(partial)[0]

    def apply(self, psi_locals: list[np.ndarray]) -> list[np.ndarray]:
        """V_nl |psi> as per-rank sphere slices, for the whole block."""
        amps = self.projections(psi_locals) * self._strengths
        return [amps @ beta for beta in self._beta_local]

    def apply_work(self, name: str = "paratec.nonlocal") -> Work:
        """Per-rank Work of one application to one band (2 x nproj x
        ng_local multiply-adds)."""
        ng_local = self.dist.sphere.num_g / self.dist.nranks
        flops = 16.0 * self.num_projectors * ng_local
        return Work(
            name=name,
            flops=flops,
            bytes_unit=16.0 * self.num_projectors * ng_local * 2,
            blas3_fraction=1.0,
            cache_fraction=0.8,
        )


def attach_nonlocal(hamiltonian, vnl: NonlocalPotential):
    """Wrap a Hamiltonian's ``apply`` to include the nonlocal term.

    Returns the same Hamiltonian object with a composed block
    ``apply`` (one batched local apply plus one block nonlocal apply);
    the original local-only behaviour stays available as
    ``apply_local``.
    """
    if getattr(hamiltonian, "_nonlocal_attached", False):
        raise ValueError("nonlocal term already attached")
    local_apply = hamiltonian.apply

    def apply_with_nonlocal(psi_locals):
        out = local_apply(psi_locals)
        extra = vnl.apply(psi_locals)
        return [a + b for a, b in zip(out, extra)]

    hamiltonian.apply_local = local_apply
    hamiltonian.apply = apply_with_nonlocal
    hamiltonian._nonlocal_attached = True
    hamiltonian.nonlocal_term = vnl
    return hamiltonian
