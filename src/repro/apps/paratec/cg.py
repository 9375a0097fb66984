"""Band-by-band conjugate-gradient eigensolver with subspace rotation.

PARATEC "uses an all-band conjugate gradient (CG) approach to solve the
Kohn-Sham equations".  The mini-app implements the classic
Teter–Payne–Allan band-sweep CG: each band is relaxed by preconditioned
CG on the Rayleigh quotient while kept orthogonal to the lower bands,
followed by a subspace rotation (the dense-linear-algebra/BLAS3 part).
All inner products over the distributed G-sphere go through subgroup
``Allreduce`` — scalar results are identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...kernels import KernelBackend
from ...simmpi.comm import Communicator
from ...workload import Work
from .hamiltonian import Hamiltonian

#: Distributed band storage: bands x per-rank sphere slices.
Bands = list[list[np.ndarray]]


def dot(comm: Communicator, a: list[np.ndarray], b: list[np.ndarray]) -> complex:
    """Global <a|b> over per-rank slices (one scalar Allreduce)."""
    partial = [
        np.array([np.vdot(ar, br)]) for ar, br in zip(a, b)
    ]
    return complex(comm.allreduce(partial)[0][0])


def axpy(
    kernels: KernelBackend,
    y: list[np.ndarray],
    alpha: complex,
    x: list[np.ndarray],
) -> None:
    """y += alpha x, slice-wise in place."""
    for yr, xr in zip(y, x):
        kernels.paratec_cg_axpy(yr, alpha, xr)


def scale(
    kernels: KernelBackend, x: list[np.ndarray], alpha: complex
) -> None:
    for xr in x:
        kernels.paratec_cg_scale(xr, alpha)


def normalize(
    comm: Communicator, kernels: KernelBackend, x: list[np.ndarray]
) -> float:
    norm = np.sqrt(abs(dot(comm, x, x)))
    if norm == 0.0:
        raise ZeroDivisionError("cannot normalize a zero vector")
    scale(kernels, x, 1.0 / norm)
    return float(norm)


def orthogonalize(
    comm: Communicator,
    kernels: KernelBackend,
    x: list[np.ndarray],
    against: Bands,
) -> None:
    """Project the span of ``against`` (assumed orthonormal) out of x."""
    for band in against:
        overlap = dot(comm, band, x)
        axpy(kernels, x, -overlap, band)


@dataclass(frozen=True)
class CGOptions:
    iterations: int = 5
    preconditioner_energy: float = 2.0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("need at least one CG iteration")
        if self.preconditioner_energy <= 0:
            raise ValueError("preconditioner energy must be positive")


def _precondition(
    kernels: KernelBackend,
    ham: Hamiltonian,
    g: list[np.ndarray],
    e_ref: float,
) -> list[np.ndarray]:
    """Teter-style diagonal kinetic preconditioner 1/(1 + T/E)."""
    out = []
    for r, gr in enumerate(g):
        t = ham.kinetic_of(r)
        out.append(kernels.paratec_cg_precondition(gr, t, e_ref))
    return out


def cg_band(
    comm: Communicator,
    ham: Hamiltonian,
    x: list[np.ndarray],
    lower_bands: Bands,
    opts: CGOptions,
) -> float:
    """Relax one band in place; returns its final Rayleigh quotient.

    The sweep primitives run on the backend the Hamiltonian's FFT
    engine was built with — the one the solver was handed.
    """
    kernels = ham.fft.kernels
    orthogonalize(comm, kernels, x, lower_bands)
    normalize(comm, kernels, x)
    hx = ham.apply(x)
    eps = dot(comm, x, hx).real

    d_prev: list[np.ndarray] | None = None
    g_dot_prev = 0.0
    for _ in range(opts.iterations):
        # steepest descent residual, projected
        g = [hr - eps * xr for hr, xr in zip(hx, x)]
        pg = _precondition(kernels, ham, g, opts.preconditioner_energy)
        orthogonalize(comm, kernels, pg, lower_bands)
        overlap = dot(comm, x, pg)
        axpy(kernels, pg, -overlap, x)

        g_dot = dot(comm, g, pg).real
        if abs(g_dot) < 1e-30:
            break
        if d_prev is None:
            d = [p.copy() for p in pg]
        else:
            beta = g_dot / g_dot_prev
            d = [p + beta * dp for p, dp in zip(pg, d_prev)]
            overlap = dot(comm, x, d)
            axpy(kernels, d, -overlap, x)
        g_dot_prev = g_dot
        d_norm = np.sqrt(abs(dot(comm, d, d)))
        if d_norm < 1e-15:
            break
        scale(kernels, d, 1.0 / d_norm)

        # analytic line minimization on the unit circle x cos + d sin
        hd = ham.apply(d)
        e_xd = dot(comm, d, hx).real
        e_dd = dot(comm, d, hd).real
        theta = 0.5 * np.arctan2(2.0 * e_xd, eps - e_dd)
        c, s = np.cos(theta), np.sin(theta)
        e_trial = c * c * eps + s * s * e_dd + 2 * s * c * e_xd
        if e_trial > eps:  # wrong branch: rotate by pi/2
            theta += 0.5 * np.pi
            c, s = np.cos(theta), np.sin(theta)
        for r in range(len(x)):
            x[r] = c * x[r] + s * d[r]
            hx[r] = c * hx[r] + s * hd[r]
        d_prev = d
        eps = dot(comm, x, hx).real
    normalize(comm, kernels, x)
    return float(eps)


def subspace_rotation(
    comm: Communicator, ham: Hamiltonian, bands: Bands
) -> np.ndarray:
    """Rayleigh–Ritz in the current band span; returns eigenvalues.

    Builds the nb x nb subspace Hamiltonian (BLAS3 zgemm territory in
    the real code), diagonalizes, and rotates the bands in place.
    """
    nb = len(bands)
    h_bands = [ham.apply(b) for b in bands]
    h_sub = np.empty((nb, nb), dtype=complex)
    s_sub = np.empty((nb, nb), dtype=complex)
    for i in range(nb):
        for j in range(nb):
            h_sub[i, j] = dot(comm, bands[i], h_bands[j])
            s_sub[i, j] = dot(comm, bands[i], bands[j])
    # solve the (nearly identity-overlap) generalized problem
    from scipy.linalg import eigh

    vals, vecs = eigh(h_sub, s_sub)
    nranks = len(bands[0])
    for r in range(nranks):
        stack = np.stack([bands[b][r] for b in range(nb)])  # (nb, ng_local)
        rotated = vecs.T.conj() @ stack
        for b in range(nb):
            bands[b][r] = rotated[b]
    return vals.real


def blas3_work(
    nbands: int, ng_local: float, name: str = "paratec.blas3"
) -> Work:
    """Subspace construction + rotation cost (the BLAS3 fraction)."""
    flops = 8.0 * nbands * nbands * ng_local * 2.0
    return Work(
        name=name,
        flops=flops,
        bytes_unit=16.0 * nbands * ng_local,
        blas3_fraction=1.0,
        cache_fraction=0.9,
    )
