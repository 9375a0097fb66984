"""All-band (block) preconditioned conjugate-gradient eigensolver.

PARATEC "uses an all-band conjugate gradient (CG) approach to solve the
Kohn-Sham equations".  The mini-app runs it in block form (LOBPCG,
Knyazev 2001): every rank holds its slice of all ``nb`` bands as one
``(nb, ng_local)`` stack, and one sweep is

* a start: one batched ``H X``, then a Rayleigh–Ritz on ``X`` alone —
  it factors the overlap ``S`` by Cholesky, so the random or drifted
  start comes out orthonormal;
* per iteration: the residual ``R = HX - X Lambda``, the block Teter
  preconditioner ``W = K R``, ``X`` projected out of ``W`` (one GEMM
  and one Allreduce of an ``nb x nb`` buffer), one batched ``H W``,
  and a Rayleigh–Ritz on ``[X, W, P]`` whose two ``3nb x 3nb`` Gram
  matrices travel in one Allreduce of one stacked buffer.

The last Rayleigh–Ritz is the subspace rotation: its Ritz values are
the eigenvalues.  Every inner product is a GEMM over the local sphere
slices summed by one Allreduce, so results equal a serial run's to
round-off, and each H application moves all bands through one pair of
FFT transposes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...simmpi.comm import Communicator
from ...workload import Work
from .hamiltonian import Hamiltonian


@dataclass(frozen=True)
class CGOptions:
    iterations: int = 5
    preconditioner_energy: float = 2.0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("need at least one CG iteration")
        if self.preconditioner_energy <= 0:
            raise ValueError("preconditioner energy must be positive")


def overlaps(
    comm: Communicator, a: list[np.ndarray], b: list[np.ndarray]
) -> np.ndarray:
    """Global ``A B^H`` of two per-rank band blocks: entry ``(i, j)`` is
    ``<b_j|a_i>`` over the whole sphere.  One GEMM per rank, one
    Allreduce."""
    return comm.allreduce([ar @ br.conj().T for ar, br in zip(a, b)])[0]


#: Smallest eigenvalue of the unit-diagonal overlap a basis may have.
#: Ritz vectors of a basis nearer singular than this would come out
#: orthonormal only to ~1e-16 / RCOND; the 16³, 8-band SCF keeps its
#: ``[X, W, P]`` above 9e-4 (and the 12³, 4-band one above 3e-5) over
#: 300 steps, so the guard is for degenerate inputs, not the norm.
_RCOND = 1e-8


def _lowest_ritz_pairs(
    h_sub: np.ndarray, s_sub: np.ndarray, nb: int
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``nb`` Ritz pairs of the pencil ``(h_sub, s_sub)``.

    The basis is ``[X, W, P]`` in blocks of ``nb`` rows.  The pencil is
    scaled to a unit-diagonal overlap first (the ``W`` and ``P`` rows
    shrink as the bands converge).  While the overlap is numerically
    singular the trailing block is dropped — ``P``, then ``W`` — which
    is LOBPCG's usual restart; ``X`` alone is orthonormal up to the
    start's Cholesky.  Returns the Ritz values and the ``(m, nb)``
    coefficients, zero on dropped rows.
    """
    m = len(s_sub)
    diag = s_sub.diagonal().real
    d = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    h_sub = h_sub * np.outer(d, d)
    s_sub = s_sub * np.outer(d, d)
    k = m
    while k > nb and np.linalg.eigvalsh(s_sub[:k, :k])[0] < _RCOND:
        k -= nb
    # the reduction LAPACK's hegvx makes: S = L L^H, C = L^-1 H L^-H
    l_inv = np.linalg.inv(np.linalg.cholesky(s_sub[:k, :k]))
    c = l_inv @ h_sub[:k, :k] @ l_inv.conj().T
    vals, vecs = np.linalg.eigh(0.5 * (c + c.conj().T))
    vals, vecs = vals[:nb], l_inv.conj().T @ vecs[:, :nb]
    coeffs = np.zeros((m, nb), dtype=complex)
    coeffs[:k] = vecs * d[:k, None]
    return vals, coeffs


def block_cg(
    comm: Communicator,
    ham: Hamiltonian,
    bands: list[np.ndarray],
    opts: CGOptions,
) -> np.ndarray:
    """Relax all bands at once; returns their eigenvalues, ascending.

    ``bands[r]`` is rank r's ``(nb, ng_local)`` stack; the list is
    updated in place with orthonormal Ritz vectors.  The preconditioner
    runs on the backend the Hamiltonian's FFT engine was built with —
    the one the solver was handed.
    """
    kernels = ham.fft.kernels
    nb = len(bands[0])
    x = list(bands)
    hx = ham.apply(x)

    def rayleigh_ritz(z, hz):
        # both Gram matrices of the basis in one stacked Allreduce
        stacked = comm.allreduce(
            [np.stack([zr @ hr.conj().T, zr @ zr.conj().T])
             for zr, hr in zip(z, hz)]
        )[0]
        vals, coeffs = _lowest_ritz_pairs(stacked[0], stacked[1], nb)
        return vals, coeffs.conj().T

    lam, rot = rayleigh_ritz(x, hx)
    x = [rot @ xr for xr in x]
    hx = [rot @ hr for hr in hx]
    p = hp = [xr[:0] for xr in x]  # no step taken yet: an empty block
    for _ in range(opts.iterations):
        w = [
            kernels.paratec_precondition(
                hr - lam[:, None] * xr,
                ham.kinetic_of(r),
                opts.preconditioner_energy,
            )
            for r, (xr, hr) in enumerate(zip(x, hx))
        ]
        proj = overlaps(comm, w, x)
        w = [wr - proj @ xr for wr, xr in zip(w, x)]
        hw = ham.apply(w)

        z = [np.concatenate(parts) for parts in zip(x, w, p)]
        hz = [np.concatenate(parts) for parts in zip(hx, hw, hp)]
        lam, rot = rayleigh_ritz(z, hz)
        # P: the step just taken, without its X component
        p = [rot[:, nb:] @ zr[nb:] for zr in z]
        hp = [rot[:, nb:] @ hr[nb:] for hr in hz]
        x = [rot @ zr for zr in z]
        hx = [rot @ hr for hr in hz]
    bands[:] = x
    return lam


#: ``nb x nb x ng_local`` complex GEMM products of one block-CG sweep:
#: the start's Gram pair and rotation of X and HX; per iteration the
#: projection (2), the ``3nb`` Gram pair (18) and the rotations of X,
#: HX (3 each), P and HP (2 each) — charged in full on the first
#: iteration too, whose basis has no P yet.
_START_GEMMS = 4
_ITERATION_GEMMS = 30


def blas3_work(
    nbands: int,
    ng_local: float,
    iterations: int,
    name: str = "paratec.blas3",
) -> Work:
    """Subspace Gram + rotation GEMMs of one sweep (the BLAS3 fraction)."""
    products = _START_GEMMS + _ITERATION_GEMMS * iterations
    return Work(
        name=name,
        flops=8.0 * products * nbands * nbands * ng_local,
        bytes_unit=16.0 * nbands * ng_local * (2 + 6 * iterations),
        blas3_fraction=1.0,
        cache_fraction=0.9,
    )
