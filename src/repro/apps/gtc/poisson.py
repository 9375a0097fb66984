"""Gyrokinetic Poisson solve on a poloidal plane.

The PIC field solve: given the deposited charge density, solve

    -laplacian(phi) = rho

on the annulus, with the potential pinned to zero on the inner and
outer flux surfaces and periodic in theta.  The discrete operator is
the standard 5-point polar Laplacian

    1/r d/dr (r dphi/dr) + 1/r^2 d2phi/dtheta2

diagonalized by an FFT in theta: each poloidal harmonic ``m`` leaves a
radial tridiagonal system, solved directly — all harmonics of all
stacked planes in one Thomas sweep along the radius, whose inner axis
is the long vector.  Within a toroidal domain the solve is cheap
relative to the particle work ("the computational work directly
involving the particles accounts for almost 85% of the overhead").
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ...workload import Work
from .grid import PoloidalGrid


def laplacian(grid: PoloidalGrid, phi: np.ndarray) -> np.ndarray:
    """Discrete polar Laplacian with Dirichlet-r / periodic-theta BCs.

    Ghost values outside the annulus are zero (the Dirichlet pin).
    """
    if phi.shape != grid.shape:
        raise ValueError("phi does not match the grid")
    r = grid.radii[:, None]
    dr, dth = grid.dr, grid.dtheta
    r_half_plus = r + 0.5 * dr
    r_half_minus = r - 0.5 * dr

    phi_up = np.vstack([phi[1:], np.zeros((1, grid.mtheta))])
    phi_dn = np.vstack([np.zeros((1, grid.mtheta)), phi[:-1]])
    radial = (
        r_half_plus * (phi_up - phi) - r_half_minus * (phi - phi_dn)
    ) / (r * dr * dr)

    poloidal = (
        np.roll(phi, -1, axis=1) - 2.0 * phi + np.roll(phi, 1, axis=1)
    ) / (r * r * dth * dth)
    return radial + poloidal


def _radial_operators(grid: PoloidalGrid) -> np.ndarray:
    """The banded radial operator of every poloidal harmonic.

    ``(nm, 3, mpsi)`` in LAPACK's ``(1, 1)`` banded layout (upper,
    main and lower diagonal), real:

        a_i phi_{i-1} + b_i phi_i + c_i phi_{i+1} = -rho_i
    """
    r = grid.radii
    dr, dth = grid.dr, grid.dtheta
    m = np.fft.rfftfreq(grid.mtheta, d=1.0 / grid.mtheta)  # harmonics
    lower = (r - 0.5 * dr) / (r * dr * dr)  # coefficient of phi_{i-1}
    upper = (r + 0.5 * dr) / (r * dr * dr)  # coefficient of phi_{i+1}
    bands = np.zeros((len(m), 3, grid.mpsi))
    # theta second derivative of harmonic m: -(2 - 2 cos(m dth)) / dth^2
    for k, mk in enumerate(m):
        bands[k, 0, 1:] = upper[:-1]
        bands[k, 1, :] = (
            -(lower + upper)
            - (2.0 - 2.0 * np.cos(mk * dth)) / (r * r * dth * dth)
        )
        bands[k, 2, :-1] = lower[1:]
    return bands


@lru_cache(maxsize=8)
def _radial_factors(
    grid: PoloidalGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LU factors of every harmonic's radial operator, once per grid
    (a frozen dataclass, so it keys the cache).

    Returns the elimination multipliers ``(mpsi - 1, 2 nm)``, the
    modified diagonal ``(mpsi, 2 nm)`` and the upper diagonal
    ``(mpsi - 1, 2 nm)``.  Each harmonic's column appears twice in a
    row, so a row multiplies a complex row viewed as float64 pairs.

    The operator is diagonally dominant (``|d_i| >= l_i + u_i`` and
    ``u_i > l_{i+1}``), so partial pivoting never swaps a row: these
    are the factors LAPACK's tridiagonal ``gtsv`` forms, in its
    operation order.
    """
    bands = _radial_operators(grid)
    upper = bands[:, 0, 1:].T
    diag = bands[:, 1, :].T.copy()
    lower = bands[:, 2, :-1].T
    mult = np.empty_like(lower)
    for i in range(grid.mpsi - 1):
        mult[i] = lower[i] / diag[i]
        diag[i + 1] -= mult[i] * upper[i]
    factors = tuple(np.repeat(a, 2, axis=-1) for a in (mult, diag, upper))
    for a in factors:
        a.setflags(write=False)
    return factors


def _radial_solve(grid: PoloidalGrid, rhs: np.ndarray) -> None:
    """Solve every harmonic's radial system in place.

    ``rhs`` is ``(n, mpsi, nm)`` complex, C-contiguous: one Thomas sweep
    along the radius whose rows are all harmonics of all ``n`` planes,
    the real and imaginary parts as float64 pairs (the multipliers are
    real).  Bitwise what ``gtsv`` gives, except that a real or
    imaginary part that is zero along a whole column may come out with
    the other sign of zero.
    """
    mult, diag, upper = _radial_factors(grid)
    x = rhs.view(np.float64)
    tmp = np.empty_like(x[:, 0])
    for i in range(grid.mpsi - 1):
        np.multiply(mult[i], x[:, i], out=tmp)
        np.subtract(x[:, i + 1], tmp, out=x[:, i + 1])
    np.divide(x[:, -1], diag[-1], out=x[:, -1])
    for i in range(grid.mpsi - 2, -1, -1):
        np.multiply(upper[i], x[:, i + 1], out=tmp)
        np.subtract(x[:, i], tmp, out=x[:, i])
        np.divide(x[:, i], diag[i], out=x[:, i])


def solve_poisson(grid: PoloidalGrid, rho: np.ndarray) -> np.ndarray:
    """Solve ``-laplacian(phi) = rho``; exact inverse of :func:`laplacian`.

    ``rho`` is one charge grid or a stack of them (any leading axes):
    one radial sweep solves every harmonic of every grid of the stack.
    """
    if rho.shape[-2:] != grid.shape:
        raise ValueError("rho does not match the grid")
    stack = rho.reshape((-1,) + grid.shape)
    phi_m = np.fft.rfft(stack, axis=-1)  # (n, mpsi, nm)
    np.negative(phi_m, out=phi_m)
    _radial_solve(grid, phi_m)
    phi = np.fft.irfft(phi_m, n=grid.mtheta, axis=-1)
    return phi.reshape(rho.shape)


def electric_field(
    grid: PoloidalGrid, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """E = -grad(phi): radial and poloidal components on the grid (of
    one potential or a stack of them)."""
    dr, dth = grid.dr, grid.dtheta
    r = grid.radii[:, None]
    # zero ghost surfaces: the Dirichlet pin
    padded = np.zeros(phi.shape[:-2] + (grid.mpsi + 2, grid.mtheta))
    padded[..., 1:-1, :] = phi
    phi_up, phi_dn = padded[..., 2:, :], padded[..., :-2, :]
    e_r = -(phi_up - phi_dn) / (2.0 * dr)
    e_theta = -(np.roll(phi, -1, axis=-1) - np.roll(phi, 1, axis=-1)) / (
        2.0 * r * dth
    )
    return e_r, e_theta


def poisson_work(grid: PoloidalGrid, name: str = "gtc.poisson") -> Work:
    """Workload of one field solve (FFTs + tridiagonal sweeps).

    FFT cost 5 N log2 N per line; the tridiagonal solves are ~8 flops
    per unknown per harmonic.  Vectorization runs across theta lines /
    harmonics, so trip counts follow the grid dimensions.
    """
    n = grid.mtheta
    fft_flops = 2 * grid.mpsi * 5.0 * n * np.log2(n)  # forward + inverse
    tri_flops = 8.0 * grid.mpsi * (n // 2 + 1) * 2  # complex sweeps
    points = grid.num_points
    return Work(
        name=name,
        flops=fft_flops + tri_flops,
        bytes_unit=16.0 * points * 6,
        vector_fraction=0.92,
        avg_vector_length=float(min(256, max(grid.mpsi, grid.mtheta))),
        fma_fraction=0.7,
        cache_fraction=0.5,
    )
