"""The Eulerian spectral-transform dynamical core (CAM's first option).

A barotropic vorticity model on the rotating sphere, advanced with the
classic *spectral transform method*: the state lives as spherical-
harmonic coefficients; each step synthesizes winds and vorticity
gradients onto the Gaussian grid, forms the nonlinear advection there,
and analyzes the tendency back — exactly the computational structure
("exploits spherical harmonics to map a solution onto the sphere")
whose Legendre- and FFT-heavy kernels made the Eulerian core the
traditional vector-machine favorite.

Equations (nondivergent barotropic vorticity on a sphere of radius a):

    d zeta / dt = -J(psi, zeta + f),   nabla^2 psi = zeta,
    f = 2 Omega mu

with optional del^4 hyperdiffusion.  Time stepping: RK3 (SSP).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...workload import Work
from .spectral import SpharmTransform


@dataclass
class EulerianCore:
    """Spectral barotropic vorticity model.

    Attributes
    ----------
    transform:
        The spherical-harmonic engine (grid + truncation + radius).
    omega:
        Planetary rotation rate (rad/s).
    hyperdiffusion:
        del^4 coefficient; the classic scale-selective spectral damping.
    """

    transform: SpharmTransform
    omega: float = 7.292e-5
    hyperdiffusion: float = 0.0
    zeta: np.ndarray = field(init=False)
    time: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.zeta = np.zeros(self.transform.spectral_shape(), dtype=complex)

    # -- state helpers ------------------------------------------------------

    def set_vorticity_grid(self, grid: np.ndarray) -> None:
        """Initialize from a grid-space relative vorticity field."""
        self.zeta = self.transform.analysis(grid)
        self.zeta[0, 0] = 0.0  # the sphere carries no net vorticity

    def streamfunction(self) -> np.ndarray:
        return self.transform.synthesis(
            self.transform.inverse_laplacian(self.zeta)
        )

    def winds(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) on the grid from the streamfunction."""
        t = self.transform
        psi = t.inverse_laplacian(self.zeta)
        one_minus_mu2 = (1.0 - t.mu**2)[:, None]
        u = -t.synthesis_mu_derivative(psi) / (t.radius * np.sqrt(one_minus_mu2))
        v = t.synthesis_dlambda(psi) / (
            t.radius * np.sqrt(one_minus_mu2)
        )
        return u, v

    # -- dynamics -----------------------------------------------------------

    def tendency(self, zeta_spec: np.ndarray) -> np.ndarray:
        """Spectral d zeta/dt for a given spectral state."""
        t = self.transform
        a = t.radius
        one_minus_mu2 = (1.0 - t.mu**2)[:, None]

        psi = t.inverse_laplacian(zeta_spec)
        U = -t.synthesis_mu_derivative(psi) / a  # u cos(phi)
        V = t.synthesis_dlambda(psi) / a  # v cos(phi)

        dzeta_dlambda = t.synthesis_dlambda(zeta_spec)
        dzeta_dmu = t.synthesis_mu_derivative(zeta_spec)  # (1-mu^2) d/dmu
        # planetary vorticity gradient: (1-mu^2) d(2 Omega mu)/dmu
        df_dmu = 2.0 * self.omega * (1.0 - t.mu**2)[:, None]

        advection = (
            U * dzeta_dlambda + V * (dzeta_dmu + df_dmu)
        ) / (a * one_minus_mu2)
        out = -t.analysis(advection)
        if self.hyperdiffusion > 0.0:
            eig = t.laplacian_eigenvalues()[:, None]
            out = out - self.hyperdiffusion * (eig * eig) * zeta_spec
        out[0, 0] = 0.0
        return out

    def step(self, dt: float) -> None:
        """One SSP-RK3 step."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        z0 = self.zeta
        k1 = self.tendency(z0)
        z1 = z0 + dt * k1
        k2 = self.tendency(z1)
        z2 = 0.75 * z0 + 0.25 * (z1 + dt * k2)
        k3 = self.tendency(z2)
        self.zeta = z0 / 3.0 + 2.0 / 3.0 * (z2 + dt * k3)
        self.time += dt

    def run(self, steps: int, dt: float) -> None:
        for _ in range(steps):
            self.step(dt)

    # -- diagnostics ---------------------------------------------------------

    def energy(self) -> float:
        """Kinetic energy  -1/2 sum psi* zeta (spectral inner product)."""
        psi = self.transform.inverse_laplacian(self.zeta)
        m = np.arange(self.transform.lmax + 1)
        # negative-m modes are implied: weight m>0 twice
        w = np.where(m == 0, 1.0, 2.0)[None, :]
        return float(
            -0.5 * np.real((np.conj(psi) * self.zeta * w).sum())
        )

    def enstrophy(self) -> float:
        """1/2 sum |zeta_lm|^2 (conserved by the inviscid dynamics)."""
        m = np.arange(self.transform.lmax + 1)
        w = np.where(m == 0, 1.0, 2.0)[None, :]
        return float(0.5 * (np.abs(self.zeta) ** 2 * w).sum())


def rossby_haurwitz_rate(l: int, m: int, omega: float) -> float:
    """Angular phase speed of a Rossby–Haurwitz harmonic (rad/s).

    A single Y_l^m mode on a resting atmosphere retrogresses in
    longitude at ``-2 Omega / (l (l + 1))`` — the classical dispersion
    relation (independent of m), which the Eulerian core reproduces to
    time-integrator accuracy.
    """
    if l < 1 or abs(m) > l or m == 0:
        raise ValueError("need 1 <= |m| <= l")
    return -2.0 * omega / (l * (l + 1.0))


def eulerian_step_work(
    transform: SpharmTransform, name: str = "fvcam.eulerian_step"
) -> Work:
    """Workload of one spectral-transform step (Legendre + FFT heavy).

    Legendre transforms cost ~ nlat * lmax^2 multiply-adds per
    direction per field; the method is famously dense — and famously
    vector-friendly (long unit-stride inner loops), which is why the
    spectral core historically did better on vector machines than the
    finite-volume core's branchy upwind operators.
    """
    nlat, nlon = transform.grid_shape
    L = transform.lmax
    legendre = 2.0 * nlat * (L + 1) * (L + 2)  # one transform
    ffts = 5.0 * nlat * nlon * np.log2(max(nlon, 2))
    # per RK stage: ~6 syntheses/analyses + grid algebra; 3 stages
    flops = 3 * (6 * (legendre + ffts) + 12 * nlat * nlon)
    return Work(
        name=name,
        flops=flops,
        bytes_unit=3 * 8.0 * (L + 1) * (L + 1) * nlat / max(L, 1),
        vector_fraction=0.98,
        avg_vector_length=float(min(256, nlat)),
        fma_fraction=0.95,
        cache_fraction=0.5,
    )
