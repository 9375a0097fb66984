"""Shallow-atmosphere finite-volume dynamics (the Lin–Rood dycore skeleton).

Prognostics per layer k: thickness ``h`` (mass), winds ``u``, ``v``.
The update follows the flux-form, directionally split scheme:

* zonal and meridional van Leer transport of the area-weighted mass
  ``H = h cos(lat)`` — conserving total mass to round-off;
* momentum advection with the same operators;
* hydrostatic pressure-gradient acceleration from the geopotential
  ``Phi_k = g * sum_{k' >= k} h_{k'}`` — the *vertical* coupling that
  gives the 2-D decomposition its level-direction communication;
* FFT polar filtering of the wind increments at high latitude.

All functions here operate on (nlev, nlat, nlon) arrays with however
many ghost latitude rows the caller provides; the solver owns halo
exchange and cropping.  Array axis order: (k, j, i) = (level, lat, lon).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...workload import Work
from .grid import LatLonGrid
from .ppm import advect, vanleer_flux

#: Ghost latitude rows required by the van Leer stencil (slope +- 1,
#: upstream slope one more).
HALO = 2


@dataclass(frozen=True)
class DynamicsParams:
    """Time step and physical constants for the dynamics phase."""

    dt: float = 60.0
    drag: float = 1e-5

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def courant_lon(
    grid: LatLonGrid, u: np.ndarray, coslat: np.ndarray, dt: float
) -> np.ndarray:
    """Zonal Courant numbers at west faces, shape like u."""
    u_face = 0.5 * (u + np.roll(u, 1, axis=-1))
    return u_face * dt / (grid.radius * coslat[None, :, None] * grid.dlon)


def courant_lat(grid: LatLonGrid, v: np.ndarray, dt: float) -> np.ndarray:
    """Meridional Courant numbers at south faces, shape like v."""
    v_face = 0.5 * (v + np.roll(v, 1, axis=-2))
    return v_face * dt / (grid.radius * grid.dlat)


def transport_2d(
    grid: LatLonGrid,
    q: np.ndarray,
    cu: np.ndarray,
    cv: np.ndarray,
) -> np.ndarray:
    """Directionally split conservative transport of a field, or of a
    stack of fields with leading axes: ``q`` is ``(..., nlev, nlat,
    nlon)`` and the ``(nlev, nlat, nlon)`` Courant numbers broadcast
    over the leading axes, so every field rides the same fluxes in one
    call (bitwise what one call per field gives).

    Zonal sweep (periodic) followed by meridional sweep (walls).  The
    meridional boundary faces carry zero flux, so the global sum of
    ``q`` is invariant (tests check to round-off).
    """
    q1 = advect(q, vanleer_flux(q, cu, periodic=True, axis=-1), True, -1)
    q2 = advect(
        q1, vanleer_flux(q1, cv, periodic=False, axis=-2), False, -2
    )
    return q2


def geopotential(h: np.ndarray, gravity: float) -> np.ndarray:
    """Phi_k = g * (h_k + h_{k+1} + ... + h_{K}) — hydrostatic stack.

    Level index 0 is the model top; the suffix sum couples each level
    to everything beneath it.
    """
    return gravity * np.cumsum(h[::-1], axis=0)[::-1]


def pressure_gradient(
    grid: LatLonGrid,
    phi: np.ndarray,
    coslat: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(du, dv) increments from -grad(Phi), centered differences."""
    dphi_lon = (np.roll(phi, -1, axis=-1) - np.roll(phi, 1, axis=-1)) / (
        2.0 * grid.dlon
    )
    du = -dt * dphi_lon / (grid.radius * coslat[None, :, None])

    dphi_lat = np.empty_like(phi)
    dphi_lat[:, 1:-1, :] = (phi[:, 2:, :] - phi[:, :-2, :]) / (2.0 * grid.dlat)
    dphi_lat[:, 0, :] = (phi[:, 1, :] - phi[:, 0, :]) / grid.dlat
    dphi_lat[:, -1, :] = (phi[:, -1, :] - phi[:, -2, :]) / grid.dlat
    dv = -dt * dphi_lat / grid.radius
    return du, dv


def dynamics_work(
    grid: LatLonGrid, points_local: int, name: str = "fvcam.dynamics"
) -> Work:
    """Per-rank Work of one dynamics step over ``points_local`` cells.

    The one-sided upwind scheme's "significant number of nested logical
    branches" shows up as a reduced vectorizable fraction (the paper's
    vector port moved the tests out of the loops with indirect
    indexing) and a small gather component for that indirect indexing.
    """
    flops_per_point = 160.0
    return Work(
        name=name,
        flops=flops_per_point * points_local,
        bytes_unit=14 * 8.0 * points_local * 2,
        scalar_bytes_unit=14 * 8.0 * points_local * 5,
        bytes_gather=2 * 8.0 * points_local,
        gather_cache_fraction=0.6,
        vector_fraction=0.93,
        avg_vector_length=float(min(256, grid.im)),
        fma_fraction=0.55,
        cache_fraction=0.15,
    )
