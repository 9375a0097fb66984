"""Toroidal field-line grid for the GTC mini-app.

GTC's simulation geometry is a torus discretized into ``ntoroidal``
poloidal planes (the 1-D toroidal domain decomposition — 64 domains in
the paper, fixed by the quasi-2D physics of the field-aligned
coordinate system, not by algorithmic scaling).  Each plane carries an
annular polar grid of ``mpsi`` radial flux surfaces by ``mtheta``
poloidal points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Cells(NamedTuple):
    """The CIC cells of a set of particle positions.

    ``corners`` is ``(4, n)``: the flat grid index (``i * mtheta + j``)
    of each particle's four cell corners, in the order ``(i, j)``,
    ``(i, j+1)``, ``(i+1, j)``, ``(i+1, j+1)``; ``fi`` and ``fj`` are
    the fractional offsets of :meth:`PoloidalGrid.locate`.  Deposition
    scatters into those corners and the gather reads from them.
    """

    corners: np.ndarray
    fi: np.ndarray
    fj: np.ndarray


@dataclass(frozen=True)
class PoloidalGrid:
    """Annular (r, theta) grid of one poloidal plane.

    Radial nodes ``r_i = r0 + i dr`` for ``i in [0, mpsi)``; poloidal
    nodes ``theta_j = j dtheta`` (periodic).  The electrostatic
    potential is pinned to zero on the inner and outer flux surfaces.
    """

    mpsi: int = 32
    mtheta: int = 64
    r0: float = 0.1
    r1: float = 1.0

    def __post_init__(self) -> None:
        if self.mpsi < 4 or self.mtheta < 4:
            raise ValueError("grid must be at least 4x4")
        if not 0.0 < self.r0 < self.r1:
            raise ValueError("need 0 < r0 < r1")

    @property
    def dr(self) -> float:
        return (self.r1 - self.r0) / (self.mpsi - 1)

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.mtheta

    @property
    def shape(self) -> tuple[int, int]:
        return (self.mpsi, self.mtheta)

    @property
    def num_points(self) -> int:
        return self.mpsi * self.mtheta

    @property
    def radii(self) -> np.ndarray:
        return self.r0 + self.dr * np.arange(self.mpsi)

    @property
    def thetas(self) -> np.ndarray:
        return self.dtheta * np.arange(self.mtheta)

    def locate(self, r: np.ndarray, theta: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray
    ]:
        """Cell indices and offsets of particle positions.

        Returns ``(i, j, fi, fj)``: the lower radial/poloidal node
        indices and the fractional offsets in [0, 1) used by the
        bilinear (CIC) deposition/gather stencils.  Radial positions
        are clamped one cell inside the annulus; theta wraps.
        """
        ri = (np.asarray(r) - self.r0) / self.dr
        ri = np.clip(ri, 0.0, self.mpsi - 1 - 1e-9)
        i = ri.astype(np.int64)
        fi = ri - i

        tj = np.mod(np.asarray(theta), 2.0 * np.pi) / self.dtheta
        j = tj.astype(np.int64) % self.mtheta
        fj = tj - np.floor(tj)
        return i, j, fi, fj

    def locate_cells(
        self, r: np.ndarray, theta: np.ndarray, out: Cells | None = None
    ) -> Cells:
        """The :class:`Cells` of particle positions, written into
        ``out`` (same length) when given."""
        i, j, fi, fj = self.locate(r, theta)
        if out is None:
            out = Cells(np.empty((4, len(fi)), dtype=np.int64), fi, fj)
        else:
            out.fi[...] = fi
            out.fj[...] = fj
        jp = (j + 1) % self.mtheta
        ip = np.minimum(i + 1, self.mpsi - 1)
        i *= self.mtheta
        ip *= self.mtheta
        corners = out.corners
        np.add(i, j, out=corners[0])
        np.add(i, jp, out=corners[1])
        np.add(ip, j, out=corners[2])
        np.add(ip, jp, out=corners[3])
        return out

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


@dataclass(frozen=True)
class TorusGrid:
    """The full device: ``ntoroidal`` poloidal planes around the torus."""

    plane: PoloidalGrid
    ntoroidal: int = 8
    major_radius: float = 3.0

    def __post_init__(self) -> None:
        if self.ntoroidal < 1:
            raise ValueError("need at least one toroidal domain")
        if self.major_radius <= self.plane.r1:
            raise ValueError("major radius must exceed the minor radius")

    @property
    def dzeta(self) -> float:
        return 2.0 * np.pi / self.ntoroidal

    @property
    def total_points(self) -> int:
        return self.plane.num_points * self.ntoroidal

    def domain_of(self, zeta: np.ndarray) -> np.ndarray:
        """Toroidal domain index owning each zeta angle."""
        z = np.mod(np.asarray(zeta), 2.0 * np.pi)
        return np.minimum(
            (z / self.dzeta).astype(np.int64), self.ntoroidal - 1
        )

    def domain_bounds(self, domain: int) -> tuple[float, float]:
        if not 0 <= domain < self.ntoroidal:
            raise IndexError(f"domain {domain} out of range")
        return domain * self.dzeta, (domain + 1) * self.dzeta
