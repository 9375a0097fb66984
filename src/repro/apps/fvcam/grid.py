"""Latitude–longitude grid for the finite-volume dynamical core.

"The underlying finite volume grid is logically rectangular in
(longitude, latitude, level)".  The paper's benchmark is the 0.5 x
0.625 degree "D" mesh: 576 longitudes x 361 latitudes x 26 levels.

The mini-app caps the latitudes short of the poles (a polar cap would
need the full Lin–Rood pole treatment); the FFT polar filter is still
applied poleward of a threshold latitude, which is what matters for the
performance character ("the singularity in the horizontal coordinate
system at the pole makes a longitudinal decomposition unattractive").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The paper's high-resolution benchmark mesh.
D_GRID = (576, 361, 26)

#: Earth radius used for metric terms (unit sphere also fine for tests).
EARTH_RADIUS = 6.371e6


@dataclass(frozen=True)
class LatLonGrid:
    """A (longitude, latitude, level) mesh with spherical metrics.

    Attributes
    ----------
    im, jm, km:
        Longitude, latitude, and vertical level counts.
    lat_cap_deg:
        Latitudes span ``[-lat_cap_deg, +lat_cap_deg]``.
    filter_lat_deg:
        FFT polar filtering applies poleward of this latitude.
    """

    im: int = 24
    jm: int = 19
    km: int = 4
    radius: float = EARTH_RADIUS
    lat_cap_deg: float = 80.0
    filter_lat_deg: float = 60.0
    gravity: float = 9.80616

    def __post_init__(self) -> None:
        if self.im < 4 or self.jm < 5 or self.km < 1:
            raise ValueError("grid too small")
        if not 0 < self.filter_lat_deg < self.lat_cap_deg < 90.0:
            raise ValueError("need 0 < filter_lat < lat_cap < 90 degrees")

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape convention: (km, jm, im)."""
        return (self.km, self.jm, self.im)

    @property
    def dlon(self) -> float:
        return 2.0 * np.pi / self.im

    @property
    def dlat(self) -> float:
        return 2.0 * np.deg2rad(self.lat_cap_deg) / (self.jm - 1)

    @property
    def latitudes(self) -> np.ndarray:
        """Cell-center latitudes (radians), south to north."""
        cap = np.deg2rad(self.lat_cap_deg)
        return np.linspace(-cap, cap, self.jm)

    @property
    def longitudes(self) -> np.ndarray:
        return self.dlon * np.arange(self.im)

    @property
    def coslat(self) -> np.ndarray:
        return np.cos(self.latitudes)

    @property
    def filtered_rows(self) -> np.ndarray:
        """Latitude indices where the polar filter applies."""
        return np.nonzero(
            np.abs(self.latitudes) > np.deg2rad(self.filter_lat_deg)
        )[0]

    @property
    def points_per_level(self) -> int:
        return self.im * self.jm

    @property
    def total_points(self) -> int:
        return self.im * self.jm * self.km
