"""FVCAM's 1-D and 2-D domain decompositions.

Dynamics runs in a (latitude, level) decomposition — "a two-dimensional
domain decomposition in (latitude, level) is employed throughout most
of the dynamics phase", the pole singularity making longitudinal
splits unattractive.  The remapping phase wants whole vertical columns
and runs in a (longitude, latitude) decomposition; "the two domain
decompositions are connected by transposes".

Rank layout: ``rank = z * py + y`` — latitude-major within each level
block, which is what makes Figure 2(b)'s diagonal segments of length
``py`` and its vertical-communication lines at offsets of ``py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ...simmpi.comm import Communicator
from .grid import LatLonGrid


@dataclass(frozen=True)
class FVDecomposition:
    """(latitude, level) processor mesh: ``nprocs = py * pz``.

    ``pz = 1`` gives the 1-D latitude-only decomposition.  The paper's
    2-D runs use ``pz`` of 4 or 7 ("these have been found empirically
    to be reasonable choices across all of the target platforms").
    """

    grid: LatLonGrid
    py: int
    pz: int = 1

    #: FVCAM "does not allow less than three latitude lines per
    #: subdomain because of tautologies in the latitudinal subdomain
    #: communication".
    MIN_LATS = 3

    def __post_init__(self) -> None:
        if self.py < 1 or self.pz < 1:
            raise ValueError("processor mesh factors must be >= 1")
        if self.grid.jm // self.py < self.MIN_LATS:
            raise ValueError(
                f"fewer than {self.MIN_LATS} latitudes per subdomain "
                f"(jm={self.grid.jm}, py={self.py})"
            )
        if self.grid.km % self.pz != 0:
            raise ValueError("km must be divisible by pz")

    @property
    def nprocs(self) -> int:
        return self.py * self.pz

    def coords(self, rank: int) -> tuple[int, int]:
        """(y, z) processor coordinates of a rank."""
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range")
        return rank % self.py, rank // self.py

    def rank_of(self, y: int, z: int) -> int:
        return (z % self.pz) * self.py + (y % self.py)

    @cached_property
    def _lat_bounds(self) -> tuple[int, ...]:
        """Row bounds of the ``py`` latitude blocks (computed once)."""
        bounds = np.linspace(0, self.grid.jm, self.py + 1).astype(int)
        return tuple(int(b) for b in bounds)

    def lat_slice(self, rank: int) -> slice:
        """Latitude rows owned by a rank (block distribution)."""
        y, _ = self.coords(rank)
        return slice(self._lat_bounds[y], self._lat_bounds[y + 1])

    def level_slice(self, rank: int) -> slice:
        _, z = self.coords(rank)
        kloc = self.grid.km // self.pz
        return slice(z * kloc, (z + 1) * kloc)

    def local_shape(self, rank: int) -> tuple[int, int, int]:
        ls, ks = self.lat_slice(rank), self.level_slice(rank)
        return (
            ks.stop - ks.start,
            ls.stop - ls.start,
            self.grid.im,
        )

    def lat_neighbors(self, rank: int) -> tuple[int | None, int | None]:
        """(south, north) ranks, ``None`` at the wall boundaries."""
        y, z = self.coords(rank)
        south = self.rank_of(y - 1, z) if y > 0 else None
        north = self.rank_of(y + 1, z) if y < self.py - 1 else None
        return south, north

    def level_group(self, rank: int) -> list[int]:
        """All ranks sharing this rank's latitude band (the z-column)."""
        y, _ = self.coords(rank)
        return [self.rank_of(y, z) for z in range(self.pz)]

    def level_group_colors(self) -> list[int]:
        """Colors for ``Communicator.split`` into z-column subgroups."""
        return [self.coords(r)[0] for r in range(self.nprocs)]

    def scatter(self, global_field: np.ndarray) -> list[np.ndarray]:
        """Split a (km, jm, im) global array into per-rank blocks."""
        if global_field.shape != self.grid.shape:
            raise ValueError("field does not match the grid")
        return [
            np.ascontiguousarray(
                global_field[self.level_slice(r), self.lat_slice(r), :]
            )
            for r in range(self.nprocs)
        ]

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Assemble per-rank blocks back into a (km, jm, im) array."""
        if len(locals_) != self.nprocs:
            raise ValueError("need one block per rank")
        out = np.empty(self.grid.shape, dtype=locals_[0].dtype)
        for r, block in enumerate(locals_):
            out[self.level_slice(r), self.lat_slice(r), :] = block
        return out

    def make_level_groups(self, comm: Communicator) -> list[Communicator]:
        """One subcommunicator per z-column (vertical sums, transposes)."""
        if comm.nprocs != self.nprocs:
            raise ValueError("communicator size mismatch")
        return comm.split(self.level_group_colors())
