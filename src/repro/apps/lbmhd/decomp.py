"""3-D block decomposition of the LBMHD lattice over ranks.

"The 3D spatial grid is coupled to a 3D Q27 streaming lattice and block
distributed over a 3D Cartesian processor grid."  Ranks are arranged in
a near-cubic ``(px, py, pz)`` grid; each owns a contiguous block and
exchanges one-cell face halos with its six neighbors.  The diagonal
(edge/corner) ghost data that D3Q27 streaming needs is obtained by
exchanging the axes *in order*, each phase forwarding the ghosts
received in the previous ones.

Every rank's block lives in one flat multi-rank array, so the solver's
stream reads those boundary planes where they lie, and
:func:`charge_halo_exchange` books the exchange an MPI code would make
without moving a byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ...simmpi.comm import Communicator
from .lattice import NSLOTS


def factor3d(nprocs: int) -> tuple[int, int, int]:
    """Near-cubic factorization of a processor count.

    Returns ``(px, py, pz)`` with ``px * py * pz == nprocs`` minimizing
    the spread between factors (greedy over the sorted prime factors).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    dims = [1, 1, 1]
    remaining = nprocs
    primes = []
    d = 2
    while d * d <= remaining:
        while remaining % d == 0:
            primes.append(d)
            remaining //= d
        d += 1
    if remaining > 1:
        primes.append(remaining)
    for p in sorted(primes, reverse=True):
        dims[int(np.argmin(dims))] *= p
    return tuple(sorted(dims, reverse=True))  # type: ignore[return-value]


@dataclass(frozen=True)
class CartesianDecomposition3D:
    """Maps ranks to blocks of a ``(gx, gy, gz)`` global lattice."""

    global_shape: tuple[int, int, int]
    proc_grid: tuple[int, int, int]

    @classmethod
    def create(
        cls, global_shape: tuple[int, int, int], nprocs: int
    ) -> "CartesianDecomposition3D":
        grid = factor3d(nprocs)
        return cls(global_shape=tuple(global_shape), proc_grid=grid)

    def __post_init__(self) -> None:
        for g, p in zip(self.global_shape, self.proc_grid):
            if g % p != 0:
                raise ValueError(
                    f"global shape {self.global_shape} not divisible by "
                    f"processor grid {self.proc_grid}"
                )

    @property
    def nprocs(self) -> int:
        px, py, pz = self.proc_grid
        return px * py * pz

    @property
    def local_shape(self) -> tuple[int, int, int]:
        return tuple(
            g // p for g, p in zip(self.global_shape, self.proc_grid)
        )  # type: ignore[return-value]

    def coords(self, rank: int) -> tuple[int, int, int]:
        px, py, pz = self.proc_grid
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range")
        return (rank // (py * pz), (rank // pz) % py, rank % pz)

    def rank_of(self, cx: int, cy: int, cz: int) -> int:
        px, py, pz = self.proc_grid
        return ((cx % px) * py + (cy % py)) * pz + (cz % pz)

    def neighbor(self, rank: int, axis: int, direction: int) -> int:
        """Periodic neighbor along ``axis`` (+1 or -1)."""
        c = list(self.coords(rank))
        c[axis] += direction
        return self.rank_of(*c)

    def local_slices(self, rank: int) -> tuple[slice, slice, slice]:
        """Global-array slices of this rank's block."""
        lx, ly, lz = self.local_shape
        cx, cy, cz = self.coords(rank)
        return (
            slice(cx * lx, (cx + 1) * lx),
            slice(cy * ly, (cy + 1) * ly),
            slice(cz * lz, (cz + 1) * lz),
        )

    def scatter(self, global_array: np.ndarray) -> list[np.ndarray]:
        """Split a (..., gx, gy, gz) array into per-rank local blocks."""
        if global_array.shape[-3:] != self.global_shape:
            raise ValueError("array does not match the global shape")
        return [
            np.ascontiguousarray(global_array[(..., *self.local_slices(r))])
            for r in range(self.nprocs)
        ]

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Assemble per-rank blocks back into a global array."""
        if len(locals_) != self.nprocs:
            raise ValueError("need one block per rank")
        lead = locals_[0].shape[:-3]
        out = np.empty((*lead, *self.global_shape), dtype=locals_[0].dtype)
        for r, block in enumerate(locals_):
            out[(..., *self.local_slices(r))] = block
        return out


@lru_cache(maxsize=None)
def _halo_plan(
    decomp: CartesianDecomposition3D,
) -> tuple[tuple[np.ndarray, np.ndarray] | None, ...]:
    """Per-axis message order of the halo exchange, computed once.

    For each axis: ``None`` when the processor grid is flat along it
    (every rank wraps locally), else ``(srcs, dsts)`` spelling out the
    per-rank message order (rank 0's send to its low neighbour, rank
    0's send to its high one, rank 1's low send, ...) that fixes each
    sender's serialisation.
    """
    axes = []
    ranks = np.arange(decomp.nprocs, dtype=np.intp)
    for axis in range(3):
        if decomp.proc_grid[axis] == 1:
            axes.append(None)
            continue
        dsts = np.empty(2 * decomp.nprocs, dtype=np.intp)
        dsts[0::2] = [decomp.neighbor(r, axis, -1) for r in ranks]
        dsts[1::2] = [decomp.neighbor(r, axis, +1) for r in ranks]
        axes.append((np.repeat(ranks, 2), dsts))
    return tuple(axes)


def charge_halo_exchange(
    comm: Communicator, decomp: CartesianDecomposition3D
) -> None:
    """Charge one step's one-cell face halo exchange; move nothing.

    The stream reads neighbours' boundary planes straight from the
    post-collision block (:func:`~repro.apps.lbmhd.stream.stream_block`),
    so no byte moves here; the communicator is charged what an MPI code
    exchanging ghost planes would send: per decomposed axis, one
    :meth:`~repro.simmpi.comm.Communicator.exchange_phase` of two
    messages per rank, each one plane of a ghost-padded state — all
    ``NSLOTS`` float64 slots, two ghost cells wider along the other two
    axes, which carries the edge and corner ghosts forward axis by
    axis.  A flat processor-grid axis wraps locally, at no charge.
    """
    local = decomp.local_shape
    for axis, plan in enumerate(_halo_plan(decomp)):
        if plan is None:
            continue
        b, c = (n + 2 for d, n in enumerate(local) if d != axis)
        srcs, dsts = plan
        comm.exchange_phase(srcs, dsts, 8 * NSLOTS * b * c)
