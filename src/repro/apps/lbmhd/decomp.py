"""3-D block decomposition of the LBMHD lattice over ranks.

"The 3D spatial grid is coupled to a 3D Q27 streaming lattice and block
distributed over a 3D Cartesian processor grid."  Ranks are arranged in
a near-cubic ``(px, py, pz)`` grid; each owns a contiguous block and
exchanges one-cell face halos with its six neighbors.  The diagonal
(edge/corner) ghost data that D3Q27 streaming needs is obtained by
exchanging the axes *in order*, each phase forwarding the ghosts
received in the previous ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ...simmpi.comm import Communicator, Message


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


def exchange_halos(
    comm: Communicator,
    decomp: CartesianDecomposition3D,
    padded: list[np.ndarray],
) -> None:
    """Fill the one-cell ghost layers of every rank's padded state.

    ``padded[r]`` has shape ``(slots, lx+2, ly+2, lz+2)`` with the core
    already written.  Axes are exchanged in order so that the second and
    third phases forward previously received ghosts, populating the
    edge/corner ghosts needed by diagonal streaming.  Self-neighboring
    axes (a single rank along that axis) wrap locally at zero cost,
    matching the physical periodic boundary.

    This is the per-message reference: the solver steps through
    :func:`exchange_halos_block`, which the tests hold to the ghosts,
    clocks and traces this function produces.
    """
    if len(padded) != decomp.nprocs:
        raise ValueError("need one padded block per rank")
    core_hi = [n for n in decomp.local_shape]  # index of last core plane

    for axis in range(3):
        ax = axis + 1  # slot axis is 0
        n = core_hi[axis]
        messages: list[Message] = []
        local_wrap: list[int] = []
        for rank in range(decomp.nprocs):
            lo_nbr = decomp.neighbor(rank, axis, -1)
            hi_nbr = decomp.neighbor(rank, axis, +1)
            if lo_nbr == rank and hi_nbr == rank:
                local_wrap.append(rank)
                continue
            lo_plane = np.take(padded[rank], 1, axis=ax)
            hi_plane = np.take(padded[rank], n, axis=ax)
            messages.append(Message(src=rank, dst=lo_nbr, payload=lo_plane, tag=axis))
            messages.append(Message(src=rank, dst=hi_nbr, payload=hi_plane, tag=axis + 8))
        received = comm.exchange(messages)

        # Single rank along this axis: wrap the planes locally.
        for rank in local_wrap:
            idx_lo = [slice(None)] * 4
            idx_hi = [slice(None)] * 4
            idx_lo[ax], idx_hi[ax] = 0, n + 1
            src_lo = [slice(None)] * 4
            src_hi = [slice(None)] * 4
            src_lo[ax], src_hi[ax] = 1, n
            padded[rank][tuple(idx_lo)] = padded[rank][tuple(src_hi)]
            padded[rank][tuple(idx_hi)] = padded[rank][tuple(src_lo)]

        # exchange() delivers payload copies per destination in posting
        # order; pair them back up with their messages and use the tag
        # to pick the ghost plane: a *low* core plane sent leftwards
        # lands in the receiver's *high* ghost, and vice versa.
        counters: dict[int, int] = {}
        for m in messages:
            i = counters.get(m.dst, 0)
            counters[m.dst] = i + 1
            payload = received[m.dst][i]
            ghost = [slice(None)] * 4
            ghost[ax] = n + 1 if m.tag == axis else 0
            padded[m.dst][tuple(ghost)] = payload


@lru_cache(maxsize=None)
def _halo_plan(
    decomp: CartesianDecomposition3D,
) -> tuple[
    tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None, ...
]:
    """Per-axis neighbor topology of the halo exchange, computed once.

    For each axis: ``None`` when the processor grid is flat along it
    (every rank wraps locally), else ``(lo, hi, srcs, dsts)`` where
    ``lo[r]``/``hi[r]`` are rank ``r``'s periodic neighbors and
    ``srcs``/``dsts`` spell out the legacy per-rank message order
    (rank 0's low send, rank 0's high send, rank 1's low send, ...) for
    clock/trace accounting.
    """
    axes = []
    ranks = np.arange(decomp.nprocs, dtype=np.intp)
    for axis in range(3):
        if decomp.proc_grid[axis] == 1:
            axes.append(None)
            continue
        lo = np.array(
            [decomp.neighbor(r, axis, -1) for r in ranks], dtype=np.intp
        )
        hi = np.array(
            [decomp.neighbor(r, axis, +1) for r in ranks], dtype=np.intp
        )
        srcs = np.repeat(ranks, 2)
        dsts = np.empty(2 * decomp.nprocs, dtype=np.intp)
        dsts[0::2] = lo
        dsts[1::2] = hi
        axes.append((lo, hi, srcs, dsts))
    return tuple(axes)


def exchange_halos_block(
    comm: Communicator,
    decomp: CartesianDecomposition3D,
    padded_block: np.ndarray,
) -> None:
    """Batched :func:`exchange_halos` over a stacked multi-rank block.

    ``padded_block`` has shape ``(slots, nranks, lx+2, ly+2, lz+2)``
    with every core already written.  Each axis phase moves all ranks'
    boundary planes in two strided gather-copies (instead of two Python
    messages per rank) and charges the communicator through
    :meth:`~repro.simmpi.comm.Communicator.exchange_phase` with the
    legacy message ordering, so clocks, traces, and the filled ghosts
    are all identical to the per-rank path bitwise.
    """
    if (
        padded_block.ndim != 5
        or padded_block.shape[1] != decomp.nprocs
        # the slice algebra below reshapes the rank axis in place
        or not padded_block.flags.c_contiguous
    ):
        raise ValueError(
            "padded_block must be a C-contiguous (slots, nranks, x, y, z) "
            "block"
        )
    plan = _halo_plan(decomp)
    itemsize = padded_block.itemsize
    # Ranks are laid out C-order over the processor grid
    # (``rank = (cx*py + cy)*pz + cz``), so splitting the rank axis into
    # (px, py, pz) turns each neighbor shift into plain slice algebra.
    slots = padded_block.shape[0]
    grid = decomp.proc_grid
    block7 = padded_block.reshape(slots, *grid, *padded_block.shape[2:])
    for axis in range(3):
        n = decomp.local_shape[axis]
        ga = axis + 1  # processor-grid axis in the 7-d frame
        sp = axis + 4  # spatial axis in the 7-d frame
        p_ax = grid[axis]

        def idx(grid_sel: slice | int, plane: int) -> tuple:
            ix: list = [slice(None)] * 7
            ix[ga] = grid_sel
            ix[sp] = plane
            return tuple(ix)

        # Hi ghost <- hi neighbor's low core plane; lo ghost <- lo
        # neighbor's high core plane.  Each direction is a bulk
        # coordinate shift plus the periodic wrap column — all basic
        # (view) slices, no gather temporaries.  With a flat grid along
        # this axis only the wrap assignments run: the local periodic
        # wrap, charged nothing, exactly like the per-rank path.
        if p_ax > 1:
            block7[idx(slice(0, p_ax - 1), n + 1)] = block7[
                idx(slice(1, p_ax), 1)
            ]
            block7[idx(slice(1, p_ax), 0)] = block7[
                idx(slice(0, p_ax - 1), n)
            ]
        block7[idx(p_ax - 1, n + 1)] = block7[idx(0, 1)]
        block7[idx(0, 0)] = block7[idx(p_ax - 1, n)]

        if plan[axis] is not None:
            _, _, srcs, dsts = plan[axis]
            plane_bytes = itemsize * int(
                np.prod(
                    [padded_block.shape[i] for i in (0, 2, 3, 4) if i != axis + 2]
                )
            )
            comm.exchange_phase(srcs, dsts, plane_bytes)
