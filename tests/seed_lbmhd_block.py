"""Reference LBMHD block step: the ghost-padded step of commit ``250d348``.

An independent implementation for ``test_lbmhd_seed`` to compare
:class:`~repro.apps.lbmhd.solver.LBMHD3D` against, bit for bit.  Kept
as that commit wrote it: collision batched over ranks straight into the
strided core of a ghost-padded ``(NSLOTS, nranks, lx+2, ly+2, lz+2)``
block, a halo exchange that copies every rank's boundary planes into
the ghost layers (charging one ``exchange_phase`` per decomposed axis),
and a stream that copies every shifted window of the padded block back
into the state block.  That commit ran its ranks through shard regions
whose charges replay in rank order; here they are the plain rank loops
that replay is defined to equal.

The per-rank helpers that commit kept beside the block path live here
too: :func:`pad_state`, :func:`stream_from_padded` and the
per-message :func:`exchange_halos`, which ``seed_lbmhd`` and the
stream tests (through :func:`stream_per_rank`) use as the per-rank
reference.

Copied from commit ``250d348`` (``src/repro/apps/lbmhd/solver.py``,
``stream.py``, ``decomp.py``); the kernels, equilibria, work records
and the decomposition are imported because they are unchanged from
that commit.
"""

from __future__ import annotations

import numpy as np

from repro.apps.lbmhd.collision import collide, collision_work
from repro.apps.lbmhd.decomp import CartesianDecomposition3D
from repro.apps.lbmhd.lattice import NSLOTS, slot_shifts
from repro.apps.lbmhd.mrt import collide_mrt
from repro.apps.lbmhd.solver import (
    LBMHDParams,
    equilibrium_state,
    orszag_tang_fields,
)
from repro.runtime.arena import Arena
from repro.simmpi.comm import Communicator, Message

_SHIFTS = slot_shifts()
_COLLIDE_BATCH_POINTS = 16384

# -- stream.py ----------------------------------------------------------------


def pad_state(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A one-cell ghost-padded copy of a packed state."""
    nx, ny, nz = state.shape[1:]
    if out is None:
        out = np.zeros(
            (state.shape[0], nx + 2, ny + 2, nz + 2), dtype=state.dtype
        )
    out[:, 1 : nx + 1, 1 : ny + 1, 1 : nz + 1] = state
    return out


def stream_from_padded(
    padded: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pull-streaming out of a ghost-padded array with filled halos;
    ``padded`` may carry batch axes between the slot axis and the three
    spatial ones."""
    if padded.shape[0] != NSLOTS:
        raise ValueError(f"state must have {NSLOTS} slots")
    nx, ny, nz = (d - 2 for d in padded.shape[-3:])
    if out is None:
        out = np.empty(
            (*padded.shape[:-3], nx, ny, nz), dtype=padded.dtype
        )
    for s in range(NSLOTS):
        cx, cy, cz = _SHIFTS[s]
        out[s] = padded[
            s,
            ...,
            1 - cx : 1 - cx + nx,
            1 - cy : 1 - cy + ny,
            1 - cz : 1 - cz + nz,
        ]
    return out


# -- decomp.py ----------------------------------------------------------------


def exchange_halos(
    comm: Communicator,
    decomp: CartesianDecomposition3D,
    padded: list[np.ndarray],
) -> None:
    """Fill the one-cell ghost layers of every rank's padded state with
    two messages per rank and decomposed axis; axes go in order so the
    later phases forward the ghosts of the earlier ones, and an axis
    with one rank wraps locally at no charge."""
    if len(padded) != decomp.nprocs:
        raise ValueError("need one padded block per rank")
    core_hi = [n for n in decomp.local_shape]

    for axis in range(3):
        ax = axis + 1
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

        for rank in local_wrap:
            idx_lo = [slice(None)] * 4
            idx_hi = [slice(None)] * 4
            idx_lo[ax], idx_hi[ax] = 0, n + 1
            src_lo = [slice(None)] * 4
            src_hi = [slice(None)] * 4
            src_lo[ax], src_hi[ax] = 1, n
            padded[rank][tuple(idx_lo)] = padded[rank][tuple(src_hi)]
            padded[rank][tuple(idx_hi)] = padded[rank][tuple(src_lo)]

        counters: dict[int, int] = {}
        for m in messages:
            i = counters.get(m.dst, 0)
            counters[m.dst] = i + 1
            payload = received[m.dst][i]
            ghost = [slice(None)] * 4
            ghost[ax] = n + 1 if m.tag == axis else 0
            padded[m.dst][tuple(ghost)] = payload


def _halo_plan(decomp: CartesianDecomposition3D) -> list:
    """Per axis: ``None`` when the processor grid is flat along it, else
    the ``(srcs, dsts)`` of the per-rank message order."""
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
        axes.append((srcs, dsts))
    return axes


def exchange_halos_block(
    comm: Communicator,
    decomp: CartesianDecomposition3D,
    padded_block: np.ndarray,
) -> None:
    """Batched :func:`exchange_halos` over a stacked multi-rank block:
    per axis, bulk grid-coordinate shifts plus the periodic wrap column
    in the 7-d ``(slot, px, py, pz, x, y, z)`` frame, charged through
    ``exchange_phase`` with the per-rank message order."""
    if (
        padded_block.ndim != 5
        or padded_block.shape[1] != decomp.nprocs
        or not padded_block.flags.c_contiguous
    ):
        raise ValueError(
            "padded_block must be a C-contiguous (slots, nranks, x, y, z) "
            "block"
        )
    plan = _halo_plan(decomp)
    itemsize = padded_block.itemsize
    slots = padded_block.shape[0]
    grid = decomp.proc_grid
    block7 = padded_block.reshape(slots, *grid, *padded_block.shape[2:])
    for axis in range(3):
        n = decomp.local_shape[axis]
        ga = axis + 1
        sp = axis + 4
        p_ax = grid[axis]

        def idx(grid_sel: slice | int, plane: int) -> tuple:
            ix: list = [slice(None)] * 7
            ix[ga] = grid_sel
            ix[sp] = plane
            return tuple(ix)

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
            srcs, dsts = plan[axis]
            plane_bytes = itemsize * int(
                np.prod(
                    [padded_block.shape[i] for i in (0, 2, 3, 4) if i != axis + 2]
                )
            )
            comm.exchange_phase(srcs, dsts, plane_bytes)


def stream_per_rank(
    comm: Communicator,
    decomp: CartesianDecomposition3D,
    post: list[np.ndarray],
) -> list[np.ndarray]:
    """The per-rank stream of the seed commit: pad every rank's
    post-collision state, fill the ghosts with :func:`exchange_halos`
    and stream each padded state on its own."""
    padded = [pad_state(p) for p in post]
    exchange_halos(comm, decomp, padded)
    return [stream_from_padded(p) for p in padded]


# -- solver.py ----------------------------------------------------------------


class SeedBlockLBMHD3D:
    """The ghost-padded block step on a plain rank loop.

    Same construction and observable state as
    :class:`repro.apps.lbmhd.solver.LBMHD3D`: every rank's state in one
    ``(NSLOTS, nranks, lx, ly, lz)`` block, initialised rank by rank.
    """

    def __init__(self, params: LBMHDParams, comm: Communicator) -> None:
        self.params = params
        self.comm = comm
        self.decomp = CartesianDecomposition3D.create(
            params.shape, comm.nprocs
        )
        lx, ly, lz = self.decomp.local_shape
        self.block = np.zeros((NSLOTS, comm.nprocs, lx, ly, lz))
        self.padded = np.zeros((NSLOTS, comm.nprocs, lx + 2, ly + 2, lz + 2))
        self.arena = Arena()
        rho, u, B = orszag_tang_fields(params.shape, params.u0, params.b0)
        for rank in range(comm.nprocs):
            own = (..., *self.decomp.local_slices(rank))
            self.block[:, rank] = equilibrium_state(rho[own], u[own], B[own])
        self.step_count = 0

    def step(self) -> None:
        nranks = self.comm.nprocs
        lx, ly, lz = self.decomp.local_shape
        core = self.padded[:, :, 1 : lx + 1, 1 : ly + 1, 1 : lz + 1]
        work = collision_work(lx * ly * lz)
        with self.comm.phase("collision"):
            if not self.params.use_mrt:
                batch = max(1, _COLLIDE_BATCH_POINTS // (lx * ly * lz))
                for a in range(0, nranks, batch):
                    b = min(a + batch, nranks)
                    collide(
                        self.block[:, a:b],
                        self.params.collision,
                        out=core[:, a:b],
                        arena=self.arena,
                    )
            else:
                for rank in range(nranks):
                    core[:, rank] = collide_mrt(
                        self.block[:, rank], self.params.mrt
                    )
            for rank in range(nranks):
                self.comm.compute(rank, work)

        with self.comm.phase("stream"):
            exchange_halos_block(self.comm, self.decomp, self.padded)
            stream_from_padded(self.padded, out=self.block)
        self.step_count += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def global_state(self) -> np.ndarray:
        return self.decomp.gather(
            [self.block[:, r] for r in range(self.comm.nprocs)]
        )
