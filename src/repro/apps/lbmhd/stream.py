"""Streaming step: advect distributions along their lattice vectors.

Implements the Wellein et al. fused formulation the paper adopted
("data could be gathered from adjacent cells to calculate the updated
value for the current cell ... only the points on cell boundaries
require copying"): post-collision values are *pulled* from the
upstream neighbor, so only one ghost layer per face moves between
ranks.

Two entry points:

* :func:`stream_periodic` — serial reference on a fully periodic grid
  (``np.roll``), used by correctness tests;
* :func:`stream_block` — the parallel path: every rank's post-collision
  state sits in one flat ``(NSLOTS, nranks, lx, ly, lz)`` block, and a
  shard of ranks pulls each slot straight from it — the shift inside a
  rank, the neighbour's boundary plane, the periodic wrap — so no ghost
  layer is ever filled and every value is copied once, from where the
  collision wrote it.  The exchange those planes stand for is charged
  separately (:func:`~repro.apps.lbmhd.decomp.charge_halo_exchange`).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .lattice import NSLOTS, slot_shifts

_SHIFTS = slot_shifts()


def stream_periodic(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pull-streaming with global periodic wrap (single-rank reference).

    ``new[s, x] = old[s, x - c_s]`` — implemented as a positive roll by
    ``c_s`` along each axis.  ``out`` must not alias ``state``.
    """
    if state.shape[0] != NSLOTS:
        raise ValueError(f"state must have {NSLOTS} slots")
    if out is None:
        out = np.empty_like(state)
    for s in range(NSLOTS):
        cx, cy, cz = _SHIFTS[s]
        out[s] = np.roll(state[s], (cx, cy, cz), axis=(0, 1, 2))
    return out


def _slot_runs() -> tuple[tuple[int, int, tuple[int, int, int]], ...]:
    """``(s0, s1, shift)`` for each run of consecutive slots sharing a
    shift: the 27 f slots one by one, each magnetic direction's three
    components together."""
    runs: list[tuple[int, int, tuple[int, int, int]]] = []
    for s in range(NSLOTS):
        shift = tuple(int(c) for c in _SHIFTS[s])
        if runs and runs[-1][2] == shift:
            runs[-1] = (runs[-1][0], s + 1, shift)
        else:
            runs.append((s, s + 1, shift))
    return tuple(runs)


_SLOT_RUNS = _slot_runs()


def _grid_boxes(
    lo: int, hi: int, grid: tuple[int, int, int]
) -> list[tuple[tuple[int, int], ...]]:
    """Ranks ``lo:hi`` of a C-ordered processor grid as a few boxes,
    each a ``(start, stop)`` range per grid axis: 0:3 of a (2, 2, 2)
    grid is the z run (0, 0, 0:2) and the single rank (0, 1, 0)."""
    strides = [grid[1] * grid[2], grid[2], 1]
    boxes = []
    while lo < hi:
        coords = [lo // strides[0], (lo // strides[1]) % grid[1], lo % grid[2]]
        for k in range(3):
            # aligned to axis k: every coordinate after it is zero
            if lo % strides[k] == 0:
                count = min(grid[k] - coords[k], (hi - lo) // strides[k])
                if count > 0:
                    break
        boxes.append(
            tuple(
                (c, c + 1) if d < k else (c, c + count) if d == k else (0, g)
                for d, (c, g) in enumerate(zip(coords, grid))
            )
        )
        lo += count * strides[k]
    return boxes


def _axis_pieces(
    c: int, n: int, p: int, a: int, b: int
) -> list[tuple[slice, slice, slice, slice]]:
    """The pull ``new[i] = old[i - c]`` along one axis for destination
    grid coordinates ``a:b`` (``n`` points a rank, ``p`` ranks), as
    ``(dst grid, dst points, src grid, src points)`` slices: the shift
    inside each rank, the neighbour's boundary plane (a bulk
    grid-coordinate shift) and the periodic wrap column.  Empty pieces
    are left out; on a flat axis only the wrap remains."""
    if c == 0:
        return [(slice(a, b), slice(0, n), slice(a, b), slice(0, n))]
    if c > 0:
        own = (slice(a, b), slice(1, n), slice(a, b), slice(0, n - 1))
        lo = max(a, 1)
        bulk = (slice(lo, b), slice(0, 1), slice(lo - 1, b - 1), slice(n - 1, n))
        wrap = (slice(0, 1), slice(0, 1), slice(p - 1, p), slice(n - 1, n))
        pieces = [own if n > 1 else None, bulk if lo < b else None]
        pieces.append(wrap if a == 0 else None)
    else:
        own = (slice(a, b), slice(0, n - 1), slice(a, b), slice(1, n))
        hi = min(b, p - 1)
        bulk = (slice(a, hi), slice(n - 1, n), slice(a + 1, hi + 1), slice(0, 1))
        wrap = (slice(p - 1, p), slice(n - 1, n), slice(0, 1), slice(0, 1))
        pieces = [own if n > 1 else None, bulk if a < hi else None]
        pieces.append(wrap if b == p else None)
    return [pc for pc in pieces if pc is not None]


#: a plan per (processor grid, local shape, shard): a few per solver
@lru_cache(maxsize=64)
def _pull_plan(
    grid: tuple[int, int, int],
    local: tuple[int, int, int],
    lo: int,
    hi: int,
) -> tuple[tuple[tuple, tuple], ...]:
    """``(dst, src)`` index pairs into the 7-d ``(slot, px, py, pz, x,
    y, z)`` frame that pull-stream ranks ``lo:hi``, computed once: per
    grid box and slot run, every product of the per-axis pieces."""
    plan = []
    for box in _grid_boxes(lo, hi, grid):
        for s0, s1, shift in _SLOT_RUNS:
            per_axis = [
                _axis_pieces(shift[d], local[d], grid[d], *box[d])
                for d in range(3)
            ]
            for pieces in itertools.product(*per_axis):
                dst_g, dst_x, src_g, src_x = zip(*pieces)
                plan.append(
                    (
                        (slice(s0, s1), *dst_g, *dst_x),
                        (slice(s0, s1), *src_g, *src_x),
                    )
                )
    return tuple(plan)


def stream_block(
    post: np.ndarray,
    proc_grid: tuple[int, int, int],
    out: np.ndarray,
    lo: int = 0,
    hi: int | None = None,
) -> np.ndarray:
    """Pull-stream ranks ``lo:hi`` of a flat multi-rank block.

    ``post`` is the post-collision ``(NSLOTS, nranks, lx, ly, lz)``
    block of every rank, ranks laid out C-order over ``proc_grid``
    (``rank = (cx*py + cy)*pz + cz``); ``out`` has the same shape and
    receives ``out[s, x] = post[s, x - c_s]`` over the global periodic
    lattice for ranks ``lo:hi`` only.  Splitting the rank axis into
    ``(px, py, pz)`` turns every neighbour read into basic slices: a
    slot shifted along an axis copies its interior shift, the
    neighbours' boundary plane and the periodic wrap column — the
    values a halo exchange would have put in ghost layers, read where
    they already lie.  The rest of ``post`` may be read but is never
    written, and ``out`` must not alias it.
    """
    grid = tuple(int(p) for p in proc_grid)
    if (
        post.ndim != 5
        or post.shape[0] != NSLOTS
        or post.shape[1] != grid[0] * grid[1] * grid[2]
        or out.shape != post.shape
        # the 7-d frame reshapes the rank axis in place
        or not post.flags.c_contiguous
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"post and out must be C-contiguous ({NSLOTS}, nranks, x, y, z) "
            f"blocks over the processor grid {grid}"
        )
    hi = post.shape[1] if hi is None else hi
    local = post.shape[2:]
    post7 = post.reshape(NSLOTS, *grid, *local)
    out7 = out.reshape(post7.shape)
    for dst, src in _pull_plan(grid, local, lo, hi):
        out7[dst] = post7[src]
    return out


def halo_bytes(local_shape: tuple[int, int, int]) -> int:
    """Bytes exchanged per rank per step for the one-cell face halos.

    Six faces, each carrying the full 72-slot state at 8 bytes/word.
    This is what the paper-scale communication model charges.
    """
    nx, ny, nz = local_shape
    return 2 * NSLOTS * 8 * (nx * ny + ny * nz + nx * nz)
