"""Gyro-averaged charge deposition (scatter) — GTC's critical kernel.

"Randomly localized particles deposit their charge on the grid, thereby
causing poor cache reuse on superscalar machines.  The effect ... is
more pronounced on vector systems, since two or more particles may
contribute to the charge at the same grid point — creating a potential
memory-dependency conflict."

GTC charges are *gyrophase-averaged*: each guiding center deposits a
quarter of its weight at four points on its Larmor ring, and each ring
point spreads over the four surrounding grid nodes (CIC) — 16 scattered
read-modify-writes per particle per step.

Two implementations, numerically identical up to floating-point
reassociation (tests enforce agreement):

* :func:`deposit_scalar` — the superscalar path: a single histogram
  accumulation (one ``np.bincount``), the analogue of the cache-blocked
  scalar loop.
* :func:`deposit_work_vector` — the vector path: particles are striped
  over ``num_copies`` private grid copies so every element of a vector
  register writes to its own copy, then the copies are reduced.  This
  is the paper's work-vector method [16]: it fully vectorizes the
  scatter at the price of a 2–8x memory footprint (256 copies on the
  ES/X1), which is what rules out mixed MPI/OpenMP on the vector
  platforms.
"""

from __future__ import annotations

import math

import numpy as np

from ...runtime.arena import Arena
from ...workload import Work
from .grid import Cells, PoloidalGrid
from .particles import PARTICLE_WORDS, ParticleArray

#: Grid copies used by the work-vector method on 256-element registers.
DEFAULT_WORK_VECTOR_COPIES = 256

#: Gyrophase sample count of the ring average (standard 4-point).
GYRO_POINTS = 4

#: Arithmetic per particle, modeling the full GTC charge kernel: ring
#: geometry in field-line coordinates, per-ring-point locate + CIC
#: weights + accumulates, and the work-vector bookkeeping (~450 ops;
#: the production code's charge deposition loop, not just our
#: mini-app's simplified arithmetic).
DEPOSIT_FLOPS_PER_PARTICLE = 450.0

#: Scattered bytes per particle: 4 ring points x 4 grid nodes x 8 B x
#: read+modify+write (2 transfers) x 2 (potential+density arrays), plus
#: the particle coordinate reads.
DEPOSIT_GATHER_BYTES = GYRO_POINTS * 4 * 8 * 2 * 2 + 8 * 8


def gyro_ring(
    grid: PoloidalGrid,
    particles: ParticleArray,
    gyro_radius: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The four Larmor-ring sample positions of every particle.

    Quadrature points sit at gyrophases 0, pi/2, pi, 3pi/2: offsets
    (+rho, 0), (0, +rho), (-rho, 0), (0, -rho) in the local (radial,
    binormal) frame; the binormal offset maps to a theta shift of
    rho / r.  A zero gyro radius degenerates to the guiding center.
    """
    r, theta = particles.r, particles.theta
    if gyro_radius == 0.0:
        return [(r, theta)] * 1
    rho = gyro_radius
    lo, hi = grid.r0 + 1e-9, grid.r1 - 1e-9
    ring = []
    for dr_off, dt_scale in ((rho, 0.0), (0.0, rho), (-rho, 0.0), (0.0, -rho)):
        rr = np.clip(r + dr_off, lo, hi)
        tt = theta + (dt_scale / r if dt_scale else 0.0)
        ring.append((rr, tt))
    return ring


def _cic_weights(cells: Cells, weight: np.ndarray) -> np.ndarray:
    """The 4-point CIC weights of located particles, shape (4, n)."""
    fi, fj = cells.fi, cells.fj
    return np.stack(
        [
            weight * (1 - fi) * (1 - fj),
            weight * (1 - fi) * fj,
            weight * fi * (1 - fj),
            weight * fi * fj,
        ]
    )


def _ring_stencils(
    grid: PoloidalGrid,
    particles: ParticleArray,
    gyro_radius: float,
    cells: Cells | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked CIC stencils over all gyro-ring points, shapes (4k, n).

    ``cells`` are the guiding centres' cells, already located
    (:meth:`PoloidalGrid.locate_cells`); they are the whole stencil of
    the guiding-centre deposit, so they need a zero gyro radius.
    """
    if cells is not None:
        if gyro_radius != 0.0:
            raise ValueError("located cells are the guiding centres'")
        return cells.corners, _cic_weights(cells, particles.weight)
    ring = gyro_ring(grid, particles, gyro_radius)
    share = particles.weight / len(ring)
    idx_parts, wt_parts = [], []
    for rr, tt in ring:
        located = grid.locate_cells(rr, tt)
        idx_parts.append(located.corners)
        wt_parts.append(_cic_weights(located, share))
    return np.concatenate(idx_parts), np.concatenate(wt_parts)


def _rank_rows(
    grid: PoloidalGrid, idx: np.ndarray, counts: np.ndarray | None
) -> tuple[np.ndarray, tuple[int, ...]]:
    """``idx`` as flat indices into a stack of one grid per rank, and
    the stack's shape.

    ``counts`` (``None``: one rank) splits the particles into
    consecutive ranks' populations; each particle's indices move to its
    rank's row.  A grid point belongs to one rank, so it receives the
    same contributions in the same order as a per-rank deposit would
    give it.
    """
    if counts is None:
        return idx, grid.shape
    rows = np.arange(len(counts)) * grid.num_points
    return idx + np.repeat(rows, counts), (len(counts),) + grid.shape


def _destination(
    size: int, out: np.ndarray | None, arena: Arena | None, key: str
) -> np.ndarray | None:
    """``out`` viewed flat, the arena's ``key`` buffer, or ``None``."""
    if out is not None:
        dest = out.view()
        dest.shape = (size,)  # raises if out is not viewable flat
        return dest
    if arena is not None:
        return arena.scratch(key, (size,))
    return None


def deposit_scalar(
    grid: PoloidalGrid,
    particles: ParticleArray,
    gyro_radius: float = 0.0,
    out: np.ndarray | None = None,
    arena: Arena | None = None,
    cells: Cells | None = None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Histogram-style deposition (the cache-machine code path).

    ``out`` (optional, shape ``grid.shape``) receives the density and
    is fully overwritten; with an ``arena`` the result is copied into a
    buffer reused across calls.  ``cells`` are
    the particles' cells when the caller has located them already
    (guiding-centre deposit only).  With ``counts`` the particles are
    consecutive ranks' populations, ``counts[k]`` of them for rank
    ``k``, and each rank deposits into its own grid: the result (and
    ``out``) is ``(len(counts),) + grid.shape``.

    One ``bincount`` accumulates every contribution in array order, as
    ``np.add.at`` would into zeros, so the result is bitwise the same
    whichever way it is called.
    """
    idx, wts = _ring_stencils(grid, particles, gyro_radius, cells)
    idx, shape = _rank_rows(grid, idx, counts)
    size = math.prod(shape)
    rho = np.bincount(idx.ravel(), weights=wts.ravel(), minlength=size)
    dest = _destination(size, out, arena, "gtc.deposit.rho")
    if dest is not None:
        dest[...] = rho
        rho = dest
    return rho.reshape(shape)


def deposit_work_vector(
    grid: PoloidalGrid,
    particles: ParticleArray,
    num_copies: int = DEFAULT_WORK_VECTOR_COPIES,
    gyro_radius: float = 0.0,
    out: np.ndarray | None = None,
    arena: Arena | None = None,
    cells: Cells | None = None,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Work-vector deposition (the vector-machine code path).

    Particle ``p`` writes to private copy ``p % num_copies``; the copies
    are reduced at the end.  Bincount per stripe keeps each private
    accumulation conflict-free, mirroring the vector-register semantics.
    With an ``arena`` the reduction buffer is reused across calls, and
    ``cells`` and ``counts`` are as in :func:`deposit_scalar`; with
    ``counts``, ``p`` is the particle's index within its rank (bitwise
    the same accumulation either way).
    """
    if num_copies < 1:
        raise ValueError("num_copies must be >= 1")
    idx, wts = _ring_stencils(grid, particles, gyro_radius, cells)
    idx, shape = _rank_rows(grid, idx, counts)
    size = math.prod(shape)
    n = len(particles)
    total = _destination(size, out, arena, "gtc.deposit.wv_total")
    if total is None:
        total = np.zeros(size)
    else:
        total.fill(0.0)
    within = np.arange(n)
    if counts is not None:
        starts = np.cumsum(counts) - counts
        within -= np.repeat(starts, counts)
    stripe = within % num_copies
    for c in range(num_copies):
        sel = stripe == c
        if not sel.any():
            continue
        total += np.bincount(
            idx[:, sel].ravel(),
            weights=wts[:, sel].ravel(),
            minlength=size,
        )
    return total.reshape(shape)


def work_vector_memory_overhead(
    grid: PoloidalGrid, num_copies: int = DEFAULT_WORK_VECTOR_COPIES
) -> int:
    """Extra bytes the work-vector method allocates (the 2–8x story)."""
    return num_copies * grid.num_points * 8


def deposit_work(
    num_particles: int, vectorized: bool, name: str = "gtc.charge"
) -> Work:
    """Workload descriptor for a deposition over ``num_particles``.

    The vector path trades the scatter's memory-dependency stall for
    private-copy traffic: fully vectorizable.  On cache machines the
    poloidal grid is (mostly) cache resident, so the scattered accesses
    hit L2/L3 rather than DRAM — ``gather_cache_fraction`` carries that.
    """
    flops = DEPOSIT_FLOPS_PER_PARTICLE * num_particles
    gather = float(DEPOSIT_GATHER_BYTES) * num_particles
    return Work(
        name=name,
        flops=flops,
        bytes_gather=gather,
        bytes_unit=PARTICLE_WORDS * 8.0 * num_particles,  # particle stream
        # Poloidal grid planes partially fit in L2/L3 on the cache
        # machines, but work arrays and TLB pressure evict aggressively.
        gather_cache_fraction=0.30,
        vector_fraction=0.97 if vectorized else 0.0,
        avg_vector_length=256.0 if vectorized else 1.0,
        fma_fraction=0.6,
    )
