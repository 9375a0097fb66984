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
* :func:`stream_from_padded` — the parallel path: pull from a
  ghost-padded post-collision array whose halo the solver has filled
  via the simulated MPI exchange.
"""

from __future__ import annotations

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


def pad_state(state: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A one-cell ghost-padded copy of a packed state.

    With ``out=None`` a fresh zeroed padded array is allocated (the
    seed behavior).  Passing a reusable ``out`` buffer only rewrites
    the core; ghost contents are left as-is, which is safe because the
    halo exchange fully rewrites every ghost layer before streaming
    reads it.
    """
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
    """Pull-streaming out of a ghost-padded array with filled halos.

    For interior point ``x`` (1-based in the padded frame) the update is
    ``new[s, x-1] = padded[s, x - c_s]`` — a shifted window over the
    padded array, touching the ghost layer for boundary points.
    ``out`` (optional, fully overwritten) must not alias ``padded``.

    ``padded`` may carry batch axes between the slot axis and the three
    spatial ones — a stacked ``(NSLOTS, nranks, nx+2, ny+2, nz+2)``
    multi-rank block streams in one strided copy per slot (72 array ops
    instead of ``72 * nranks``), bitwise what streaming each rank
    separately gives.
    """
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


def halo_bytes(local_shape: tuple[int, int, int]) -> int:
    """Bytes exchanged per rank per step for the one-cell face halos.

    Six faces, each carrying the full 72-slot state at 8 bytes/word.
    This is what the paper-scale communication model charges.
    """
    nx, ny, nz = local_shape
    return 2 * NSLOTS * 8 * (nx * ny + ny * nz + nx * nz)
