"""Vertical remapping of the Lagrangian control-volume layers.

"First, the main dynamical equations are time-integrated within the
control volumes bounded by Lagrangian material surfaces.  Second, the
Lagrangian surfaces are re-mapped to physical space based on vertical
transport."  As the layers deform, the remap redistributes each
column's mass (and mass-weighted winds) onto the reference layer
distribution — a strictly columnar, conservative 1-D operation, which
is why the remap phase wants the (longitude, latitude) decomposition.
"""

from __future__ import annotations

import numpy as np

from ...workload import Work
from .grid import LatLonGrid


def remap_column(
    h: np.ndarray, fields: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Conservatively remap one set of columns to uniform target layers.

    Parameters
    ----------
    h:
        Layer thicknesses, shape (km, ...); all positive.
    fields:
        Mass-weighted quantities (winds, tracers) with h's shape.

    Returns new (h, fields): target layers share the column total
    equally; each field value is the mass-weighted average of the
    overlapped source layers (piecewise-constant reconstruction).
    Column totals of ``h`` and of ``h * field`` are preserved exactly.
    """
    km = h.shape[0]
    if (h <= 0).any():
        raise ValueError("layer thicknesses must be positive")
    flat_h = h.reshape(km, -1)
    ncol = flat_h.shape[1]
    flat_fields = np.empty((len(fields), km, ncol))
    for f_flat, f in zip(flat_fields, fields):
        f_flat[...] = f.reshape(km, -1)

    src_edges = np.vstack(
        [np.zeros((1, ncol)), np.cumsum(flat_h, axis=0)]
    )  # (km+1, ncol)
    total = src_edges[-1]
    tgt_h = np.repeat(total[None, :] / km, km, axis=0)
    tgt_edges = np.vstack(
        [np.zeros((1, ncol)), np.cumsum(tgt_h, axis=0)]
    )

    # overlap integral of every target layer with source layer s, for
    # every field at once; each target still sums its sources in order
    new_fields = np.zeros_like(flat_fields)
    lo_t, hi_t = tgt_edges[:-1], tgt_edges[1:]
    for s in range(km):
        overlap = np.minimum(hi_t, src_edges[s + 1]) - np.maximum(
            lo_t, src_edges[s]
        )
        overlap = np.maximum(overlap, 0.0)
        new_fields += overlap * flat_fields[:, s, None, :]
    out_fields = [(f_new / tgt_h).reshape(h.shape) for f_new in new_fields]
    return tgt_h.reshape(h.shape), out_fields


def remap_work(
    grid: LatLonGrid, columns_local: int, name: str = "fvcam.remap"
) -> Work:
    """Per-rank Work of remapping ``columns_local`` columns."""
    km = grid.km
    flops = columns_local * (12.0 * km + 8.0 * km)
    return Work(
        name=name,
        flops=max(flops, 1.0),
        bytes_unit=columns_local * km * 8.0 * 6,
        vector_fraction=0.90,
        avg_vector_length=float(min(256, max(1, columns_local))),
        fma_fraction=0.6,
        cache_fraction=0.3,
    )


def transpose_bytes(grid: LatLonGrid, py: int, pz: int) -> float:
    """Per-rank bytes moved by one dynamics->remap transpose.

    Each of the ``pz`` ranks of a column group redistributes its
    (km/pz, jm/py, im) block so that every member ends up with full
    columns over im/pz longitudes: all but 1/pz of the data moves.
    """
    block = (grid.km // pz) * (grid.jm / py) * grid.im * 8.0
    fields = 3  # h, u, v
    return fields * block * (1.0 - 1.0 / pz)
