"""One-dimensional flux-form finite-volume transport operators.

The Lin–Rood dynamical core advances its prognostic fields with
directionally split, one-sided (upwind) flux-form operators of PPM
type — "the finite-volume scheme is fundamentally one-sided (upwind)
and higher order, causing a significant number of nested logical
branches", the property that made FVCAM hard to vectorize.

Provided operators (all conservative by construction — the update is a
flux difference):

* :func:`upwind_flux` — first-order donor cell;
* :func:`vanleer_flux` — second-order van Leer (MUSCL) with monotonic
  slope limiting, the workhorse used by the dycore;
* :func:`advect` — one split update given face fluxes.

Boundary handling: ``periodic=True`` wraps (longitude); otherwise the
boundary faces carry zero flux (the latitude walls of the capped mesh).

Every operator works along one ``axis`` of an array of any rank, so a
stack of fields with leading axes goes through in one call.  Neighbour
cells come from one ghost-extended copy of the input per call (wrapped
cells, or copies of the edge cell at a wall) and slices of it — never a
whole-array ``np.roll`` per neighbour.
"""

from __future__ import annotations

import numpy as np


def _ghosted(
    q: np.ndarray, before: int, after: int, periodic: bool, axis: int
) -> np.ndarray:
    """``q`` with ``before`` ghost cells ahead of it and ``after`` behind
    it along ``axis``: wrapped cells when periodic, the edge cell
    repeated at a wall."""
    idx = np.arange(-before, q.shape[axis] + after)
    return np.take(q, idx, axis=axis, mode="wrap" if periodic else "clip")


def _cells(a: np.ndarray, start: int, stop: int, axis: int) -> np.ndarray:
    """The view ``a[start:stop]`` along ``axis``."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop)
    return a[tuple(idx)]


def upwind_flux(
    q: np.ndarray, courant: np.ndarray, periodic: bool = True, axis: int = -1
) -> np.ndarray:
    """Donor-cell face fluxes.

    ``courant[..., i]`` is the signed Courant number at face ``i`` —
    the face between cells ``i-1`` and ``i``.  Returns fluxes with the
    same shape; flux at face i = c * q_upwind.
    """
    n = q.shape[axis]
    q_left = _cells(_ghosted(q, 1, 0, periodic, axis), 0, n, axis)
    flux = np.where(courant >= 0.0, courant * q_left, courant * q)
    if not periodic:
        _cells(flux, 0, 1, axis)[...] = 0.0
    return flux


def _limited_slope(
    qm: np.ndarray, q: np.ndarray, qp: np.ndarray
) -> np.ndarray:
    """Monotonized central-difference slope (van Leer limiter) of the
    cells ``q`` between neighbours ``qm`` and ``qp``:

        sign(dc) * min(|dc|, 2 (q - min(qm, q, qp)), 2 (max(qm, q, qp) - q))

    with ``dc = (qp - qm) / 2``, evaluated in a few reused buffers.
    """
    d_center = qp - qm
    d_center *= 0.5
    d_min = np.minimum(qm, q)
    np.minimum(d_min, qp, out=d_min)
    np.subtract(q, d_min, out=d_min)
    d_max = np.maximum(qm, q)
    np.maximum(d_max, qp, out=d_max)
    d_max -= q
    np.minimum(d_min, d_max, out=d_min)
    d_min *= 2.0
    np.minimum(np.abs(d_center, out=d_max), d_min, out=d_min)
    np.sign(d_center, out=d_center)
    d_center *= d_min
    return d_center


def vanleer_flux(
    q: np.ndarray, courant: np.ndarray, periodic: bool = True, axis: int = -1
) -> np.ndarray:
    """Second-order van Leer face fluxes with monotonic limiting.

    Reduces to :func:`upwind_flux` wherever the limited slope vanishes
    (local extrema), and preserves constants exactly.
    """
    n = q.shape[axis]
    # cells -2 .. n: the slope is taken for cells -1 .. n-1, so face 0
    # sees the upwind cell's slope too.  (At a wall face 0 carries no
    # flux, and whatever slope its ghost gets is never used.)
    ext = _ghosted(q, 2, 1, periodic, axis)
    slope = _limited_slope(
        _cells(ext, 0, n + 1, axis),
        _cells(ext, 1, n + 2, axis),
        _cells(ext, 2, n + 3, axis),
    )
    q_left = _cells(ext, 1, n + 1, axis)
    slope_left = _cells(slope, 0, n, axis)
    slope = _cells(slope, 1, n + 1, axis)
    c = courant
    # the upwind cell's edge value at each face, times c:
    #   c >= 0:  c (q_left + slope_left (1 - c) / 2)
    #   c < 0:   c (q - slope (1 + c) / 2)
    face_pos = 0.5 * slope_left
    face_pos *= 1.0 - c
    face_pos += q_left
    face_neg = 0.5 * slope
    face_neg *= 1.0 + c
    np.subtract(q, face_neg, out=face_neg)
    flux = np.where(c >= 0.0, face_pos, face_neg)
    flux *= c
    if not periodic:
        _cells(flux, 0, 1, axis)[...] = 0.0
    return flux


def advect(
    q: np.ndarray, flux: np.ndarray, periodic: bool = True, axis: int = -1
) -> np.ndarray:
    """Conservative update  q_new = q - (F_{i+1} - F_i).

    The face-i flux array holds the flux *into* cell i from the left;
    the outflow face of cell i is face i+1 (wrapped or zero).
    """
    n = q.shape[axis]
    flux_out = _cells(_ghosted(flux, 0, 1, periodic, axis), 1, n + 1, axis)
    if not periodic:
        _cells(flux_out, n - 1, n, axis)[...] = 0.0
    flux_out -= flux
    return q - flux_out


def advect_vanleer(
    q: np.ndarray, courant: np.ndarray, periodic: bool = True, axis: int = -1
) -> np.ndarray:
    """Convenience: one full van Leer transport step along an axis."""
    return advect(
        q, vanleer_flux(q, courant, periodic, axis), periodic, axis
    )
