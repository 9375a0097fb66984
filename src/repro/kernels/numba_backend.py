"""Numba-accelerated kernel backend.

Overrides only the kernels whose NumPy reference is a *sequential*
elementwise/scatter recipe that a jitted loop can replicate operation
for operation — which is what makes the bitwise contract provable:

* GTC deposit (scalar + work-vector): ``np.add.at`` / per-stripe
  ``np.bincount`` are sequential accumulations in ravel order; the
  jitted loops run the identical additions in the identical order.
* GTC gather + push: elementwise expressions whose association order
  the loops reproduce exactly (IEEE-754 elementwise arithmetic is
  deterministic per element; only re-association could change bits,
  and none happens here).  ``np.mod``'s fmod-then-correct semantics
  and ``np.clip``/``np.where`` selection are replicated explicitly.
* FVCAM suffix sum / geopotential: ``np.cumsum`` is a sequential
  accumulation along the axis; the jitted loop accumulates in the same
  order.

LBMHD collision (BLAS matmul, einsum) and PARATEC FFT/CG (pocketfft,
BLAS) are *not* overridden: their reference implementations dispatch to
vendor kernels whose reduction order a jitted loop cannot cheaply
reproduce bitwise, and ``numba`` does not support ``np.fft`` at all.
They inherit the reference — per-kernel inheritance is the designed
degrade path (see :mod:`repro.kernels.base`).

``fastmath`` stays off everywhere: the whole point of the backend
contract is that speed never buys re-association.

The module imports without numba installed; :meth:`NumbaBackend.available`
probes for it (and honours ``REPRO_NUMBA_DISABLE``, the analogue of
``REPRO_SHM_DISABLE``), and the registry's capability policy handles
rejection/degrade.  JIT compilation is lazy and memoized per kernel,
with ``cache=True`` so repeated processes (campaign workers, CI) reuse
the compiled artifacts.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable

import numpy as np

from .base import KernelBackend, KernelSupport

#: cached import probe (the env toggle is re-read on every call so tests
#: can flip it, but the "is numba importable" answer never changes
#: within a process).
_PROBE: KernelSupport | None = None

_JITTED: dict[Callable, Callable] = {}


def _probe_numba() -> KernelSupport:
    global _PROBE
    if _PROBE is None:
        try:
            import numba  # noqa: F401
        except Exception as exc:  # pragma: no cover - host-dependent
            _PROBE = KernelSupport(
                False, f"numba is not importable ({exc.__class__.__name__})"
            )
        else:
            _PROBE = KernelSupport(
                True, f"numba {numba.__version__} JIT kernels"
            )
    return _PROBE


def _jit(py_fn: Callable) -> Callable:
    """Lazily njit-compile ``py_fn`` (memoized per function)."""
    fn = _JITTED.get(py_fn)
    if fn is None:
        import numba

        fn = numba.njit(cache=True, fastmath=False)(py_fn)
        _JITTED[py_fn] = fn
    return fn


# -- jitted loop bodies (plain Python; compiled on first use) -----------


def _scatter_add(rho, idx, wts):
    # np.add.at(rho, idx, wts): sequential read-modify-write in input
    # (ravel) order — this loop is that order, addition for addition.
    for k in range(idx.shape[0]):
        rho[idx[k]] += wts[k]


def _deposit_stripes(total, tmp, idx, wts, num_copies, n):
    # Reference: per stripe c, total += bincount(idx[:, sel].ravel(),
    # wts[:, sel].ravel()).  bincount accumulates sequentially in input
    # order = row-major over (stencil row, selected column); selected
    # columns of stripe c are exactly cols c, c+num_copies, ...  Empty
    # stripes are skipped (no `total += zeros`, which would flip -0.0).
    rows = idx.shape[0]
    for c in range(num_copies):
        if c >= n:
            continue
        for g in range(total.shape[0]):
            tmp[g] = 0.0
        for row in range(rows):
            for col in range(c, n, num_copies):
                tmp[idx[row, col]] += wts[row, col]
        for g in range(total.shape[0]):
            total[g] += tmp[g]


def _gather(field, corners, w00, w01, w10, w11, out):
    # ((w00*f + w01*f) + w10*f) + w11*f — the reference's left-to-right
    # association, per element, at the flat corner indices.
    for k in range(corners.shape[1]):
        out[k] = (
            w00[k] * field[corners[0, k]]
            + w01[k] * field[corners[1, k]]
            + w10[k] * field[corners[2, k]]
            + w11[k] * field[corners[3, k]]
        )


def _push(
    r,
    theta,
    zeta,
    vpar,
    e_r,
    e_theta,
    b0,
    q_r0,
    dt,
    major_radius,
    lo,
    hi,
    out_r,
    out_theta,
    out_zeta,
):
    two_lo = 2.0 * lo
    two_hi = 2.0 * hi
    tau = 2.0 * np.pi
    for k in range(r.shape[0]):
        vr = -e_theta[k] / b0
        vtheta = e_r[k] / (b0 * r[k]) + vpar[k] / (q_r0 * r[k])
        new_r = r[k] + dt * vr
        # np.where reflections, applied low-then-high like the reference
        if new_r < lo:
            new_r = two_lo - new_r
        if new_r > hi:
            new_r = two_hi - new_r
        # np.clip: pure selection, no arithmetic
        if new_r < lo:
            new_r = lo
        if new_r > hi:
            new_r = hi
        out_r[k] = new_r
        # np.mod = fmod, then sign-correct; exact zero becomes +0.0
        x = theta[k] + dt * vtheta
        m = math.fmod(x, tau)
        if m != 0.0:
            if m < 0.0:
                m += tau
        else:
            m = 0.0
        out_theta[k] = m
        out_zeta[k] = zeta[k] + (dt * vpar[k]) / major_radius


def _suffix_sum_2d(h, out):
    # np.cumsum(h[::-1], axis=0)[::-1]: out[k] = out[k+1] + h[k],
    # accumulated bottom-up exactly like the reference's running sum.
    levels, cols = h.shape
    for m in range(cols):
        out[levels - 1, m] = h[levels - 1, m]
    for k in range(levels - 2, -1, -1):
        for m in range(cols):
            out[k, m] = out[k + 1, m] + h[k, m]


def _scale_2d(a, alpha):
    rows, cols = a.shape
    for r_ in range(rows):
        for c in range(cols):
            a[r_, c] = alpha * a[r_, c]


class NumbaBackend(KernelBackend):
    """JIT-compiled loops for the scatter/gather/push hot paths."""

    name = "numba"

    def available(self) -> KernelSupport:
        # env toggle checked fresh each call (tests flip it); the
        # import probe is cached for the life of the process.
        if os.environ.get("REPRO_NUMBA_DISABLE"):
            return KernelSupport(
                False, "REPRO_NUMBA_DISABLE is set in the environment"
            )
        return _probe_numba()

    # -- GTC ------------------------------------------------------------

    def gtc_deposit_scalar(
        self,
        grid: Any,
        particles: Any,
        gyro_radius: float = 0.0,
        out: np.ndarray | None = None,
        arena: Any | None = None,
        cells: Any | None = None,
    ) -> np.ndarray:
        from ..apps.gtc.deposit import _ring_stencils

        idx, wts = _ring_stencils(grid, particles, gyro_radius, cells)
        if out is not None:
            rho = out.view()
            rho.shape = (grid.num_points,)
            rho.fill(0.0)
        elif arena is not None:
            rho = arena.scratch("gtc.deposit.rho", (grid.num_points,))
            rho.fill(0.0)
        else:
            rho = np.zeros(grid.num_points)
        _jit(_scatter_add)(
            rho,
            np.ascontiguousarray(idx).reshape(-1),
            np.ascontiguousarray(wts).reshape(-1),
        )
        return rho.reshape(grid.shape)

    def gtc_deposit_work_vector(
        self,
        grid: Any,
        particles: Any,
        num_copies: int,
        gyro_radius: float = 0.0,
        out: np.ndarray | None = None,
        arena: Any | None = None,
        cells: Any | None = None,
    ) -> np.ndarray:
        from ..apps.gtc.deposit import _ring_stencils

        if num_copies < 1:
            raise ValueError("num_copies must be >= 1")
        idx, wts = _ring_stencils(grid, particles, gyro_radius, cells)
        n = len(particles)
        if out is not None:
            total = out.view()
            total.shape = (grid.num_points,)
            total.fill(0.0)
        elif arena is not None:
            total = arena.scratch(
                "gtc.deposit.wv_total", (grid.num_points,)
            )
            total.fill(0.0)
        else:
            total = np.zeros(grid.num_points)
        tmp = np.empty(grid.num_points)
        _jit(_deposit_stripes)(
            total,
            tmp,
            np.ascontiguousarray(idx),
            np.ascontiguousarray(wts),
            num_copies,
            n,
        )
        return total.reshape(grid.shape)

    def gtc_gather_field(
        self,
        grid: Any,
        e_r: np.ndarray,
        e_theta: np.ndarray,
        cells: Any,
    ) -> tuple[np.ndarray, np.ndarray]:
        corners, fi, fj = cells
        # weights computed with the reference's exact numpy expressions
        w00 = (1 - fi) * (1 - fj)
        w01 = (1 - fi) * fj
        w10 = fi * (1 - fj)
        w11 = fi * fj
        gather = _jit(_gather)
        corners = np.ascontiguousarray(corners)
        out_r = np.empty_like(fi)
        out_t = np.empty_like(fi)
        gather(
            np.ascontiguousarray(e_r).reshape(-1), corners, w00, w01, w10,
            w11, out_r,
        )
        gather(
            np.ascontiguousarray(e_theta).reshape(-1), corners, w00, w01,
            w10, w11, out_t,
        )
        return out_r, out_t

    def gtc_push_particles(
        self,
        torus: Any,
        particles: Any,
        e_r_at_p: np.ndarray,
        e_theta_at_p: np.ndarray,
        params: Any,
        out: Any | None = None,
    ) -> Any:
        from ..apps.gtc.particles import ParticleArray

        plane = torus.plane
        lo, hi = plane.r0 + 1e-6, plane.r1 - 1e-6
        if out is None:
            out = ParticleArray(
                r=np.empty_like(particles.r),
                theta=np.empty_like(particles.theta),
                zeta=np.empty_like(particles.zeta),
                vpar=particles.vpar.copy(),
                weight=particles.weight.copy(),
                species=particles.species.copy(),
            )
        else:
            out.vpar[...] = particles.vpar
            out.weight[...] = particles.weight
            out.species[...] = particles.species
        _jit(_push)(
            particles.r,
            particles.theta,
            particles.zeta,
            particles.vpar,
            e_r_at_p,
            e_theta_at_p,
            params.b0,
            params.safety_q * torus.major_radius,
            params.dt,
            torus.major_radius,
            lo,
            hi,
            out.r,
            out.theta,
            out.zeta,
        )
        return out

    # -- FVCAM ----------------------------------------------------------

    def fvcam_suffix_sum(self, h: np.ndarray) -> np.ndarray:
        h2 = np.ascontiguousarray(h).reshape(h.shape[0], -1)
        out = np.empty_like(h2)
        _jit(_suffix_sum_2d)(h2, out)
        return out.reshape(h.shape)

    def fvcam_geopotential(self, h: np.ndarray, gravity: float) -> np.ndarray:
        # gravity * suffix: one multiply per element, same as the
        # reference's `gravity * np.cumsum(...)`.
        h2 = np.ascontiguousarray(h).reshape(h.shape[0], -1)
        out = np.empty_like(h2)
        _jit(_suffix_sum_2d)(h2, out)
        _jit(_scale_2d)(out, float(gravity))
        return out.reshape(h.shape)
