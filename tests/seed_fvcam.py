"""Reference FVCAM step loop: the per-rank step of commit ``bb7bd1d``.

An independent implementation for ``test_fvcam_seed`` to compare
:class:`~repro.apps.fvcam.solver.FVCAM` against, bit for bit.  Kept as
that commit wrote it: ``np.roll``-based transport operators, the
triple-loop vertical remap, and a time step that packs a fresh padded
block per rank, transports each field in its own call and hands every
rank's updated blocks back as new arrays.  Its per-rank segments ran
through that commit's per-rank regions (``map_ranks``, since deleted),
whose charges replay in rank order; here they are the plain rank loops
that replay is defined to equal.

Copied from commit ``bb7bd1d`` (``src/repro/apps/fvcam/ppm.py``,
``dynamics.py``, ``vertical.py``, ``solver.py``); the courant numbers,
pressure gradient, polar-filter coefficients, work records and the
decomposition are imported because they are unchanged from that commit.
"""

from __future__ import annotations

import numpy as np

from repro.apps.fvcam.dynamics import (
    HALO,
    DynamicsParams,
    courant_lat,
    courant_lon,
    dynamics_work,
    geopotential,
    pressure_gradient,
)
from repro.apps.fvcam.physics import PhysicsParams, physics_work
from repro.apps.fvcam.polarfilter import damping_coefficients, filter_work
from repro.apps.fvcam.solver import FVCAMParams, initial_state, initial_tracer
from repro.apps.fvcam.vertical import remap_work
from repro.simmpi.comm import Communicator, Message

# -- transport operators (ppm.py) -------------------------------------------


def seed_shift(
    q: np.ndarray, n: int, periodic: bool, axis: int = -1
) -> np.ndarray:
    out = np.roll(q, n, axis=axis)
    if not periodic:
        # clamp: replicate edge values into the wrapped slots
        idx = [slice(None)] * q.ndim
        if n > 0:
            idx[axis] = slice(0, n)
            edge = [slice(None)] * q.ndim
            edge[axis] = slice(n, n + 1)
            out[tuple(idx)] = out[tuple(edge)]
        elif n < 0:
            idx[axis] = slice(q.shape[axis] + n, None)
            edge = [slice(None)] * q.ndim
            edge[axis] = slice(q.shape[axis] + n - 1, q.shape[axis] + n)
            out[tuple(idx)] = out[tuple(edge)]
    return out


def seed_upwind_flux(
    q: np.ndarray, courant: np.ndarray, periodic: bool = True, axis: int = -1
) -> np.ndarray:
    q_left = seed_shift(q, 1, periodic, axis)
    flux = np.where(courant >= 0.0, courant * q_left, courant * q)
    if not periodic:
        idx = [slice(None)] * q.ndim
        idx[axis] = slice(0, 1)
        flux[tuple(idx)] = 0.0
    return flux


def _seed_limited_slope(q: np.ndarray, periodic: bool, axis: int) -> np.ndarray:
    qm = seed_shift(q, 1, periodic, axis)
    qp = seed_shift(q, -1, periodic, axis)
    d_center = 0.5 * (qp - qm)
    d_min = 2.0 * (q - np.minimum(np.minimum(qm, q), qp))
    d_max = 2.0 * (np.maximum(np.maximum(qm, q), qp) - q)
    return np.sign(d_center) * np.minimum(
        np.abs(d_center), np.minimum(d_min, d_max)
    )


def seed_vanleer_flux(
    q: np.ndarray, courant: np.ndarray, periodic: bool = True, axis: int = -1
) -> np.ndarray:
    slope = _seed_limited_slope(q, periodic, axis)
    q_left = seed_shift(q, 1, periodic, axis)
    slope_left = seed_shift(slope, 1, periodic, axis)
    c = courant
    flux_pos = c * (q_left + 0.5 * slope_left * (1.0 - c))
    flux_neg = c * (q - 0.5 * slope * (1.0 + c))
    flux = np.where(c >= 0.0, flux_pos, flux_neg)
    if not periodic:
        idx = [slice(None)] * q.ndim
        idx[axis] = slice(0, 1)
        flux[tuple(idx)] = 0.0
    return flux


def seed_advect(
    q: np.ndarray, flux: np.ndarray, periodic: bool = True, axis: int = -1
) -> np.ndarray:
    flux_out = seed_shift(flux, -1, periodic, axis)
    if not periodic:
        idx = [slice(None)] * q.ndim
        idx[axis] = slice(q.shape[axis] - 1, None)
        flux_out[tuple(idx)] = 0.0
    return q - (flux_out - flux)


def seed_transport_2d(grid, q, cu, cv) -> np.ndarray:
    q1 = seed_advect(q, seed_vanleer_flux(q, cu, True, -1), True, -1)
    return seed_advect(
        q1, seed_vanleer_flux(q1, cv, periodic=False, axis=-2), False, -2
    )


# -- vertical remap (vertical.py) ----------------------------------------------


def seed_remap_column(
    h: np.ndarray, fields: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    km = h.shape[0]
    if (h <= 0).any():
        raise ValueError("layer thicknesses must be positive")
    flat_h = h.reshape(km, -1)
    ncol = flat_h.shape[1]
    flat_fields = [f.reshape(km, -1) for f in fields]
    src_edges = np.vstack([np.zeros((1, ncol)), np.cumsum(flat_h, axis=0)])
    total = src_edges[-1]
    tgt_h = np.repeat(total[None, :] / km, km, axis=0)
    tgt_edges = np.vstack([np.zeros((1, ncol)), np.cumsum(tgt_h, axis=0)])
    new_fields = [np.zeros_like(flat_h) for _ in fields]
    for t in range(km):
        lo_t, hi_t = tgt_edges[t], tgt_edges[t + 1]
        for s in range(km):
            lo_s, hi_s = src_edges[s], src_edges[s + 1]
            overlap = np.minimum(hi_t, hi_s) - np.maximum(lo_t, lo_s)
            overlap = np.maximum(overlap, 0.0)
            for f_new, f_src in zip(new_fields, flat_fields):
                f_new[t] += overlap * f_src[s]
    out_fields = [(f_new / tgt_h).reshape(h.shape) for f_new in new_fields]
    return tgt_h.reshape(h.shape), out_fields


# -- the per-rank step (solver.py) ---------------------------------------------


class SeedFVCAM:
    """The per-rank FVCAM driver, with the observable surface the tests
    compare: ``h``/``u``/``v``/``q`` rank lists and ``global_fields``."""

    def __init__(self, params: FVCAMParams, comm: Communicator) -> None:
        self.params = params
        self.grid = params.grid
        self.comm = comm
        self.decomp = params.decomposition()
        self.level_groups = self.decomp.make_level_groups(comm)
        self.dyn = DynamicsParams(dt=params.dt)
        self.phys = PhysicsParams()
        self._filter_coefs = damping_coefficients(self.grid)
        h, u, v = initial_state(
            self.grid, params.h0, params.bump_amplitude, params.u0
        )
        self.h = self.decomp.scatter(h)
        self.u = self.decomp.scatter(u)
        self.v = self.decomp.scatter(v)
        self.h_ref = self.decomp.scatter(h * 0 + params.h0 / self.grid.km)
        self.q = None
        if params.with_tracer:
            self.q = self.decomp.scatter(initial_tracer(self.grid))
        self.step_count = 0

    def _fields(self):
        if self.q is None:
            return (self.h, self.u, self.v)
        return (self.h, self.u, self.v, self.q)

    def _padded_coslat(self, rank: int) -> np.ndarray:
        ls = self.decomp.lat_slice(rank)
        idx = np.arange(ls.start - HALO, ls.stop + HALO)
        idx = np.clip(idx, 0, self.grid.jm - 1)
        return self.grid.coslat[idx]

    def _padded(self) -> list[np.ndarray]:
        padded = []
        for rank in range(self.comm.nprocs):
            km_l, jm_l, im = self.decomp.local_shape(rank)
            fields = self._fields()
            block = np.empty((len(fields), km_l, jm_l + 2 * HALO, im))
            for f, arr in enumerate(fields):
                block[f, :, HALO:-HALO, :] = arr[rank]
                block[f, :, :HALO, :] = arr[rank][:, :1, :]
                block[f, :, -HALO:, :] = arr[rank][:, -1:, :]
            padded.append(block)
        messages = []
        for rank in range(self.comm.nprocs):
            south, north = self.decomp.lat_neighbors(rank)
            core = padded[rank][:, :, HALO:-HALO, :]
            if south is not None:
                messages.append(Message(rank, south, core[:, :, :HALO, :], tag=0))
            if north is not None:
                messages.append(
                    Message(rank, north, core[:, :, -HALO:, :], tag=1)
                )
        received = self.comm.exchange(messages)
        counters: dict[int, int] = {}
        for m in messages:
            i = counters.get(m.dst, 0)
            counters[m.dst] = i + 1
            payload = received[m.dst][i]
            if m.tag == 0:
                padded[m.dst][:, :, -HALO:, :] = payload
            else:
                padded[m.dst][:, :, :HALO, :] = payload
        return padded

    def _geopotential(self, padded) -> list[np.ndarray]:
        g = self.grid.gravity
        if self.decomp.pz == 1:
            return [geopotential(p[0], g) for p in padded]
        block_sums = {r: p[0].sum(axis=0) for r, p in enumerate(padded)}
        messages = []
        for rank in range(self.comm.nprocs):
            y, z = self.decomp.coords(rank)
            for z_above in range(z):
                messages.append(
                    Message(
                        rank,
                        self.decomp.rank_of(y, z_above),
                        block_sums[rank],
                        tag=z,
                    )
                )
        received = self.comm.exchange(messages)
        phis = []
        for rank, p in enumerate(padded):
            suffix = np.cumsum(p[0][::-1], axis=0)[::-1]
            below = np.zeros_like(block_sums[rank])
            for plane in received.get(rank, []):
                below += plane
            phis.append(g * (suffix + below[None, :, :]))
        return phis

    def _sweep(self, rank: int, padded, phis):
        grid, decomp, dt = self.grid, self.decomp, self.params.dt
        km_l, jm_l, im = decomp.local_shape(rank)
        coslat_pad = self._padded_coslat(rank)
        h_pad, u_pad, v_pad = padded[rank][:3]
        q_pad = padded[rank][3] if self.q is not None else None
        cu = courant_lon(grid, u_pad, coslat_pad, dt)
        cv = courant_lat(grid, v_pad, dt)
        y, _ = decomp.coords(rank)
        if y == 0:
            cv[:, : HALO + 1, :] = 0.0
        if y == decomp.py - 1:
            cv[:, jm_l + HALO :, :] = 0.0

        H = h_pad * coslat_pad[None, :, None]
        H_new = seed_transport_2d(grid, H, cu, cv)
        u_new = seed_transport_2d(grid, u_pad, cu, cv)
        v_new = seed_transport_2d(grid, v_pad, cu, cv)
        if q_pad is not None:
            QH_new = seed_transport_2d(grid, q_pad * H, cu, cv)
        du, dv = pressure_gradient(grid, phis[rank], coslat_pad, dt)
        u_new += du
        v_new += dv

        crop = slice(HALO, HALO + jm_l)
        h = H_new[:, crop, :] / coslat_pad[None, crop, None]
        q = QH_new[:, crop, :] / H_new[:, crop, :] if q_pad is not None else None
        u = u_new[:, crop, :] * (1.0 - dt * self.dyn.drag)
        v = v_new[:, crop, :] * (1.0 - dt * self.dyn.drag)

        q_mass = q * h if q is not None else None
        targets = [h, u, v] + ([q_mass] if q_mass is not None else [])
        ls = decomp.lat_slice(rank)
        rows_global = grid.filtered_rows
        sel = (rows_global >= ls.start) & (rows_global < ls.stop)
        if sel.any():
            rows_local = rows_global[sel] - ls.start
            coefs = self._filter_coefs[sel]
            for arr in targets:
                spectrum = np.fft.rfft(arr[:, rows_local, :], axis=-1)
                spectrum *= coefs
                arr[:, rows_local, :] = np.fft.irfft(
                    spectrum, n=grid.im, axis=-1
                )
        if q_mass is not None:
            q = q_mass / h

        self.comm.compute(rank, dynamics_work(grid, km_l * jm_l * im))
        rows = rows_global[sel]
        self.comm.compute(
            rank, filter_work(grid, max(len(rows), 0) * km_l or 1)
        )
        return h, u, v, q

    def step(self) -> None:
        with self.comm.phase("halo"):
            padded = self._padded()
        with self.comm.phase("geopotential"):
            phis = self._geopotential(padded)
        with self.comm.phase("dynamics"):
            for rank in range(self.comm.nprocs):
                h, u, v, q = self._sweep(rank, padded, phis)
                self.h[rank], self.u[rank], self.v[rank] = h, u, v
                if self.q is not None:
                    self.q[rank] = q
        self.step_count += 1
        if (
            self.params.with_physics
            and self.step_count % self.params.physics_interval == 0
        ):
            with self.comm.phase("physics"):
                self._physics(self.params.dt * self.params.physics_interval)
        if self.step_count % self.params.remap_interval == 0:
            with self.comm.phase("remap"):
                self._remap()

    def _physics(self, dt: float) -> None:
        km = self.grid.km
        scale = dt / self.phys.tau_thermal
        nprocs = self.comm.nprocs
        raw = [(self.h_ref[r] - self.h[r]) * scale for r in range(nprocs)]
        if self.decomp.pz == 1:
            means = [raw[r].mean(axis=0, keepdims=True) for r in range(nprocs)]
        else:
            means = [None] * nprocs
            for group in self.level_groups:
                summed = group.allreduce(
                    [raw[grank].sum(axis=0) for grank in group.ranks]
                )
                for local, grank in enumerate(group.ranks):
                    means[grank] = (summed[local] / km)[None, :, :]
        damp = 1.0 - dt / self.phys.tau_drag
        for r in range(nprocs):
            self.h[r] = self.h[r] + raw[r] - means[r]
            self.u[r] = self.u[r] * damp
            self.v[r] = self.v[r] * damp
            km_l, jm_l, im = self.decomp.local_shape(r)
            self.comm.compute(r, physics_work(self.grid, km_l * jm_l * im))

    def _remap(self) -> None:
        grid = self.grid
        if self.decomp.pz == 1:
            for r in range(self.comm.nprocs):
                fields = [self.u[r], self.v[r]]
                if self.q is not None:
                    fields.append(self.q[r])
                h, out = seed_remap_column(self.h[r], fields)
                _, jm_l, im = self.decomp.local_shape(r)
                self.comm.compute(r, remap_work(grid, jm_l * im))
                self.h[r], self.u[r], self.v[r] = h, out[0], out[1]
                if self.q is not None:
                    self.q[r] = out[2]
            return
        for group in self.level_groups:
            gsize = len(group.ranks)
            lon_bounds = np.linspace(0, grid.im, gsize + 1).astype(int)
            field_lists = self._fields()
            send = [
                [
                    np.stack(
                        [
                            arr[grank][:, :, lon_bounds[j] : lon_bounds[j + 1]]
                            for arr in field_lists
                        ]
                    )
                    for j in range(gsize)
                ]
                for grank in group.ranks
            ]
            recv = group.alltoallv(send)
            sent_back = []
            km_l = grid.km // gsize
            for local, grank in enumerate(group.ranks):
                stacked = np.concatenate(recv[local], axis=1)
                h, out = seed_remap_column(stacked[0], list(stacked[1:]))
                self.comm.compute(
                    grank, remap_work(grid, h.shape[1] * h.shape[2])
                )
                all_fields = [h, *out]
                sent_back.append(
                    [
                        np.stack(
                            [f[j * km_l : (j + 1) * km_l] for f in all_fields]
                        )
                        for j in range(gsize)
                    ]
                )
            back = group.alltoallv(sent_back)
            for local, grank in enumerate(group.ranks):
                restored = np.concatenate(back[local], axis=3)
                self.h[grank] = restored[0].copy()
                self.u[grank] = restored[1].copy()
                self.v[grank] = restored[2].copy()
                if self.q is not None:
                    self.q[grank] = restored[3].copy()

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def global_fields(self):
        return (
            self.decomp.gather(self.h),
            self.decomp.gather(self.u),
            self.decomp.gather(self.v),
        )
