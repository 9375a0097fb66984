"""FVCAM driver: parallel finite-volume dynamics + remap + physics.

Each simulated rank owns a (levels, latitudes, longitudes) block of the
2-D (latitude, level) decomposition.  A time step is:

1. latitude halo exchange (2 ghost rows, van Leer stencil width);
2. directionally split conservative transport of mass and winds;
3. geopotential by vertical suffix sums — partial sums are combined
   across the level group (the low-volume vertical communication of
   Figure 2(b));
4. pressure-gradient wind update, FFT polar filter, column physics;
5. every ``remap_interval`` steps, the Lagrangian-surface remap, with
   the dynamics -> remap transposes inside each level group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...runtime.team import RegionArgs
from ...simmpi.comm import Communicator, Message
from ...workload import Work
from .decomp import FVDecomposition
from .dynamics import (
    HALO,
    DynamicsParams,
    courant_lat,
    courant_lon,
    dynamics_work,
)
from .grid import LatLonGrid
from .physics import PhysicsParams, physics_work
from .polarfilter import damping_coefficients, filter_work
from .vertical import remap_column, remap_work


@dataclass(frozen=True)
class FVCAMParams:
    """Configuration of an FVCAM run."""

    grid: LatLonGrid = field(default_factory=LatLonGrid)
    py: int = 1
    pz: int = 1
    dt: float = 60.0
    remap_interval: int = 4
    physics_interval: int = 4
    h0: float = 8000.0
    bump_amplitude: float = 80.0
    u0: float = 10.0
    with_physics: bool = True
    with_tracer: bool = False

    def decomposition(self) -> FVDecomposition:
        return FVDecomposition(grid=self.grid, py=self.py, pz=self.pz)


def initial_state(
    grid: LatLonGrid, h0: float, bump: float, u0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layered rest state + Gaussian height bump + weak zonal jet."""
    lats = grid.latitudes
    lons = grid.longitudes
    lon2d, lat2d = np.meshgrid(lons, lats)
    blob = bump * np.exp(
        -((lat2d - 0.35) ** 2 + (lon2d - np.pi) ** 2) / 0.18
    )
    h = np.repeat(
        (h0 / grid.km + blob)[None, :, :], grid.km, axis=0
    )
    u = np.repeat(
        (u0 * np.cos(lat2d))[None, :, :], grid.km, axis=0
    )
    v = np.zeros(grid.shape)
    return h, u, v


def initial_tracer(grid: LatLonGrid) -> np.ndarray:
    """A smooth [0, 1] tracer blob (specific concentration)."""
    lats = grid.latitudes
    lons = grid.longitudes
    lon2d, lat2d = np.meshgrid(lons, lats)
    blob = np.exp(-((lat2d + 0.3) ** 2 + (lon2d - np.pi / 2) ** 2) / 0.3)
    return np.repeat(blob[None, :, :], grid.km, axis=0)


@dataclass(frozen=True)
class _RankGeometry:
    """What a rank's step reads besides its fields, fixed at
    construction: the padded rows' metric, the polar-filter rows and the
    ``Work`` each phase charges (they depend on shapes only)."""

    jm_l: int
    #: cos(lat) on the padded rows, clamped at the walls
    coslat: np.ndarray
    #: latitude neighbours, ``None`` at a wall
    south: int | None
    north: int | None
    #: local rows the polar filter touches, and their damping factors
    filter_rows: np.ndarray
    filter_coefs: np.ndarray
    dynamics: Work
    filter: Work
    physics: Work
    remap: Work


# -- shard functions ---------------------------------------------------
#
# Module-level ``(lo, hi, args)`` callables (docs/executors.md), bound
# with ``functools.partial`` to the solver's ``RegionArgs``.  Each
# steps ranks ``lo:hi`` one rank at a time, in ascending order (the
# order the charges replay in), and writes its results in place through
# the arena views in ``args``.


def _colsum_shard(lo: int, hi: int, args) -> None:
    """Level-block column sums of the padded thickness (pz > 1)."""
    for rank in range(lo, hi):
        args.blocks[rank][0].sum(axis=0, out=args.colsum[rank])


def _sweep_shard(lo: int, hi: int, args) -> None:
    """Geopotential, transport, pressure gradient, drag and polar
    filter, written back into each block's core."""
    grid, dt, kernels = args.grid, args.dt, args.kernels
    for rank in range(lo, hi):
        geo = args.geometry[rank]
        block, core = args.blocks[rank], args.cores[rank]
        if args.levels_split:
            suffix = kernels.fvcam_suffix_sum(block[0])
            phi = grid.gravity * (suffix + args.below[rank][None, :, :])
        else:
            phi = kernels.fvcam_geopotential(block[0], grid.gravity)
        cu = courant_lon(grid, block[1], geo.coslat, dt)
        cv = courant_lat(grid, block[2], dt)
        # wall faces carry no meridional flux
        if geo.south is None:
            cv[:, : HALO + 1, :] = 0.0
        if geo.north is None:
            cv[:, geo.jm_l + HALO :, :] = 0.0

        # the block becomes what is transported, all in one call: the
        # area-weighted mass H, the winds and, with a tracer, the
        # tracer mass QH — advected with the same fluxes, it keeps a
        # constant concentration exactly constant
        block[0] *= geo.coslat[None, :, None]
        if args.tracer:
            block[3] *= block[0]
        new = kernels.fvcam_transport_2d(grid, block, cu, cv)
        du, dv = kernels.fvcam_pressure_gradient(grid, phi, geo.coslat, dt)
        new[1] += du
        new[2] += dv

        crop = slice(HALO, HALO + geo.jm_l)
        H = new[0, :, crop, :]
        np.divide(H, geo.coslat[None, crop, None], out=core[0])
        damp = 1.0 - dt * args.drag
        np.multiply(new[1:3, :, crop, :], damp, out=core[1:3])
        if args.tracer:
            # tracer *mass* rides through the filter (which smooths air
            # and tracer consistently); the column physics afterwards
            # moves air at the local concentration, i.e. it preserves
            # the mixing ratio q rather than the tracer mass.
            np.multiply(new[3, :, crop, :] / H, core[0], out=core[3])
        if len(geo.filter_rows):
            spectrum = np.fft.rfft(core[:, :, geo.filter_rows, :], axis=-1)
            spectrum *= geo.filter_coefs
            core[:, :, geo.filter_rows, :] = np.fft.irfft(
                spectrum, n=grid.im, axis=-1
            )
        if args.tracer:
            core[3] /= core[0]
        args.comm.compute(rank, geo.dynamics)
        args.comm.compute(rank, geo.filter)


def _relax_shard(lo: int, hi: int, args) -> None:
    """The thermal increment of each rank, and its column mean — or,
    with the column split over the level group, its column sum for the
    group's allreduce."""
    for rank in range(lo, hi):
        raw, mean = args.raw[rank], args.mean[rank]
        np.multiply(args.h_ref - args.cores[rank][0], args.scale, out=raw)
        if args.levels_split:
            raw.sum(axis=0, out=mean)
        else:
            raw.mean(axis=0, out=mean)


def _physics_shard(lo: int, hi: int, args) -> None:
    """Apply the mass-neutral thermal increment and the wind drag."""
    for rank in range(lo, hi):
        core = args.cores[rank]
        core[0] = core[0] + args.raw[rank] - args.mean[rank][None, :, :]
        core[1:3] *= args.damp
        args.comm.compute(rank, args.geometry[rank].physics)


def _remap_shard(lo: int, hi: int, args) -> None:
    """Remap each rank's full columns in place: its own block's core
    (pz == 1) or the columns the forward transpose gathered."""
    for rank in range(lo, hi):
        columns = args.columns[rank]
        h, out = remap_column(columns[0], list(columns[1:]))
        for dst, src in zip(columns, [h, *out]):
            dst[...] = src
        args.comm.compute(rank, args.geometry[rank].remap)


class FVCAM:
    """Parallel FVCAM mini-app over a simulated communicator.

    Each rank's prognostic fields (h, u, v and, with a tracer, q) live
    stacked in one ghost-padded ``(nf, km_l, jm_l + 2 HALO, im)`` arena
    block — per rank, since a latitude split may be ragged.  The halo
    exchange fills the ghost rows in place, and every phase is one
    ``map_shards`` region whose shards write their ranks' results back
    into the blocks.  ``arena`` is where those buffers live; without one
    the solver takes its own from the communicator's executor.
    """

    app_key = "fvcam"
    #: IPM phase labels of one step (physics/remap fire on their
    #: intervals only).
    phases = ("halo", "geopotential", "dynamics", "physics", "remap")

    def __init__(
        self,
        params: FVCAMParams,
        comm: Communicator,
        arena: Arena | None = None,
        kernels: "str | KernelBackend | None" = None,
    ) -> None:
        self.params = params
        self.grid = grid = params.grid
        self.comm = comm
        self.arena = comm.executor.adopt(arena, "fvcam")
        self.kernels = get_backend(kernels)
        self.decomp = decomp = params.decomposition()
        if comm.nprocs != decomp.nprocs:
            raise ValueError(
                f"communicator has {comm.nprocs} ranks, decomposition "
                f"needs {decomp.nprocs}"
            )
        self.level_groups = decomp.make_level_groups(comm)
        self.dyn = DynamicsParams(dt=params.dt)
        self.phys = PhysicsParams()
        #: the remap's longitude split inside a level group
        self._lon_bounds = np.linspace(0, grid.im, decomp.pz + 1).astype(int)
        coefs = damping_coefficients(grid)
        self._geometry = [
            self._rank_geometry(r, coefs) for r in range(comm.nprocs)
        ]

        fields = initial_state(
            grid, params.h0, params.bump_amplitude, params.u0
        )
        if params.with_tracer:
            fields += (initial_tracer(grid),)
        nf = len(fields)

        # every buffer a rank's step touches, allocated here: per rank
        # (a latitude split may be ragged), from the rank's child arena
        shapes = [decomp.local_shape(r) for r in range(comm.nprocs)]

        def per_rank(key: str, sizes: list[tuple]) -> list[np.ndarray]:
            return [
                self.arena.for_rank(r).scratch(key, size)
                for r, size in enumerate(sizes)
            ]

        self._blocks = per_rank(
            "fvcam.fields", [(nf, k, j + 2 * HALO, i) for k, j, i in shapes]
        )
        self._cores = [b[:, :, HALO:-HALO, :] for b in self._blocks]
        for f, global_field in enumerate(fields):
            for core, local in zip(self._cores, decomp.scatter(global_field)):
                core[f] = local
        levels_split = decomp.pz > 1
        if levels_split:
            planes = [(j + 2 * HALO, i) for _, j, i in shapes]
            self._colsum = per_rank("fvcam.colsum", planes)
            self._below = per_rank("fvcam.below", planes)
            self._columns = per_rank(
                "fvcam.columns",
                [
                    (nf, grid.km, j, self._lon_width(r))
                    for r, (_, j, _) in enumerate(shapes)
                ],
            )
        else:
            # whole columns are local: no partial sums, no transposes
            self._colsum = self._below = None
            self._columns = self._cores
        physics_dt = params.dt * params.physics_interval
        self._args = RegionArgs(
            comm=comm,
            kernels=self.kernels,
            grid=grid,
            dt=params.dt,
            drag=self.dyn.drag,
            tracer=params.with_tracer,
            levels_split=levels_split,
            geometry=self._geometry,
            blocks=self._blocks,
            cores=self._cores,
            colsum=self._colsum,
            below=self._below,
            raw=per_rank("fvcam.raw", shapes),
            mean=per_rank("fvcam.mean", [(j, i) for _, j, i in shapes]),
            columns=self._columns,
            # the reference thickness the thermal physics relaxes to
            h_ref=params.h0 / grid.km,
            scale=physics_dt / self.phys.tau_thermal,
            damp=1.0 - physics_dt / self.phys.tau_drag,
        )
        self.step_count = 0

    def _lon_width(self, rank: int) -> int:
        """Longitudes of a rank's full columns in the remap."""
        z = self.decomp.coords(rank)[1]
        return int(self._lon_bounds[z + 1] - self._lon_bounds[z])

    def _rank_geometry(self, rank: int, coefs: np.ndarray) -> _RankGeometry:
        grid, decomp = self.grid, self.decomp
        km_l, jm_l, im = decomp.local_shape(rank)
        ls = decomp.lat_slice(rank)
        rows = np.clip(
            np.arange(ls.start - HALO, ls.stop + HALO), 0, grid.jm - 1
        )
        filtered = grid.filtered_rows
        sel = (filtered >= ls.start) & (filtered < ls.stop)
        south, north = decomp.lat_neighbors(rank)
        points = km_l * jm_l * im
        return _RankGeometry(
            jm_l=jm_l,
            coslat=grid.coslat[rows],
            south=south,
            north=north,
            filter_rows=filtered[sel] - ls.start,
            filter_coefs=coefs[sel],
            dynamics=dynamics_work(grid, points),
            filter=filter_work(grid, int(sel.sum()) * km_l or 1),
            physics=physics_work(grid, points),
            remap=remap_work(grid, jm_l * self._lon_width(rank)),
        )

    # -- the prognostic fields, as per-rank views ------------------------

    def _field(self, f: int) -> list[np.ndarray]:
        return [core[f] for core in self._cores]

    @property
    def h(self) -> list[np.ndarray]:
        """Per-rank layer-thickness views (write through them; the list
        itself is not state)."""
        return self._field(0)

    @property
    def u(self) -> list[np.ndarray]:
        return self._field(1)

    @property
    def v(self) -> list[np.ndarray]:
        return self._field(2)

    @property
    def q(self) -> list[np.ndarray] | None:
        """Per-rank tracer views, or ``None`` without a tracer."""
        return self._field(3) if self.params.with_tracer else None

    # -- time stepping ---------------------------------------------------------

    def step(self) -> None:
        # shards write the blocks in place: once the arena's shared
        # memory is gone (its executor was closed) team workers would
        # write copies, so refuse instead of losing the step
        self.comm.executor.adopt(self.arena)
        with self.comm.phase("halo"):
            self._halo()
        with self.comm.phase("geopotential"):
            self._geopotential()
        with self.comm.phase("dynamics"):
            self.comm.map_shards(partial(_sweep_shard, args=self._args))

        self.step_count += 1
        # As in CAM itself, the physics runs on the long time step, with
        # several dynamics sub-steps beneath it.
        if (
            self.params.with_physics
            and self.step_count % self.params.physics_interval == 0
        ):
            with self.comm.phase("physics"):
                self._physics_phase()
        if self.step_count % self.params.remap_interval == 0:
            with self.comm.phase("remap"):
                self.remap()

    def _halo(self) -> None:
        """Fill every block's ghost rows in place: the neighbour's edge
        rows where there is one, the block's own edge row at a wall."""
        messages = []
        for rank, (block, core) in enumerate(zip(self._blocks, self._cores)):
            geo = self._geometry[rank]
            if geo.south is None:
                block[:, :, :HALO, :] = core[:, :, :1, :]
            else:
                messages.append(
                    Message(rank, geo.south, core[:, :, :HALO, :], tag=0)
                )
            if geo.north is None:
                block[:, :, -HALO:, :] = core[:, :, -1:, :]
            else:
                messages.append(
                    Message(rank, geo.north, core[:, :, -HALO:, :], tag=1)
                )
        received = self.comm.exchange(messages)
        inbox = {dst: iter(payloads) for dst, payloads in received.items()}
        for m in messages:
            block = self._blocks[m.dst]
            # a south-going block fills the receiver's north ghost rows
            ghost = slice(-HALO, None) if m.tag == 0 else slice(None, HALO)
            block[:, :, ghost, :] = next(inbox[m.dst])

    # -- vertical geopotential ----------------------------------------------

    def _geopotential(self) -> None:
        """Combine the level group's partial column sums (pz > 1).

        Each rank sends its level-block column-sum plane to the ranks
        holding *higher* layers (smaller level index) — the low-volume
        vertical communication that shows up as the ``Pz - 1`` lines
        parallel to the diagonal in Figure 2(b).  What a rank receives
        is summed into its ``below`` plane, which the dynamics sweep
        adds to its own suffix sum.
        """
        if self.decomp.pz == 1:
            return
        self.comm.map_shards(partial(_colsum_shard, args=self._args))
        messages = []
        for rank in range(self.comm.nprocs):
            y, z = self.decomp.coords(rank)
            for z_above in range(z):  # ranks holding higher layers
                messages.append(
                    Message(
                        rank,
                        self.decomp.rank_of(y, z_above),
                        self._colsum[rank],
                        tag=z,
                    )
                )
        received = self.comm.exchange(messages)
        for rank, below in enumerate(self._below):
            below[...] = 0.0
            for plane in received.get(rank, []):
                below += plane

    # -- physics phase ---------------------------------------------------

    def _physics_phase(self) -> None:
        """Column physics: relaxation de-meaned over the *full* column.

        The thermal increment must be mass-neutral per column; with
        ``pz > 1`` the column spans the level group, so the vertical
        mean is combined across it — the same reason real CAM runs its
        physics in a whole-column decomposition.
        """
        self.comm.map_shards(partial(_relax_shard, args=self._args))
        if self.decomp.pz > 1:
            mean = self._args.mean
            for group in self.level_groups:
                summed = group.allreduce([mean[g] for g in group.ranks])
                for local, grank in enumerate(group.ranks):
                    np.divide(summed[local], self.grid.km, out=mean[grank])
        self.comm.map_shards(partial(_physics_shard, args=self._args))

    # -- remap phase ---------------------------------------------------------

    def remap(self) -> None:
        """Vertical remap, transposing level blocks within each group.

        With ``pz > 1`` every group's forward transpose runs first —
        ``(km/pz, jm_l, im)`` blocks to ``(km, jm_l, im/pz)`` columns —
        then one region remaps every member's columns, then the
        backward transposes put them back.
        """
        if self.decomp.pz == 1:
            self.comm.map_shards(partial(_remap_shard, args=self._args))
            return
        lon = self._lon_bounds
        pz = self.decomp.pz
        km_l = self.grid.km // pz
        for group in self.level_groups:
            recv = group.alltoallv(
                [
                    [self._cores[g][..., lon[j] : lon[j + 1]] for j in range(pz)]
                    for g in group.ranks
                ]
            )
            # each member's full columns, gathered level block by block
            for local, grank in enumerate(group.ranks):
                np.concatenate(recv[local], axis=1, out=self._columns[grank])
        self.comm.map_shards(partial(_remap_shard, args=self._args))
        for group in self.level_groups:
            back = group.alltoallv(
                [
                    [
                        self._columns[g][:, j * km_l : (j + 1) * km_l]
                        for j in range(pz)
                    ]
                    for g in group.ranks
                ]
            )
            for local, grank in enumerate(group.ranks):
                core = self._cores[grank]
                for j, chunk in enumerate(back[local]):
                    core[..., lon[j] : lon[j + 1]] = chunk

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # -- checkpoint/restart ------------------------------------------------

    def _field_names(self) -> tuple[str, ...]:
        return ("h", "u", "v") + (("q",) if self.params.with_tracer else ())

    def checkpoint_state(self) -> dict:
        """Snapshot the prognostic fields (``Checkpointable``).

        The reference state and the damping coefficients are
        constants; the ghost rows are refilled every dynamics step.
        """
        snap: dict = {"step_count": self.step_count}
        for f, name in enumerate(self._field_names()):
            snap[name] = [np.array(a, copy=True) for a in self._field(f)]
        return snap

    def restore_state(self, snapshot: dict) -> None:
        if len(snapshot["h"]) != self.comm.nprocs:
            raise ValueError("checkpoint rank count mismatch")
        # copy in place: the views are into the blocks step() reads
        for f, name in enumerate(self._field_names()):
            for dst, src in zip(self._field(f), snapshot[name]):
                dst[...] = src
        self.step_count = int(snapshot["step_count"])

    # -- observation -------------------------------------------------------------

    def global_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            self.decomp.gather(self.h),
            self.decomp.gather(self.u),
            self.decomp.gather(self.v),
        )

    def global_tracer(self) -> np.ndarray:
        if self.q is None:
            raise RuntimeError("run with with_tracer=True")
        return self.decomp.gather(self.q)

    def _coslat(self, rank: int) -> np.ndarray:
        """cos(lat) of a rank's own rows, broadcastable over a field."""
        geo = self._geometry[rank]
        return geo.coslat[None, HALO : HALO + geo.jm_l, None]

    def tracer_mass(self) -> float:
        """Area-weighted tracer mass (sum of q h cos(lat); conserved)."""
        if self.q is None:
            raise RuntimeError("run with with_tracer=True")
        return sum(
            float((q * h * self._coslat(rank)).sum())
            for rank, (q, h) in enumerate(zip(self.q, self.h))
        )

    def total_mass(self) -> float:
        """Area-weighted global mass (conserved to round-off)."""
        return sum(
            float((h * self._coslat(rank)).sum())
            for rank, h in enumerate(self.h)
        )

    @property
    def flops_per_step(self) -> float:
        points = self.grid.total_points
        w = dynamics_work(self.grid, points).flops
        if self.params.with_physics:
            w += physics_work(self.grid, points).flops
        return w
