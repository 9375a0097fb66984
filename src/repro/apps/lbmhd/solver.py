"""LBMHD3D driver: the paper's lattice Boltzmann MHD application.

"LBMHD3D simulates the behavior of a three-dimensional conducting fluid
evolving from simple initial conditions through the onset of
turbulence."  The default initial condition is the 3-D Orszag–Tang-like
vortex used in the LBM-MHD literature, whose "well-defined tube-like
structures" of vorticity distort into turbulence (the paper's
Figure 6).

The solver runs all simulated ranks in-process against a
:class:`repro.simmpi.Communicator`; pass an ideal (machine-less)
communicator for pure-numerics work or a platform-backed one to collect
virtual timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...simmpi.comm import Communicator
from .collision import CollisionParams, collision_work
from .decomp import CartesianDecomposition3D, exchange_halos_block
from .equilibrium import f_equilibrium, g_equilibrium
from .fields import (
    kinetic_energy,
    magnetic_energy,
    magnetic_field,
    moments,
    split_state,
)
from .lattice import NSLOTS


@dataclass(frozen=True)
class LBMHDParams:
    """Physical and numerical parameters of an LBMHD3D run.

    Attributes
    ----------
    shape:
        Global lattice dimensions ``(gx, gy, gz)``.
    tau, tau_m:
        BGK relaxation times (viscosity / resistivity).
    u0, b0:
        Amplitudes of the initial velocity and magnetic vortices.
    """

    shape: tuple[int, int, int] = (16, 16, 16)
    tau: float = 0.8
    tau_m: float = 0.8
    u0: float = 0.05
    b0: float = 0.05
    use_mrt: bool = False
    tau_ghost: float = 1.0

    def __post_init__(self) -> None:
        if any(n < 4 for n in self.shape):
            raise ValueError("lattice must be at least 4 cells per side")
        if abs(self.u0) > 0.2 or abs(self.b0) > 0.2:
            raise ValueError("initial amplitudes must stay well below c_s")

    @property
    def collision(self) -> CollisionParams:
        return CollisionParams(tau=self.tau, tau_m=self.tau_m)

    @property
    def mrt(self):
        from .mrt import MRTParams

        return MRTParams(
            tau=self.tau,
            tau_m=self.tau_m,
            tau_ghost=self.tau_ghost,
            tau_ghost_m=self.tau_ghost,
        )


def orszag_tang_fields(
    shape: tuple[int, int, int], u0: float, b0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial (rho, u, B): a 3-D Orszag–Tang-like vortex.

    Divergence-free velocity and magnetic fields built from sinusoids,
    the standard onset-of-MHD-turbulence configuration.
    """
    gx, gy, gz = shape
    x = 2.0 * np.pi * np.arange(gx) / gx
    y = 2.0 * np.pi * np.arange(gy) / gy
    z = 2.0 * np.pi * np.arange(gz) / gz
    X, Y, Z = np.meshgrid(x, y, z, indexing="ij")

    rho = np.ones(shape)
    u = np.stack(
        [
            -u0 * np.sin(Y) * np.cos(Z),
            u0 * np.sin(X) * np.cos(Z),
            u0 * np.sin(X) * np.cos(Y) * 0.0,
        ]
    )
    B = np.stack(
        [
            -b0 * np.sin(Y),
            b0 * np.sin(2.0 * X),
            np.zeros(shape),
        ]
    )
    return rho, u, B


def equilibrium_state(
    rho: np.ndarray, u: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """Packed equilibrium state for given macroscopic fields."""
    shape = rho.shape
    state = np.empty((NSLOTS, *shape))
    f, g = split_state(state)
    f[:] = f_equilibrium(rho, u, B)
    g[:] = g_equilibrium(u, B).reshape(g.shape)
    return state


# -- rank segments -----------------------------------------------------
#
# Module-level ``(lo, hi, args)`` shard callables (docs/executors.md)
# bound once per region with ``functools.partial`` to ``args``, a
# namespace of region inputs.  They write through arena views in
# ``args`` (shared memory under a process executor) — never through
# private parent memory, which a team worker cannot reach.


#: Lattice points one batched collide call covers at most: enough to
#: amortise the call, and a bound (about 0.8 KB a point) on the
#: workspace a solver keeps between steps however many ranks a shard
#: holds — a serial executor's one shard is the whole lattice.
_COLLIDE_BATCH_POINTS = 16384


def _collide_shard(lo: int, hi: int, args) -> None:
    """Collide ranks ``lo:hi`` of the state block straight into the
    ghost-padded core: no separate post-collision buffer, no pack copy.
    BGK runs batched over a few ranks a call, its scratch drawn from
    the shard's own child arena so concurrent shards never alias a
    workspace; the projected-MRT operator runs rank by rank."""
    if args.mrt is None:
        scratch = args.arena.for_rank(lo)
        batch = max(1, _COLLIDE_BATCH_POINTS // args.block[0, 0].size)
        for a in range(lo, hi, batch):
            b = min(a + batch, hi)
            args.kernels.lbmhd_collide(
                args.block[:, a:b],
                args.collision,
                out=args.core[:, a:b],
                arena=scratch,
            )
    else:
        from .mrt import collide_mrt

        for rank in range(lo, hi):
            args.core[:, rank] = collide_mrt(args.block[:, rank], args.mrt)
    for rank in range(lo, hi):
        args.comm.compute(rank, args.work)


def _stream_shard(lo: int, hi: int, args) -> None:
    """Stream ranks ``lo:hi``: padded block back into the state block."""
    args.kernels.lbmhd_stream_from_padded(
        args.padded[:, lo:hi], out=args.block[:, lo:hi]
    )


@dataclass
class Diagnostics:
    """Global conserved/monitored quantities at one step."""

    step: int
    mass: float
    momentum: tuple[float, float, float]
    total_B: tuple[float, float, float]
    kinetic_energy: float
    magnetic_energy: float


class LBMHD3D:
    """Parallel LBMHD3D simulation over a simulated communicator.

    All rank states live side by side in one ``(NSLOTS, nranks, lx, ly,
    lz)`` arena block: collision runs batched over a shard of ranks at
    a time into a persistent ghost-padded buffer, the halo exchange
    moves boundary planes inside that buffer, and streaming writes
    straight back into the state block — no allocation at steady
    state.  ``arena`` is where those buffers live; without one the
    solver takes its own from the communicator's executor.
    """

    app_key = "lbmhd"
    #: IPM phase labels of one step.
    phases = ("collision", "stream")

    def __init__(
        self,
        params: LBMHDParams,
        comm: Communicator,
        arena: Arena | None = None,
        kernels: "str | KernelBackend | None" = None,
    ) -> None:
        self.params = params
        self.comm = comm
        self.arena = comm.executor.adopt(arena, "lbmhd")
        self.kernels = get_backend(kernels)
        self.decomp = CartesianDecomposition3D.create(params.shape, comm.nprocs)
        lx, ly, lz = self.decomp.local_shape
        self._state_block = self.arena.scratch(
            "lbmhd.state_block", (NSLOTS, comm.nprocs, lx, ly, lz)
        )
        # the equilibria are point-local and slicing-invariant: each
        # rank's block is bitwise its slice of the global state, which
        # therefore never has to exist
        rho, u, B = orszag_tang_fields(params.shape, params.u0, params.b0)
        for rank, dst in enumerate(self.states):
            own = (..., *self.decomp.local_slices(rank))
            dst[...] = equilibrium_state(rho[own], u[own], B[own])
        self.step_count = 0

    @property
    def states(self) -> list[np.ndarray]:
        """Per-rank views of the state block (write through them; the
        list itself is not state)."""
        return [self._state_block[:, r] for r in range(self.comm.nprocs)]

    # -- time stepping ---------------------------------------------------

    def step(self) -> None:
        """One fused collide+stream update across all ranks."""
        # shards write the block in place: once the arena's shared
        # memory is gone (its executor was closed) team workers would
        # write copies, so refuse instead of losing the step
        self.comm.executor.adopt(self.arena)
        nranks = self.comm.nprocs
        lx, ly, lz = self.decomp.local_shape
        padded_block = self.arena.scratch(
            "lbmhd.padded_block", (NSLOTS, nranks, lx + 2, ly + 2, lz + 2)
        )

        # One segment per shard of ranks; the kernels are point-local
        # with a pinned tile width, so any sharding (and any batching
        # within a shard) is bitwise-identical to the whole block and
        # to rank-by-rank calls.  Shards write disjoint ``[:, lo:hi]``
        # slices, so they are independent across worker threads and
        # team workers alike.
        args = SimpleNamespace(
            comm=self.comm,
            arena=self.arena,
            block=self._state_block,
            core=padded_block[:, :, 1 : lx + 1, 1 : ly + 1, 1 : lz + 1],
            padded=padded_block,
            collision=self.params.collision,
            mrt=self.params.mrt if self.params.use_mrt else None,
            work=collision_work(lx * ly * lz),
            kernels=self.kernels,
        )
        with self.comm.phase("collision"):
            self.comm.map_shards(partial(_collide_shard, args=args))

        with self.comm.phase("stream"):
            # a flat processor-grid axis wraps locally, at no charge
            exchange_halos_block(self.comm, self.decomp, padded_block)
            self.comm.map_shards(partial(_stream_shard, args=args))
        self.step_count += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # -- checkpoint/restart ------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Snapshot the distributions (``repro.resilience.Checkpointable``)."""
        return {
            "step_count": self.step_count,
            "states": [np.array(s, copy=True) for s in self.states],
        }

    def restore_state(self, snapshot: dict) -> None:
        states = snapshot["states"]
        if len(states) != len(self.states):
            raise ValueError("checkpoint rank count mismatch")
        # copy in place: states[r] are views into the block step() reads
        for dst, src in zip(self.states, states):
            dst[...] = src
        self.step_count = int(snapshot["step_count"])

    # -- observation ------------------------------------------------------

    def global_state(self) -> np.ndarray:
        """Assemble the full (72, gx, gy, gz) state (test/diagnostic use)."""
        return self.decomp.gather(self.states)

    def diagnostics(self) -> Diagnostics:
        """Globally summed conserved quantities (computed exactly)."""
        mass = 0.0
        mom = np.zeros(3)
        totB = np.zeros(3)
        ke = 0.0
        me = 0.0
        for state in self.states:
            rho, u, B = moments(state)
            f, g = split_state(state)
            mass += float(rho.sum())
            mom += np.einsum("ixyz,ia->a", f, _q27_float())
            totB += magnetic_field(g).reshape(3, -1).sum(axis=1)
            ke += kinetic_energy(rho, u)
            me += magnetic_energy(B)
        return Diagnostics(
            step=self.step_count,
            mass=mass,
            momentum=tuple(mom),
            total_B=tuple(totB),
            kinetic_energy=ke,
            magnetic_energy=me,
        )

    @property
    def flops_per_step(self) -> float:
        """Total useful flops per time step (all ranks)."""
        points = int(np.prod(self.params.shape))
        return collision_work(points).flops


def _q27_float() -> np.ndarray:
    from .lattice import Q27_VELOCITIES

    return Q27_VELOCITIES.astype(np.float64)
