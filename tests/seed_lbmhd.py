"""Reference LBMHD step loop: the seed commit's, kept as written.

An independent implementation for ``test_arena_fastpath`` to compare
:class:`~repro.apps.lbmhd.solver.LBMHD3D` against.  The seed commit's
kernels are preserved verbatim: per-call constant rederivation,
expression-style allocation in the equilibria, a fresh output state per
collide, and the per-rank pad/exchange/stream step loop.  The current
solver evaluates the same algebra in moment space, in a different
association order, so the two agree to round-off (``atol=1e-13``), not
bitwise.

Copied from commit ``a28b4e0`` (``src/repro/apps/lbmhd/equilibrium.py``,
``collision.py``, ``solver.py``); the pad/exchange/stream helpers are
imported because their default (allocating) behavior is unchanged from
that commit.
"""

from __future__ import annotations

import numpy as np

from repro.apps.lbmhd.collision import collision_work
from repro.apps.lbmhd.decomp import CartesianDecomposition3D, exchange_halos
from repro.apps.lbmhd.fields import magnetic_field, momentum, split_state
from repro.apps.lbmhd.lattice import (
    CS2,
    Q15_VELOCITIES,
    Q15_WEIGHTS,
    Q27_VELOCITIES,
    Q27_WEIGHTS,
)
from repro.apps.lbmhd.solver import (
    LBMHDParams,
    equilibrium_state,
    orszag_tang_fields,
)
from repro.apps.lbmhd.stream import (
    pad_state,
    stream_from_padded,
    stream_periodic,
)
from repro.simmpi.comm import Communicator


def seed_f_equilibrium(
    rho: np.ndarray, u: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """Seed-commit hydrodynamic equilibrium (allocating, shape (27, ...))."""
    xi = Q27_VELOCITIES.astype(np.float64)
    w = Q27_WEIGHTS

    xu = np.einsum("ia,a...->i...", xi, u)
    xB = np.einsum("ia,a...->i...", xi, B)
    u2 = (u**2).sum(axis=0)
    B2 = (B**2).sum(axis=0)

    xi2 = (xi**2).sum(axis=1)
    A_xixi = rho * xu**2 + 0.5 * np.multiply.outer(xi2, B2) - xB**2
    trA = rho * u2 + 0.5 * B2

    feq = w[(slice(None),) + (None,) * rho.ndim] * (
        rho + rho * xu / CS2 + (A_xixi - CS2 * trA) / (2.0 * CS2 * CS2)
    )
    return feq


def seed_g_equilibrium(u: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Seed-commit magnetic equilibrium (allocating, shape (15, 3, ...))."""
    eta = Q15_VELOCITIES.astype(np.float64)
    W = Q15_WEIGHTS

    lam = np.einsum("j...,k...->jk...", u, B) - np.einsum(
        "j...,k...->jk...", B, u
    )
    eta_lam = np.einsum("aj,jk...->ak...", eta, lam)

    shape_tail = (None,) * (u.ndim - 1)
    Wb = W[(slice(None), None) + shape_tail]
    geq = Wb * (B[None, ...] + eta_lam / CS2)
    return geq


def seed_collide(state: np.ndarray, params) -> np.ndarray:
    """Seed-commit BGK collision: fresh output state every call."""
    f, g = split_state(state)
    rho = f.sum(axis=0)
    u = momentum(f) / rho
    B = magnetic_field(g)

    feq = seed_f_equilibrium(rho, u, B)
    geq = seed_g_equilibrium(u, B)

    out = np.empty_like(state)
    f_out, g_out = split_state(out)
    f_out[:] = f + (feq - f) / params.tau
    g_out[:] = g + (geq - g) / params.tau_m
    return out


class SeedLBMHD3D:
    """Seed-commit LBMHD driver: per-rank allocating collide + halo steps.

    Same construction and observable state as
    :class:`repro.apps.lbmhd.solver.LBMHD3D`, but the time step is the
    seed commit's: one allocating collide per rank, a padded copy per
    rank, the per-message halo exchange, and an allocating stream.
    """

    def __init__(self, params: LBMHDParams, comm: Communicator) -> None:
        self.params = params
        self.comm = comm
        self.decomp = CartesianDecomposition3D.create(
            params.shape, comm.nprocs
        )
        rho, u, B = orszag_tang_fields(params.shape, params.u0, params.b0)
        self.states: list[np.ndarray] = self.decomp.scatter(
            equilibrium_state(rho, u, B)
        )
        self.step_count = 0

    def step(self) -> None:
        post = []
        local_points = int(np.prod(self.decomp.local_shape))
        for rank, state in enumerate(self.states):
            new = seed_collide(state, self.params.collision)
            self.comm.compute(rank, collision_work(local_points))
            post.append(new)

        if self.comm.nprocs == 1:
            self.states = [stream_periodic(post[0])]
        else:
            padded = [pad_state(p) for p in post]
            exchange_halos(self.comm, self.decomp, padded)
            self.states = [stream_from_padded(p) for p in padded]
        self.step_count += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def global_state(self) -> np.ndarray:
        return self.decomp.gather(self.states)
