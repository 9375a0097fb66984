"""Field gather and particle push for the GTC mini-app.

The gather interpolates the grid electric field back to the particle
positions with the same 4-point CIC stencil used by deposition (the
adjoint operation — tests verify <rho, phi> = <E-interp consistency>),
then advances the gyro-center equations of motion:

    dr/dt      = -E_theta / B0          (E x B, radial)
    dtheta/dt  =  E_r / (B0 r) + v_par / (q R0 r)   (E x B + transit)
    dzeta/dt   =  v_par / R0
    dv_par/dt  =  (q/m) E_par           (~0 here: axisymmetric E)

This retains the performance-critical structure — random-access gather,
long vectorizable particle loops — with a physically sensible drift
kinematics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...workload import Work
from .grid import Cells, PoloidalGrid, TorusGrid
from .particles import PARTICLE_WORDS, ParticleArray

#: Arithmetic per particle for the gyro-averaged field gather (2 field
#: components x 4 ring points x 4-point CIC) plus the guiding-center
#: push (field-line geometry, RK stages, weight evolution) -- the
#: production kernel's count, ~700 ops.
PUSH_FLOPS_PER_PARTICLE = 700.0

#: Gathered bytes per particle: 2 field arrays x 4 ring points x 4 CIC
#: nodes x 8 bytes, twice (predictor + corrector stages).
PUSH_GATHER_BYTES = 2 * 4 * 4 * 8 * 2


@dataclass(frozen=True)
class PushParams:
    """Integration constants for the guiding-center push."""

    dt: float = 0.01
    b0: float = 1.0
    safety_q: float = 1.5

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.b0 <= 0 or self.safety_q <= 0:
            raise ValueError("push parameters must be positive")


def gather_field(
    grid: PoloidalGrid,
    e_r: np.ndarray,
    e_theta: np.ndarray,
    cells: Cells,
    counts: np.ndarray | None = None,
    planes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CIC-interpolate (E_r, E_theta) to particle positions, given as
    their located cells (:meth:`PoloidalGrid.locate_cells`, which the
    solver's deposit calls once a step): the fields are read at the
    flat corner indices.

    With ``counts`` the particles are consecutive ranks' populations,
    ``counts[k]`` of them for rank ``k``, and the fields are stacks of
    ``(nplanes,) + grid.shape``: rank ``k`` reads plane ``planes[k]``.
    """
    corners, fi, fj = cells
    if counts is not None:
        base = np.asarray(planes) * grid.num_points
        corners = corners + np.repeat(base, counts)

    w00 = (1 - fi) * (1 - fj)
    w01 = (1 - fi) * fj
    w10 = fi * (1 - fj)
    w11 = fi * fj

    def interp(field: np.ndarray) -> np.ndarray:
        flat = field.reshape(-1)
        return (
            w00 * flat.take(corners[0])
            + w01 * flat.take(corners[1])
            + w10 * flat.take(corners[2])
            + w11 * flat.take(corners[3])
        )

    return interp(e_r), interp(e_theta)


def push_particles(
    torus: TorusGrid,
    particles: ParticleArray,
    e_r_at_p: np.ndarray,
    e_theta_at_p: np.ndarray,
    params: PushParams,
    out: ParticleArray | None = None,
) -> ParticleArray:
    """Advance one time step; returns a new :class:`ParticleArray`.

    Radial excursions reflect off the annulus boundaries (particles
    never leave the device); zeta advances freely and is wrapped by the
    toroidal shift stage.

    ``out`` (optional) is a same-length :class:`ParticleArray` whose
    component arrays are overwritten in place — the allocation-free
    ping-pong path.  It must not share storage with ``particles``.
    The arithmetic is identical either way, so the two modes produce
    bitwise-identical particles.
    """
    plane = torus.plane
    dt = params.dt
    r = particles.r
    vr = -e_theta_at_p / params.b0
    vtheta = e_r_at_p / (params.b0 * r) + particles.vpar / (
        params.safety_q * torus.major_radius * r
    )

    new_r = r + dt * vr
    # reflect at the annulus walls
    lo, hi = plane.r0 + 1e-6, plane.r1 - 1e-6
    new_r = np.where(new_r < lo, 2 * lo - new_r, new_r)
    new_r = np.where(new_r > hi, 2 * hi - new_r, new_r)

    if out is None:
        return ParticleArray(
            r=np.clip(new_r, lo, hi),
            theta=np.mod(particles.theta + dt * vtheta, 2.0 * np.pi),
            zeta=particles.zeta + dt * particles.vpar / torus.major_radius,
            vpar=particles.vpar.copy(),
            weight=particles.weight.copy(),
            species=particles.species.copy(),
        )
    np.clip(new_r, lo, hi, out=out.r)
    np.mod(particles.theta + dt * vtheta, 2.0 * np.pi, out=out.theta)
    np.add(
        particles.zeta, dt * particles.vpar / torus.major_radius, out=out.zeta
    )
    out.vpar[...] = particles.vpar
    out.weight[...] = particles.weight
    out.species[...] = particles.species
    return out


def push_work(
    num_particles: int, vectorized: bool, name: str = "gtc.push"
) -> Work:
    """Workload descriptor for gather+push over ``num_particles``."""
    return Work(
        name=name,
        flops=PUSH_FLOPS_PER_PARTICLE * num_particles,
        bytes_gather=PUSH_GATHER_BYTES * num_particles,
        bytes_unit=PARTICLE_WORDS * 8.0 * num_particles * 2,  # state r+w
        gather_cache_fraction=0.30,
        vector_fraction=0.98 if vectorized else 0.0,
        avg_vector_length=256.0 if vectorized else 1.0,
        fma_fraction=0.65,
    )
