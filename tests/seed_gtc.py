"""Reference GTC step loop: the per-domain step of commit ``893e098``.

An independent implementation for ``test_gtc_seed`` to compare
:class:`~repro.apps.gtc.solver.GTC` against, bit for bit.  Kept as that
commit wrote it: one ``solve_poisson`` per toroidal domain with one
``solve_banded`` call per harmonic, a gather that locates every
particle a second time and reads the fields with 2-D fancy indexing,
and a shift that keeps the stayers, packs the movers into ``(n, 6)``
messages, sends them with ``Communicator.exchange`` and appends what
arrives with ``ParticleArray.extend``.  That commit ran its ranks
through shard regions whose charges replay in rank order; here they are
the plain rank loops that replay is defined to equal.  Its ``_rehome``
only moved particles between buffers (with a shared-memory arena), so
it is left out.

Copied from commit ``893e098`` (``src/repro/apps/gtc/deposit.py``,
``poisson.py``, ``push.py``, ``shift.py``, ``solver.py``); the grid,
particle loading, push arithmetic, work records and the decomposition
are imported because they are unchanged from that commit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from repro.apps.gtc.decomp import GTCDecomposition
from repro.apps.gtc.deposit import deposit_work
from repro.apps.gtc.grid import PoloidalGrid, TorusGrid
from repro.apps.gtc.particles import (
    PARTICLE_FIELDS,
    PARTICLE_WORDS,
    ParticleArray,
    load_multispecies,
    split_particles,
)
from repro.apps.gtc.poisson import poisson_work
from repro.apps.gtc.push import PushParams, push_particles, push_work
from repro.apps.gtc.solver import GTCParams
from repro.simmpi.comm import Communicator, Message

# -- deposit.py ---------------------------------------------------------------


def _seed_cic_stencil(grid: PoloidalGrid, r, theta, weight):
    i, j, fi, fj = grid.locate(r, theta)
    jp = (j + 1) % grid.mtheta
    ip = np.minimum(i + 1, grid.mpsi - 1)

    wts = np.stack(
        [
            weight * (1 - fi) * (1 - fj),
            weight * (1 - fi) * fj,
            weight * fi * (1 - fj),
            weight * fi * fj,
        ]
    )
    idx = np.stack(
        [
            i * grid.mtheta + j,
            i * grid.mtheta + jp,
            ip * grid.mtheta + j,
            ip * grid.mtheta + jp,
        ]
    )
    return idx, wts


def seed_deposit_scalar(grid: PoloidalGrid, particles: ParticleArray):
    """The guiding-centre histogram deposit (zero gyro radius)."""
    idx, wts = _seed_cic_stencil(
        grid, particles.r, particles.theta, particles.weight / 1
    )
    rho = np.zeros(grid.num_points)
    np.add.at(rho, idx.ravel(), wts.ravel())
    return rho.reshape(grid.shape)


def seed_deposit_work_vector(
    grid: PoloidalGrid, particles: ParticleArray, num_copies: int
):
    idx, wts = _seed_cic_stencil(
        grid, particles.r, particles.theta, particles.weight / 1
    )
    n = len(particles)
    total = np.zeros(grid.num_points)
    stripe = np.arange(n) % num_copies
    for c in range(num_copies):
        sel = stripe == c
        if not sel.any():
            continue
        total += np.bincount(
            idx[:, sel].ravel(),
            weights=wts[:, sel].ravel(),
            minlength=grid.num_points,
        )
    return total.reshape(grid.shape)


# -- poisson.py ---------------------------------------------------------------


def seed_solve_poisson(grid: PoloidalGrid, rho: np.ndarray) -> np.ndarray:
    if rho.shape != grid.shape:
        raise ValueError("rho does not match the grid")
    r = grid.radii
    dr, dth = grid.dr, grid.dtheta
    m = np.fft.rfftfreq(grid.mtheta, d=1.0 / grid.mtheta)

    rho_m = np.fft.rfft(rho, axis=1)
    phi_m = np.empty_like(rho_m)

    lower = (r - 0.5 * dr) / (r * dr * dr)
    upper = (r + 0.5 * dr) / (r * dr * dr)
    for k, mk in enumerate(m):
        diag = (
            -(lower + upper)
            - (2.0 - 2.0 * np.cos(mk * dth)) / (r * r * dth * dth)
        )
        ab = np.zeros((3, grid.mpsi), dtype=complex)
        ab[0, 1:] = upper[:-1]
        ab[1, :] = diag
        ab[2, :-1] = lower[1:]
        phi_m[:, k] = solve_banded((1, 1), ab, -rho_m[:, k])

    return np.fft.irfft(phi_m, n=grid.mtheta, axis=1)


def seed_electric_field(grid: PoloidalGrid, phi: np.ndarray):
    dr, dth = grid.dr, grid.dtheta
    r = grid.radii[:, None]
    phi_up = np.vstack([phi[1:], np.zeros((1, grid.mtheta))])
    phi_dn = np.vstack([np.zeros((1, grid.mtheta)), phi[:-1]])
    e_r = -(phi_up - phi_dn) / (2.0 * dr)
    e_theta = -(np.roll(phi, -1, axis=1) - np.roll(phi, 1, axis=1)) / (
        2.0 * r * dth
    )
    return e_r, e_theta


# -- push.py ------------------------------------------------------------------


def seed_gather_field(grid: PoloidalGrid, e_r, e_theta, particles):
    i, j, fi, fj = grid.locate(particles.r, particles.theta)
    jp = (j + 1) % grid.mtheta
    ip = np.minimum(i + 1, grid.mpsi - 1)

    w00 = (1 - fi) * (1 - fj)
    w01 = (1 - fi) * fj
    w10 = fi * (1 - fj)
    w11 = fi * fj

    def interp(field):
        return (
            w00 * field[i, j]
            + w01 * field[i, jp]
            + w10 * field[ip, j]
            + w11 * field[ip, jp]
        )

    return interp(e_r), interp(e_theta)


# -- shift.py -----------------------------------------------------------------


def _seed_keep(p: ParticleArray, mask) -> ParticleArray:
    return ParticleArray(
        *(getattr(p, f)[mask].copy() for f in PARTICLE_FIELDS)
    )


def _seed_pack(p: ParticleArray, mask) -> np.ndarray:
    return np.stack([getattr(p, f)[mask] for f in PARTICLE_FIELDS], axis=1)


def _seed_unpack(buffer: np.ndarray) -> ParticleArray:
    return ParticleArray(
        *(buffer[:, k].copy() for k in range(PARTICLE_WORDS))
    )


def seed_classify(torus: TorusGrid, domain: int, particles: ParticleArray):
    n = torus.ntoroidal
    dom = torus.domain_of(particles.zeta)
    stay = dom == domain
    left = dom == (domain - 1) % n
    right = dom == (domain + 1) % n
    if not np.all(stay | left | right):
        raise ValueError("particle moved more than one toroidal domain")
    if n == 2 and np.any(left & right):
        raise ValueError("ambiguous neighbor with ntoroidal == 2")
    return stay, left, right


def seed_shift_particles(
    comm: Communicator,
    torus: TorusGrid,
    rank_domain: list[int],
    rank_neighbors: list[tuple[int, int]],
    particles_by_rank: list[ParticleArray],
) -> list[ParticleArray]:
    nranks = comm.nprocs
    wrapped = []
    outgoing = []
    for rank in range(nranks):
        p = particles_by_rank[rank]
        p = ParticleArray(
            r=p.r,
            theta=p.theta,
            zeta=np.mod(p.zeta, 2.0 * np.pi),
            vpar=p.vpar,
            weight=p.weight,
            species=p.species,
        )
        stay, left, right = seed_classify(torus, rank_domain[rank], p)
        wrapped.append(_seed_keep(p, stay))
        outgoing.append((_seed_pack(p, left), _seed_pack(p, right)))

    messages = []
    for rank in range(nranks):
        left_rank, right_rank = rank_neighbors[rank]
        buf_left, buf_right = outgoing[rank]
        messages.append(
            Message(src=rank, dst=left_rank, payload=buf_left, tag=0)
        )
        messages.append(
            Message(src=rank, dst=right_rank, payload=buf_right, tag=1)
        )
    received = comm.exchange(messages)

    result = []
    for rank in range(nranks):
        merged = wrapped[rank]
        for buf in received.get(rank, []):
            if buf.size:
                merged = merged.extend(
                    _seed_unpack(buf.reshape(-1, PARTICLE_WORDS))
                )
        result.append(merged)
    return result


# -- solver.py ----------------------------------------------------------------


class SeedGTC:
    """The commit's ``GTC`` step, one rank (or domain) at a time."""

    def __init__(self, params: GTCParams, comm: Communicator) -> None:
        self.params = params
        self.comm = comm
        self.decomp = GTCDecomposition(
            ntoroidal=params.ntoroidal,
            npe_per_domain=comm.nprocs // params.ntoroidal,
        )
        self.torus = params.make_torus()
        self.push_params = PushParams(dt=params.dt)
        self.subgroups = self.decomp.make_subgroups(comm)

        rng = np.random.default_rng(params.seed)
        self.particles: list[ParticleArray] = []
        for domain in range(params.ntoroidal):
            pool = load_multispecies(
                self.torus,
                params.particles_per_domain,
                domain,
                rng,
                params.species,
            )
            self.particles.extend(
                split_particles(pool, self.decomp.npe_per_domain)
            )
        self.charge = [self.torus.plane.zeros() for _ in range(comm.nprocs)]
        self.phi = [self.torus.plane.zeros() for _ in range(comm.nprocs)]

    def step(self) -> None:
        comm, grid = self.comm, self.torus.plane
        vec = self.params.use_work_vector
        npe = self.decomp.npe_per_domain

        with comm.phase("charge"):
            partial = []
            for rank, p in enumerate(self.particles):
                if vec:
                    rho = seed_deposit_work_vector(
                        grid, p, self.params.work_vector_copies
                    )
                else:
                    rho = seed_deposit_scalar(grid, p)
                comm.compute(rank, deposit_work(len(p), vec))
                partial.append(rho)
        with comm.phase("reduce"):
            for domain, sub in enumerate(self.subgroups):
                lo = domain * npe
                reduced = sub.allreduce(partial[lo : lo + npe])
                for k in range(npe):
                    self.charge[lo + k] = reduced[k]

        with comm.phase("field"):
            work = poisson_work(grid)
            e_fields = []
            for rank in range(comm.nprocs):
                if rank % npe == 0:
                    rho = self.charge[rank]
                    phi = seed_solve_poisson(grid, rho - rho.mean())
                    e_field = seed_electric_field(grid, phi)
                comm.compute(rank, work)
                self.phi[rank] = phi
                e_fields.append(e_field)

        with comm.phase("push"):
            pushed = []
            for rank, p in enumerate(self.particles):
                e_r, e_theta = e_fields[rank]
                er_p, et_p = seed_gather_field(grid, e_r, e_theta, p)
                pushed.append(
                    push_particles(self.torus, p, er_p, et_p, self.push_params)
                )
                comm.compute(rank, push_work(len(p), vec))
            self.particles = pushed

        with comm.phase("shift"):
            if self.decomp.ntoroidal == 1:
                for rank, p in enumerate(self.particles):
                    self.particles[rank] = ParticleArray(
                        r=p.r,
                        theta=p.theta,
                        zeta=np.mod(p.zeta, 2.0 * np.pi),
                        vpar=p.vpar,
                        weight=p.weight,
                        species=p.species,
                    )
            else:
                self.particles = seed_shift_particles(
                    comm,
                    self.torus,
                    [self.decomp.domain_of(r) for r in range(comm.nprocs)],
                    [
                        self.decomp.shift_neighbors(r)
                        for r in range(comm.nprocs)
                    ],
                    self.particles,
                )

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def state_vector(self) -> np.ndarray:
        """What ``GTCApp.state_vector`` concatenates, in its order."""
        parts = [c.ravel() for c in self.charge]
        parts += [f.ravel() for f in self.phi]
        for p in self.particles:
            parts += [getattr(p, name).ravel() for name in PARTICLE_FIELDS]
        return np.concatenate(parts)
