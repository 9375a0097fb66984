"""GTC driver: gyrokinetic PIC with the paper's particle decomposition.

One time step, per rank (SPMD over the simulated communicator):

1. *charge*   — deposit the rank's particle slice onto its private copy
   of the domain grid (work-vector method on vector machines);
2. *reduce*   — ``Allreduce`` the charge over the domain's particle
   subgroup (the communication the new decomposition introduced);
3. *field*    — Poisson solve + E = -grad(phi) (replicated per rank);
4. *push*     — gather E at particles, advance the guiding centers;
5. *shift*    — exchange domain-crossing particles with zeta neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from types import SimpleNamespace

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...simmpi.comm import Communicator
from .decomp import GTCDecomposition, choose_decomposition
from .deposit import DEFAULT_WORK_VECTOR_COPIES, deposit_work
from .grid import PoloidalGrid, TorusGrid
from .particles import (
    DEFAULT_SPECIES,
    PARTICLE_FIELDS,
    ParticleArray,
    Species,
    load_multispecies,
    split_particles,
)
from .poisson import electric_field, poisson_work, solve_poisson
from .push import PushParams, push_work
from .shift import shift_particles


@dataclass(frozen=True)
class GTCParams:
    """Configuration of a GTC run.

    ``particles_per_cell`` follows the paper's scaling rows (100 at
    P=64 up to 3200 at P=2048, holding ~3.2M particles per processor on
    the full-size grid).
    """

    mpsi: int = 16
    mtheta: int = 32
    ntoroidal: int = 4
    particles_per_cell: int = 10
    dt: float = 0.01
    thermal_velocity: float = 1.0
    use_work_vector: bool = False
    work_vector_copies: int = 8
    seed: int = 7
    species: tuple[Species, ...] = DEFAULT_SPECIES

    def make_torus(self) -> TorusGrid:
        return TorusGrid(
            plane=PoloidalGrid(mpsi=self.mpsi, mtheta=self.mtheta),
            ntoroidal=self.ntoroidal,
        )

    @property
    def particles_per_domain(self) -> int:
        return self.particles_per_cell * self.mpsi * self.mtheta


# -- shard functions ---------------------------------------------------
#
# Module-level ``(lo, hi, args)`` callables (docs/executors.md), bound
# per region with ``functools.partial``.  Each steps ranks ``lo:hi`` in
# ascending order (the order the charges replay in) and returns its
# ranks' results, which the caller concatenates in shard order: team
# workers marshal effects home instead of mutating parent memory they
# cannot reach.  With a shared-memory arena the particles live in it
# (``GTC._rehome``), so the regions' bulk traffic — particles in,
# pushed particles out — goes by reference.


def _deposit_shard(lo: int, hi: int, args) -> list[np.ndarray]:
    """Deposit each rank's particles; returns the unreduced partials.

    Each accumulation buffer is drawn from its rank's child arena so
    concurrent shards never alias — the partials must all survive
    until the subgroup Allreduce that follows the region.
    """
    partials = []
    for rank in range(lo, hi):
        p = args.particles[rank]
        dest = args.arena.for_rank(rank).scratch(
            "gtc.charge.partial", args.grid.shape
        )
        if args.vectorized:
            rho = args.kernels.gtc_deposit_work_vector(
                args.grid, p, args.copies, out=dest
            )
        else:
            rho = args.kernels.gtc_deposit_scalar(args.grid, p, out=dest)
        args.comm.compute(rank, deposit_work(len(p), args.vectorized))
        partials.append(rho)
    return partials


def _field_shard(lo: int, hi: int, args) -> list[tuple]:
    """Poisson solve + E-field for each toroidal domain whose first
    rank lies in ``lo:hi``.

    One solve per domain, not per rank: after the subgroup Allreduce
    the ranks of a domain hold the same charge bitwise, so they share
    the one solve, made by the shard holding the domain's first rank —
    a domain that straddles shards is never solved twice.  Virtual time
    is still charged to every rank of the shard: each simulated
    processor does the work.  Returns ``(phi, (e_r, e_theta))`` per
    domain solved, in domain order.
    """
    solved = []
    for rank in range(lo, hi):
        if rank % args.npe == 0:
            rho = args.charge[rank]
            phi = solve_poisson(args.grid, rho - rho.mean())
            solved.append((phi, electric_field(args.grid, phi)))
        args.comm.compute(rank, args.work)
    return solved


def _push_shard(lo: int, hi: int, args) -> list[ParticleArray]:
    """Gather E at each rank's particles and advance them; returns the
    pushed particles — in ``args.outs[rank]`` where the caller put a
    buffer there (shared memory, so they come home by reference)."""
    pushed = []
    for rank in range(lo, hi):
        p = args.particles[rank]
        # the ranks of a domain share their E-fields; shards only read them
        e_r, e_theta = args.e_fields[rank]
        er_p, et_p = args.kernels.gtc_gather_field(args.grid, e_r, e_theta, p)
        pushed.append(
            args.kernels.gtc_push_particles(
                args.torus,
                p,
                er_p,
                et_p,
                args.push_params,
                out=args.outs[rank],
            )
        )
        args.comm.compute(rank, push_work(len(p), args.vectorized))
    return pushed


class GTC:
    """Parallel GTC simulation over a simulated communicator."""

    app_key = "gtc"
    #: IPM phase labels of one step, in the paper's order.
    phases = ("charge", "reduce", "field", "push", "shift")

    def __init__(
        self,
        params: GTCParams,
        comm: Communicator,
        arena: Arena | None = None,
        kernels: "str | KernelBackend | None" = None,
    ) -> None:
        self.params = params
        self.comm = comm
        self.arena = comm.executor.adopt(arena, "gtc")
        self.kernels = get_backend(kernels)
        if comm.nprocs % params.ntoroidal != 0:
            raise ValueError(
                f"nprocs ({comm.nprocs}) must be a multiple of "
                f"ntoroidal ({params.ntoroidal})"
            )
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
        #: per-rank length of the arena's particle buffers
        self._capacity = [0] * comm.nprocs
        self.particles = self._rehome(self.particles)
        self.charge: list[np.ndarray] = [
            self.torus.plane.zeros() for _ in range(comm.nprocs)
        ]
        self.phi: list[np.ndarray] = [
            self.torus.plane.zeros() for _ in range(comm.nprocs)
        ]
        self.step_count = 0

    # -- phases -----------------------------------------------------------

    def charge_phase(self) -> None:
        """Deposit + subgroup Allreduce (phases 1 and 2)."""
        with self.comm.phase("charge"):
            partial = self._deposit()
        with self.comm.phase("reduce"):
            self._reduce_charge(partial)

    def _deposit(self) -> list[np.ndarray]:
        """Per-rank charge deposition; returns the unreduced partials."""
        args = SimpleNamespace(
            comm=self.comm,
            arena=self.arena,
            grid=self.torus.plane,
            particles=self.particles,
            vectorized=self.params.use_work_vector,
            copies=self.params.work_vector_copies,
            kernels=self.kernels,
        )
        return list(
            chain.from_iterable(
                self.comm.map_shards(partial(_deposit_shard, args=args))
            )
        )

    def _reduce_charge(self, partial: list[np.ndarray]) -> None:
        """Subgroup Allreduce of the deposited partials."""
        for domain, sub in enumerate(self.subgroups):
            lo = domain * self.decomp.npe_per_domain
            hi = lo + self.decomp.npe_per_domain
            reduced = sub.allreduce(partial[lo:hi])
            for k, rank in enumerate(range(lo, hi)):
                self.charge[rank] = reduced[k]

    def field_phase(self) -> None:
        """Poisson solve and E-field, replicated per rank (phase 3):
        computed once per toroidal domain (:func:`_field_shard`), the
        read-only results shared by the domain's ranks."""
        grid = self.torus.plane
        npe = self.decomp.npe_per_domain
        args = SimpleNamespace(
            comm=self.comm,
            grid=grid,
            npe=npe,
            work=poisson_work(grid),
            charge=self.charge,
        )
        per_domain = chain.from_iterable(
            self.comm.map_shards(partial(_field_shard, args=args))
        )
        self.e_fields = []
        for domain, (phi, e_field) in enumerate(per_domain):
            for rank in range(domain * npe, (domain + 1) * npe):
                self.phi[rank] = phi
                self.e_fields.append(e_field)

    def _buffers(self, tag: str, rank: int, n: int) -> ParticleArray:
        """Arena-backed storage for ``n`` particles of ``rank``: views
        into component buffers keyed by a per-rank capacity, not by
        ``n`` — populations change with every shift, and the arena
        keeps every shape it is ever asked for."""
        if n > self._capacity[rank]:
            # room to grow: a fresh, larger set only every so often
            self._capacity[rank] = n + n // 4
        scratch = self.arena.for_rank(rank).scratch
        return ParticleArray(
            *(
                scratch(f"{tag}.{name}", (self._capacity[rank],))[:n]
                for name in PARTICLE_FIELDS
            )
        )

    def _rehome(self, particles: list[ParticleArray]) -> list[ParticleArray]:
        """Where the arena is shared memory, move the populations into it.

        The shift (and a restore) leaves them in private arrays, which
        a process executor would copy to its workers with every region
        of the next step; arena buffers go by reference instead.
        """
        if not self.arena.shared:
            return particles
        homed = []
        for rank, p in enumerate(particles):
            dest = self._buffers("gtc.particles", rank, len(p))
            for name in PARTICLE_FIELDS:
                getattr(dest, name)[...] = getattr(p, name)
            homed.append(dest)
        return homed

    def push_phase(self) -> None:
        """Gather + guiding-center advance (phase 4)."""
        outs: list[ParticleArray | None] = [None] * self.comm.nprocs
        if self.arena.shared:
            # pushed particles come home by reference; keys alternate
            # on step parity so the buffers being written never alias
            # the particles being read
            tag = f"gtc.push.{self.step_count % 2}"
            outs = [
                self._buffers(tag, rank, len(p))
                for rank, p in enumerate(self.particles)
            ]
        args = SimpleNamespace(
            comm=self.comm,
            grid=self.torus.plane,
            torus=self.torus,
            particles=self.particles,
            e_fields=self.e_fields,
            push_params=self.push_params,
            outs=outs,
            vectorized=self.params.use_work_vector,
            kernels=self.kernels,
        )
        self.particles = list(
            chain.from_iterable(
                self.comm.map_shards(partial(_push_shard, args=args))
            )
        )

    def shift_phase(self) -> None:
        """Toroidal particle exchange (phase 5)."""
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
            return
        rank_domain = [
            self.decomp.domain_of(r) for r in range(self.comm.nprocs)
        ]
        rank_neighbors = [
            self.decomp.shift_neighbors(r) for r in range(self.comm.nprocs)
        ]
        self.particles = self._rehome(
            shift_particles(
                self.comm,
                self.torus,
                rank_domain,
                rank_neighbors,
                self.particles,
            )
        )

    def step(self) -> None:
        self.charge_phase()
        with self.comm.phase("field"):
            self.field_phase()
        with self.comm.phase("push"):
            self.push_phase()
        with self.comm.phase("shift"):
            self.shift_phase()
        self.step_count += 1

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    # -- checkpoint/restart ------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Snapshot particles + fields (``repro.resilience.Checkpointable``).

        ``step_count`` rides along because the push phase ping-pongs
        arena buffers on its parity; E-fields are derived each step and
        recomputed on replay.
        """
        return {
            "step_count": self.step_count,
            "particles": [
                {
                    name: np.array(getattr(p, name), copy=True)
                    for name in PARTICLE_FIELDS
                }
                for p in self.particles
            ],
            "charge": [np.array(c, copy=True) for c in self.charge],
            "phi": [np.array(f, copy=True) for f in self.phi],
        }

    def restore_state(self, snapshot: dict) -> None:
        if len(snapshot["charge"]) != self.comm.nprocs:
            raise ValueError("checkpoint rank count mismatch")
        self.particles = self._rehome(
            [
                ParticleArray(
                    **{k: np.array(v, copy=True) for k, v in d.items()}
                )
                for d in snapshot["particles"]
            ]
        )
        self.charge = [np.array(c, copy=True) for c in snapshot["charge"]]
        self.phi = [np.array(f, copy=True) for f in snapshot["phi"]]
        self.step_count = int(snapshot["step_count"])

    # -- observation ------------------------------------------------------

    def total_particles(self) -> int:
        return sum(len(p) for p in self.particles)

    def total_charge(self) -> float:
        return float(sum(p.total_charge for p in self.particles))

    def domain_charge(self, domain: int) -> np.ndarray:
        """The reduced charge grid of one toroidal domain."""
        rank = self.decomp.rank_of(domain, 0)
        return self.charge[rank].copy()

    def species_census(self) -> dict[str, dict[str, float]]:
        """Per-species particle counts and net deposited charge."""
        out: dict[str, dict[str, float]] = {}
        for index, spec in enumerate(self.params.species):
            count = sum(p.species_count(index) for p in self.particles)
            charge = sum(p.species_charge(index) for p in self.particles)
            out[spec.name] = {"count": float(count), "charge": charge}
        return out

    @property
    def flops_per_step(self) -> float:
        """Total useful flops of one step across all ranks."""
        total = 0.0
        vec = self.params.use_work_vector
        for p in self.particles:
            total += deposit_work(len(p), vec).flops
            total += push_work(len(p), vec).flops
        total += self.comm.nprocs * poisson_work(self.torus.plane).flops
        return total
