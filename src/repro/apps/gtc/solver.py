"""GTC driver: gyrokinetic PIC with the paper's particle decomposition.

One time step, per rank (SPMD over the simulated communicator):

1. *charge*   — locate the rank's particles' grid cells and deposit
   them onto its private copy of the domain grid (work-vector method
   on vector machines);
2. *reduce*   — ``Allreduce`` the charge over the domain's particle
   subgroup (the communication the new decomposition introduced);
3. *field*    — Poisson solve + E = -grad(phi) (replicated per rank);
4. *push*     — gather E at the cells the deposit located, advance the
   guiding centers;
5. *shift*    — exchange domain-crossing particles with zeta neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...runtime.team import RegionArgs
from ...simmpi.comm import Communicator
from .decomp import GTCDecomposition, choose_decomposition
from .deposit import DEFAULT_WORK_VECTOR_COPIES, deposit_work
from .grid import Cells, PoloidalGrid, TorusGrid
from .particles import (
    DEFAULT_SPECIES,
    PARTICLE_FIELDS,
    PARTICLE_WORDS,
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
# Module-level ``(lo, hi, args, ...)`` callables (docs/executors.md),
# bound per region with ``functools.partial`` to the solver's
# ``RegionArgs`` (by token: the grid blocks it holds are arena memory,
# shared under a process executor) and the step's per-rank particle
# views.  Each steps ranks ``lo:hi`` in ascending order (the order the
# charges replay in) and writes its results in place, into arena
# buffers the caller allocated: the particles, their cells and every
# grid go by reference.


def _deposit_shard(lo: int, hi: int, args, particles, cells) -> None:
    """Locate each rank's particles into ``cells`` and deposit them
    into the rank's row of ``args.partial`` (the unreduced charge)."""
    grid = args.grid
    for rank in range(lo, hi):
        p = particles[rank]
        located = grid.locate_cells(p.r, p.theta, out=cells[rank])
        if args.vectorized:
            args.kernels.gtc_deposit_work_vector(
                grid, p, args.copies, out=args.partial[rank], cells=located
            )
        else:
            args.kernels.gtc_deposit_scalar(
                grid, p, out=args.partial[rank], cells=located
            )
        args.comm.compute(rank, deposit_work(len(p), args.vectorized))


def _field_shard(lo: int, hi: int, args) -> None:
    """Poisson solve + E-field of every toroidal domain whose first
    rank lies in ``lo:hi``, all in one stacked solve.

    One solve per domain, not per rank: after the subgroup Allreduce
    the ranks of a domain hold the same charge bitwise, so they share
    the one solve, made by the shard holding the domain's first rank —
    a domain that straddles shards is never solved twice.  Virtual time
    is still charged to every rank of the shard: each simulated
    processor does the work.
    """
    first, last = -(-lo // args.npe), -(-hi // args.npe)
    if first < last:
        rho = args.charge[first:last]
        phi = solve_poisson(
            args.grid, rho - rho.mean(axis=(1, 2), keepdims=True)
        )
        args.phi[first:last] = phi
        args.e_r[first:last], args.e_theta[first:last] = electric_field(
            args.grid, phi
        )
    for rank in range(lo, hi):
        args.comm.compute(rank, args.work)


def _push_shard(lo: int, hi: int, args, particles, cells, outs) -> None:
    """Gather E at each rank's particles, at the cells the deposit
    located, and advance them into ``outs[rank]``."""
    for rank in range(lo, hi):
        p = particles[rank]
        # the ranks of a domain share their E-fields; shards only read them
        domain = rank // args.npe
        er_p, et_p = args.kernels.gtc_gather_field(
            args.grid, args.e_r[domain], args.e_theta[domain], cells[rank]
        )
        args.kernels.gtc_push_particles(
            args.torus, p, er_p, et_p, args.push_params, out=outs[rank]
        )
        args.comm.compute(rank, push_work(len(p), args.vectorized))


class GTC:
    """Parallel GTC simulation over a simulated communicator.

    Everything a step touches lives in the arena: each rank's particles
    in one of two buffer sets, ``gtc.particles`` (their home between
    steps) and ``gtc.pushed`` (the push's output, which the shift
    compacts back home; until the push, it holds the particles'
    cells), and the unreduced, reduced, potential and E-field grids as
    ``(P | ntoroidal, mpsi, mtheta)`` blocks.
    """

    app_key = "gtc"
    #: IPM phase labels of one step, in the paper's order.
    phases = ("charge", "reduce", "field", "push", "shift")
    #: arena tags of the two particle buffer sets
    _SETS = ("gtc.particles", "gtc.pushed")

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
        grid = self.torus.plane
        npe = self.decomp.npe_per_domain

        def block(key: str, n: int) -> np.ndarray:
            buf = self.arena.scratch(key, (n,) + grid.shape)
            buf.fill(0.0)  # a caller's arena may hold an earlier run's
            return buf

        self._args = RegionArgs(
            comm=comm,
            kernels=self.kernels,
            grid=grid,
            torus=self.torus,
            push_params=self.push_params,
            npe=npe,
            vectorized=params.use_work_vector,
            copies=params.work_vector_copies,
            work=poisson_work(grid),
            partial=block("gtc.charge.partial", comm.nprocs),
            charge=block("gtc.charge", params.ntoroidal),
            phi=block("gtc.phi", params.ntoroidal),
            e_r=block("gtc.e_r", params.ntoroidal),
            e_theta=block("gtc.e_theta", params.ntoroidal),
        )
        #: per-rank views of the domain grids: every rank of a domain
        #: holds its domain's reduced charge and potential
        self.charge = [self._args.charge[r // npe] for r in range(comm.nprocs)]
        self.phi = [self._args.phi[r // npe] for r in range(comm.nprocs)]

        rng = np.random.default_rng(params.seed)
        particles: list[ParticleArray] = []
        for domain in range(params.ntoroidal):
            pool = load_multispecies(
                self.torus,
                params.particles_per_domain,
                domain,
                rng,
                params.species,
            )
            particles.extend(split_particles(pool, npe))
        #: per-rank particle capacity of the arena buffers, and the
        #: buffers, by (key, rank)
        self._capacity = [0] * comm.nprocs
        self._held: dict[tuple[str, int], np.ndarray] = {}
        self._home(particles)
        self._cells: list[Cells] = []
        self.step_count = 0

    # -- particle storage --------------------------------------------------

    def _rows(
        self, key: str, rank: int, n: int, rows: int, dtype=np.float64
    ) -> np.ndarray:
        """A ``(rows, n)`` view of ``rank``'s arena buffer ``key``, each
        row contiguous.  Buffers are sized by a per-rank capacity, not
        by ``n`` — populations change with every shift, and the arena
        keeps every shape it is ever asked for — and held between
        calls."""
        if n > self._capacity[rank]:
            # room to grow: a fresh, larger set only every so often
            self._capacity[rank] = n + n // 4
        size = rows * self._capacity[rank]
        buf = self._held.get((key, rank))
        if buf is None or len(buf) != size:
            buf = self.arena.for_rank(rank).scratch(key, (size,), dtype)
            self._held[key, rank] = buf
        return buf[: rows * n].reshape(rows, n)

    def _storage(self, which: int, rank: int, n: int) -> ParticleArray:
        """``n`` particles of ``rank`` in buffer set ``which``."""
        return ParticleArray(
            *self._rows(self._SETS[which], rank, n, PARTICLE_WORDS)
        )

    def _cells_of(self, rank: int, n: int) -> Cells:
        """Storage for the cells of ``rank``'s ``n`` particles: the
        memory of the buffer set the push will write.  A cell takes the
        six 8-byte words a particle does (four corners, two offsets),
        and the gather has read a rank's cells before its push
        overwrites them — so locating costs no memory of its own."""
        words = self._rows(self._SETS[1 - self._set], rank, n, PARTICLE_WORDS)
        fi, fj = words[4:]
        return Cells(words[:4].view(np.int64), fi, fj)

    def _home(self, particles: list[ParticleArray]) -> None:
        """Copy populations (a fresh load, a restore) into the home set."""
        self._set = 0
        self.particles = []
        for rank, p in enumerate(particles):
            dest = self._storage(0, rank, len(p))
            for name in PARTICLE_FIELDS:
                getattr(dest, name)[...] = getattr(p, name)
            self.particles.append(dest)

    def _other_set(self) -> int:
        """The buffer set the particles are not in, which the next
        phase that moves them writes into (never the one it reads)."""
        self._set = 1 - self._set
        return self._set

    # -- phases -----------------------------------------------------------

    def charge_phase(self) -> None:
        """Deposit + subgroup Allreduce (phases 1 and 2)."""
        with self.comm.phase("charge"):
            self._deposit()
        with self.comm.phase("reduce"):
            self._reduce_charge()

    def _deposit(self) -> None:
        """Per-rank cell location and charge deposition into the
        unreduced-charge block; the cells are kept for the push."""
        self._cells = [
            self._cells_of(rank, len(p))
            for rank, p in enumerate(self.particles)
        ]
        self.comm.map_shards(
            partial(
                _deposit_shard,
                args=self._args,
                particles=self.particles,
                cells=self._cells,
            )
        )

    def _reduce_charge(self) -> None:
        """Subgroup Allreduce of the deposited partials."""
        npe = self.decomp.npe_per_domain
        partials = self._args.partial
        for domain, sub in enumerate(self.subgroups):
            lo = domain * npe
            reduced = sub.allreduce(list(partials[lo : lo + npe]))
            self._args.charge[domain] = reduced[0]

    def field_phase(self) -> None:
        """Poisson solve and E-field, replicated per rank (phase 3):
        computed once per toroidal domain (:func:`_field_shard`) into
        the domain blocks the domain's ranks read."""
        self.comm.map_shards(partial(_field_shard, args=self._args))

    def push_phase(self) -> None:
        """Gather + guiding-center advance (phase 4), at the cells the
        charge phase located, into the other buffer set."""
        into = self._other_set()
        outs = [
            self._storage(into, rank, len(p))
            for rank, p in enumerate(self.particles)
        ]
        self.comm.map_shards(
            partial(
                _push_shard,
                args=self._args,
                particles=self.particles,
                cells=self._cells,
                outs=outs,
            )
        )
        self.particles = outs

    def shift_phase(self) -> None:
        """Toroidal particle exchange (phase 5): stayers and arrivals
        are written into the other buffer set — home again, after a
        push."""
        nprocs = self.comm.nprocs
        self.particles = shift_particles(
            self.comm,
            self.torus,
            [self.decomp.domain_of(r) for r in range(nprocs)],
            [self.decomp.shift_neighbors(r) for r in range(nprocs)],
            self.particles,
            storage=partial(self._storage, self._other_set()),
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

        E-fields and cells are derived each step and recomputed on
        replay.
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
        self._home([ParticleArray(**d) for d in snapshot["particles"]])
        npe = self.decomp.npe_per_domain
        for domain in range(self.decomp.ntoroidal):
            self._args.charge[domain] = snapshot["charge"][domain * npe]
            self._args.phi[domain] = snapshot["phi"][domain * npe]
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
