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

All ranks' particles are one struct-of-arrays arena block of
``(PARTICLE_WORDS, N)`` words, rank ``r``'s in columns
``off[r]:off[r + 1]`` — the long particle loops the vector codes win
with.  The charge and push regions cut each shard's ranks into groups
of consecutive ranks holding at least :data:`GROUP_PARTICLES` between
them and make one kernel call per group: one rank a group at the
benchmark's P=8, four at P=32.  One call over a whole shard is
slower (0.7x at P=8): its temporaries outgrow the caches.  The shift
(:func:`~.shift.shift_block`) moves only the particles that cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...runtime.team import RegionArgs
from ...simmpi.comm import Communicator
from .decomp import GTCDecomposition
from .deposit import deposit_work
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
from .shift import shift_block


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
    use_work_vector: bool = False
    work_vector_copies: int = 8
    seed: int = 7
    species: tuple[Species, ...] = DEFAULT_SPECIES

    def __post_init__(self) -> None:
        # a bad value fails here, not inside the run: building the grid
        # and the push constants runs their own checks and messages
        self.make_torus()
        PushParams(dt=self.dt)
        if self.particles_per_cell < 0:
            raise ValueError("particles_per_cell must be non-negative")
        if self.use_work_vector and self.work_vector_copies < 1:
            raise ValueError("work_vector_copies must be >= 1")

    def make_torus(self) -> TorusGrid:
        return TorusGrid(
            plane=PoloidalGrid(mpsi=self.mpsi, mtheta=self.mtheta),
            ntoroidal=self.ntoroidal,
        )

    @property
    def particles_per_domain(self) -> int:
        return self.particles_per_cell * self.mpsi * self.mtheta


#: Particles one kernel call covers, at least: a region steps its ranks
#: in groups of consecutive ranks that hold this many between them.
GROUP_PARTICLES = 8192


def _rank_groups(off: np.ndarray, lo: int, hi: int):
    """Ranks ``lo:hi`` cut into groups of consecutive ranks, as many a
    group as hold :data:`GROUP_PARTICLES` particles on average (at
    least one): ``(g0, g1, counts)`` of each, ``counts`` the ranks'
    particle counts."""
    nranks, total = len(off) - 1, int(off[-1])
    size = round(GROUP_PARTICLES * nranks / total) if total else nranks
    size = max(1, size)
    for g0 in range(lo, hi, size):
        g1 = min(g0 + size, hi)
        yield g0, g1, np.diff(off[g0 : g1 + 1])


def _columns(block: np.ndarray, a: int, b: int) -> ParticleArray:
    """Particles ``a:b`` of a block, as a view."""
    return ParticleArray(*block[:, a:b])


def _cell_columns(cells: Cells, a: int, b: int) -> Cells:
    """Cells ``a:b``, as a view."""
    return Cells(cells.corners[:, a:b], cells.fi[a:b], cells.fj[a:b])


# -- shard functions ---------------------------------------------------
#
# Module-level ``(lo, hi, args, ...)`` callables (docs/executors.md),
# bound per region with ``functools.partial`` to the solver's
# ``RegionArgs`` (by token: the grid blocks it holds are arena memory,
# shared under a process executor), the step's rank offsets and the
# particle blocks.  Each steps ranks ``lo:hi`` in ascending order (the
# order the charges replay in), one kernel call per rank group, and
# writes its results in place, into arena buffers the caller
# allocated: the particles, their cells and every grid go by reference.


def _deposit_shard(lo: int, hi: int, args, off, particles, cells) -> None:
    """Locate each group's particles into ``cells`` and deposit them
    into its ranks' rows of ``args.partial`` (the unreduced charge)."""
    grid = args.grid
    for g0, g1, counts in _rank_groups(off, lo, hi):
        a, b = off[g0], off[g1]
        p = _columns(particles, a, b)
        at = _cell_columns(cells, a, b)
        located = grid.locate_cells(p.r, p.theta, out=at)
        if args.vectorized:
            args.kernels.gtc_deposit_work_vector(
                grid,
                p,
                args.copies,
                out=args.partial[g0:g1],
                cells=located,
                counts=counts,
            )
        else:
            args.kernels.gtc_deposit_scalar(
                grid, p, out=args.partial[g0:g1], cells=located, counts=counts
            )
        for n, rank in zip(counts.tolist(), range(g0, g1)):
            args.comm.compute(rank, deposit_work(n, args.vectorized))


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


def _push_shard(lo: int, hi: int, args, off, particles, cells, out) -> None:
    """Gather E at each group's particles, at the cells the deposit
    located, and advance them into the same columns of ``out``."""
    for g0, g1, counts in _rank_groups(off, lo, hi):
        a, b = off[g0], off[g1]
        # the ranks of a domain share their E-fields; shards only read them
        er_p, et_p = args.kernels.gtc_gather_field(
            args.grid,
            args.e_r,
            args.e_theta,
            _cell_columns(cells, a, b),
            counts=counts,
            planes=np.arange(g0, g1) // args.npe,
        )
        args.kernels.gtc_push_particles(
            args.torus,
            _columns(particles, a, b),
            er_p,
            et_p,
            args.push_params,
            out=_columns(out, a, b),
        )
        for n, rank in zip(counts.tolist(), range(g0, g1)):
            args.comm.compute(rank, push_work(n, args.vectorized))


class GTC:
    """Parallel GTC simulation over a simulated communicator.

    Everything a step touches lives in the arena: the particles in one
    of two ``(PARTICLE_WORDS, N)`` blocks, ``gtc.particles`` (their
    home between steps) and ``gtc.pushed`` (the push's output, which
    the shift compacts back home; until the push, it holds the
    particles' cells), with rank offsets ``_off``; and the unreduced,
    reduced, potential and E-field grids as ``(P | ntoroidal, mpsi,
    mtheta)`` blocks.  The shift conserves N, so the blocks never
    resize.
    """

    app_key = "gtc"
    #: IPM phase labels of one step, in the paper's order.
    phases = ("charge", "reduce", "field", "push", "shift")
    #: arena tags of the two particle blocks
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
        ranks = range(comm.nprocs)
        #: each rank's toroidal domain and its (left, right) partners
        self._domain = np.array([self.decomp.domain_of(r) for r in ranks])
        self._neighbors = np.array(
            [self.decomp.shift_neighbors(r) for r in ranks]
        )

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
        self.charge = [self._args.charge[r // npe] for r in ranks]
        self.phi = [self._args.phi[r // npe] for r in ranks]

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
        self._load(particles)
        self.step_count = 0

    # -- particle storage --------------------------------------------------

    def _load(self, particles: list[ParticleArray]) -> None:
        """Copy per-rank populations (a fresh load, a restore) into the
        home block, sizing both blocks to their total."""
        counts = [len(p) for p in particles]
        self._off = np.concatenate([[0], np.cumsum(counts)])
        shape = (PARTICLE_WORDS, int(self._off[-1]))
        self._blocks = [self.arena.scratch(key, shape) for key in self._SETS]
        self._set = 0
        for k, name in enumerate(PARTICLE_FIELDS):
            fields = [getattr(p, name) for p in particles]
            np.concatenate(fields, out=self._blocks[0][k])

    @property
    def particles(self) -> list[ParticleArray]:
        """Each rank's particles, as views of the home block."""
        off, block = self._off, self._blocks[self._set]
        return [
            _columns(block, off[r], off[r + 1])
            for r in range(self.comm.nprocs)
        ]

    def _cells(self) -> Cells:
        """The particles' cells, in the memory of the block the push
        will write.  A cell takes the six 8-byte words a particle does
        (four corners, two offsets), and the gather has read a group's
        cells before its push overwrites them — so locating costs no
        memory of its own."""
        words = self._blocks[1 - self._set]
        return Cells(words[:4].view(np.int64), words[4], words[5])

    def _other_set(self) -> int:
        """The block the particles are not in, which the next phase
        that moves them writes into (never the one it reads)."""
        self._set = 1 - self._set
        return self._set

    def _region(self, fn, **blocks) -> None:
        """One region of ``fn`` over the ranks, handed the step's rank
        offsets and the particle ``blocks``."""
        self.comm.map_shards(
            partial(fn, args=self._args, off=self._off, **blocks)
        )

    # -- phases -----------------------------------------------------------

    def charge_phase(self) -> None:
        """Deposit + subgroup Allreduce (phases 1 and 2)."""
        with self.comm.phase("charge"):
            self._deposit()
        with self.comm.phase("reduce"):
            self._reduce_charge()

    def _deposit(self) -> None:
        """Cell location and charge deposition, per rank group, into
        the unreduced-charge block; the cells are kept for the push."""
        self._region(
            _deposit_shard,
            particles=self._blocks[self._set],
            cells=self._cells(),
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
        charge phase located, into the other block."""
        cells = self._cells()
        here = self._blocks[self._set]
        self._region(
            _push_shard,
            particles=here,
            cells=cells,
            out=self._blocks[self._other_set()],
        )

    def shift_phase(self) -> None:
        """Toroidal particle exchange (phase 5): stayers and arrivals
        are written into the other block — home again, after a push."""
        here = self._blocks[self._set]
        self._off = shift_block(
            self.comm,
            self.torus,
            self._domain,
            self._neighbors,
            self._off,
            here,
            self._blocks[self._other_set()],
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
        self._load([ParticleArray(**d) for d in snapshot["particles"]])
        npe = self.decomp.npe_per_domain
        for domain in range(self.decomp.ntoroidal):
            self._args.charge[domain] = snapshot["charge"][domain * npe]
            self._args.phi[domain] = snapshot["phi"][domain * npe]
        self.step_count = int(snapshot["step_count"])

    # -- observation ------------------------------------------------------

    def total_particles(self) -> int:
        return int(self._off[-1])

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
        for n in np.diff(self._off).tolist():
            total += deposit_work(n, vec).flops
            total += push_work(n, vec).flops
        total += self.comm.nprocs * poisson_work(self.torus.plane).flops
        return total
