"""GTC against its per-domain reference (``tests/seed_gtc.py``), bit for
bit.

The solver solves all of a shard's domains in one banded call per
harmonic, locates each particle's cells once per step (the deposit
scatters into them, the gather reads from them) and shifts particles in
one copy into arena buffers; the reference solves one domain at a time,
locates every particle again in the gather, and packs, sends and
appends the movers.  Both must produce the same state, virtual clocks,
ledger totals and traffic — under every executor, in the solver's own
arena or a caller's.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

import seed_gtc as seed
from repro import harness
from repro.apps.gtc import (
    GTCParams,
    PoloidalGrid,
    Species,
    TorusGrid,
    deposit_scalar,
    deposit_work_vector,
    electric_field,
    gather_field,
    laplacian,
    load_particles,
    solve_poisson,
)
from repro.machines import get_machine
from repro.runtime import Arena
from repro.runtime.executors import ProcessExecutor
from repro.simmpi import Communicator

MACHINE = "ES"
STEPS = 8

#: (nprocs, params)
CONFIGS = {
    # the benchmark ladder's serial class: one rank per domain
    "p8-nt8": (8, GTCParams(particles_per_cell=16, ntoroidal=8)),
    # two ranks share each domain's particles
    "p8-nt4": (8, GTCParams(particles_per_cell=8, ntoroidal=4)),
    # one domain: nothing is sent
    "p4-nt1": (4, GTCParams(particles_per_cell=8, ntoroidal=1)),
    "work-vector": (
        8,
        GTCParams(
            particles_per_cell=8,
            ntoroidal=4,
            use_work_vector=True,
            work_vector_copies=8,
        ),
    ),
    "two-species": (
        8,
        GTCParams(
            particles_per_cell=8,
            ntoroidal=4,
            species=(
                Species(name="ion", fraction=0.7),
                Species(name="alpha", charge=2.0, mass=4.0, fraction=0.3),
            ),
        ),
    ),
    # the ladder's rank class: four ranks a domain
    "p32-nt8": (32, GTCParams(particles_per_cell=16, ntoroidal=8)),
}
SLOW = {"p32-nt8"}

_process_capable = ProcessExecutor(2).segment_support()
_needs_processes = pytest.mark.skipif(
    not _process_capable.ok, reason=_process_capable.reason
)
EXECUTORS = [
    "serial",
    "threads:2",
    pytest.param("processes:2", marks=_needs_processes),
    # uneven shards: at P=8, 0:3, 3:6 and 6:8 cut across the rank
    # groups the regions make their kernel calls for
    pytest.param("processes:3", marks=_needs_processes),
]


def _fingerprint(state_vector, comm, ledger) -> tuple:
    state = np.ascontiguousarray(state_vector)
    return (
        hashlib.sha256(state.tobytes()).hexdigest(),
        comm.times.tobytes(),
        comm.elapsed,
        tuple(sorted(ledger.totals().as_record().items())),
        comm.trace.matrix().tobytes(),
        tuple(sorted(comm.trace.calls.items())),
    )


@lru_cache(maxsize=None)
def _seed_fingerprint(config: str) -> tuple:
    nprocs, params = CONFIGS[config]
    comm = Communicator(nprocs, machine=get_machine(MACHINE), trace=True)
    ledger = comm.attach_phase_ledger()
    sim = seed.SeedGTC(params, comm)
    sim.run(STEPS)
    return _fingerprint(sim.state_vector(), comm, ledger)


@pytest.mark.parametrize(
    "arena", [False, True], ids=["own-arena", "caller-arena"]
)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize(
    "config",
    [
        pytest.param(c, marks=pytest.mark.slow) if c in SLOW else c
        for c in CONFIGS
    ],
)
def test_solver_matches_seed_bitwise(config, executor, arena):
    nprocs, params = CONFIGS[config]
    result = harness.run(
        "gtc",
        params,
        steps=STEPS,
        nprocs=nprocs,
        machine=MACHINE,
        trace=True,
        executor=executor,
        arena=Arena() if arena else None,
    )
    got = _fingerprint(
        result.app.state_vector(result.state), result.comm, result.ledger
    )
    want = _seed_fingerprint(config)
    names = ("state", "times", "elapsed", "ledger", "trace", "calls")
    for name, g, w in zip(names, got, want):
        assert g == w, name


# -- the kernels, one call at a time -------------------------------------------

GRIDS = [PoloidalGrid(mpsi=16, mtheta=32), PoloidalGrid(mpsi=12, mtheta=20)]


@pytest.mark.parametrize("grid", GRIDS, ids=["16x32", "12x20"])
@pytest.mark.parametrize("domains", [1, 3, 8])
def test_stacked_solve_matches_per_domain_bitwise(grid, domains, rng):
    rho = rng.standard_normal((domains,) + grid.shape)
    rho -= rho.mean(axis=(1, 2), keepdims=True)
    phi = solve_poisson(grid, rho)
    e_r, e_theta = electric_field(grid, phi)
    for d in range(domains):
        one = solve_poisson(grid, rho[d])
        assert np.array_equal(phi[d], one)
        assert np.array_equal(phi[d], seed.seed_solve_poisson(grid, rho[d]))
        want_r, want_theta = seed.seed_electric_field(grid, one)
        assert np.array_equal(e_r[d], want_r)
        assert np.array_equal(e_theta[d], want_theta)
        np.testing.assert_allclose(
            -laplacian(grid, phi[d]), rho[d], atol=1e-9
        )


def _particles(grid: PoloidalGrid, n: int, seed_value: int):
    torus = TorusGrid(plane=grid, ntoroidal=4)
    rng = np.random.default_rng(seed_value)
    p = load_particles(torus, n, 1, rng)
    p.weight[:] = rng.random(n)
    return p


@pytest.mark.parametrize("grid", GRIDS, ids=["16x32", "12x20"])
def test_located_cells_match_seed_kernels_bitwise(grid, rng):
    p = _particles(grid, 3000, 3)
    cells = grid.locate_cells(p.r, p.theta)
    e_r = rng.standard_normal(grid.shape)
    e_theta = rng.standard_normal(grid.shape)
    want = seed.seed_gather_field(grid, e_r, e_theta, p)
    got = gather_field(grid, e_r, e_theta, cells)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(
        deposit_scalar(grid, p, cells=cells), seed.seed_deposit_scalar(grid, p)
    )
    assert np.array_equal(
        deposit_work_vector(grid, p, 8, cells=cells),
        seed.seed_deposit_work_vector(grid, p, 8),
    )


def test_located_cells_are_the_guiding_centres(rng):
    grid = GRIDS[0]
    p = _particles(grid, 50, 4)
    with pytest.raises(ValueError, match="guiding centres"):
        deposit_scalar(
            grid, p, gyro_radius=0.05, cells=grid.locate_cells(p.r, p.theta)
        )
