"""LBMHD against its ghost-padded block parent
(``tests/seed_lbmhd_block.py``), bit for bit.

The solver collides into a flat post-collision block and pull-streams
every slot straight from it, reading neighbours' boundary planes where
the parent copied them into ghost layers first; the parent collides
into the core of a padded block, fills its ghosts and streams the
shifted windows back out.  Both must produce the same state, virtual
clocks, ledger totals and traffic — under every executor (including
uneven ``processes:3`` shards, whose stream reads ranks of other
shards), in the solver's own arena or a caller's.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

import seed_lbmhd_block as seed
from repro import harness
from repro.apps.lbmhd import (
    CartesianDecomposition3D,
    LBMHDParams,
    stream_block,
    stream_periodic,
)
from repro.machines import get_machine
from repro.runtime import Arena
from repro.runtime.executors import ProcessExecutor
from repro.runtime.team import contiguous_shards
from repro.simmpi import Communicator

MACHINE = "X1"
STEPS = 8

#: (nprocs, params)
CONFIGS = {
    # the benchmark ladder's serial class: a (2, 2, 2) processor grid
    "ladder": (8, LBMHDParams(shape=(32, 32, 32))),
    # (2, 2, 1): z wraps locally
    "flat-z": (4, LBMHDParams(shape=(16, 16, 16))),
    # (2, 1, 1)
    "p2": (2, LBMHDParams(shape=(8, 8, 8))),
    # one rank: every axis wraps locally, nothing is sent
    "p1": (1, LBMHDParams(shape=(8, 8, 8))),
    # (3, 2, 2) over 4x3x5 blocks
    "odd": (12, LBMHDParams(shape=(12, 6, 10))),
    "mrt": (8, LBMHDParams(shape=(8, 8, 8), use_mrt=True, tau_ghost=0.9)),
}

_process_capable = ProcessExecutor(2).segment_support()
_needs_processes = pytest.mark.skipif(
    not _process_capable.ok, reason=_process_capable.reason
)
EXECUTORS = [
    "serial",
    "threads:2",
    pytest.param("processes:2", marks=_needs_processes),
    # 8 ranks over 3 workers: shards 0:3, 3:6, 6:8 span several boxes
    # of the processor grid
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
    sim = seed.SeedBlockLBMHD3D(params, comm)
    sim.run(STEPS)
    return _fingerprint(sim.global_state().ravel(), comm, ledger)


@pytest.mark.parametrize(
    "arena", [False, True], ids=["own-arena", "caller-arena"]
)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_solver_matches_block_parent_bitwise(config, executor, arena):
    nprocs, params = CONFIGS[config]
    result = harness.run(
        "lbmhd",
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


# -- the stream, one shard at a time -------------------------------------------


@pytest.mark.parametrize(
    "proc_grid,shape",
    [((2, 2, 2), (8, 8, 8)), ((3, 2, 2), (12, 6, 10)), ((4, 1, 2), (8, 4, 4))],
    ids=["2x2x2", "3x2x2", "4x1x2"],
)
@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_stream_shards_write_only_their_ranks(proc_grid, shape, workers):
    """Each contiguous shard of ranks, cut into boxes of the processor
    grid, writes exactly its own ranks; together they are the periodic
    pull-stream of the global lattice."""
    decomp = CartesianDecomposition3D(global_shape=shape, proc_grid=proc_grid)
    rng = np.random.default_rng(5)
    lattice = rng.standard_normal((72, *shape))
    post = np.stack(decomp.scatter(lattice), axis=1)
    out = np.full_like(post, np.nan)
    for lo, hi in contiguous_shards(decomp.nprocs, workers):
        stream_block(post, proc_grid, out, lo, hi)
        assert not np.isnan(out[:, :hi]).any()
        assert np.isnan(out[:, hi:]).all()
    got = decomp.gather([out[:, r] for r in range(decomp.nprocs)])
    assert np.array_equal(got, stream_periodic(lattice))
