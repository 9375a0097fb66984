"""FVCAM against its per-rank reference (``tests/seed_fvcam.py``), bit
for bit.

The solver steps arena-held rank blocks one shard region per phase,
with roll-free transport operators over stacked fields and a vectorised
remap; the reference packs, transports and remaps one rank and one
field at a time with ``np.roll``.  Both must produce the same state,
virtual clocks, ledger totals and traffic matrix — under every executor,
in the solver's own arena or a caller's.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

import seed_fvcam as seed
from repro import harness
from repro.apps.fvcam import (
    FVCAMParams,
    LatLonGrid,
    advect,
    remap_column,
    transport_2d,
    upwind_flux,
    vanleer_flux,
)
from repro.machines import get_machine
from repro.runtime import Arena
from repro.runtime.executors import ProcessExecutor
from repro.simmpi import Communicator

MACHINE = "Power3"
#: 8 steps cross the physics and remap intervals twice
STEPS = 8

CONFIGS = {
    # the benchmark ladder's class
    "ladder": FVCAMParams(grid=LatLonGrid(im=48, jm=48, km=8), py=4, pz=2),
    # the default grid, ragged in latitude: 4/5/5/5 rows
    "ragged": FVCAMParams(py=4, pz=1),
    "tracer": FVCAMParams(py=3, pz=2, with_tracer=True),
}

_process_capable = ProcessExecutor(2).segment_support()
EXECUTORS = [
    "serial",
    "threads:2",
    pytest.param(
        "processes:2",
        marks=pytest.mark.skipif(
            not _process_capable.ok, reason=_process_capable.reason
        ),
    ),
]


def _fingerprint(state_vector, comm, ledger) -> tuple:
    state = np.ascontiguousarray(state_vector)
    return (
        hashlib.sha256(state.tobytes()).hexdigest(),
        comm.times.tobytes(),
        comm.elapsed,
        tuple(sorted(ledger.totals().as_record().items())),
        comm.trace.matrix().tobytes(),
    )


@lru_cache(maxsize=None)
def _seed_fingerprint(config: str) -> tuple:
    params = CONFIGS[config]
    comm = Communicator(
        params.py * params.pz, machine=get_machine(MACHINE), trace=True
    )
    ledger = comm.attach_phase_ledger()
    sim = seed.SeedFVCAM(params, comm)
    sim.run(STEPS)
    parts = [f.ravel() for f in sim.global_fields()]
    if sim.q is not None:
        parts += [a.ravel() for a in sim.q]
    return _fingerprint(np.concatenate(parts), comm, ledger)


@pytest.mark.parametrize(
    "arena", [False, True], ids=["own-arena", "caller-arena"]
)
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_solver_matches_seed_bitwise(config, executor, arena):
    params = CONFIGS[config]
    result = harness.run(
        "fvcam",
        params,
        steps=STEPS,
        nprocs=params.py * params.pz,
        machine=MACHINE,
        trace=True,
        executor=executor,
        arena=Arena() if arena else None,
    )
    got = _fingerprint(
        result.app.state_vector(result.state), result.comm, result.ledger
    )
    want = _seed_fingerprint(config)
    names = ("state", "comm.times", "comm.elapsed", "ledger", "trace")
    for name, g, w in zip(names, got, want):
        assert g == w, name


# -- the operators, one call at a time -----------------------------------------

#: (q shape, courant shape): one field, and a stack of fields whose
#: leading axis the Courant numbers broadcast over
SHAPES = [((20, 24), (20, 24)), ((3, 4, 20, 24), (4, 20, 24))]


def _inputs(q_shape, c_shape, seed_value: int):
    rng = np.random.default_rng(seed_value)
    q = rng.standard_normal(q_shape)
    c = 0.9 * (2.0 * rng.random(c_shape) - 1.0)
    c[..., ::7] = 0.0  # faces exactly at rest take the c >= 0 branch
    return q, c


@pytest.mark.parametrize("shapes", SHAPES, ids=["field", "stack"])
@pytest.mark.parametrize("axis", [-1, -2])
@pytest.mark.parametrize("periodic", [True, False], ids=["wrap", "wall"])
@pytest.mark.parametrize(
    "op,ref",
    [
        (vanleer_flux, seed.seed_vanleer_flux),
        (upwind_flux, seed.seed_upwind_flux),
        (advect, seed.seed_advect),
    ],
    ids=["vanleer_flux", "upwind_flux", "advect"],
)
def test_operator_matches_seed_bitwise(op, ref, periodic, axis, shapes):
    for k in range(4):
        q, c = _inputs(*shapes, seed_value=k)
        if op is advect:
            c = seed.seed_vanleer_flux(q, c, periodic, axis)  # a flux
        got, want = op(q, c, periodic, axis), ref(q, c, periodic, axis)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_stacked_transport_matches_per_field_seed_bitwise():
    grid = LatLonGrid()
    q, cu = _inputs((4, 3, 23, 24), (3, 23, 24), seed_value=7)
    _, cv = _inputs((3, 23, 24), (3, 23, 24), seed_value=8)
    stacked = transport_2d(grid, q, cu, 0.5 * cv)
    for f in range(len(q)):
        want = seed.seed_transport_2d(grid, q[f], cu, 0.5 * cv)
        assert stacked[f].tobytes() == want.tobytes()


@pytest.mark.parametrize("nfields", [0, 1, 3])
def test_remap_matches_seed_bitwise(nfields, rng):
    h = 0.5 + rng.random((8, 5, 6))
    fields = [rng.standard_normal(h.shape) for _ in range(nfields)]
    got_h, got = remap_column(h, fields)
    want_h, want = seed.seed_remap_column(h, fields)
    assert got_h.tobytes() == want_h.tobytes()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
