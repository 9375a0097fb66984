"""PARATEC against its dense-plane reference (``tests/seed_paratec.py``),
bit for bit.

The solver stores real-space slabs plane-major, ``(..., nz, n1, n2)``,
and prunes its planar FFT passes to the rows and columns the G-sphere
touches; the reference zero-fills full ``(n1, n2)`` planes of C-ordered
``(..., n1, n2, nz)`` slabs and runs dense ``ifft2``/``fft2`` over them.
Both must produce the same band stacks, potential, diagnostics, virtual
clocks, ledger totals and traffic — under every executor.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

import seed_paratec as seed
from repro import harness
from repro.apps.paratec import (
    NonlocalChannel,
    NonlocalPotential,
    ParatecParams,
    attach_nonlocal,
)
from repro.harness.apps import ParatecApp
from repro.machines import get_machine
from repro.runtime.executors import ProcessExecutor
from repro.simmpi import Communicator

MACHINE = "ES"
STEPS = 2

GRID16 = (16, 16, 16)
#: config -> (nprocs, params, with nonlocal projectors)
CONFIGS = {
    # the benchmark ladder's solver_serial class
    "ladder": (4, ParatecParams(grid_shape=GRID16, nbands=8), False),
    # 5/5/6 z-planes a rank
    "ragged-p3": (3, ParatecParams(grid_shape=GRID16, nbands=4), False),
    # more ranks than z-planes: four ranks hold none
    "p20-empty-slabs": (
        20,
        ParatecParams(grid_shape=GRID16, nbands=4),
        False,
    ),
    "nonlocal": (2, ParatecParams(), True),
}

_process_capable = ProcessExecutor(2).segment_support()
_needs_processes = pytest.mark.skipif(
    not _process_capable.ok, reason=_process_capable.reason
)
EXECUTORS = [
    "serial",
    "threads:2",
    pytest.param("processes:2", marks=_needs_processes),
    pytest.param("processes:3", marks=_needs_processes),
]


def _channels(params: ParatecParams) -> list[NonlocalChannel]:
    return [
        NonlocalChannel(atom=atom, strength=1.5 - k, width=0.7)
        for k, atom in enumerate(params.atoms)
    ]


class NonlocalParatecApp(ParatecApp):
    """PARATEC with a Kleinman-Bylander term on every atom."""

    key = "paratec-nonlocal"

    def setup(self, comm, params, arena=None, kernels=None):
        sim = super().setup(comm, params, arena=arena, kernels=kernels)
        vnl = NonlocalPotential(sim.dist, comm, _channels(params))
        attach_nonlocal(sim.ham, vnl)
        return sim


def _fingerprint(state_vector, diagnostics, comm, ledger) -> tuple:
    state = np.ascontiguousarray(state_vector)
    return (
        hashlib.sha256(state.tobytes()).hexdigest(),
        tuple(sorted(diagnostics.items())),
        comm.times.tobytes(),
        comm.elapsed,
        tuple(sorted(ledger.totals().as_record().items())),
        comm.trace.matrix().tobytes(),
        tuple(sorted(comm.trace.calls.items())),
    )


@lru_cache(maxsize=None)
def _seed_fingerprint(config: str) -> tuple:
    nprocs, params, nonlocal_term = CONFIGS[config]
    comm = Communicator(
        nprocs, machine=get_machine(MACHINE), trace=True, executor="serial"
    )
    ledger = comm.attach_phase_ledger()
    sim = seed.SeedParatec(params, comm)
    if nonlocal_term:
        attach_nonlocal(
            sim.ham, NonlocalPotential(sim.dist, comm, _channels(params))
        )
    for _ in range(STEPS):
        result = sim.scf_step()
    parts = [b.ravel() for b in sim.bands]
    parts += [s.ravel() for s in sim.ham.potential_slabs]
    parts.append(result.eigenvalues.astype(complex).ravel())
    diagnostics = {
        "band_energy": result.band_energy,
        "potential_change": result.potential_change,
    }
    return _fingerprint(np.concatenate(parts), diagnostics, comm, ledger)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("config", list(CONFIGS))
def test_solver_matches_seed_bitwise(config, executor):
    nprocs, params, nonlocal_term = CONFIGS[config]
    result = harness.run(
        NonlocalParatecApp() if nonlocal_term else "paratec",
        params,
        steps=STEPS,
        nprocs=nprocs,
        machine=MACHINE,
        trace=True,
        executor=executor,
    )
    got = _fingerprint(
        result.app.state_vector(result.state),
        result.diagnostics,
        result.comm,
        result.ledger,
    )
    want = _seed_fingerprint(config)
    names = ("state", "diagnostics", "times", "elapsed", "ledger", "trace",
             "calls")
    for name, g, w in zip(names, got, want):
        assert g == w, name


def test_empty_slabs_config_has_ranks_without_planes():
    nprocs, params, _ = CONFIGS["p20-empty-slabs"]
    sim = seed.SeedParatec(params, Communicator(nprocs))
    depths = [sim.fft.slab_shape(r)[2] for r in range(nprocs)]
    assert 0 in depths and sum(depths) == GRID16[2]
