"""Benches for the extension features: what-ifs, breakdowns, validation,
multi-species loading, checkpointing, forces."""

from __future__ import annotations

import numpy as np

from repro.experiments import breakdown, validate, whatif
from repro.experiments.common import AT_256


def test_whatif_counterfactuals(benchmark, report):
    data = benchmark(whatif.run)
    assert data["sx8_fplram"]["speedup"] > 1.0
    report("whatif", whatif.render())


def test_breakdown_sweep(benchmark, report):
    data = benchmark(breakdown.run)
    assert len(data) == len(AT_256) * len(breakdown.MACHINES)
    report("breakdown", breakdown.render())


def test_validation_suite(benchmark, report):
    checks = benchmark.pedantic(validate.run, rounds=1, iterations=1)
    assert all(c.passed for c in checks)
    report("validate", "\n".join(c.render() for c in checks))


def test_multispecies_loading(benchmark):
    from repro.apps.gtc import PoloidalGrid, Species, TorusGrid, load_multispecies

    torus = TorusGrid(plane=PoloidalGrid(mpsi=32, mtheta=64), ntoroidal=1)
    species = (
        Species(name="d", charge=1.0, mass=2.0, fraction=0.5),
        Species(name="t", charge=1.0, mass=3.0, fraction=0.5),
    )
    rng = np.random.default_rng(0)
    pop = benchmark(load_multispecies, torus, 100_000, 0, rng, species)
    assert len(pop) == 100_000


def test_lbmhd_checkpoint_roundtrip(benchmark):
    from repro.apps.lbmhd import (
        LBMHD3D,
        LBMHDParams,
        load_checkpoint,
        save_checkpoint,
    )
    from repro.simmpi import Communicator

    sim = LBMHD3D(LBMHDParams(shape=(16, 16, 16)), Communicator(4))

    def roundtrip():
        return load_checkpoint(save_checkpoint(sim), Communicator(4))

    restored = benchmark(roundtrip)
    assert restored.step_count == sim.step_count


def test_hellmann_feynman_forces(benchmark):
    from repro.apps.paratec import Atom, hellmann_feynman_forces

    rng = np.random.default_rng(1)
    rho = np.abs(rng.standard_normal((24, 24, 24)))
    atoms = [
        Atom(position=(0.2 * i, 0.3, 0.4), sigma=0.8) for i in range(4)
    ]
    forces = benchmark(hellmann_feynman_forces, rho, atoms)
    assert forces.shape == (4, 3)
