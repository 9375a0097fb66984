"""End-to-end self-validation: run all four mini-apps and check physics.

Executes each application's numerics at laptop scale on the simulated
runtime and verifies the invariants the test suite enforces — a quick
"is this installation healthy, and are the numerics real?" check:

* LBMHD3D: mass/momentum/B conservation, serial == parallel;
* GTC: particle and charge conservation through deposition, field
  solve, push, and toroidal shift; work-vector == scalar deposition;
* FVCAM: air and tracer mass conservation, decomposition independence;
* PARATEC: parallel FFT == numpy, SCF orthonormality, free-electron
  ground state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return abs(self.value) <= self.threshold

    def render(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"  [{flag}] {self.name:<52} {self.value:10.2e}"


def _lbmhd_checks() -> list[Check]:
    from .. import harness
    from ..apps.lbmhd import LBMHDParams

    params = LBMHDParams(shape=(8, 8, 8))
    serial = harness.run("lbmhd", params, steps=0, nprocs=1).state
    d0 = serial.diagnostics()
    serial.run(5)
    parallel = harness.run("lbmhd", params, steps=5, nprocs=8).state
    d1 = serial.diagnostics()
    return [
        Check("lbmhd: mass conservation", (d1.mass - d0.mass) / d0.mass, 1e-12),
        Check(
            "lbmhd: momentum conservation",
            float(np.abs(np.array(d1.momentum) - np.array(d0.momentum)).max()),
            1e-9,
        ),
        Check(
            "lbmhd: serial == 8-rank (max diff)",
            float(
                np.abs(
                    serial.global_state() - parallel.global_state()
                ).max()
            ),
            1e-12,
        ),
    ]


def _gtc_checks() -> list[Check]:
    from .. import harness
    from ..apps.gtc import GTCParams, deposit_scalar, deposit_work_vector

    sim = harness.run(
        "gtc",
        GTCParams(mpsi=12, mtheta=16, ntoroidal=4, particles_per_cell=5),
        steps=0,
        nprocs=8,
    ).state
    n0, q0 = sim.total_particles(), sim.total_charge()
    sim.run(3)
    a = deposit_scalar(sim.torus.plane, sim.particles[0], 0.03)
    b = deposit_work_vector(sim.torus.plane, sim.particles[0], 8, 0.03)
    return [
        Check("gtc: particle count conservation", sim.total_particles() - n0, 0),
        Check("gtc: charge conservation", sim.total_charge() - q0, 1e-9),
        Check(
            "gtc: work-vector == scalar deposition",
            float(np.abs(a - b).max()),
            1e-10,
        ),
    ]


def _fvcam_checks() -> list[Check]:
    from .. import harness
    from ..apps.fvcam import FVCAMParams, LatLonGrid

    grid = LatLonGrid(im=24, jm=18, km=4)
    serial = harness.run(
        "fvcam", FVCAMParams(grid=grid, with_tracer=True), steps=0
    ).state
    m0, t0 = serial.total_mass(), serial.tracer_mass()
    serial.run(6)
    parallel = harness.run(
        "fvcam",
        FVCAMParams(grid=grid, py=3, pz=2, with_tracer=True),
        steps=6,
    ).state
    h_s, _, _ = serial.global_fields()
    h_p, _, _ = parallel.global_fields()
    return [
        Check(
            "fvcam: air mass conservation",
            (serial.total_mass() - m0) / m0,
            1e-12,
        ),
        Check(
            "fvcam: tracer mass conservation",
            (serial.tracer_mass() - t0) / max(abs(t0), 1e-30),
            1e-9,
        ),
        Check(
            "fvcam: serial == 6-rank (max h diff)",
            float(np.abs(h_s - h_p).max()),
            1e-9,
        ),
    ]


def _paratec_checks() -> list[Check]:
    from ..apps.paratec import (
        GSphere,
        Hamiltonian,
        ParallelFFT3D,
        ParatecParams,
        SphereDistribution,
        overlaps,
    )
    from ..simmpi import Communicator

    sphere = GSphere(ecut=8.0, grid_shape=(12, 12, 12))
    dist = SphereDistribution(sphere, 3)
    comm = Communicator(3)
    fft = ParallelFFT3D(dist, comm)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(sphere.num_g) + 1j * rng.standard_normal(
        sphere.num_g
    )
    dense = np.zeros(sphere.grid_shape, dtype=complex)
    ix, iy, iz = sphere.grid_indices()
    dense[ix, iy, iz] = psi
    full = fft.gather_slabs(fft.sphere_to_real(dist.scatter(psi)))
    fft_err = float(np.abs(full - np.fft.ifftn(dense)).max())

    from .. import harness

    solver = harness.run(
        "paratec", ParatecParams(scf_iterations=2), steps=0, nprocs=2
    ).state
    solver.run()
    gram = overlaps(solver.comm, solver.bands, solver.bands)
    worst = float(np.abs(gram - np.eye(len(gram))).max())
    return [
        Check("paratec: parallel FFT == numpy ifftn", fft_err, 1e-12),
        Check("paratec: SCF band orthonormality", worst, 1e-10),
    ]


def run() -> list[Check]:
    checks: list[Check] = []
    checks += _lbmhd_checks()
    checks += _gtc_checks()
    checks += _fvcam_checks()
    checks += _paratec_checks()
    return checks


def render() -> str:
    checks = run()
    lines = ["Self-validation: physics invariants of the four mini-apps", ""]
    lines += [c.render() for c in checks]
    passed = sum(c.passed for c in checks)
    lines.append("")
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines)
