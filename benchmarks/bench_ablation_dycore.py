"""Ablation: CAM's two dynamical cores on vector vs scalar machines.

The paper's FVCAM contribution is "the first reported vector
performance results for CAM simulations utilizing a finite-volume
dynamical core" — noteworthy precisely because the *Eulerian spectral*
core, dense in Legendre transforms and FFTs, was the traditional
vector-machine workload, while the finite-volume core's one-sided
branchy upwind operators were presumed vector-hostile.  This bench
times both mini-cores and compares their modeled %peak per machine.
"""

from __future__ import annotations

import numpy as np

from repro.apps.fvcam import (
    FVCAM,
    FVCAMParams,
    EulerianCore,
    LatLonGrid,
    PAPER_GRID,
    SpharmTransform,
    dynamics_work,
    eulerian_step_work,
)
from repro.machines import get_machine, make_model
from repro.simmpi import Communicator


def test_ablation_eulerian_step(benchmark):
    """Time one spectral-transform RK3 step (T31-ish truncation)."""
    t = SpharmTransform(lmax=31, nlat=48, radius=6.371e6)
    core = EulerianCore(transform=t, hyperdiffusion=1e16)
    rng = np.random.default_rng(0)
    grid = 1e-5 * rng.standard_normal(t.grid_shape)
    core.set_vorticity_grid(grid)
    benchmark(core.step, 600.0)
    assert np.isfinite(np.abs(core.zeta)).all()


def test_ablation_fv_step(benchmark):
    """Time one finite-volume step at a comparable resolution."""
    grid = LatLonGrid(im=64, jm=48, km=4)
    sim = FVCAM(FVCAMParams(grid=grid, py=4, pz=1, dt=60.0), Communicator(4))
    benchmark(sim.step)


def test_ablation_dycore_vector_friendliness(benchmark, report):
    """Modeled %peak of the two cores across machine families."""
    from repro.apps.fvcam import FVCAMScenario
    from repro.perfmodel.predict import model_of

    t = SpharmTransform(lmax=85, nlat=128, radius=6.371e6)  # ~T85
    spectral = eulerian_step_work(t)
    scenario = FVCAMScenario(672, 7)  # the paper's large 2D-7v run
    fvcam = model_of("fvcam")

    def sweep():
        rows = {}
        for m in ("Power3", "Opteron", "X1", "ES"):
            spec = get_machine(m)
            model = make_model(spec)
            rows[m] = (
                model.pct_peak(spectral),
                model.pct_peak(fvcam.rank_work(spec, scenario)),
            )
        return rows

    rows = benchmark(sweep)
    lines = [
        "Ablation: Eulerian spectral vs finite-volume dycore (modeled %peak)",
        "",
        f"{'machine':<10} {'spectral':>10} {'finite-vol':>11}",
    ]
    for m, (sp, fvp) in rows.items():
        lines.append(f"{m:<10} {sp:9.1f}% {fvp:10.1f}%")
    lines.append(
        "\nThe spectral core's dense transforms sustain far more of a "
        "vector machine's peak;\nthe paper's news was making the "
        "finite-volume core respectable there at all."
    )
    report("ablation-dycore", "\n".join(lines))
    # the headline gap: spectral sustains much more of the vector peak
    assert rows["ES"][0] > 1.5 * rows["ES"][1]
    assert rows["X1"][0] > 1.5 * rows["X1"][1]
