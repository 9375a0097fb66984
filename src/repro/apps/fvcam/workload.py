"""Paper-scale performance prediction for FVCAM (Table 3, Figures 3-4).

The benchmark is the 0.5 x 0.625 degree "D" mesh (576 x 361 x 26) in
three decompositions: 1-D latitude, and 2-D (latitude, level) with
``pz`` of 4 or 7.  OpenMP hybrid parallelism is used where it helped —
"only on the Power3 and ES did OpenMP enhance performance ... four
OpenMP threads was the optimal choice" — which multiplies the latitude
count per subdomain and relaxes the 3-latitude MPI limit.

The modeled mechanisms behind the paper's trends:

* fixed problem size: per-processor work falls linearly, halo and
  transpose communication falls more slowly -> %peak declines with P;
* "the vector platforms also suffer from a reduction in vector lengths
  at increasing concurrencies" — the polar-filter FFT batch width is
  the latitude count per subdomain;
* the X1E's higher clock without commensurate memory/interconnect
  improvement caps its gain over the X1 at ~14%.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...machines.spec import MachineSpec
from ...network.collectives import CollectiveModel
from ...network.model import NetworkModel
from ...perfmodel.predict import AppModel
from .dynamics import dynamics_work
from .grid import D_GRID, LatLonGrid
from .physics import physics_work
from .polarfilter import filter_work
from .vertical import remap_work, transpose_bytes

#: The D-mesh at paper scale (full-sphere latitude count).
PAPER_GRID = LatLonGrid(im=D_GRID[0], jm=D_GRID[1], km=D_GRID[2] + 0)

#: Machines that benefited from OpenMP, and the thread count used.
OPENMP_THREADS = {"Power3": 4, "ES": 4}

#: Dynamics steps between remaps, and the remap's share of a step.
REMAP_INTERVAL = 4


@dataclass(frozen=True)
class FVCAMScenario:
    """One Table 3 row: decomposition x processor count."""

    nprocs: int
    pz: int = 1  # 1 -> "1D"

    @property
    def label(self) -> str:
        return "1D" if self.pz == 1 else f"2D-{self.pz}v"


#: The (decomposition, P) cells of Table 3.
TABLE3_ROWS: tuple[FVCAMScenario, ...] = (
    FVCAMScenario(32, 1),
    FVCAMScenario(64, 1),
    FVCAMScenario(128, 1),
    FVCAMScenario(256, 1),
    FVCAMScenario(128, 4),
    FVCAMScenario(256, 4),
    FVCAMScenario(376, 4),
    FVCAMScenario(512, 4),
    FVCAMScenario(336, 7),
    FVCAMScenario(644, 7),
    FVCAMScenario(672, 7),
    FVCAMScenario(896, 7),
    FVCAMScenario(1680, 7),
)

#: OpenMP parallel efficiency within an SMP node.
OMP_EFFICIENCY = 0.85


def layout(spec: MachineSpec, scenario: FVCAMScenario) -> tuple[int, float]:
    """(MPI ranks, latitudes per subdomain) for a machine/scenario."""
    threads = OPENMP_THREADS.get(spec.name, 1)
    ranks = max(1, scenario.nprocs // threads)
    py = max(1, ranks // scenario.pz)
    lats = PAPER_GRID.jm / py
    return ranks, lats


def kernel_works(spec: MachineSpec, scenario: FVCAMScenario) -> dict:
    """Named per-*processor* compute kernels of one dynamics+physics step.

    The vector port "moved the latitude loops to the lowest level, to
    provide greatest opportunity for parallelism" — so the vector
    length of the dynamics (and of the batched polar-filter FFTs) is
    the latitude count of the subdomain, the quantity a finer
    decomposition starves.
    """
    grid = PAPER_GRID
    points_per_proc = grid.total_points / scenario.nprocs
    _, lats = layout(spec, scenario)
    # polar filter: ~1/3 of latitudes are filtered; the FFT batch width
    # on this processor is its share of the subdomain's filtered rows.
    filtered_share = len(grid.filtered_rows) / grid.jm
    rows_local = max(1, int(filtered_share * lats))
    return {
        # Dynamics inner loops sweep latitude tiles by unrolled longitude
        # blocks; the polar-filter FFT batch is limited by the raw
        # latitude count (the harsher constraint).
        "dynamics": replace(
            dynamics_work(grid, int(points_per_proc)),
            avg_vector_length=float(max(2.0, min(256.0, lats * 16.0))),
        ),
        "physics": physics_work(grid, int(points_per_proc)),
        "polar filter": replace(
            filter_work(grid, rows_local * max(1, grid.km // scenario.pz)),
            avg_vector_length=float(max(1.0, min(256.0, rows_local))),
        ),
        "vertical remap": remap_work(
            grid, int(grid.points_per_level / scenario.nprocs)
        ).scaled(1.0 / REMAP_INTERVAL),
    }


def comm_times(spec: MachineSpec, scenario: FVCAMScenario) -> dict:
    """Named per-processor communication costs of one step."""
    grid = PAPER_GRID
    ranks, _ = layout(spec, scenario)
    coll = CollectiveModel(NetworkModel(spec, ranks))
    km_local = max(1, grid.km // scenario.pz)
    # the split scheme exchanges halos once per directional sweep and
    # sub-step: ~4 exchanges of 2 ghost rows x 3 fields per time step,
    # plus two scalar reductions (CFL checks / diagnostics).
    halo_bytes = 2 * grid.im * km_local * 3 * 8.0
    out = {
        "latitude halos": 4.0 * coll.halo_exchange(halo_bytes, 2)
        + 2.0 * coll.allreduce(8.0, ranks)
    }
    if scenario.pz > 1:
        py = max(1, ranks // scenario.pz)
        vert_bytes = scenario.pz * (grid.jm / py) * grid.im * 8.0
        out["vertical sums"] = coll.allreduce(vert_bytes, scenario.pz)
        out["remap transposes"] = (
            2.0
            * coll.transpose(
                transpose_bytes(grid, py, scenario.pz), scenario.pz
            )
            / REMAP_INTERVAL
        )
    return out


def adjust_compute(
    t: float, spec: MachineSpec, scenario: FVCAMScenario
) -> float:
    """OpenMP efficiency, then the physics load imbalance."""
    threads = OPENMP_THREADS.get(spec.name, 1)
    if threads > 1:
        t /= OMP_EFFICIENCY
    # "load balancing improves performance within the physics package
    # ... Only on the Cray X1 and X1E did load balancing improve
    # performance" -- the others carry a growing physics imbalance.
    if spec.name not in ("X1", "X1E", "X1-SSP"):
        ranks_lb = max(1, scenario.nprocs // threads)
        t *= 1.0 + 0.04 * np.log2(max(ranks_lb, 2))
    return t


MODEL = AppModel(
    "fvcam", kernel_works, comm_times, adjust_compute=adjust_compute
)
predict = MODEL.predict


#: Simulated seconds advanced per modeled dynamics step.  The 0.5
#: degree D-mesh CFL forces ~18 s effective dynamics substeps (the
#: large physics step is split into many Lagrangian sub-steps).
DT_SECONDS = 18.0


def simulated_days_per_day(machine: str, scenario: FVCAMScenario) -> float:
    """Figure 4's metric: simulated days per wall-clock day.

    One simulated day needs 86400 / DT_SECONDS dynamics steps; each
    step costs the modeled wall time.
    """
    t_step = predict(machine, scenario).wall_seconds
    steps_per_sim_day = 86400.0 / DT_SECONDS
    return 86400.0 / (steps_per_sim_day * t_step)
