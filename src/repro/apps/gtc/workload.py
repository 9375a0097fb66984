"""Paper-scale performance prediction for GTC (Table 4).

The paper's scaling experiment holds the device grid fixed (64 toroidal
domains x ~32K-point poloidal planes) and grows the particle count with
the processor count, "so as to maintain the same number of particles
per processor, where each processor follows about 3.2 million
particles".  The particle decomposition supplies the concurrency beyond
64: ``npe_per_domain = P / 64`` ranks share each domain, paying one
charge-grid ``Allreduce`` per step over their subgroup — "as the number
of processors involved in this decomposition increases, the overhead
due to these reduction operations increases as well".
"""

from __future__ import annotations

from dataclasses import dataclass

from ...machines.spec import MachineSpec
from ...network.collectives import CollectiveModel
from ...network.model import NetworkModel
from ...perfmodel.predict import AppModel
from .deposit import deposit_work
from .grid import PoloidalGrid
from .poisson import poisson_work
from .push import push_work

#: The production run geometry behind Table 4.
PAPER_NTOROIDAL = 64
PAPER_PLANE = PoloidalGrid(mpsi=192, mtheta=168, r0=0.1, r1=1.0)  # ~32K pts
PARTICLES_PER_PROC = 3_200_000

#: Fraction of particles crossing a domain boundary per step.
SHIFT_FRACTION = 0.05


@dataclass(frozen=True)
class GTCScenario:
    """One Table 4 row: concurrency plus particles-per-cell label."""

    nprocs: int
    particles_per_cell: int

    @property
    def npe_per_domain(self) -> int:
        return max(1, self.nprocs // PAPER_NTOROIDAL)

    @property
    def label(self) -> str:
        return f"{self.particles_per_cell}/cell"


#: Concurrency/particles-per-cell pairs of Table 4.
TABLE4_ROWS: tuple[GTCScenario, ...] = (
    GTCScenario(64, 100),
    GTCScenario(128, 200),
    GTCScenario(256, 400),
    GTCScenario(512, 800),
    GTCScenario(1024, 1600),
    GTCScenario(2048, 3200),
)


def kernel_works(spec: MachineSpec, scenario: GTCScenario) -> dict:
    """Named per-rank compute kernels of one step (3.2M particles)."""
    vectorized = spec.kind.value == "vector"
    return {
        "charge deposition": deposit_work(PARTICLES_PER_PROC, vectorized),
        "gather + push": push_work(PARTICLES_PER_PROC, vectorized),
        "poisson solve": poisson_work(PAPER_PLANE),
    }


def comm_times(spec: MachineSpec, scenario: GTCScenario) -> dict:
    """Named per-rank communication costs of one step."""
    net = NetworkModel(spec, scenario.nprocs)
    coll = CollectiveModel(net)
    grid_bytes = PAPER_PLANE.num_points * 8.0
    shift_bytes = SHIFT_FRACTION * PARTICLES_PER_PROC * 6 * 8.0
    return {
        "charge Allreduce": coll.allreduce(grid_bytes, scenario.npe_per_domain),
        "toroidal shift": coll.halo_exchange(shift_bytes, num_neighbors=2),
    }


MODEL = AppModel("gtc", kernel_works, comm_times)
predict = MODEL.predict
