"""Paper-scale performance prediction for LBMHD3D (Table 5).

The analytic workload generator reuses the *same* per-point kernel
descriptor (:func:`repro.apps.lbmhd.collision.collision_work`) that the
instrumented solver charges, evaluated at the paper's grid sizes
(256^3 ... 1024^3) and concurrencies (16 ... 4800), plus the halo
communication model.  Tests verify the generator against instrumented
miniature runs, so the paper-scale numbers and the real numerics cannot
drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...machines.spec import MachineSpec
from ...network.collectives import CollectiveModel
from ...network.model import NetworkModel
from ...perfmodel.predict import AppModel
from .collision import COLLISION_REGISTER_DEMAND, collision_work
from .decomp import CartesianDecomposition3D
from .stream import halo_bytes


@dataclass(frozen=True)
class LBMHDScenario:
    """One Table 5 row: a global grid run at a fixed concurrency."""

    grid: int
    nprocs: int

    @property
    def global_shape(self) -> tuple[int, int, int]:
        return (self.grid,) * 3

    @property
    def label(self) -> str:
        return f"{self.grid}^3"


#: The concurrency/grid pairs of Table 5 (plus the 4800-processor ES
#: headline run from the abstract).
TABLE5_ROWS: tuple[LBMHDScenario, ...] = (
    LBMHDScenario(256, 16),
    LBMHDScenario(256, 64),
    LBMHDScenario(512, 256),
    LBMHDScenario(512, 512),
    LBMHDScenario(1024, 1024),
    LBMHDScenario(1024, 2048),
)

ES_HEADLINE = LBMHDScenario(1024, 4800)


def _local_shape(scenario: LBMHDScenario) -> tuple[float, float, float]:
    """Per-rank subgrid of the Cartesian decomposition.

    4800 does not factor into a divisible cube of 1024; such counts fall
    back to a load-balanced ideal split for the headline estimate.
    """
    try:
        return CartesianDecomposition3D.create(
            scenario.global_shape, scenario.nprocs
        ).local_shape
    except ValueError:
        side = (scenario.grid**3 / scenario.nprocs) ** (1.0 / 3.0)
        return (side, side, side)


def kernel_works(spec: MachineSpec, scenario: LBMHDScenario) -> dict:
    """Named per-rank compute kernels of one step."""
    local_points = float(np.prod(_local_shape(scenario)))
    work = collision_work(int(round(local_points)))
    # The fused grid-point loop is strip-mined over the whole subgrid:
    # trip counts saturate the 256-word registers for any realistic
    # block, so the effective vector length is the register-length cap.
    vl = min(256.0, local_points)
    return {"collide+stream": replace(work, avg_vector_length=vl)}


def comm_times(spec: MachineSpec, scenario: LBMHDScenario) -> dict:
    """Named per-rank communication costs of one step."""
    coll = CollectiveModel(NetworkModel(spec, scenario.nprocs))
    local = tuple(int(round(x)) for x in _local_shape(scenario))
    face_bytes = halo_bytes(local) / 6.0
    return {"halo exchange": coll.halo_exchange(face_bytes, num_neighbors=6)}


MODEL = AppModel(
    "lbmhd",
    kernel_works,
    comm_times,
    loop_registers=COLLISION_REGISTER_DEMAND,
)
predict = MODEL.predict
