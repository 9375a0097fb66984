"""LBMHD3D — 3-D lattice Boltzmann magneto-hydrodynamics (paper §5)."""

from .collision import CollisionParams, collide, collision_work
from .decomp import CartesianDecomposition3D, factor3d
from .diagnostics import (
    TurbulenceReport,
    load_checkpoint,
    save_checkpoint,
    shell_spectrum,
    turbulence_report,
)
from .equilibrium import FLOPS_PER_POINT, f_equilibrium, g_equilibrium
from .fields import (
    current_density,
    density,
    divergence,
    magnetic_field,
    moments,
    momentum,
    split_state,
    velocity,
    vorticity,
)
from .lattice import (
    CS2,
    NQ_F,
    NQ_G,
    NSLOTS,
    Q15_VELOCITIES,
    Q15_WEIGHTS,
    Q27_VELOCITIES,
    Q27_WEIGHTS,
)
from .solver import (
    Diagnostics,
    LBMHD3D,
    LBMHDParams,
    equilibrium_state,
    orszag_tang_fields,
)
from .mrt import MRTParams, collide_mrt
from .two_d import (
    LBMHD2D,
    LBMHD2DParams,
    f_equilibrium_2d,
    g_equilibrium_2d,
    step_work_2d,
)
from .stream import halo_bytes, stream_block, stream_periodic
from .workload import ES_HEADLINE, TABLE5_ROWS, LBMHDScenario, predict

__all__ = [
    "CS2",
    "CartesianDecomposition3D",
    "CollisionParams",
    "Diagnostics",
    "ES_HEADLINE",
    "FLOPS_PER_POINT",
    "LBMHD2D",
    "LBMHD2DParams",
    "LBMHD3D",
    "MRTParams",
    "LBMHDParams",
    "LBMHDScenario",
    "NQ_F",
    "NQ_G",
    "NSLOTS",
    "Q15_VELOCITIES",
    "Q15_WEIGHTS",
    "Q27_VELOCITIES",
    "Q27_WEIGHTS",
    "TABLE5_ROWS",
    "TurbulenceReport",
    "collide",
    "collide_mrt",
    "collision_work",
    "current_density",
    "density",
    "divergence",
    "equilibrium_state",
    "f_equilibrium",
    "f_equilibrium_2d",
    "factor3d",
    "g_equilibrium",
    "g_equilibrium_2d",
    "halo_bytes",
    "load_checkpoint",
    "magnetic_field",
    "moments",
    "momentum",
    "orszag_tang_fields",
    "predict",
    "save_checkpoint",
    "shell_spectrum",
    "split_state",
    "step_work_2d",
    "stream_block",
    "stream_periodic",
    "turbulence_report",
    "velocity",
    "vorticity",
]
