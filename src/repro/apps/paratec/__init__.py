"""PARATEC — plane-wave density functional theory (paper §6)."""

from .cg import CGOptions, blas3_work, block_cg, overlaps
from .density import (
    accumulate_density,
    exchange_potential,
    hartree_potential,
    mix_potentials,
    total_potential,
)
from .fft3d import ParallelFFT3D
from .forces import (
    external_energy,
    hellmann_feynman_forces,
    relax_atoms,
)
from .projectors import (
    NonlocalChannel,
    NonlocalPotential,
    attach_nonlocal,
)
from .gvectors import GSphere, SphereDistribution, load_balance_columns
from .hamiltonian import Atom, Hamiltonian, build_local_potential
from .scf import SCFDriver, SCFResult, initial_bands
from .solver import Paratec, ParatecParams
from .workload import (
    FLOPS_PER_CG_STEP,
    NBANDS,
    NUM_G,
    TABLE6_ROWS,
    ParatecScenario,
    predict,
)

__all__ = [
    "Atom",
    "CGOptions",
    "FLOPS_PER_CG_STEP",
    "GSphere",
    "Hamiltonian",
    "NBANDS",
    "NonlocalChannel",
    "NonlocalPotential",
    "NUM_G",
    "ParallelFFT3D",
    "Paratec",
    "ParatecParams",
    "ParatecScenario",
    "SCFDriver",
    "SCFResult",
    "SphereDistribution",
    "TABLE6_ROWS",
    "accumulate_density",
    "attach_nonlocal",
    "blas3_work",
    "block_cg",
    "build_local_potential",
    "exchange_potential",
    "external_energy",
    "hartree_potential",
    "hellmann_feynman_forces",
    "initial_bands",
    "load_balance_columns",
    "mix_potentials",
    "overlaps",
    "predict",
    "relax_atoms",
    "total_potential",
]
