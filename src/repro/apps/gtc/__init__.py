"""GTC — gyrokinetic particle-in-cell turbulence simulation (paper §4)."""

from .decomp import GTCDecomposition, choose_decomposition
from .deposit import (
    DEFAULT_WORK_VECTOR_COPIES,
    DEPOSIT_FLOPS_PER_PARTICLE,
    GYRO_POINTS,
    deposit_scalar,
    deposit_work,
    deposit_work_vector,
    gyro_ring,
    work_vector_memory_overhead,
)
from .grid import PoloidalGrid, TorusGrid
from .hybrid import (
    HybridVerdict,
    analyze as analyze_hybrid,
    hybrid_rate_factor,
    max_plane_points,
    memory_footprint_ratio,
)
from .particles import (
    DEFAULT_SPECIES,
    PARTICLE_FIELDS,
    PARTICLE_WORDS,
    ParticleArray,
    Species,
    load_multispecies,
    load_particles,
    split_particles,
)
from .poisson import electric_field, laplacian, poisson_work, solve_poisson
from .push import (
    PUSH_FLOPS_PER_PARTICLE,
    PushParams,
    gather_field,
    push_particles,
    push_work,
)
from .shift import classify, shift_block
from .solver import GTC, GTCParams
from .workload import (
    PAPER_NTOROIDAL,
    PARTICLES_PER_PROC,
    TABLE4_ROWS,
    GTCScenario,
    predict,
)

__all__ = [
    "DEFAULT_WORK_VECTOR_COPIES",
    "DEPOSIT_FLOPS_PER_PARTICLE",
    "GTC",
    "GTCDecomposition",
    "GTCParams",
    "GTCScenario",
    "GYRO_POINTS",
    "HybridVerdict",
    "analyze_hybrid",
    "PAPER_NTOROIDAL",
    "PARTICLES_PER_PROC",
    "PARTICLE_FIELDS",
    "PARTICLE_WORDS",
    "PUSH_FLOPS_PER_PARTICLE",
    "ParticleArray",
    "Species",
    "DEFAULT_SPECIES",
    "PoloidalGrid",
    "PushParams",
    "TABLE4_ROWS",
    "TorusGrid",
    "choose_decomposition",
    "classify",
    "deposit_scalar",
    "deposit_work",
    "deposit_work_vector",
    "electric_field",
    "gather_field",
    "gyro_ring",
    "hybrid_rate_factor",
    "laplacian",
    "load_multispecies",
    "max_plane_points",
    "memory_footprint_ratio",
    "load_particles",
    "poisson_work",
    "predict",
    "push_particles",
    "push_work",
    "shift_block",
    "solve_poisson",
    "split_particles",
    "work_vector_memory_overhead",
]
