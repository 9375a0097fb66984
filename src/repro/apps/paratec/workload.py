"""Paper-scale performance prediction for PARATEC (Table 6).

The benchmark is "3 CG steps of a 488 atom CdSe quantum dot ... with a
35 Ry cut-off", the largest cell ever run with the code.  The synthetic
workload keeps the real run's proportions: ~60% of the flops in BLAS3
(subspace linear algebra), ~30% in the handwritten 3-D FFTs, ~10% in
other F90 loops, with the FFT transposes carrying essentially all of
the communication — "architectures with a poor balance between their
bisection bandwidth and computational rate will suffer performance
degradation at higher concurrencies".
"""

from __future__ import annotations

from dataclasses import dataclass

from ...machines.spec import MachineSpec
from ...network.collectives import CollectiveModel
from ...network.model import NetworkModel
from ...perfmodel.predict import AppModel
from ...workload import Work

#: CdSe quantum-dot benchmark geometry (§6.1): 488 atoms, 35 Ry.
NBANDS = 1100
FFT_GRID = (180, 180, 180)
NUM_G = 1_200_000

#: Total flops of one CG step (all ranks), and their split.
FLOPS_PER_CG_STEP = 8.0e12
BLAS3_FRACTION = 0.60
FFT_FRACTION = 0.30
OTHER_FRACTION = 0.10

#: Distributed FFTs per band per CG step (H|p>: forward + inverse) and
#: the band blocking of the transposes (bands aggregated per Alltoall).
FFTS_PER_BAND = 2
TRANSPOSES_PER_FFT = 2
BAND_BLOCK = 64


@dataclass(frozen=True)
class ParatecScenario:
    """One Table 6 row: the CdSe dot at one concurrency."""

    nprocs: int

    @property
    def label(self) -> str:
        return "488-CdSe"


TABLE6_ROWS: tuple[ParatecScenario, ...] = tuple(
    ParatecScenario(p) for p in (64, 128, 256, 512, 1024, 2048)
)


def kernel_works(spec: MachineSpec, scenario: ParatecScenario) -> dict:
    """Named per-rank compute kernels of one CG step."""
    flops = FLOPS_PER_CG_STEP / scenario.nprocs
    return {
        "BLAS3 (subspace)": Work(
            name="paratec.blas3",
            flops=flops * BLAS3_FRACTION,
            bytes_unit=flops * BLAS3_FRACTION / 16.0,  # high reuse zgemm
            blas3_fraction=1.0,
            cache_fraction=0.9,
        ),
        "3D FFT": Work(
            name="paratec.fft",
            flops=flops * FFT_FRACTION,
            bytes_unit=flops * FFT_FRACTION / 1.5,  # ~1.5 flops/byte
            vector_fraction=0.94,
            avg_vector_length=float(min(256, FFT_GRID[0])),
            fma_fraction=0.8,
            cache_fraction=0.6,
        ),
        "other F90": Work(
            name="paratec.f90",
            flops=flops * OTHER_FRACTION,
            bytes_unit=flops * OTHER_FRACTION / 1.0,
            vector_fraction=0.88,
            avg_vector_length=128.0,
            fma_fraction=0.7,
            cache_fraction=0.4,
        ),
    }


def comm_times(spec: MachineSpec, scenario: ParatecScenario) -> dict:
    """Named per-rank communication costs of one CG step."""
    p = scenario.nprocs
    coll = CollectiveModel(NetworkModel(spec, p))
    # "Even though the 3D FFT was written to minimize global
    # communications": only the populated sphere columns move through
    # the transposes — every rank redistributes its 1/P share of the
    # ~NUM_G complex coefficients, twice per FFT.
    bytes_per_rank_per_fft = TRANSPOSES_PER_FFT * 16.0 * NUM_G / p
    total_bytes = NBANDS * FFTS_PER_BAND * bytes_per_rank_per_fft
    num_alltoalls = max(
        1, NBANDS * FFTS_PER_BAND * TRANSPOSES_PER_FFT // BAND_BLOCK
    )
    per_alltoall_bytes = total_bytes / num_alltoalls
    return {
        "FFT transposes": num_alltoalls
        * coll.transpose(per_alltoall_bytes, p)
    }


MODEL = AppModel("paratec", kernel_works, comm_times)
predict = MODEL.predict
