"""Dataclasses describing the HEC platforms evaluated in the paper.

Every quantity in :class:`MachineSpec` is taken from Table 1 of the paper
or from its Section 2 prose (vector lengths, register counts, scalar-unit
ratios, cache sizes).  The specs are *descriptive*; timing behaviour is
implemented by :mod:`repro.machines.processor`, :mod:`repro.machines.memory`
and :mod:`repro.machines.vector`, which consume these records.

Units used throughout the package:

========================  =======================================
quantity                  unit
========================  =======================================
clock                     MHz
peak / rates              Gflop/s (= 1e9 flop/s)
bandwidth                 GB/s (= 1e9 byte/s)
latency                   microseconds
message sizes             bytes
time                      seconds
========================  =======================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class ProcessorKind(enum.Enum):
    """Broad microarchitecture family of a processor."""

    SUPERSCALAR = "superscalar"
    VECTOR = "vector"


class NetworkTopology(enum.Enum):
    """Interconnect topology families appearing in Table 1."""

    FAT_TREE = "fat-tree"
    HYPERCUBE_4D = "4d-hypercube"
    CROSSBAR = "crossbar"
    TORUS_2D = "2d-torus"
    OMEGA = "omega"


@dataclass(frozen=True)
class CacheSpec:
    """One level of a cache hierarchy.

    Attributes
    ----------
    level:
        1, 2, 3 ... (or 0 for a vector machine's "Ecache"-style shared cache).
    size_kib:
        Capacity in KiB.
    bandwidth_gbs:
        Sustainable bandwidth to the core(s) in GB/s.
    holds_fp:
        Whether floating-point data is cached at this level.  The Itanium2
        famously does *not* keep FP data in L1 — the paper attributes part
        of its poor LBMHD/GTC showing to exactly this.
    shared:
        True when the cache is shared between the processors of a node
        (e.g. the X1 MSP Ecache shared by four SSPs).
    """

    level: int
    size_kib: float
    bandwidth_gbs: float = 0.0
    holds_fp: bool = True
    shared: bool = False


@dataclass(frozen=True)
class VectorSpec:
    """Vector-unit parameters for parallel vector processors.

    Attributes
    ----------
    register_length:
        Number of 64-bit words per vector register (256 for ES/SX-8 and
        for the X1 in MSP mode, 64 per SSP).
    num_registers:
        Architected vector registers (72 on ES/SX-8, 32 on the X1) —
        fewer registers force spilling in complex loop bodies, which the
        paper observed while vectorizing the LBMHD collision kernel on X1.
    num_pipes:
        Replicated vector pipe sets feeding the peak rate.
    startup_cycles:
        Effective dead time (pipeline fill + instruction overhead) per
        vector instruction, in clock cycles.  Determines how quickly
        efficiency degrades at short vector lengths.
    scalar_ratio:
        Peak of the attached scalar unit relative to the vector peak.
        ES and SX-8 scalar units run at one-eighth of vector peak; the X1
        SSP's 400 MHz 2-way scalar core is a much smaller fraction of the
        12.8 Gflop/s MSP.
    gather_bw_fraction:
        Sustainable gather/scatter (irregular access) bandwidth as a
        fraction of unit-stride STREAM bandwidth.  The ES's FPLRAM keeps
        this high; the SX-8's commodity DDR2-SDRAM does not — the paper
        blames exactly this for the SX-8's sub-2x GTC speedup over ES.
    multistream_width:
        Number of SSP-like lanes ganged into the programming unit
        (4 for the X1 MSP, 1 elsewhere).  In a multistreamed serial
        section only one of the lanes' scalar units does useful work.
    """

    register_length: int
    num_registers: int
    num_pipes: int
    startup_cycles: float
    scalar_ratio: float
    gather_bw_fraction: float
    multistream_width: int = 1


@dataclass(frozen=True)
class ScalarSpec:
    """Superscalar-core parameters that the paper's analysis leans on.

    Attributes
    ----------
    has_fma:
        Fused multiply-add issue (Power3, Itanium2).  The Opteron lacks it
        and instead needs paired SSE operands — the paper cites this as a
        PARATEC/BLAS3 handicap.
    simd_pairing_efficiency:
        For SSE-style SIMD, the achievable fraction of peak when operand
        pairing cannot always be satisfied (1.0 when not applicable).
    fp_in_l1:
        Whether FP loads are served by L1 (False on Itanium2).
    gather_bw_fraction:
        Irregular-access bandwidth as a fraction of STREAM bandwidth.
        The Opteron's on-chip memory controller gives it the edge here.
    issue_efficiency:
        Fraction of nominal peak reachable on well-scheduled, cache-
        resident, non-BLAS3 compute loops (covers issue-width limits,
        branches, and address generation).
    """

    has_fma: bool
    simd_pairing_efficiency: float
    fp_in_l1: bool
    gather_bw_fraction: float
    issue_efficiency: float


@dataclass(frozen=True)
class NodeSpec:
    """SMP-node level organisation."""

    cpus_per_node: int

    memory_gib: float = 16.0
    """Main memory per SMP node in GiB — the budget the work-vector
    method's 256 grid copies must fit into, which is what rules out
    hybrid MPI/OpenMP GTC on the vector machines."""

    smp_memory_contention: float = 1.0
    """Factor (<= 1) by which per-CPU STREAM bandwidth degrades when all
    CPUs in the node stream simultaneously.  Table 1 already reports the
    all-CPUs-competing EP-STREAM figure, so this defaults to 1."""

    network_ports_shared_by: int = 1
    """Nodes per network port: 2 on the X1E, whose doubled module density
    makes node pairs share ports (Table 1 footnote)."""


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of one evaluated platform.

    The numeric fields mirror Table 1 column-for-column; the nested specs
    capture the Section 2 prose needed by the timing models.
    """

    name: str
    kind: ProcessorKind
    clock_mhz: float
    peak_gflops: float
    stream_bw_gbs: float
    mpi_latency_us: float
    mpi_bw_gbs: float
    topology: NetworkTopology
    node: NodeSpec
    interconnect_name: str = ""
    vector: VectorSpec | None = None
    scalar: ScalarSpec | None = None
    caches: tuple[CacheSpec, ...] = field(default_factory=tuple)
    blas3_efficiency: float = 0.80
    """Fraction of peak sustained inside vendor dense-linear-algebra /
    library-FFT kernels (ESSL on the Power3 etc.).  PARATEC spends ~60%
    of its time there, which is why it tops 60% of peak on the Power3."""

    bisection_oversubscription: float = 1.0
    """Factor by which the installed network undershoots full bisection
    at the evaluated scale (the InfiniBand fabric of the Opteron cluster
    was oversubscribed, which the paper blames for PARATEC's poor
    512-way all-to-all scaling there)."""

    max_processors: int = 1 << 16
    notes: str = ""

    def __post_init__(self) -> None:
        if self.kind is ProcessorKind.VECTOR and self.vector is None:
            raise ValueError(f"vector machine {self.name!r} needs a VectorSpec")
        if self.kind is ProcessorKind.SUPERSCALAR and self.scalar is None:
            raise ValueError(
                f"superscalar machine {self.name!r} needs a ScalarSpec"
            )
        if self.peak_gflops <= 0:
            raise ValueError("peak_gflops must be positive")
        if self.stream_bw_gbs <= 0:
            raise ValueError("stream_bw_gbs must be positive")

    @property
    def bytes_per_flop(self) -> float:
        """STREAM bytes available per peak flop (Table 1 'Peak Stream')."""
        return self.stream_bw_gbs / self.peak_gflops

    def pct_of_peak(self, gflops_per_proc: float) -> float:
        """Express a sustained per-processor rate as percentage of peak."""
        return 100.0 * gflops_per_proc / self.peak_gflops
