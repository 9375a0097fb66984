"""PARATEC mini-app driver tying the pieces to the simulated runtime."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...simmpi.comm import Communicator
from ...workload import Work
from .cg import CGOptions, blas3_work
from .density import accumulate_density
from .fft3d import ParallelFFT3D
from .gvectors import GSphere, SphereDistribution
from .hamiltonian import Atom, Hamiltonian
from .scf import SCFDriver, SCFResult, initial_bands

#: ``Paratec.run`` stops once the potential moves less than this.
_SCF_TOLERANCE = 1e-4


@dataclass(frozen=True)
class ParatecParams:
    """Configuration of a PARATEC mini-run (laptop-scale defaults)."""

    ecut: float = 8.0
    grid_shape: tuple[int, int, int] = (12, 12, 12)
    nbands: int = 4
    atoms: tuple[Atom, ...] = (
        Atom(position=(0.25, 0.25, 0.25)),
        Atom(position=(0.75, 0.75, 0.75)),
    )
    cg_iterations: int = 5
    scf_iterations: int = 3
    mixing: float = 0.4
    seed: int = 11

    def __post_init__(self) -> None:
        if self.nbands < 1:
            raise ValueError("need at least one band")
        if self.scf_iterations < 1:
            raise ValueError("need at least one SCF iteration")


class Paratec:
    """Distributed plane-wave DFT solve over a simulated communicator."""

    app_key = "paratec"
    #: IPM phase labels of one SCF iteration ("fft" nests inside both:
    #: the global transposes attribute their traffic to it).
    phases = ("cg", "density", "fft")

    def __init__(
        self,
        params: ParatecParams,
        comm: Communicator,
        arena: Arena | None = None,
        kernels: "str | KernelBackend | None" = None,
    ) -> None:
        self.params = params
        self.comm = comm
        self.kernels = get_backend(kernels)
        self.sphere = GSphere(params.ecut, params.grid_shape)
        self.dist = SphereDistribution(self.sphere, comm.nprocs)
        self.fft = ParallelFFT3D(
            self.dist, comm, arena=arena, kernels=self.kernels
        )
        self.ham = Hamiltonian.from_atoms(self.fft, list(params.atoms))
        #: per rank, the ``(nbands, ng_local)`` stack of every band
        self.bands: list[np.ndarray] = initial_bands(
            self.fft, params.nbands, seed=params.seed
        )
        occ = np.zeros(params.nbands)
        occ[: max(1, params.nbands // 2)] = 2.0
        self.driver = SCFDriver(
            comm=comm,
            ham=self.ham,
            occupations=occ,
            cg_options=CGOptions(iterations=params.cg_iterations),
            mixing=params.mixing,
        )
        self.result: SCFResult | None = None

    def run(self, update_density: bool = True) -> SCFResult:
        """SCF steps until ``|dV|_max < _SCF_TOLERANCE``, at most
        ``params.scf_iterations`` of them (one without a density
        update)."""
        for iterations in range(1, self.params.scf_iterations + 1):
            result = self.scf_step(update_density)
            if not update_density or result.potential_change < _SCF_TOLERANCE:
                break
        self.result = replace(result, iterations=iterations)
        return self.result

    def scf_step(self, update_density: bool = True) -> SCFResult:
        """One SCF iteration (band solve + density/potential update).

        The harness-facing unit of stepping: each half charges its
        share of :meth:`sweep_work` under its phase, then runs.
        """
        work = self.sweep_work()
        self._charge("cg", work["cg"])
        eigenvalues = self.driver.solve_bands(self.bands)
        dv = 0.0
        if update_density:
            self._charge("density", work["density"])
            dv = self.driver.update_potential(self.bands)
        band_energy = float((self.driver.occupations * eigenvalues).sum())
        self.result = SCFResult(
            eigenvalues=eigenvalues,
            band_energy=band_energy,
            potential_change=dv,
            iterations=1,
        )
        return self.result

    def _charge(self, phase: str, works: list[Work]) -> None:
        with self.comm.phase(phase):
            for work in works:
                self.comm.compute_all([work] * self.comm.nprocs)

    def sweep_work(self) -> dict[str, list[Work]]:
        """Per-rank compute of one SCF iteration, by phase — the one
        source of both the charged compute and :attr:`flops_per_step`.

        The block CG applies H to all ``nb`` bands ``iterations + 1``
        times (the start, then one ``H W`` per iteration) and runs its
        Gram and rotation GEMMs on the ``3nb`` subspace; the density
        update transforms every band to real space once.
        """
        p = self.params
        ng_local = self.sphere.num_g / self.comm.nprocs
        return {
            "cg": [
                self.ham.apply_work().scaled(
                    p.nbands * (p.cg_iterations + 1)
                ),
                blas3_work(p.nbands, ng_local, p.cg_iterations),
            ],
            "density": [
                self.fft.transform_work("paratec.density").scaled(p.nbands)
            ],
        }

    @property
    def flops_per_step(self) -> float:
        """Total useful flops of one SCF iteration across all ranks."""
        per_rank = sum(
            w.flops for works in self.sweep_work().values() for w in works
        )
        return per_rank * self.comm.nprocs

    # -- checkpoint/restart ------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Snapshot wavefunctions + potential (``Checkpointable``).

        The SCF driver itself is stateless between sweeps: the mixed
        potential lives in the Hamiltonian and ``v_external`` is a
        constant, so the per-rank band stacks + potential slabs
        reproduce any later sweep.
        """
        return {
            "bands": [np.array(b, copy=True) for b in self.bands],
            "potential_slabs": [
                np.array(s, copy=True) for s in self.ham.potential_slabs
            ],
        }

    def restore_state(self, snapshot: dict) -> None:
        bands = snapshot["bands"]
        if [b.shape for b in bands] != [b.shape for b in self.bands]:
            raise ValueError("checkpoint band layout mismatch")
        self.bands = [np.array(b, copy=True) for b in bands]
        self.ham.set_potential(snapshot["potential_slabs"])
        self.result = None

    @property
    def eigenvalues(self) -> np.ndarray:
        if self.result is None:
            raise RuntimeError("run() first")
        return self.result.eigenvalues

    def density(self) -> np.ndarray:
        """Gathered real-space density of the current bands (one
        all-band transform)."""
        rho = accumulate_density(
            self.fft.sphere_to_real(self.bands), self.driver.occupations
        )
        return np.concatenate(rho, axis=2)
