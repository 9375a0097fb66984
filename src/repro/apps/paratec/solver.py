"""PARATEC mini-app driver tying the pieces to the simulated runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...simmpi.comm import Communicator
from .cg import Bands, CGOptions, blas3_work
from .fft3d import ParallelFFT3D
from .gvectors import GSphere, SphereDistribution
from .hamiltonian import Atom, Hamiltonian
from .scf import SCFDriver, SCFResult, initial_bands


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


def _sweep_segment(rank: int, shm, args) -> None:
    """One rank's CG-sweep compute charges (band loops + BLAS3).

    Module-level ``(rank, shm, args)`` segment (docs/executors.md):
    pure accounting, so it marshals home from forked workers as
    deferred charges with no state to return.
    """
    for _ in range(args.nbands):
        args.comm.compute(rank, args.per_band)
    args.comm.compute(rank, args.blas3)


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
        self.bands: Bands = initial_bands(
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
        """Run the SCF cycle, charging compute work as it goes."""
        # charge per-sweep work: per band, ~2 H-applications per CG
        # iteration (each 2 FFTs) + the BLAS3 subspace work.
        self.comm.map_ranks(self._sweep_partial())
        self.result = self.driver.run(
            self.bands,
            max_iterations=self.params.scf_iterations,
            update_density=update_density,
        )
        return self.result

    def scf_step(self, update_density: bool = True) -> SCFResult:
        """One SCF iteration (band solve + density/potential update).

        The harness-facing unit of stepping: charges the per-sweep
        compute work under the "cg" phase, then runs exactly one
        ``solve_bands`` / ``update_potential`` round.  ``run()`` above
        keeps its original all-at-once behavior for direct users.
        """
        with self.comm.phase("cg"):
            self.comm.map_ranks(self._sweep_partial())
        eigenvalues = self.driver.solve_bands(self.bands)
        dv = (
            self.driver.update_potential(self.bands)
            if update_density
            else 0.0
        )
        band_energy = float((self.driver.occupations * eigenvalues).sum())
        self.result = SCFResult(
            eigenvalues=eigenvalues,
            band_energy=band_energy,
            potential_change=dv,
            iterations=1,
        )
        return self.result

    def _sweep_partial(self):
        """The bound per-rank sweep segment for one charging region."""
        ng_local = self.sphere.num_g / self.comm.nprocs
        per_band = self.ham.apply_work().scaled(
            2.0 * self.params.cg_iterations
        )
        return partial(
            _sweep_segment,
            shm=None,
            args=SimpleNamespace(
                comm=self.comm,
                nbands=self.params.nbands,
                per_band=per_band,
                blas3=blas3_work(self.params.nbands, ng_local),
            ),
        )

    @property
    def flops_per_step(self) -> float:
        """Total useful flops of one SCF iteration across all ranks."""
        ng_local = self.sphere.num_g / self.comm.nprocs
        per_band = self.ham.apply_work().scaled(
            2.0 * self.params.cg_iterations
        )
        per_rank = (
            self.params.nbands * per_band.flops
            + blas3_work(self.params.nbands, ng_local).flops
        )
        return per_rank * self.comm.nprocs

    # -- checkpoint/restart ------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Snapshot wavefunctions + potential (``Checkpointable``).

        The SCF driver itself is stateless between sweeps: the mixed
        potential lives in the Hamiltonian and ``v_external`` is a
        constant, so bands + potential slabs reproduce any later sweep.
        """
        return {
            "bands": [
                [np.array(a, copy=True) for a in band]
                for band in self.bands
            ],
            "potential_slabs": [
                np.array(s, copy=True) for s in self.ham.potential_slabs
            ],
        }

    def restore_state(self, snapshot: dict) -> None:
        if len(snapshot["bands"]) != len(self.bands):
            raise ValueError("checkpoint band count mismatch")
        self.bands = [
            [np.array(a, copy=True) for a in band]
            for band in snapshot["bands"]
        ]
        self.ham.set_potential(
            [np.array(s, copy=True) for s in snapshot["potential_slabs"]]
        )
        self.result = None

    @property
    def eigenvalues(self) -> np.ndarray:
        if self.result is None:
            raise RuntimeError("run() first")
        return self.result.eigenvalues

    def density(self) -> np.ndarray:
        """Gathered real-space density of the current bands."""
        from .density import accumulate_density

        band_slabs = [self.fft.sphere_to_real(b) for b in self.bands]
        rho = accumulate_density(band_slabs, self.driver.occupations)
        return np.concatenate(rho, axis=2)
