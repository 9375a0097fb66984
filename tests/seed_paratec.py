"""Reference PARATEC transform path: the dense-plane FFT of commit
``5663504``.

An independent implementation for ``test_paratec_seed`` to compare
:class:`~repro.apps.paratec.solver.Paratec` against, bit for bit.  Kept
as that commit wrote it: real-space slabs are C-ordered ``(..., n1, n2,
nz)`` arrays, the column->slab transpose places every column into
zero-filled full planes, the planar passes are dense ``ifft2``/``fft2``
over axes ``(-3, -2)``, the slab->column transpose gathers from full
planes, and the potential slabs are C-ordered too.  That commit ran its
ranks through shard regions that charge nothing; here they are plain
rank loops, and its arena staging buffers are fresh arrays.

Copied from commit ``5663504`` (``src/repro/apps/paratec/fft3d.py``,
``hamiltonian.py``, ``density.py``, ``scf.py``, ``solver.py``); the
G-sphere, its distribution, the block CG, the preconditioner kernel and
the work records are imported because they are unchanged from that
commit.
"""

from __future__ import annotations

import numpy as np

from repro.apps.paratec.cg import CGOptions, blas3_work, block_cg
from repro.apps.paratec.density import (
    exchange_potential,
    hartree_potential,
    mix_potentials,
)
from repro.apps.paratec.gvectors import (
    GSphere,
    SphereDistribution,
    _wrap_index,
)
from repro.apps.paratec.hamiltonian import build_local_potential
from repro.apps.paratec.scf import SCFResult, initial_bands
from repro.apps.paratec.solver import ParatecParams
from repro.kernels import get_backend
from repro.simmpi.comm import Communicator
from repro.workload import Work

# -- fft3d.py -----------------------------------------------------------------


class SeedFFT3D:
    """The sphere <-> slab engine with dense planar passes."""

    def __init__(self, dist: SphereDistribution, comm: Communicator) -> None:
        self.dist = dist
        self.comm = comm
        self.kernels = get_backend(None)
        sphere = dist.sphere
        n1, n2, n3 = sphere.grid_shape
        ix, iy, iz = sphere.grid_indices()
        cols = sphere.columns()
        self._col_keys: list[np.ndarray] = []
        self._col_of_point: list[np.ndarray] = []
        self._gz_of_point: list[np.ndarray] = []
        for rank in range(dist.nranks):
            keys = np.array(
                [
                    (
                        _wrap_index(np.array(cols[c][0][0]), n1),
                        _wrap_index(np.array(cols[c][0][1]), n2),
                    )
                    for c in dist.columns_of(rank)
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
            self._col_keys.append(keys)
            pts = dist.points_of(rank)
            key_lookup = {
                (int(k[0]), int(k[1])): idx for idx, k in enumerate(keys)
            }
            self._col_of_point.append(
                np.array(
                    [key_lookup[(int(ix[p]), int(iy[p]))] for p in pts],
                    dtype=np.int64,
                )
            )
            self._gz_of_point.append(iz[pts])
        self._slab_bounds = np.linspace(0, n3, dist.nranks + 1).astype(int)
        self._all_keys = np.concatenate(self._col_keys, axis=0)
        ncols = np.array([len(k) for k in self._col_keys], dtype=np.int64)
        self._col_offsets = np.concatenate(([0], np.cumsum(ncols)))

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.dist.sphere.grid_shape

    def slab_range(self, rank: int) -> tuple[int, int]:
        return int(self._slab_bounds[rank]), int(self._slab_bounds[rank + 1])

    def slab_shape(self, rank: int) -> tuple[int, int, int]:
        n1, n2, _ = self.grid_shape
        lo, hi = self.slab_range(rank)
        return (n1, n2, hi - lo)

    def gather_slabs(self, slabs: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(slabs, axis=2)

    def sphere_to_real(self, coeffs: list[np.ndarray]) -> list[np.ndarray]:
        p = self.comm.nprocs
        n1, n2, n3 = self.grid_shape
        lines = []
        for rank in range(p):
            c = coeffs[rank]
            line = np.zeros(
                (*c.shape[:-1], len(self._col_keys[rank]), n3), np.complex128
            )
            line[..., self._col_of_point[rank], self._gz_of_point[rank]] = c
            lines.append(np.fft.ifft(line, axis=-1))

        bounds = self._slab_bounds
        send = [
            [lines[i][..., bounds[j] : bounds[j + 1]] for j in range(p)]
            for i in range(p)
        ]
        with self.comm.phase("fft"):
            recv = self.comm.alltoallv(send, copy=False)
        off = self._col_offsets
        slabs = []
        for j in range(p):
            nz = self.slab_shape(j)[2]
            lead = recv[j][0].shape[:-2]
            slab = np.zeros((*lead, n1, n2, nz), np.complex128)
            rows = np.zeros((*lead, int(off[-1]), nz), np.complex128)
            for i in range(p):
                rows[..., off[i] : off[i + 1], :] = recv[j][i]
            slab[..., self._all_keys[:, 0], self._all_keys[:, 1], :] = rows
            slabs.append(np.fft.ifft2(slab, axes=(-3, -2)))
        return slabs

    def real_to_sphere(self, slabs: list[np.ndarray]) -> list[np.ndarray]:
        p = self.comm.nprocs
        off = self._col_offsets
        send = []
        for j in range(p):
            f2 = np.fft.fft2(slabs[j], axes=(-3, -2))
            allcols = f2[..., self._all_keys[:, 0], self._all_keys[:, 1], :]
            send.append(
                [allcols[..., off[i] : off[i + 1], :] for i in range(p)]
            )
        with self.comm.phase("fft"):
            recv = self.comm.alltoallv(send, copy=False)
        points = []
        for i in range(p):
            lead = recv[i][0].shape[:-2]
            line = np.zeros(
                (*lead, len(self._col_keys[i]), self.grid_shape[2]),
                np.complex128,
            )
            for j in range(p):
                z0, z1 = self.slab_range(j)
                line[..., z0:z1] = recv[i][j]
            fz = np.fft.fft(line, axis=-1)
            points.append(fz[..., self._col_of_point[i], self._gz_of_point[i]])
        return points

    def transform_work(self, name: str = "paratec.fft3d") -> Work:
        n1, n2, n3 = self.grid_shape
        n_total = n1 * n2 * n3
        flops = 5.0 * n_total * np.log2(max(n_total, 2)) / self.comm.nprocs
        return Work(
            name=name,
            flops=flops,
            bytes_unit=16.0 * n_total / self.comm.nprocs * 4,
            vector_fraction=0.95,
            avg_vector_length=float(min(256, max(n1, n3))),
            fma_fraction=0.8,
            cache_fraction=0.6,
        )


# -- hamiltonian.py -----------------------------------------------------------


class SeedHamiltonian:
    """Kinetic + local potential on C-ordered potential slabs."""

    def __init__(self, fft: SeedFFT3D, atoms) -> None:
        self.fft = fft
        dist = fft.dist
        kin = dist.sphere.kinetic
        self._kinetic_local = [
            kin[dist.points_of(r)] for r in range(dist.nranks)
        ]
        v_full = build_local_potential(fft.grid_shape, list(atoms))
        self.potential_slabs = [
            np.ascontiguousarray(v_full[:, :, slice(*fft.slab_range(r))])
            for r in range(dist.nranks)
        ]

    def set_potential(self, slabs: list[np.ndarray]) -> None:
        self.potential_slabs = [s.copy() for s in slabs]

    def kinetic_of(self, rank: int) -> np.ndarray:
        return self._kinetic_local[rank]

    def apply(self, psi_locals: list[np.ndarray]) -> list[np.ndarray]:
        slabs = self.fft.sphere_to_real(psi_locals)
        for r, slab in enumerate(slabs):
            slab *= self.potential_slabs[r]
        v_psi = self.fft.real_to_sphere(slabs)
        return [
            self._kinetic_local[r] * psi_locals[r] + v_psi[r]
            for r in range(len(psi_locals))
        ]

    def apply_work(self, name: str = "paratec.h_apply") -> Work:
        fft_work = self.fft.transform_work(name)
        points = self.fft.dist.sphere.num_g / self.fft.dist.nranks
        extra = Work(
            name=name,
            flops=8.0 * points,
            bytes_unit=16.0 * points * 3,
            vector_fraction=0.97,
            fma_fraction=0.9,
        )
        return fft_work.scaled(2.0).combined(extra, name=name)


# -- density.py, scf.py, solver.py --------------------------------------------


def seed_accumulate_density(
    band_slabs: list[np.ndarray], occupations: np.ndarray
) -> list[np.ndarray]:
    return [
        np.tensordot(occupations, np.abs(s) ** 2, axes=1) for s in band_slabs
    ]


class SeedParatec:
    """One SCF iteration at a time, as ``Paratec.scf_step`` runs it."""

    def __init__(self, params: ParatecParams, comm: Communicator) -> None:
        self.params = params
        self.comm = comm
        self.sphere = GSphere(params.ecut, params.grid_shape)
        self.dist = SphereDistribution(self.sphere, comm.nprocs)
        self.fft = SeedFFT3D(self.dist, comm)
        self.ham = SeedHamiltonian(self.fft, params.atoms)
        self.bands = initial_bands(self.fft, params.nbands, seed=params.seed)
        self.occupations = np.zeros(params.nbands)
        self.occupations[: max(1, params.nbands // 2)] = 2.0
        self.cg_options = CGOptions(iterations=params.cg_iterations)
        self.v_external = self.fft.gather_slabs(
            self.ham.potential_slabs
        ).copy()
        self.result: SCFResult | None = None

    def scf_step(self) -> SCFResult:
        p = self.params
        ng_local = self.sphere.num_g / self.comm.nprocs
        self._charge(
            "cg",
            [
                self.ham.apply_work().scaled(
                    p.nbands * (p.cg_iterations + 1)
                ),
                blas3_work(p.nbands, ng_local, p.cg_iterations),
            ],
        )
        with self.comm.phase("cg"):
            eigenvalues = block_cg(
                self.comm, self.ham, self.bands, self.cg_options
            )
        self._charge(
            "density",
            [self.fft.transform_work("paratec.density").scaled(p.nbands)],
        )
        dv = self._update_potential()
        self.result = SCFResult(
            eigenvalues=eigenvalues,
            band_energy=float((self.occupations * eigenvalues).sum()),
            potential_change=dv,
            iterations=1,
        )
        return self.result

    def _charge(self, phase: str, works: list[Work]) -> None:
        with self.comm.phase(phase):
            for work in works:
                self.comm.compute_all([work] * self.comm.nprocs)

    def _update_potential(self) -> float:
        fft = self.fft
        with self.comm.phase("density"):
            rho_slabs = seed_accumulate_density(
                fft.sphere_to_real(self.bands), self.occupations
            )
            rho = np.concatenate(rho_slabs, axis=2)
            v_new = (
                self.v_external
                + hartree_potential(rho)
                + exchange_potential(rho)
            )
            v_old = fft.gather_slabs(self.ham.potential_slabs)
            v_mixed = mix_potentials(v_old, v_new, self.params.mixing)
            self.ham.set_potential(
                [
                    np.ascontiguousarray(
                        v_mixed[:, :, slice(*fft.slab_range(r))]
                    )
                    for r in range(fft.dist.nranks)
                ]
            )
            return float(np.abs(v_mixed - v_old).max())
