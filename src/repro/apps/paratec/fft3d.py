"""Hand-written parallel 3-D FFT between the G-sphere and real space.

"We use our own handwritten 3D FFTs rather than library routines as the
data layout in Fourier space is a sphere of points ... The global data
transposes within these FFT operations account for the bulk of
PARATEC's communication overhead, and can quickly become the bottleneck
at high concurrencies."

Layout and algorithm (the standard PARATEC scheme):

* In Fourier space each rank owns whole (gx, gy) *columns* of the
  sphere (load balanced, :mod:`repro.apps.paratec.gvectors`).
* In real space each rank owns a contiguous slab of z-planes, stored
  **plane-major**, ``(..., nz, n1, n2)``: each z-plane is one
  contiguous block, so both planar passes run along the plane's own
  axes.  Callers see a slab as ``(..., n1, n2, nz)``, a ``moveaxis``
  view of that storage, and may hand back any array of that shape.
* Sphere -> real: scatter sphere points into the owned columns, 1-D
  inverse FFT along z per column, global transpose (Alltoallv) from
  column to slab layout, then 2-D inverse FFTs in each z-plane.
* Real -> sphere reverses the steps with forward FFTs.

The planar passes are pruned to the sphere.  Its columns touch only a
band of a plane's x-rows and of its y-columns (9 of 16 of each at
``ecut`` 8 on a 16^3 grid), and ``numpy.fft`` transforms the last axis
first, so a dense planar transform is a y pass and then an x pass:

* the inverse runs its y pass on the touched x-rows alone — the
  transpose delivers just those rows, as a ``(..., nz, rows, n2)``
  block — and its x pass on every column of the zero-padded planes;
* the forward runs its y pass on every row and its x pass on the
  touched y-columns alone, the only ones the transpose sends on.

Every entry kept is bitwise what the dense planar transform gives: the
rows the inverse skips are exactly zero, and the columns the forward
skips are never read.  The transposes move the same messages as dense
planes would.

Every transform carries any leading band axes along: a rank's
``(nb, ng_local)`` band stack goes through one scatter, one batched
line/plane FFT and one global transpose per direction, so the
Alltoallv count of an all-band H application does not grow with the
number of bands — only its message size does.

The transforms are exact inverses of each other and match the dense
``numpy.fft`` reference (tests enforce both to machine precision).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from types import SimpleNamespace

import numpy as np

from ...kernels import KernelBackend, get_backend
from ...runtime.arena import Arena
from ...simmpi.comm import Communicator
from ...workload import Work
from .gvectors import GSphere, SphereDistribution, _wrap_index

# -- shard functions ---------------------------------------------------
#
# Module-level ``(lo, hi, args)`` callables (docs/executors.md).  Each
# steps ranks ``lo:hi`` in ascending order and returns their results,
# which the caller concatenates in shard order; that keeps the
# transforms correct under forked workers (whose arena is their own
# copy).  ``args.plan`` is the ParallelFFT3D engine itself: its
# column/slab tables are built once in ``__post_init__`` and immutable
# afterwards (partition-and-build-once), so shards only read it.
# Staging buffers come from each rank's child of ``args.arena``, the
# engine's arena.


def _line_shard(lo: int, hi: int, args) -> list[np.ndarray]:
    """Scatter each rank's sphere points into columns; inverse-FFT in z."""
    plan = args.plan
    lines = []
    for rank in range(lo, hi):
        coeffs = args.coeffs[rank]
        ncol = len(plan._col_keys[rank])
        line = args.arena.for_rank(rank).scratch(
            "paratec.line",
            (*coeffs.shape[:-1], ncol, plan.grid_shape[2]),
            np.complex128,
        )
        line.fill(0.0)
        line[..., plan._col_of_point[rank], plan._gz_of_point[rank]] = coeffs
        lines.append(plan.kernels.paratec_ifft_z(line))
    return lines


def _ifft2_shard(lo: int, hi: int, args) -> list[np.ndarray]:
    return [
        args.kernels.paratec_ifft2_planes(b, rows=args.rows)
        for b in args.blocks[lo:hi]
    ]


def _fft2_shard(lo: int, hi: int, args) -> list[np.ndarray]:
    return [
        args.kernels.paratec_fft2_planes(p, cols=args.cols)
        for p in args.planes[lo:hi]
    ]


def _unpack_slab_shard(lo: int, hi: int, args) -> list[np.ndarray]:
    """Place every rank's delivered columns into each rank's plane-major
    ``(..., nz, nrows, n2)`` block of kept x-rows."""
    plan = args.plan
    n2 = plan.grid_shape[1]
    nrows = int(plan._rows.sum())
    off = plan._col_offsets
    blocks = []
    for j in range(lo, hi):
        z0, z1 = plan.slab_range(j)
        lead = args.recv[j][0].shape[:-2]
        rank_arena = args.arena.for_rank(j)
        block = rank_arena.scratch(
            "paratec.planes", (*lead, z1 - z0, nrows, n2), np.complex128
        )
        block.fill(0.0)
        # stage every sender's columns once, plane-major, then one
        # stacked scatter
        cols = rank_arena.scratch(
            "paratec.cols", (*lead, z1 - z0, int(off[-1])), np.complex128
        )
        for i in range(args.p):
            cols[..., off[i] : off[i + 1]] = args.recv[j][i].swapaxes(-1, -2)
        block[..., plan._key_rows, plan._all_keys[:, 1]] = cols
        blocks.append(block)
    return blocks


def _zline_shard(lo: int, hi: int, args) -> list[np.ndarray]:
    """Reassemble full z-lines, forward-FFT, pull the sphere points."""
    plan = args.plan
    points = []
    for i in range(lo, hi):
        lead = args.recv[i][0].shape[:-2]
        ncol = len(plan._col_keys[i])
        line = args.arena.for_rank(i).scratch(
            "paratec.zline", (*lead, ncol, plan.grid_shape[2]), np.complex128
        )
        for j in range(args.p):
            z0, z1 = plan.slab_range(j)
            line[..., z0:z1] = args.recv[i][j]
        fz = plan.kernels.paratec_fft_z(line)
        points.append(fz[..., plan._col_of_point[i], plan._gz_of_point[i]])
    return points


def _pack_slab_shard(lo: int, hi: int, args) -> list[list[np.ndarray]]:
    """One stacked gather of every destination's columns per rank from
    its plane-major ``(..., nz, n1, ncols)`` planes; each destination's
    ``(..., ncol, nz)`` block is a column range (a view) of it."""
    plan = args.plan
    off = plan._col_offsets
    sends = []
    for j in range(lo, hi):
        allcols = args.planes[j][..., plan._all_keys[:, 0], plan._key_cols]
        sends.append(
            [
                allcols[..., off[i] : off[i + 1]].swapaxes(-1, -2)
                for i in range(args.p)
            ]
        )
    return sends


@dataclass
class ParallelFFT3D:
    """Distributed sphere <-> slab transform engine over a communicator.

    The global transposes post boundary sub-blocks as views
    (``alltoallv(copy=False)``), draw their scatter/gather staging
    buffers from ``arena`` (the engine takes its own from the
    communicator's executor when given none), and place each rank's
    received columns in one stacked scatter.  The planar passes run
    plane-major and pruned to the sphere (module docstring).
    """

    dist: SphereDistribution
    comm: Communicator
    arena: Arena | None = None
    kernels: "str | KernelBackend | None" = None

    def __post_init__(self) -> None:
        self.arena = self.comm.executor.adopt(self.arena, "paratec.fft")
        self.kernels = get_backend(self.kernels)
        if self.comm.nprocs != self.dist.nranks:
            raise ValueError("communicator size does not match distribution")
        sphere = self.dist.sphere
        n1, n2, n3 = sphere.grid_shape
        ix, iy, iz = sphere.grid_indices()
        cols = sphere.columns()

        # Per-rank column bookkeeping.
        self._col_keys: list[np.ndarray] = []  # (ncol, 2) wrapped (ix, iy)
        self._col_of_point: list[np.ndarray] = []  # local point -> local col
        self._gz_of_point: list[np.ndarray] = []  # local point -> z index
        for rank in range(self.dist.nranks):
            col_ids = self.dist.columns_of(rank)
            keys = np.array(
                [
                    (
                        _wrap_index(np.array(cols[c][0][0]), n1),
                        _wrap_index(np.array(cols[c][0][1]), n2),
                    )
                    for c in col_ids
                ],
                dtype=np.int64,
            ).reshape(-1, 2)
            self._col_keys.append(keys)

            pts = self.dist.points_of(rank)
            # map each owned point to its local column index
            key_lookup = {
                (int(k[0]), int(k[1])): idx for idx, k in enumerate(keys)
            }
            col_idx = np.array(
                [key_lookup[(int(ix[p]), int(iy[p]))] for p in pts],
                dtype=np.int64,
            )
            self._col_of_point.append(col_idx)
            self._gz_of_point.append(iz[pts])

        # z-slab ownership in real space.
        self._slab_bounds = np.linspace(0, n3, self.dist.nranks + 1).astype(
            int
        )

        # Stacked column bookkeeping for the batched transpose: all
        # ranks' column keys concatenated, plus each rank's offset into
        # the stack (rank i owns rows off[i]:off[i+1]).
        self._all_keys = np.concatenate(self._col_keys, axis=0)
        ncols = np.array([len(k) for k in self._col_keys], dtype=np.int64)
        self._col_offsets = np.concatenate(([0], np.cumsum(ncols)))

        # The x-rows and y-columns of a plane that the sphere's columns
        # touch (boolean masks): the inverse y pass runs on those rows,
        # the forward x pass on those columns.  Each stacked column's
        # row among the kept rows, and column among the kept columns.
        kx, ky = self._all_keys[:, 0], self._all_keys[:, 1]
        self._rows = np.zeros(n1, dtype=bool)
        self._rows[kx] = True
        self._cols = np.zeros(n2, dtype=bool)
        self._cols[ky] = True
        self._key_rows = np.cumsum(self._rows)[kx] - 1
        self._key_cols = np.cumsum(self._cols)[ky] - 1

    # -- layout helpers -----------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        return self.dist.sphere.grid_shape

    def slab_range(self, rank: int) -> tuple[int, int]:
        """Half-open z-plane range owned by a rank."""
        return int(self._slab_bounds[rank]), int(self._slab_bounds[rank + 1])

    def slab_shape(self, rank: int) -> tuple[int, int, int]:
        n1, n2, _ = self.grid_shape
        lo, hi = self.slab_range(rank)
        return (n1, n2, hi - lo)

    def gather_slabs(self, slabs: list[np.ndarray]) -> np.ndarray:
        """Assemble per-rank z-slabs into the full real-space grid (any
        leading band axes carried along)."""
        return np.concatenate(slabs, axis=-1)

    # -- transforms -----------------------------------------------------------

    def _per_rank(self, shard_fn, **args) -> list:
        """One ``map_shards`` region of ``shard_fn`` over ``args``; the
        shards' per-rank results, concatenated in rank order."""
        shards = self.comm.map_shards(
            partial(shard_fn, args=SimpleNamespace(**args))
        )
        return list(chain.from_iterable(shards))

    def sphere_to_real(self, coeffs: list[np.ndarray]) -> list[np.ndarray]:
        """psi(G) (per-rank sphere slices) -> psi(r) (per-rank z-slabs).

        ``coeffs[r]`` is ``(..., ng_local)``, ``(nb, ng_local)`` for a
        band stack; each returned slab is ``(..., n1, n2, nz)`` with the
        same leading axes, a view of fresh plane-major memory.  Uses the
        ``numpy.fft.ifftn`` normalization (1/N on the inverse), so the
        composition with :meth:`real_to_sphere` is the identity.
        """
        # 1. scatter points into columns; 1-D inverse FFT along z.
        lines = self._per_rank(
            _line_shard, plan=self, arena=self.arena, coeffs=coeffs
        )

        # 2 + 3. global transpose of the kept rows, then 2-D inverse FFT
        # per plane.
        blocks = self.transpose_columns_to_slabs(lines)
        planes = self._per_rank(
            _ifft2_shard,
            blocks=[_planes_view(b) for b in blocks],
            rows=self._rows,
            kernels=self.kernels,
        )
        return [_slab_view(p) for p in planes]

    def transpose_columns_to_slabs(
        self, lines: list[np.ndarray]
    ) -> list[np.ndarray]:
        """The column->slab global transpose (pack, Alltoallv, unpack).

        ``lines[i]`` is rank i's ``(..., ncol_i, n3)`` z-lines; returns
        each rank's ``(..., rows, n2, nz_j)`` slab of the x-rows the
        sphere touches (``_rows``), with the sphere columns placed (zero
        elsewhere), before any planar FFT, stored plane-major.

        Each ``(i, j)`` sub-block is posted as a z-window *view* and
        delivered uncopied; every destination stages its columns once
        for a single stacked scatter.
        """
        p = self.comm.nprocs
        bounds = self._slab_bounds
        send = [
            [lines[i][..., bounds[j] : bounds[j + 1]] for j in range(p)]
            for i in range(p)
        ]
        with self.comm.phase("fft"):
            recv = self.comm.alltoallv(send, copy=False)

        blocks = self._per_rank(
            _unpack_slab_shard,
            plan=self,
            arena=self.arena,
            recv=recv,
            p=p,
        )
        return [_slab_view(b) for b in blocks]

    def real_to_sphere(self, slabs: list[np.ndarray]) -> list[np.ndarray]:
        """psi(r) (per-rank z-slabs) -> psi(G) (per-rank sphere slices).

        ``slabs[r]`` is ``(..., n1, n2, nz)``, in any memory order (a
        slab :meth:`sphere_to_real` returned is plane-major already).
        Leading band axes carry through, as in :meth:`sphere_to_real`.
        High-frequency grid content outside the sphere is discarded —
        exactly PARATEC's cutoff projection.
        """
        p = self.comm.nprocs

        # 1. 2-D forward FFT per plane, x pass on the kept columns only.
        f2s = self._per_rank(
            _fft2_shard,
            planes=[_planes_view(s) for s in slabs],
            cols=self._cols,
            kernels=self.kernels,
        )

        # 2. global transpose slabs -> columns.
        recv = self.transpose_slabs_to_columns([_slab_view(f) for f in f2s])

        # 3. reassemble full z-lines; forward FFT along z; pull points.
        return self._per_rank(
            _zline_shard, plan=self, arena=self.arena, recv=recv, p=p
        )

    def transpose_slabs_to_columns(
        self, f2s: list[np.ndarray]
    ) -> list[list[np.ndarray]]:
        """The slab->column global transpose (pack, Alltoallv, unpack).

        ``f2s[j]`` is rank j's planar-transformed ``(..., n1, cols,
        nz_j)`` slab of the y-columns the sphere touches (``_cols``),
        as :meth:`real_to_sphere` has them.  Returns ``recv`` with
        ``recv[i][j]`` = rank i's columns restricted to rank j's planes
        (rank j sends ``send[j][i]`` to rank i).

        All columns of a rank are gathered in one stacked fancy-index
        from its planes and posted as column-range views, delivered
        uncopied.
        """
        p = self.comm.nprocs
        send = self._per_rank(
            _pack_slab_shard,
            plan=self,
            planes=[_planes_view(f) for f in f2s],
            p=p,
        )
        with self.comm.phase("fft"):
            return self.comm.alltoallv(send, copy=False)

    # -- cost accounting --------------------------------------------------

    def transform_work(self, name: str = "paratec.fft3d") -> Work:
        """Per-rank compute Work of one distributed transform of one band."""
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



# -- the two views of a slab -------------------------------------------------
#
# ``np.moveaxis(planes, -3, -1)`` and ``np.moveaxis(slab, -1, -3)``, as
# two ``swapaxes`` each: a transform takes several of these a call, and
# ``moveaxis``'s argument normalisation costs ten times the view.


def _slab_view(planes: np.ndarray) -> np.ndarray:
    """The ``(..., n1, n2, nz)`` slab view of plane-major ``(..., nz,
    n1, n2)`` memory."""
    return planes.swapaxes(-3, -2).swapaxes(-2, -1)


def _planes_view(slab: np.ndarray) -> np.ndarray:
    """The plane-major ``(..., nz, n1, n2)`` view of a ``(..., n1, n2,
    nz)`` slab (contiguous when the slab's memory is plane-major)."""
    return slab.swapaxes(-1, -2).swapaxes(-2, -3)


def plane_major(slab: np.ndarray) -> np.ndarray:
    """A copy of a ``(..., n1, n2, nz)`` slab stored plane-major, seen
    in the same shape."""
    return _slab_view(_planes_view(slab).copy())
