"""The kernel-backend contract and the NumPy reference backend.

A :class:`KernelBackend` is one *implementation family* for every hot
loop body the four solvers dispatch: LBMHD collision and stream,
GTC deposit/gather/push, PARATEC batched line/plane FFTs and the
block CG preconditioner, FVCAM geopotential/dynamics.  The base class
**is** the reference implementation — every method delegates to the
existing NumPy kernels in :mod:`repro.apps`, bitwise-unchanged — so an
accelerated backend subclasses it and overrides only the kernels it
genuinely speeds up; everything else inherits the reference.  That
per-kernel inheritance is what keeps the parity contract cheap to
uphold:

*Every backend must produce bitwise-identical results to the NumPy
reference for every kernel*, across decompositions and executors (the
``tests/test_kernels.py`` matrix enforces this).  A backend that cannot
meet that bar for some kernel must not override it.

Backends are stateless (safe to share across threads and to inherit
copy-on-write into forked rank-team workers, which is why a team
message names a backend by token instead of copying it).  A solver
takes its backend as an instance (``kernels=``); :func:`get_backend`
gives the numpy one when it is handed none.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..runtime.team import Tokened


class KernelBackend(Tokened):
    """One implementation family for the solvers' hot kernels.

    The base class is the NumPy reference: every method calls the
    existing :mod:`repro.apps` kernel with unchanged arguments, so the
    default backend is bitwise-identical to the historical code paths
    by construction.  App modules are imported inside the methods (the
    import is a cached ``sys.modules`` lookup after the first call) so
    this module never participates in an import cycle with the app
    packages that import it.
    """

    #: spec-style name ("numpy")
    name: str = "kernel-backend"

    # -- LBMHD ----------------------------------------------------------

    def lbmhd_collide(
        self,
        state: np.ndarray,
        params: Any,
        out: np.ndarray | None = None,
        arena: Any | None = None,
    ) -> np.ndarray:
        """One BGK collision over the (local) grid; returns new state."""
        from ..apps.lbmhd.collision import collide

        return collide(state, params, out=out, arena=arena)

    def lbmhd_stream_from_padded(
        self,
        post: np.ndarray,
        proc_grid: tuple[int, int, int],
        out: np.ndarray,
        lo: int = 0,
        hi: int | None = None,
    ) -> np.ndarray:
        """Pull-stream ranks ``lo:hi`` of a flat post-collision block
        into ``out``.  The name predates the flat block; it stays
        because the benchmark ladder probes this kernel by name."""
        from ..apps.lbmhd.stream import stream_block

        return stream_block(post, proc_grid, out, lo, hi)

    # -- GTC ------------------------------------------------------------

    def gtc_deposit_scalar(
        self,
        grid: Any,
        particles: Any,
        gyro_radius: float = 0.0,
        out: np.ndarray | None = None,
        arena: Any | None = None,
        cells: Any | None = None,
        counts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Histogram deposit; ``cells`` are the particles' located
        :class:`~repro.apps.gtc.grid.Cells` when the caller has them,
        ``counts`` split them into consecutive ranks, one grid each."""
        from ..apps.gtc.deposit import deposit_scalar

        return deposit_scalar(
            grid,
            particles,
            gyro_radius,
            out=out,
            arena=arena,
            cells=cells,
            counts=counts,
        )

    def gtc_deposit_work_vector(
        self,
        grid: Any,
        particles: Any,
        num_copies: int,
        gyro_radius: float = 0.0,
        out: np.ndarray | None = None,
        arena: Any | None = None,
        cells: Any | None = None,
        counts: np.ndarray | None = None,
    ) -> np.ndarray:
        from ..apps.gtc.deposit import deposit_work_vector

        return deposit_work_vector(
            grid,
            particles,
            num_copies,
            gyro_radius,
            out=out,
            arena=arena,
            cells=cells,
            counts=counts,
        )

    def gtc_gather_field(
        self,
        grid: Any,
        e_r: np.ndarray,
        e_theta: np.ndarray,
        cells: Any,
        counts: np.ndarray | None = None,
        planes: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """CIC gather at particles given as their located
        :class:`~repro.apps.gtc.grid.Cells`; with ``counts``, rank ``k``
        of the call reads plane ``planes[k]`` of stacked fields."""
        from ..apps.gtc.push import gather_field

        return gather_field(grid, e_r, e_theta, cells, counts, planes)

    def gtc_push_particles(
        self,
        torus: Any,
        particles: Any,
        e_r_at_p: np.ndarray,
        e_theta_at_p: np.ndarray,
        params: Any,
        out: Any | None = None,
    ) -> Any:
        from ..apps.gtc.push import push_particles

        return push_particles(
            torus, particles, e_r_at_p, e_theta_at_p, params, out=out
        )

    # -- PARATEC --------------------------------------------------------

    def paratec_ifft_z(self, lines: np.ndarray) -> np.ndarray:
        """Inverse 1-D FFT along z of one rank's ``(..., ncol, n3)``
        column lines (any leading band axes)."""
        return np.fft.ifft(lines, axis=-1)

    def paratec_fft_z(self, lines: np.ndarray) -> np.ndarray:
        """Forward 1-D FFT along z of one rank's column lines."""
        return np.fft.fft(lines, axis=-1)

    def paratec_ifft2_planes(
        self, planes: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Inverse planar FFTs of one rank's plane-major ``(..., nz, n1,
        n2)`` z-slab (any leading band axes): a y pass along the last
        axis, then an x pass.

        ``rows``, a boolean mask over the ``n1`` x-rows, prunes the y
        pass: ``planes`` then holds only the masked rows, ``(..., nz,
        rows.sum(), n2)``, every other row being zero.  Omitted, every
        row is kept.  Returns the full ``(..., nz, n1, n2)`` planes.
        """
        if rows is None:
            rows = np.ones(planes.shape[-2], dtype=bool)
        y = np.fft.ifft(planes, axis=-1)
        out = np.zeros((*y.shape[:-2], len(rows), y.shape[-1]), y.dtype)
        out[..., rows, :] = y
        return np.fft.ifft(out, axis=-2)

    def paratec_fft2_planes(
        self, planes: np.ndarray, cols: np.ndarray | None = None
    ) -> np.ndarray:
        """Forward planar FFTs of one rank's plane-major z-slab: a y pass
        on every row, then an x pass.

        ``cols``, a boolean mask over the ``n2`` y-columns, prunes the x
        pass to the masked columns, the only ones returned: ``(..., nz,
        n1, cols.sum())``.  Omitted, every column is kept.
        """
        if cols is None:
            cols = np.ones(planes.shape[-1], dtype=bool)
        return np.fft.fft(np.fft.fft(planes, axis=-1)[..., cols], axis=-2)

    def paratec_precondition(
        self, residual: np.ndarray, kinetic: np.ndarray, e_ref: float
    ) -> np.ndarray:
        """Teter diagonal preconditioner R / (1 + T/E) of one rank's
        ``(nb, ng_local)`` residual block."""
        return residual / (1.0 + kinetic / e_ref)

    # -- FVCAM ----------------------------------------------------------

    def fvcam_suffix_sum(self, h: np.ndarray) -> np.ndarray:
        """Vertical suffix sum: out[k] = sum_{k' >= k} h[k']."""
        return np.cumsum(h[::-1], axis=0)[::-1]

    def fvcam_geopotential(self, h: np.ndarray, gravity: float) -> np.ndarray:
        from ..apps.fvcam.dynamics import geopotential

        return geopotential(h, gravity)

    def fvcam_transport_2d(
        self,
        grid: Any,
        q: np.ndarray,
        cu: np.ndarray,
        cv: np.ndarray,
    ) -> np.ndarray:
        """Split van Leer transport of one rank's ``(..., km, jm, im)``
        field stack (any leading field axes; ``cu``/``cv`` broadcast)."""
        from ..apps.fvcam.dynamics import transport_2d

        return transport_2d(grid, q, cu, cv)

    def fvcam_pressure_gradient(
        self,
        grid: Any,
        phi: np.ndarray,
        coslat: np.ndarray,
        dt: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        from ..apps.fvcam.dynamics import pressure_gradient

        return pressure_gradient(grid, phi, coslat, dt)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


class NumPyBackend(KernelBackend):
    """The reference backend: the extracted current code, unchanged."""

    name = "numpy"


#: The instance every solver handed no backend runs on.
_NUMPY = NumPyBackend()


def get_backend(
    spec: "str | KernelBackend | None" = None,
) -> KernelBackend:
    """``None`` or ``"numpy"`` -> the numpy backend; an instance ->
    itself.  Any other name is a ``ValueError`` listing the choice."""
    if spec is None:
        return _NUMPY
    if isinstance(spec, KernelBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            "kernel backend spec must be a string or KernelBackend, "
            f"got {type(spec)!r}"
        )
    if spec.strip().lower() != "numpy":
        raise ValueError(
            f"unknown kernel backend {spec!r}; valid choices: 'numpy'"
        )
    return _NUMPY
