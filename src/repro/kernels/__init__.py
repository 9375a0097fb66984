"""repro.kernels — the backend seam for the solvers' hot kernels.

One API over the implementations (the FluidFFT pattern): every hot
loop body the four solvers execute — LBMHD collision and stream,
GTC deposit/gather/push, PARATEC FFT stages and CG sweep primitives,
FVCAM geopotential/dynamics — is a method on :class:`KernelBackend`.
The ``numpy`` reference backend (the historical code, bitwise-
unchanged) is the one there is; a backend that overrides a kernel
must reproduce it bitwise and inherits the reference for the rest.

Solvers call the backend method directly (``kernels.lbmhd_collide(...)``
on the instance they were handed, the numpy backend when they were
handed none); :func:`get_backend` maps that argument to the instance.
See ``docs/kernels.md``.
"""

from .base import KernelBackend, NumPyBackend, get_backend

__all__ = ["KernelBackend", "NumPyBackend", "get_backend"]
