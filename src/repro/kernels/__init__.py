"""repro.kernels — the backend seam for the solvers' hot kernels.

One API over the implementations (the FluidFFT pattern): every hot
loop body the four solvers execute — LBMHD collision/equilibria/stream,
GTC deposit/gather/push, PARATEC FFT stages and CG sweep primitives,
FVCAM geopotential/dynamics — is a method on :class:`KernelBackend`.
The ``numpy`` reference backend (the historical code, bitwise-
unchanged) is the one registered; a backend that overrides a kernel
must reproduce it bitwise and inherits the reference for the rest.

Solvers call the backend method directly (``kernels.lbmhd_collide(...)``
on the instance they were handed); :func:`get_backend` /
:data:`BACKENDS` resolve a name to that instance once, at the edge.
See ``docs/kernels.md``.
"""

from .base import KernelBackend, NumPyBackend
from .registry import (
    BACKENDS,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)

__all__ = [
    "BACKENDS",
    "KernelBackend",
    "NumPyBackend",
    "backend_names",
    "get_backend",
    "register_backend",
    "unregister_backend",
]
