"""repro.kernels — pluggable backends for the solvers' hot kernels.

One API, many implementations (the FluidFFT pattern): every hot loop
body the four solvers execute — LBMHD collision/equilibria/stream, GTC
deposit/gather/push, PARATEC FFT stages and CG sweep primitives, FVCAM
geopotential/dynamics — is a method on :class:`KernelBackend`, with a
``numpy`` reference backend (the historical code, bitwise-unchanged)
and a ``numba`` accelerated backend that overrides the kernels it can
replicate bitwise and inherits the reference for the rest.

Solvers call the backend method directly (``kernels.lbmhd_collide(...)``
on the instance they were handed); :func:`get_backend` /
:data:`BACKENDS` resolve a name to that instance once, at the edge.
See ``docs/kernels.md``.
"""

from .base import KernelBackend, KernelSupport, NumPyBackend
from .registry import (
    BACKENDS,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)

__all__ = [
    "BACKENDS",
    "KernelBackend",
    "KernelSupport",
    "NumPyBackend",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "unregister_backend",
]
