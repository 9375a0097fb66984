"""repro.kernels — pluggable backends for the solvers' hot kernels.

One API, many implementations (the FluidFFT pattern): every hot loop
body the four solvers execute — LBMHD collision/equilibria/stream, GTC
deposit/gather/push, PARATEC FFT stages and CG sweep primitives, FVCAM
geopotential/dynamics — is a method on :class:`KernelBackend`, with a
``numpy`` reference backend (the historical code, bitwise-unchanged)
and a ``numba`` accelerated backend that overrides the kernels it can
replicate bitwise and inherits the reference for the rest.

Resolution mirrors the executor seam: explicit argument > process
default (:func:`set_default_backend`) > ``REPRO_KERNEL_BACKEND`` >
``"numpy"``; unavailable explicit backends raise naming the reason,
unavailable ambient ones warn once and degrade to numpy.  See
``docs/kernels.md``.
"""

from .base import KernelBackend, KernelSupport, NumPyBackend
from .registry import (
    available_backends,
    backend_names,
    get_backend,
    get_default_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
    unregister_backend,
)

__all__ = [
    "KernelBackend",
    "KernelSupport",
    "NumPyBackend",
    "available_backends",
    "backend_names",
    "get_backend",
    "get_default_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "unregister_backend",
]
