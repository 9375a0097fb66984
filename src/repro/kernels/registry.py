"""Kernel-backend registration and resolution.

One flat namespace of named backends.  Which one a run gets is decided
by :data:`BACKENDS`, this seam's instance of the one resolution rule in
:mod:`repro.runtime.resolve` (its precedence chain; every registered
backend is usable, so no capability check applies here).
"""

from __future__ import annotations

import threading
from typing import Callable

from ..runtime.resolve import Resolver
from .base import KernelBackend, NumPyBackend

#: name -> the backend's one instance (backends are stateless).
_BACKENDS: dict[str, KernelBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    replace: bool = False,
) -> None:
    """Register the backend ``factory()`` builds under ``name``.

    ``replace=True`` allows shadowing an existing registration (tests
    use this to install toy backends); otherwise a duplicate name is an
    error so two subsystems cannot silently fight over one name.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be non-empty")
    with _REGISTRY_LOCK:
        if key in _BACKENDS and not replace:
            raise ValueError(f"kernel backend {key!r} is already registered")
        _BACKENDS[key] = factory()


def unregister_backend(name: str) -> None:
    """Remove a registration (tests cleaning up toy backends)."""
    with _REGISTRY_LOCK:
        _BACKENDS.pop(name.strip().lower(), None)


def backend_names() -> list[str]:
    """Registered spec names, registration order (for CLI help/errors)."""
    with _REGISTRY_LOCK:
        return list(_BACKENDS)


def _parse(spec: str) -> KernelBackend:
    """Registered name -> its instance; unknown names are a ValueError
    listing the valid choices."""
    with _REGISTRY_LOCK:
        backend = _BACKENDS.get(spec.strip().lower())
    if backend is None:
        choices = ", ".join(repr(n) for n in backend_names())
        raise ValueError(
            f"unknown kernel backend {spec!r}; valid choices: {choices}"
        )
    return backend


#: The kernel-backend seam's resolver (``BACKENDS.scoped(spec)``
#: installs a scoped process default; ``BACKENDS.default()`` reads it).
BACKENDS: Resolver[KernelBackend] = Resolver(
    kind="kernel backend",
    base=KernelBackend,
    env_var="REPRO_KERNEL_BACKEND",
    fallback="numpy",
    parse=_parse,
)


def get_backend(
    spec: "str | KernelBackend | None" = None,
) -> KernelBackend:
    """Resolve a backend spec; an instance resolves to itself."""
    return BACKENDS.resolve(spec)


register_backend("numpy", NumPyBackend)
