"""Kernel-backend registration and resolution.

One flat namespace of named backends.  Which one a run gets is decided
by :data:`BACKENDS`, this seam's instance of the one resolution rule in
:mod:`repro.runtime.resolve`, with :meth:`KernelBackend.available` as
the standing capability check — so a campaign sweep with a ``numba``
axis completes on a numba-less host, and the warning tells you the
cells ran on the reference backend.
"""

from __future__ import annotations

import threading
from operator import methodcaller
from typing import Callable

from ..runtime.resolve import Resolver
from .base import KernelBackend, KernelSupport, NumPyBackend

#: name -> zero-arg factory; factories import lazily so registering the
#: numba backend costs nothing until someone asks for it.
_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
#: name -> constructed singleton (backends are stateless; one each).
_INSTANCES: dict[str, KernelBackend] = {}
_REGISTRY_LOCK = threading.Lock()


def register_backend(
    name: str,
    factory: Callable[[], KernelBackend],
    *,
    replace: bool = False,
) -> None:
    """Register a backend factory under ``name``.

    ``replace=True`` allows shadowing an existing registration (tests
    use this to install toy backends); otherwise a duplicate name is an
    error so two subsystems cannot silently fight over one name.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("backend name must be non-empty")
    with _REGISTRY_LOCK:
        if key in _FACTORIES and not replace:
            raise ValueError(f"kernel backend {key!r} is already registered")
        _FACTORIES[key] = factory
        _INSTANCES.pop(key, None)


def unregister_backend(name: str) -> None:
    """Remove a registration (tests cleaning up toy backends)."""
    key = name.strip().lower()
    with _REGISTRY_LOCK:
        _FACTORIES.pop(key, None)
        _INSTANCES.pop(key, None)


def backend_names() -> list[str]:
    """Registered spec names, registration order (for CLI help/errors)."""
    with _REGISTRY_LOCK:
        return list(_FACTORIES)


def available_backends() -> dict[str, KernelSupport]:
    """Name -> :class:`KernelSupport` for every registered backend."""
    return {name: _parse(name).available() for name in backend_names()}


def _parse(spec: str) -> KernelBackend:
    """Registered name -> its (lazily constructed) singleton; unknown
    names are a ValueError listing the valid choices."""
    key = spec.strip().lower()
    with _REGISTRY_LOCK:
        backend = _INSTANCES.get(key)
        if backend is None and key in _FACTORIES:
            backend = _INSTANCES[key] = _FACTORIES[key]()
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
    usable=methodcaller("available"),
)


def get_backend(
    spec: "str | KernelBackend | None" = None,
) -> KernelBackend:
    """Resolve a backend spec; an instance resolves to itself."""
    return BACKENDS.resolve(spec)


def _register_builtins() -> None:
    register_backend("numpy", NumPyBackend, replace=True)

    def _make_numba() -> KernelBackend:
        from .numba_backend import NumbaBackend

        return NumbaBackend()

    register_backend("numba", _make_numba, replace=True)


_register_builtins()
