"""Kernel-backend registration and resolution.

Mirrors the executor seam (:mod:`repro.runtime.executors`): one flat
namespace of named backends, resolved per call site with the chain

1. an explicit :class:`~repro.kernels.base.KernelBackend` instance or
   name passed by the caller;
2. the process-wide default installed with :func:`set_default_backend`
   (what the ``repro-experiments --backend`` flag uses);
3. the ``REPRO_KERNEL_BACKEND`` environment variable (what the CI
   kernel-backend job sets);
4. ``"numpy"``.

Capability policy, mirroring ``segment_support()``: a backend that
cannot run on this host (:meth:`KernelBackend.available` is falsy) is
**rejected with a ValueError naming the reason** when the caller asked
for it explicitly, but **warned about once and degraded to the numpy
reference** when it arrived ambiently (default or environment) — so a
campaign sweep with a ``numba`` axis completes on a numba-less host
instead of dying, and the warning tells you the cells ran on the
reference backend.

Unknown backend *names* are always an error listing the valid choices
— and naming ``REPRO_KERNEL_BACKEND`` as the source when the bad spec
came from the environment, so a typo in CI config is diagnosable from
the message alone.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Callable

from .base import KernelBackend, KernelSupport, NumPyBackend

_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: name -> zero-arg factory; factories import lazily so registering the
#: numba backend costs nothing until someone asks for it.
_FACTORIES: dict[str, Callable[[], KernelBackend]] = {}
#: name -> constructed singleton (backends are stateless; one each).
_INSTANCES: dict[str, KernelBackend] = {}
_REGISTRY_LOCK = threading.Lock()

_DEFAULT_LOCK = threading.Lock()
_default_spec: "str | KernelBackend | None" = None

#: backend names already warned about this process (once-per-key policy)
_WARNED: set[str] = set()
_WARNED_LOCK = threading.Lock()


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
    return {name: _instance(name).available() for name in backend_names()}


def _instance(name: str) -> KernelBackend:
    with _REGISTRY_LOCK:
        backend = _INSTANCES.get(name)
        if backend is None:
            factory = _FACTORIES.get(name)
            if factory is None:
                raise KeyError(name)  # _parse turns this into a ValueError
            backend = factory()
            _INSTANCES[name] = backend
    return backend


def _parse(
    spec: "str | KernelBackend", source: str = "argument"
) -> KernelBackend:
    """Resolve a spec to a backend instance; unknown names are a
    ValueError listing the valid choices and naming the environment
    variable when that is where the bad spec came from."""
    if isinstance(spec, KernelBackend):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            "kernel backend spec must be a string or KernelBackend, "
            f"got {type(spec)!r}"
        )
    key = spec.strip().lower()
    try:
        return _instance(key)
    except KeyError:
        origin = f" (from {_ENV_VAR})" if source == "env" else ""
        choices = ", ".join(repr(n) for n in backend_names())
        raise ValueError(
            f"unknown kernel backend {spec!r}{origin}; "
            f"valid choices: {choices}"
        ) from None


def set_default_backend(
    spec: "str | KernelBackend | None",
) -> KernelBackend | None:
    """Install a process-wide default backend (``None`` clears it).

    Returns the resolved backend (so callers can log the choice), or
    ``None`` when clearing.  The default outranks ``REPRO_KERNEL_BACKEND``
    but is outranked by an explicit per-call argument.  The name is
    validated here; *availability* is checked at resolution time, where
    an unavailable ambient default degrades to numpy with a warning.
    """
    global _default_spec
    resolved = None if spec is None else _parse(spec)
    with _DEFAULT_LOCK:
        _default_spec = spec
    return resolved


def get_default_backend() -> "str | KernelBackend | None":
    """The spec :func:`set_default_backend` installed (``None`` when
    unset), so a caller that overrides it can put it back."""
    with _DEFAULT_LOCK:
        return _default_spec


def _warn_once(name: str, reason: str) -> None:
    with _WARNED_LOCK:
        if name in _WARNED:
            return
        _WARNED.add(name)
    warnings.warn(
        f"kernel backend {name!r} is unavailable here ({reason}); "
        "using the numpy reference backend instead",
        RuntimeWarning,
        stacklevel=3,
    )


def _clear_warned() -> None:
    """Reset the once-per-key warning memory (tests only)."""
    with _WARNED_LOCK:
        _WARNED.clear()


def get_backend(
    spec: "str | KernelBackend | None" = None,
) -> KernelBackend:
    """Resolve a backend spec (see module docstring for the chain).

    An explicitly requested backend that cannot run here raises a
    ValueError naming the reason; an ambient one (default/env) warns
    once and degrades to the numpy reference.
    """
    explicit = spec is not None
    source = "argument"
    if spec is None:
        with _DEFAULT_LOCK:
            spec = _default_spec
        source = "default"
    if spec is None:
        env = os.environ.get(_ENV_VAR)
        if env:
            spec, source = env, "env"
        else:
            return _instance("numpy")
    backend = _parse(spec, source)
    support = backend.available()
    if support.ok:
        return backend
    if explicit:
        raise ValueError(
            f"kernel backend {backend.name!r} is unavailable here: "
            f"{support.reason}"
        )
    _warn_once(backend.name, support.reason)
    return _instance("numpy")


def resolve_backend(
    spec: "str | KernelBackend | None" = None,
) -> KernelBackend:
    """Harness-style resolution: degrade even explicit-but-unavailable
    specs to the numpy reference (with the once-per-key warning) rather
    than raise.  Unknown names still raise — a typo is never silently
    the reference backend.  This is what ``harness.run(kernel_backend=)``
    and campaign workers use, so a sweep with a ``numba`` axis completes
    on hosts without numba while recording what actually ran.
    """
    try:
        return get_backend(spec)
    except ValueError as exc:
        if spec is None or "unavailable here" not in str(exc):
            raise
        backend = _parse(spec)
        _warn_once(backend.name, backend.available().reason)
        return _instance("numpy")


def _register_builtins() -> None:
    register_backend("numpy", NumPyBackend, replace=True)

    def _make_numba() -> KernelBackend:
        from .numba_backend import NumbaBackend

        return NumbaBackend()

    register_backend("numba", _make_numba, replace=True)


_register_builtins()
