"""The resolution rule behind the executor seam.

"Which executor does this run get?" is answered here, once
(:data:`repro.runtime.executors.EXECUTORS` is the one
:class:`Resolver`).

**Precedence** — the first one present wins:

1. an explicit instance or spec string passed by the caller;
2. the process default a :meth:`Resolver.scoped` block installed (what
   ``repro-experiments --executor`` uses);
3. the seam's environment variable (``REPRO_EXECUTOR`` — what the CI
   executor jobs set);
4. the seam's fallback (``"serial"``).

**Capability policy** — when the caller says what the choice must be
usable *for* (``usable=``, e.g. "schedule rank segments here", passed
per call by :func:`~repro.runtime.executors.segment_executor`):

* an unknown name always raises a ``ValueError`` listing the choices,
  naming the environment variable when the bad spec came from it — a
  typo is never silently the fallback;
* an unusable *explicit* choice raises :class:`UnusableError` naming
  the reason;
* an unusable *ambient* choice (default or environment) warns once per
  (name, reason) and degrades to the fallback, so a sweep or a test
  session under ``REPRO_EXECUTOR=processes`` completes on a host
  without shared memory;
* ``degrade_explicit=True`` (``harness.run``, campaign workers, the
  benchmarks) degrades explicit choices too: those callers promise a
  completed run, not a particular schedule.

Resolve once at the edge — ``harness.run``, a CLI, a constructor handed
a name — and pass the *instance* down; an instance resolves to itself.
"""

from __future__ import annotations

import contextlib
import os
import threading
import warnings
from typing import Callable, Generic, Iterator, TypeVar

_T = TypeVar("_T")


class Support:
    """Whether something can be used here — and why (not).

    Truthy exactly when usable; ``reason`` carries the human-readable
    explanation either way (capability on success, the missing
    prerequisite on failure) so rejection errors and fallback warnings
    can name the actual cause.
    """

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str) -> None:
        self.ok = ok
        self.reason = reason

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Support(ok={self.ok}, reason={self.reason!r})"


class UnusableError(ValueError):
    """An explicitly requested choice cannot be used on this host."""


class Resolver(Generic[_T]):
    """Precedence chain + capability policy for one seam.

    ``parse`` maps a spec string to an instance and raises
    ``ValueError`` (listing the valid choices) for anything else.
    """

    def __init__(
        self,
        kind: str,
        base: type,
        env_var: str,
        fallback: str,
        parse: Callable[[str], _T],
    ) -> None:
        self.kind = kind
        self.base = base
        self.env_var = env_var
        self.fallback = fallback
        self._parse_name = parse
        self._lock = threading.Lock()
        self._default: "str | _T | None" = None
        self._warned: set[tuple[str, str]] = set()

    def default(self) -> "str | _T | None":
        """The spec the innermost live :meth:`scoped` block installed."""
        return self._default

    @contextlib.contextmanager
    def scoped(self, spec: "str | _T | None") -> Iterator[None]:
        """Make ``spec`` the process default inside the ``with`` block.

        The name is validated on entry (nothing is installed if it is
        bad); whether it is *usable* is judged at each resolution.  On
        exit — normal or by exception — whatever was installed before
        is installed again.  ``None`` installs nothing.  The default is
        process-wide, not per-thread.
        """
        if spec is None:
            yield
            return
        self.parse(spec)
        with self._lock:
            previous, self._default = self._default, spec
        try:
            yield
        finally:
            with self._lock:
                self._default = previous

    def resolve(
        self,
        spec: "str | _T | None" = None,
        *,
        usable: Callable[[_T], Support] | None = None,
        degrade_explicit: bool = False,
    ) -> _T:
        """Apply the module docstring's rule to ``spec``."""
        explicit = spec is not None
        from_env = False
        if spec is None:
            spec = self._default
        if spec is None:
            spec = os.environ.get(self.env_var) or None
            from_env = spec is not None
        if spec is None:
            return self._parse_name(self.fallback)
        try:
            chosen = self.parse(spec)
        except ValueError as exc:
            if not from_env:
                raise
            raise ValueError(f"{exc} (from {self.env_var})") from None
        if usable is None:
            return chosen
        support = usable(chosen)
        if support.ok:
            return chosen
        name = chosen.name
        if explicit and not degrade_explicit:
            raise UnusableError(
                f"{self.kind} {name!r} cannot be used here: {support.reason}"
            )
        with self._lock:
            first = (name, support.reason) not in self._warned
            self._warned.add((name, support.reason))
        if first:
            warnings.warn(
                f"{self.kind} {name!r} cannot be used here "
                f"({support.reason}); using {self.fallback!r} instead",
                RuntimeWarning,
                stacklevel=3,
            )
        return self._parse_name(self.fallback)

    def parse(self, spec: "str | _T") -> _T:
        """Spec -> instance, consulting nothing ambient and checking no
        capability: validates a name without installing or using it."""
        if isinstance(spec, self.base):
            return spec
        if not isinstance(spec, str):
            raise TypeError(
                f"{self.kind} spec must be a string or "
                f"{self.base.__name__}, got {type(spec)!r}"
            )
        return self._parse_name(spec)
