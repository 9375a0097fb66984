"""The executor seam adapter: ``scheduler="distrib:HOST:PORT"``.

:class:`DistribExecutor` wraps a :class:`~repro.distrib.coordinator.
Coordinator` in the :class:`~repro.runtime.executors.Executor`
interface the campaign engine already speaks, so
``run_campaign(..., scheduler="distrib:0.0.0.0:7713")`` and
``repro-campaign run --scheduler distrib:...`` fan a sweep out to
however many ``repro-distrib worker`` processes connect — with zero
changes to the engine's progress, journaling, caching, or per-config
failure isolation, all of which key off the ``imap_unordered``
contract.

Scope: campaign-level jobs only.  :meth:`segment_support` reports
False — rank segments need workers forked from the process that built
the solver, which a worker across a socket is not — so a communicator
handed this executor falls back to serial rank stepping, exactly like
a host without fork support.

Tuning knobs ride on environment variables (the spec string stays a
plain endpoint so every existing ``--scheduler`` surface works
unchanged):

=========================  ==========================================
``REPRO_DISTRIB_TIMEOUT``  per-config deadline, seconds (default 600)
``REPRO_DISTRIB_ATTEMPTS`` attempt budget per config (default 3)
``REPRO_DISTRIB_GRACE``    seconds with no workers before the local
                           fallback starts draining (default 5)
``REPRO_DISTRIB_LOCAL``    ``0`` disables the local fallback entirely
                           (CI uses this to prove remote execution)
=========================  ==========================================
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterator, Sequence

from ..runtime.executors import Executor
from ..runtime.resolve import Support
from .coordinator import Coordinator
from .protocol import parse_endpoint

_T = Any
_R = Any


def is_distrib_spec(spec: object) -> bool:
    """True when a scheduler spec string names distributed dispatch."""
    return isinstance(spec, str) and \
        spec.strip().lower().startswith("distrib:")


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be a number, got {raw!r}"
        ) from None


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


class DistribExecutor(Executor):
    """Campaign executor that dispatches jobs to remote workers.

    The embedded coordinator starts lazily on the first
    :meth:`imap_unordered` call and stays alive across calls — the
    service's job queue runs many single-config campaigns against one
    executor instance, and workers should not have to reconnect per
    config.  Call :meth:`close` (tests do; process exit otherwise
    reaps the daemon threads) to tear the socket down.
    """

    name = "distrib"
    parallel = True
    in_process = False

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout_s: float = 600.0,
        max_attempts: int = 3,
        grace_s: float = 5.0,
        heartbeat_timeout_s: float = 10.0,
        local_fallback: bool = True,
    ) -> None:
        self.coordinator = Coordinator(
            host,
            port,
            timeout_s=timeout_s,
            max_attempts=max_attempts,
            grace_s=grace_s,
            heartbeat_timeout_s=heartbeat_timeout_s,
            local_fallback=local_fallback,
        )
        # one slot per connected worker would be honest, but the pool
        # changes at runtime; report 1 so nothing sizes around us
        self.workers = 1

    @classmethod
    def from_spec(cls, spec: str) -> "DistribExecutor":
        """Build from ``"distrib:HOST:PORT"`` plus the env knobs."""
        host, port = parse_endpoint(spec)
        return cls(
            host,
            port,
            timeout_s=_env_float("REPRO_DISTRIB_TIMEOUT", 600.0),
            max_attempts=_env_int("REPRO_DISTRIB_ATTEMPTS", 3),
            grace_s=_env_float("REPRO_DISTRIB_GRACE", 5.0),
            local_fallback=os.environ.get("REPRO_DISTRIB_LOCAL", "1")
            != "0",
        )

    @property
    def stats(self):
        return self.coordinator.stats

    def segment_support(self) -> Support:
        return Support(
            False,
            "distrib schedules whole campaign configs across hosts; "
            "rank segments need workers forked from the process that "
            "built the solver",
        )

    def imap_unordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R | None, BaseException | None]]:
        """Dispatch :class:`~repro.campaign.spec.RunConfig` items to the
        worker pool; ``fn`` (the engine passes ``execute_config``)
        doubles as the local-fallback execution path."""
        yield from self.coordinator.dispatch(list(items), local_fn=fn)

    def close(self) -> None:
        self.coordinator.stop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DistribExecutor({self.coordinator.endpoint!r}, "
            f"workers={len(self.coordinator.workers())})"
        )
