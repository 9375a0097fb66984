"""Failure accounting for distributed dispatch.

Three small, lock-free-by-construction pieces (every method is called
under the coordinator's lock):

* :class:`AttemptTracker` — the bounded retry budget.  Every way a
  config execution can end badly (worker returned ``failed``, worker
  died mid-config, per-config timeout expired) consumes one attempt;
  while budget remains the config is requeued for another worker, and
  when it runs out the accumulated error history becomes the config's
  terminal error.
* :class:`WorkerHealth` — per-connection liveness bookkeeping: the
  timestamp of the last message (any type — ``next`` requests and
  ``heartbeat``\\ s both count) or of the assignment if that is later
  (a ``next`` may have been parked a while), and the currently
  assigned ticket.  A busy worker that goes silent past the heartbeat
  timeout is declared dead and its assignment is retried elsewhere.
* :class:`DistribStats` — the dispatch counters the benchmarks, tests,
  and CI assertions read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class DistribStats:
    """Counters for one coordinator's lifetime of dispatching."""

    #: Configs handed to a worker (re-dispatches count again).
    dispatched: int = 0
    #: Configs that came home with a result.
    completed: int = 0
    #: Configs that exhausted their attempt budget.
    failed: int = 0
    #: Requeues after a failure/death/timeout (budget permitting).
    retried: int = 0
    #: Per-config deadlines that expired.
    timeouts: int = 0
    #: Workers declared dead (socket error, EOF, or silent heartbeat).
    dead_workers: int = 0
    #: Configs executed by the coordinator's local fallback path.
    local_runs: int = 0
    #: Workers turned away at ``hello`` (version mismatch).
    rejected_workers: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "dispatched": self.dispatched,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "timeouts": self.timeouts,
            "dead_workers": self.dead_workers,
            "local_runs": self.local_runs,
            "rejected_workers": self.rejected_workers,
        }


class AttemptTracker:
    """Bounded attempt budget with an error history per ticket."""

    def __init__(self, max_attempts: int) -> None:
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_attempts = max_attempts
        self._attempts: dict[int, int] = {}
        self._errors: dict[int, list[str]] = {}

    def attempts(self, tid: int) -> int:
        return self._attempts.get(tid, 0)

    def record_failure(self, tid: int, error: str) -> bool:
        """Book one failed attempt; True while budget remains."""
        n = self._attempts.get(tid, 0) + 1
        self._attempts[tid] = n
        self._errors.setdefault(tid, []).append(error)
        return n < self.max_attempts

    def history(self, tid: int) -> str:
        """The accumulated failure story for a terminal error message."""
        errors = self._errors.get(tid, [])
        if not errors:
            return "no recorded attempts"
        story = "; ".join(
            f"attempt {i + 1}: {err}" for i, err in enumerate(errors)
        )
        return f"{len(errors)}/{self.max_attempts} attempt(s) failed — {story}"

    def forget(self, tid: int) -> None:
        """Drop a retired ticket's books (the coordinator may live for
        days inside a service; failed tids must not pile up)."""
        self._attempts.pop(tid, None)
        self._errors.pop(tid, None)


class WorkerHealth:
    """Liveness + assignment bookkeeping for one worker connection."""

    __slots__ = ("name", "host", "cpu_count", "version", "last_seen",
                 "busy_tid")

    def __init__(
        self,
        name: str,
        *,
        host: str = "",
        cpu_count: int = 0,
        version: str = "",
    ) -> None:
        self.name = name
        self.host = host
        self.cpu_count = cpu_count
        self.version = version
        self.last_seen = time.monotonic()
        #: Ticket id currently assigned to this worker, or ``None``.
        self.busy_tid: int | None = None

    def touch(self) -> None:
        self.last_seen = time.monotonic()

    def silent_for(self) -> float:
        return time.monotonic() - self.last_seen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"busy:{self.busy_tid}" if self.busy_tid is not None else "idle"
        return f"WorkerHealth({self.name!r}, {state})"
