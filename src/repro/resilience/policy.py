"""Self-healing communicator policies: detection, retry, and restart.

The paper's platforms keep multi-hour runs alive through MTBF-aware
batch practice; this module is the simulated runtime's version of that
discipline.  A :class:`RetryPolicy` parameterizes how the healing
hook (:mod:`repro.resilience.heal`) repairs the point-to-point traffic
the fault injector spoils:

* every point-to-point payload carries a CRC-32 checksum; a mismatch on
  arrival (bit-flip corruption) or a missing arrival (drop, noticed
  after ``detect_timeout``) triggers a retransmit;
* retransmits back off exponentially (``backoff_base *
  backoff_factor**(attempt-1)``) and give up after ``max_retries``
  attempts with :class:`UnrecoverableMessageError`;
* checkpoint writes and post-failure restores are charged at
  ``checkpoint_bandwidth`` / ``restore_bandwidth`` aggregate bytes per
  second, plus a flat ``restart_penalty`` for failure detection and
  re-coordination.

Every second charged by these policies lands on the
:class:`~repro.simmpi.clock.VirtualClock` and in the phase ledger's
``recovery`` column, never in compute/comm/wait — a faulted run's extra
cost is therefore directly readable from the IPM-style table.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np


def payload_crc(payload: np.ndarray) -> int:
    """CRC-32 of a message payload's bytes (the wire checksum)."""
    arr = np.ascontiguousarray(payload)
    return zlib.crc32(arr.tobytes())


class ResilienceError(RuntimeError):
    """Base class of everything the resilience layer can raise."""


class UnrecoverableMessageError(ResilienceError):
    """A message kept failing past ``RetryPolicy.max_retries``."""


class RankFailureError(ResilienceError):
    """A simulated rank died; only checkpoint/restart can continue.

    Raised when a communication starts or at a step boundary.  The harness catches it when a checkpoint store is
    available, restores the last snapshot, and replays.
    """

    def __init__(self, rank: int, step: int) -> None:
        super().__init__(
            f"rank {rank} failed at step {step}; restore from the last "
            "checkpoint to continue"
        )
        self.rank = rank
        self.step = step


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the self-healing communicator (all times virtual seconds).

    The defaults are deliberately visible at laptop scale: a handful of
    retransmits shows up as milliseconds in the recovery column even on
    the ideal (zero-cost) machine, because detection and backoff are
    protocol costs, not wire costs.
    """

    #: Retransmit attempts per message before giving up.
    max_retries: int = 8
    #: First-retry backoff, seconds.
    backoff_base: float = 1e-4
    #: Multiplier applied per further attempt.
    backoff_factor: float = 2.0
    #: Receiver-side timeout that detects a dropped message.
    detect_timeout: float = 1e-3
    #: Receiver-side cost of a checksum NACK (corruption is detected on
    #: arrival, cheaper than a drop timeout).
    nack_time: float = 1e-4
    #: Flat cost of noticing a dead rank and re-coordinating the job.
    restart_penalty: float = 5e-3
    #: Aggregate bytes/second for checkpoint writes.
    checkpoint_bandwidth: float = 4e9
    #: Aggregate bytes/second for reading a checkpoint back.
    restore_bandwidth: float = 4e9

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.checkpoint_bandwidth <= 0 or self.restore_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retransmit number ``attempt`` (>= 1)."""
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        return self.backoff_base * self.backoff_factor ** (attempt - 1)

    def checkpoint_time(self, nbytes: int, nprocs: int) -> float:
        """Per-rank virtual seconds to write one checkpoint."""
        return nbytes / self.checkpoint_bandwidth / max(nprocs, 1)

    def restore_time(self, nbytes: int, nprocs: int) -> float:
        """Per-rank virtual seconds to read one checkpoint back."""
        return nbytes / self.restore_bandwidth / max(nprocs, 1)


@dataclass
class RecoveryStats:
    """Counters of everything the resilience layer detected and repaired."""

    drops_detected: int = 0
    corruptions_detected: int = 0
    delays_absorbed: int = 0
    resends: int = 0
    resend_bytes: float = 0.0
    rank_failures: int = 0
    restarts: int = 0
    replayed_steps: int = 0
    checkpoints: int = 0
    checkpoint_bytes: float = 0.0
    #: Total virtual rank-seconds booked in the recovery column.
    recovery_rank_seconds: float = 0.0
    #: Host (real) seconds spent serializing checkpoints.
    checkpoint_host_seconds: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {k: float(getattr(self, k)) for k in self.__dataclass_fields__}
