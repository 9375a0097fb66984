"""repro.resilience — faults, self-healing policies, checkpoint/restart.

The subsystem has four parts, mirroring the runtime's layering:

* :mod:`repro.resilience.inject` — deterministic, seedable fault
  injectors on the point-to-point wire (drops, bit-flips, latency
  spikes, whole-rank failure), configured by a declarative
  :class:`FaultPlan`: a verdict source, not a transport;
* :mod:`repro.resilience.policy` — the :class:`RetryPolicy` knobs, the
  CRC-32 wire checksum and the :class:`RecoveryStats` counters;
* :mod:`repro.resilience.heal` — the self-healing layer the
  :class:`~repro.simmpi.comm.Communicator` calls when a communication
  starts and after each point-to-point phase: detection, retry with
  backoff, and the checkpoint/restart charges, every second charged to
  the virtual clock and the phase ledger's ``recovery`` column;
* :mod:`repro.resilience.checkpoint` — the :class:`Checkpointable`
  protocol the four solvers implement, plus in-memory and on-disk
  snapshot stores the harness restarts from.

The contract that makes the whole thing testable: a faulted-but-
recovered run produces **bitwise-identical physics** to the fault-free
run with the same seed; only virtual time (and the recovery column)
differs.
"""

from .checkpoint import (
    Checkpoint,
    Checkpointable,
    DiskCheckpointStore,
    MemoryCheckpointStore,
    own_tree,
    snapshot_nbytes,
)
from .heal import Resilience
from .inject import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LatencySpike,
    MessageDrop,
    RankFailure,
)
from .policy import (
    RankFailureError,
    RecoveryStats,
    ResilienceError,
    RetryPolicy,
    UnrecoverableMessageError,
    payload_crc,
)

__all__ = [
    "BitFlip",
    "Checkpoint",
    "Checkpointable",
    "DiskCheckpointStore",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "LatencySpike",
    "MemoryCheckpointStore",
    "MessageDrop",
    "RankFailure",
    "RankFailureError",
    "RecoveryStats",
    "Resilience",
    "ResilienceError",
    "RetryPolicy",
    "UnrecoverableMessageError",
    "own_tree",
    "payload_crc",
    "snapshot_nbytes",
]
