"""Self-healing point-to-point traffic and the recovery charges.

:class:`Resilience` is the resilience box of one communicator world:
the installed :class:`~repro.resilience.inject.FaultInjector` (``None``
until :meth:`Communicator.enable_resilience
<repro.simmpi.comm.Communicator.enable_resilience>`), the
:class:`~repro.resilience.policy.RetryPolicy` and the
:class:`~repro.resilience.policy.RecoveryStats`.  Like the phase state
it is one object referenced by the world and every subgroup, whenever
they were split, so a fault plan enabled on the world also governs
subgroup traffic (faults match global ranks).

The communicator consults it at two points:

* :meth:`Resilience.check_rank_failure` when a communication starts,
  before anything is charged — so the clocks a failed step leaves
  behind do not depend on which communication path a solver takes;
* :meth:`Resilience.heal` after a point-to-point phase has booked its
  first transmission, from the accounting tail ``exchange`` and
  ``exchange_phase`` share.

The hook runs one retransmit loop over one
:meth:`~repro.resilience.inject.FaultInjector.verdicts` call per
attempt, so the payload path and the accounting-only path cannot drift
apart.  Every repair second goes through the communicator's booking
primitives (``_book``, and ``_sync`` for the restart) into the clocks,
the timeline and the phase ledger's ``recovery`` column at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .inject import (
    BitFlip,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    MessageDrop,
)
from .policy import (
    RecoveryStats,
    RetryPolicy,
    UnrecoverableMessageError,
    payload_crc,
)

if TYPE_CHECKING:
    from ..simmpi.comm import Communicator, Message


class Resilience:
    """Injector, policy and counters shared by one communicator world.

    The policy and stats always exist: checkpoint charging works
    without a fault plan.
    """

    __slots__ = ("injector", "policy", "stats")

    def __init__(self) -> None:
        self.injector: FaultInjector | None = None
        self.policy = RetryPolicy()
        self.stats = RecoveryStats()

    def enable(
        self,
        injector: FaultInjector | FaultPlan | None,
        policy: RetryPolicy | None,
        nprocs: int,
    ) -> FaultInjector | None:
        """Install ``injector`` (a plan is wrapped) and ``policy``.

        The plan's ranks are checked against the ``nprocs``-rank world.
        ``None`` installs no injector, only the policy.
        """
        if isinstance(injector, FaultPlan):
            injector = FaultInjector(injector)
        if injector is not None:
            injector.plan.check_ranks(nprocs)
        self.injector = injector
        if policy is not None:
            self.policy = policy
        return injector

    def check_rank_failure(self) -> None:
        """Fire a scheduled rank death at this communication point."""
        if self.injector is not None:
            self.injector.check_rank_failure()

    # -- healing hook ----------------------------------------------------

    def heal(
        self,
        comm: "Communicator",
        triples: Sequence[tuple[int, int, int]],
        messages: Sequence["Message"] | None = None,
        received: dict[int, list[np.ndarray]] | None = None,
    ) -> None:
        """Heal one point-to-point phase's first transmission.

        ``triples`` are the messages' local ``(src, dst, nbytes)`` in
        posting order.  ``exchange`` also passes its ``messages`` and
        the transport's delivery ``received`` (in posting order per
        destination): a dropped message never arrives, a bit-flipped
        one arrives as a corrupted copy of its delivered payload, and
        every arrival is checked against the CRC-32 of the sender's
        buffer.  Neither buffer is ever modified, so a retransmit
        arrives as the delivered payload and ``received`` ends up
        exactly as delivered.  ``exchange_phase`` moved its bytes
        out-of-band, so an injected fault cannot touch the data — but
        the wire the accounting models still flakes, and heals the same
        way: a bit flip counts as caught by the checksum.

        A drop costs the receiver ``detect_timeout``, a corruption
        ``nack_time``; a latency spike is absorbed as receiver time.
        Failed messages are retransmitted with exponential backoff
        until an attempt comes back clean; one still failing after
        ``max_retries`` retransmits raises
        :class:`UnrecoverableMessageError`.
        """
        if messages is None:
            def corrupt(i: int, spec) -> bool:
                return isinstance(spec, BitFlip)
        else:
            cursors: dict[int, int] = {}
            delivered = []
            for m in messages:
                k = cursors.get(m.dst, 0)
                cursors[m.dst] = k + 1
                delivered.append(received[m.dst][k])
            crcs = [payload_crc(m.payload) for m in messages]

            def corrupt(i: int, spec) -> bool:
                arrived = delivered[i]
                if isinstance(spec, BitFlip):
                    arrived = spec.corrupt(arrived)
                return payload_crc(arrived) != crcs[i]

        inj, policy, stats = self.injector, self.policy, self.stats
        phase = comm.current_phase
        granks = [(comm._g(s), comm._g(d)) for s, d, _ in triples]
        pending = list(range(len(triples)))
        attempt = 0
        while True:
            specs = inj.verdicts(
                phase=phase,
                granks=[granks[i] for i in pending],
                nbytes=[triples[i][2] for i in pending],
                attempt=attempt,
            )
            failed: list[int] = []
            for i, spec in zip(pending, specs):
                g_dst = [granks[i][1]]
                if isinstance(spec, MessageDrop):
                    stats.drops_detected += 1
                    self._charge(comm, g_dst, policy.detect_timeout, "detect")
                    failed.append(i)
                elif corrupt(i, spec):
                    stats.corruptions_detected += 1
                    self._charge(comm, g_dst, policy.nack_time, "nack")
                    failed.append(i)
                elif isinstance(spec, LatencySpike) and spec.extra_s > 0.0:
                    stats.delays_absorbed += 1
                    self._charge(comm, g_dst, spec.extra_s, "straggler")
            if not failed:
                return
            attempt += 1
            for i in failed:
                src, dst, nb = triples[i]
                if attempt > policy.max_retries:
                    raise UnrecoverableMessageError(
                        f"message {src}->{dst} ({nb} B) still "
                        f"failing after {policy.max_retries} retransmits"
                    )
                self._resend(comm, *granks[i], nb, policy.backoff(attempt))
                stats.resends += 1
                stats.resend_bytes += nb
            pending = failed

    def _charge(
        self, comm: "Communicator", granks: list[int], seconds: float,
        label: str,
    ) -> None:
        """Book ``seconds`` of recovery time on each global rank."""
        if seconds <= 0.0:
            return
        comm._book("recovery", granks, seconds, label)
        for _ in granks:  # one addition per rank fixes the rounding
            self.stats.recovery_rank_seconds += seconds

    def _resend(
        self, comm: "Communicator", g_src: int, g_dst: int, nbytes: int,
        delay: float,
    ) -> None:
        """Book one retransmission: ``delay`` plus wire time on both
        ends (recovery column), the resent bytes in trace and ledger."""
        wire = (
            comm._net.ptp_time(nbytes, g_src, g_dst)
            if comm._net is not None
            else 0.0
        )
        self._charge(comm, [g_src], delay + wire, "resend")
        self._charge(comm, [g_dst], delay + wire, "resend-wait")
        if comm.trace is not None:
            comm.trace.record(g_src, g_dst, nbytes, "resend")
        comm._traffic([g_src], nbytes)

    # -- checkpoint / restart charges ----------------------------------

    def charge_checkpoint(self, comm: "Communicator", nbytes: int) -> float:
        """Charge ``comm``'s ranks one checkpoint write; see
        :meth:`Communicator.charge_checkpoint
        <repro.simmpi.comm.Communicator.charge_checkpoint>`."""
        dt = self.policy.checkpoint_time(nbytes, comm.nprocs)
        self._charge(comm, comm.ranks, dt, "checkpoint")
        self.stats.checkpoints += 1
        self.stats.checkpoint_bytes += float(nbytes)
        return dt

    def recover_restart(self, comm: "Communicator", nbytes: int) -> float:
        """Charge ``comm``'s ranks a restart; see
        :meth:`Communicator.recover_restart
        <repro.simmpi.comm.Communicator.recover_restart>`."""
        waits = comm._sync("recovery", "restart")
        self.stats.recovery_rank_seconds += float(waits.sum())
        dt = self.policy.restart_penalty + self.policy.restore_time(
            nbytes, comm.nprocs
        )
        self._charge(comm, comm.ranks, dt, "restart")
        self.stats.restarts += 1
        return dt
