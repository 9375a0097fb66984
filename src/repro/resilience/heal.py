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

The communicator consults it at three points:

* :meth:`Resilience.check_rank_failure` when a communication starts,
  before anything is charged — so the clocks a failed step leaves
  behind do not depend on which communication path a solver takes;
* :meth:`Resilience.heal_exchange` after ``exchange`` has delivered and
  booked its first transmission;
* :meth:`Resilience.heal_phase` after ``exchange_phase`` has booked its.

Both hooks run one retransmit loop over one
:meth:`~repro.resilience.inject.FaultInjector.verdicts` call per
attempt, so the payload path and the accounting-only path cannot drift
apart.  Every repair second, resend and trace record goes through the
communicator's bookkeeping primitives (``_charge_recovery``,
``_charge_resend``, ``_sync_recovery``) into the phase ledger's
``recovery`` column.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

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

    # -- healing hooks ---------------------------------------------------

    def heal_exchange(
        self,
        comm: "Communicator",
        messages: Sequence["Message"],
        received: dict[int, list[np.ndarray]],
    ) -> None:
        """Verify ``exchange``'s delivery and retransmit what failed.

        ``received`` is the transport's delivery, in posting order per
        destination.  A dropped message never arrives; a bit-flipped one
        arrives as a corrupted copy of its delivered payload; every
        arrival is checked against the CRC-32 of the sender's buffer.
        Neither buffer is ever modified, so a retransmit arrives as the
        delivered payload and ``received`` ends up exactly as delivered.
        """
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

        self._heal(
            comm, [(m.src, m.dst, m.nbytes) for m in messages], corrupt
        )

    def heal_phase(
        self, comm: "Communicator", triples: Sequence[tuple[int, int, int]]
    ) -> None:
        """Heal ``exchange_phase``'s first transmission.

        The bytes moved out-of-band, so an injected fault cannot touch
        the data — but the wire the accounting models still flakes, and
        heals exactly as :meth:`heal_exchange` would: a bit flip counts
        as caught by the checksum.
        """
        self._heal(comm, triples, lambda i, spec: isinstance(spec, BitFlip))

    def _heal(
        self,
        comm: "Communicator",
        triples: Sequence[tuple[int, int, int]],
        corrupt: Callable[[int, object], bool],
    ) -> None:
        """The retransmit loop of one point-to-point phase.

        ``triples`` are the messages' local ``(src, dst, nbytes)`` in
        posting order; ``corrupt(i, spec)`` says whether message ``i``
        failed its checksum under the verdict ``spec``.  A drop costs
        the receiver ``detect_timeout``, a corruption ``nack_time``; a
        latency spike is absorbed as receiver time.  Failed messages
        are retransmitted with exponential backoff until an attempt
        comes back clean; one still failing after ``max_retries``
        retransmits raises :class:`UnrecoverableMessageError`.
        """
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
                g_dst = granks[i][1]
                if isinstance(spec, MessageDrop):
                    stats.drops_detected += 1
                    comm._charge_recovery(
                        [g_dst], policy.detect_timeout, phase, "detect"
                    )
                    failed.append(i)
                elif corrupt(i, spec):
                    stats.corruptions_detected += 1
                    comm._charge_recovery(
                        [g_dst], policy.nack_time, phase, "nack"
                    )
                    failed.append(i)
                elif isinstance(spec, LatencySpike) and spec.extra_s > 0.0:
                    stats.delays_absorbed += 1
                    comm._charge_recovery(
                        [g_dst], spec.extra_s, phase, "straggler"
                    )
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
                comm._charge_resend(
                    *granks[i], nb, policy.backoff(attempt), phase
                )
                stats.resends += 1
                stats.resend_bytes += nb
            pending = failed

    # -- checkpoint / restart charges ----------------------------------

    def charge_checkpoint(self, comm: "Communicator", nbytes: int) -> float:
        """Charge ``comm``'s ranks one checkpoint write; see
        :meth:`Communicator.charge_checkpoint
        <repro.simmpi.comm.Communicator.charge_checkpoint>`."""
        dt = self.policy.checkpoint_time(nbytes, comm.nprocs)
        comm._charge_recovery(
            comm.ranks, dt, comm.current_phase, "checkpoint"
        )
        self.stats.checkpoints += 1
        self.stats.checkpoint_bytes += float(nbytes)
        return dt

    def recover_restart(self, comm: "Communicator", nbytes: int) -> float:
        """Charge ``comm``'s ranks a restart; see
        :meth:`Communicator.recover_restart
        <repro.simmpi.comm.Communicator.recover_restart>`."""
        phase = comm.current_phase
        comm._sync_recovery(phase)
        dt = self.policy.restart_penalty + self.policy.restore_time(
            nbytes, comm.nprocs
        )
        comm._charge_recovery(comm.ranks, dt, phase, "restart")
        self.stats.restarts += 1
        return dt
