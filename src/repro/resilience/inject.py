"""Deterministic, seedable fault injection at the Transport seam.

A :class:`FaultPlan` is a declarative list of fault specs — *which*
phase, *which* rank pair, *which* step, *what* goes wrong — plus a seed
for the rate-based specs.  A :class:`FaultInjector` binds a plan to a
:class:`~repro.simmpi.transport.Transport` and sits between the
:class:`~repro.simmpi.comm.Communicator` facade and the transport:
payloads flow through :meth:`FaultInjector.deliver_faulty`, which moves
the bytes via the wrapped transport and then perturbs the *delivered
copies* according to the plan (the sender's buffers are never touched,
so a retransmit always has the pristine payload available).

Fault kinds, mirroring what the paper's platforms actually suffer:

* :class:`MessageDrop` — the payload never arrives (receiver times out);
* :class:`BitFlip` — one bit of the delivered payload is flipped
  (caught by the CRC-32 the facade checks on arrival);
* :class:`LatencySpike` — the payload arrives intact but late (a
  straggler link; pure recovery-column time, no retransmit);
* :class:`RankFailure` — a whole rank dies at a given step; raises
  :class:`~repro.resilience.policy.RankFailureError` so the harness can
  restore from the last checkpoint.

Determinism: specs with ``rate < 1`` draw from a private
``np.random.default_rng(plan.seed)`` in message-posting order, which is
serialized by construction (communication is forbidden inside
``map_ranks`` regions), so a plan replays identically under any
executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..simmpi.transport import Transport
from .policy import RankFailureError

#: Message-fault outcomes reported to the facade.
OK = "ok"
DROPPED = "dropped"
CORRUPT = "corrupt"
DELAYED = "delayed"


@dataclass(frozen=True)
class FaultSpec:
    """Matching predicate shared by every fault kind.

    ``None`` fields match anything.  ``step``/``phase`` select *when*,
    ``src``/``dst`` select *which rank pair* (global rank ids), and
    ``rate`` makes the fault probabilistic (seeded; ``1.0`` is
    deterministic).  ``repeat`` is how many successive transmission
    attempts of one message the fault keeps hitting: the default 1
    faults the first attempt only, so the first retransmit succeeds.
    """

    phase: str | None = None
    step: int | None = None
    src: int | None = None
    dst: int | None = None
    rate: float = 1.0
    repeat: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")

    def matches(
        self, *, step: int, phase: str | None, src: int, dst: int,
        attempt: int,
    ) -> bool:
        if attempt >= self.repeat:
            return False
        if self.step is not None and step != self.step:
            return False
        if self.phase is not None and phase != self.phase:
            return False
        if self.src is not None and src != self.src:
            return False
        if self.dst is not None and dst != self.dst:
            return False
        return True


@dataclass(frozen=True)
class MessageDrop(FaultSpec):
    """The message vanishes on the wire."""


@dataclass(frozen=True)
class BitFlip(FaultSpec):
    """One bit of the delivered payload flips (CRC catches it)."""

    #: Which bit of which byte to flip; clamped to the payload size so
    #: the same spec works for any message it matches.
    byte_index: int = 0
    bit: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.bit < 8:
            raise ValueError("bit must be in [0, 8)")


@dataclass(frozen=True)
class LatencySpike(FaultSpec):
    """The payload arrives intact but ``extra_s`` virtual seconds late."""

    extra_s: float = 1e-3

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_s < 0:
            raise ValueError("extra_s must be >= 0")


@dataclass(frozen=True)
class RankFailure:
    """Rank ``rank`` dies at step ``step`` (fires exactly once).

    The failure surfaces at the rank's next transport activity within
    the step, or at the step boundary for communication-free steps.
    """

    rank: int = 0
    step: int = 0

    def __post_init__(self) -> None:
        if self.rank < 0 or self.step < 0:
            raise ValueError("rank and step must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seedable schedule of injected faults."""

    faults: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        for f in self.faults:
            if not isinstance(f, (FaultSpec, RankFailure)):
                raise TypeError(
                    f"{f!r} is not a FaultSpec or RankFailure"
                )

    @property
    def message_faults(self) -> tuple[FaultSpec, ...]:
        return tuple(f for f in self.faults if isinstance(f, FaultSpec))

    @property
    def rank_failures(self) -> tuple[RankFailure, ...]:
        return tuple(f for f in self.faults if isinstance(f, RankFailure))


@dataclass
class Outcome:
    """What the injector did to one message of one attempt."""

    kind: str
    payload: np.ndarray | None = None
    extra_s: float = 0.0


def _flip_bit(payload: np.ndarray, spec: BitFlip) -> np.ndarray:
    """A corrupted *copy* of the payload (sender's buffer untouched)."""
    corrupted = np.array(payload, copy=True)
    raw = corrupted.view(np.uint8).reshape(-1)
    raw[spec.byte_index % raw.size] ^= np.uint8(1 << spec.bit)
    return corrupted


class FaultInjector(Transport):
    """A :class:`Transport` wrapper that perturbs delivered payloads.

    Installed between the Communicator facade and the real transport by
    :meth:`Communicator.enable_resilience`.  Inherits every collective
    pattern unchanged from the wrapped transport (faults live on the
    point-to-point wire, where the paper's fabrics actually flake) and
    adds the rank-failure trigger to every byte-moving entry point so a
    scheduled death surfaces mid-run, whatever the app's traffic mix.
    """

    def __init__(
        self, plan: FaultPlan, transport: Transport | None = None
    ) -> None:
        self.plan = plan
        self.inner = transport if transport is not None else Transport()
        self.rng = np.random.default_rng(plan.seed)
        self.step = 0
        self._fired_failures: set[int] = set()
        self._in_step = False

    # -- step context (driven by the harness / the app loop) -----------

    def begin_step(self, step: int) -> None:
        """Declare the application step faults are matched against."""
        self.step = step
        self._in_step = True

    def end_step(self) -> None:
        """Close the step; fires a scheduled failure the step's (lack
        of) communication never surfaced."""
        self._in_step = False
        self.check_rank_failure()

    def pending_rank_failure(self) -> RankFailure | None:
        """The not-yet-fired failure scheduled for the current step."""
        for i, f in enumerate(self.plan.rank_failures):
            if i not in self._fired_failures and f.step == self.step:
                return f
        return None

    def check_rank_failure(self) -> None:
        """Raise :class:`RankFailureError` if a death is due now."""
        for i, f in enumerate(self.plan.rank_failures):
            if i not in self._fired_failures and f.step == self.step:
                self._fired_failures.add(i)
                raise RankFailureError(rank=f.rank, step=f.step)

    # -- message faulting ----------------------------------------------

    def judge(
        self, *, phase: str | None, src: int, dst: int, attempt: int
    ) -> FaultSpec | None:
        """The first plan spec that fires for one transmission attempt.

        ``src``/``dst`` are global rank ids.  Rate draws happen here,
        in posting order, so outcomes are a pure function of the plan
        seed and the (serialized) communication schedule.
        """
        for spec in self.plan.message_faults:
            if not spec.matches(
                step=self.step, phase=phase, src=src, dst=dst,
                attempt=attempt,
            ):
                continue
            if spec.rate >= 1.0 or self.rng.random() < spec.rate:
                return spec
        return None

    def deliver_faulty(
        self,
        messages: Sequence,
        *,
        phase: str | None,
        attempts: Sequence[int],
        granks: Sequence[tuple[int, int]],
        copy: bool = True,
    ) -> list[Outcome]:
        """Move one batch of messages, applying the plan.

        ``attempts[k]`` is how many times ``messages[k]`` has already
        been transmitted; ``granks[k]`` is its global ``(src, dst)``
        pair.  Returns one :class:`Outcome` per message, aligned with
        the input order (the facade reassembles posting order from
        them).  Raises mid-batch if a rank failure is due.
        """
        self.check_rank_failure()
        delivered = self.inner.deliver(messages, copy=copy)
        cursors: dict[int, int] = {}
        outcomes: list[Outcome] = []
        for k, m in enumerate(messages):
            i = cursors.get(m.dst, 0)
            cursors[m.dst] = i + 1
            payload = delivered[m.dst][i]
            spec = self.judge(
                phase=phase,
                src=granks[k][0],
                dst=granks[k][1],
                attempt=attempts[k],
            )
            if spec is None or (
                isinstance(spec, BitFlip) and payload.nbytes == 0
            ):
                # zero-byte payloads have no bits to flip
                outcomes.append(Outcome(OK, payload))
            elif isinstance(spec, MessageDrop):
                outcomes.append(Outcome(DROPPED, None))
            elif isinstance(spec, BitFlip):
                outcomes.append(Outcome(CORRUPT, _flip_bit(payload, spec)))
            elif isinstance(spec, LatencySpike):
                outcomes.append(Outcome(DELAYED, payload, spec.extra_s))
            else:  # a bare FaultSpec matches but names no failure mode
                outcomes.append(Outcome(OK, payload))
        return outcomes

    def judge_phase(
        self,
        *,
        phase: str | None,
        granks: Sequence[tuple[int, int]],
        nbytes: Sequence[int],
        attempt: int,
    ) -> list[tuple[str, float]]:
        """Accounting-only faulting for :meth:`Communicator.exchange_phase`.

        The caller already moved the bytes in bulk, so nothing can be
        corrupted — but the *wire* the accounting models still flakes.
        Returns, per message of the ``attempt``-th transmission, the
        ``(kind, extra_s)`` :meth:`deliver_faulty` would have produced,
        so the facade can charge the retransmit/delay time it would
        have cost.
        """
        verdicts: list[tuple[str, float]] = []
        for (src, dst), nb in zip(granks, nbytes):
            spec = self.judge(
                phase=phase, src=src, dst=dst, attempt=attempt
            )
            if isinstance(spec, MessageDrop):
                verdicts.append((DROPPED, 0.0))
            elif isinstance(spec, BitFlip) and nb > 0:
                verdicts.append((CORRUPT, 0.0))
            elif isinstance(spec, LatencySpike):
                verdicts.append((OK, spec.extra_s))
            else:
                verdicts.append((OK, 0.0))
        return verdicts

    # -- Transport interface -------------------------------------------

    def deliver(self, messages: Sequence, copy: bool = True):
        """Plain transport delivery with the failure trigger attached.

        Used if the injector is installed as a raw transport; message
        faults need the facade's attempt bookkeeping and are only
        applied through :meth:`deliver_faulty`.
        """
        self.check_rank_failure()
        return self.inner.deliver(messages, copy=copy)

    def reduce(self, contributions, op: str = "sum"):
        self.check_rank_failure()
        return self.inner.reduce(contributions, op)

    def replicate(self, result, nprocs: int):
        return self.inner.replicate(result, nprocs)

    def scatter_blocks(self, total, nprocs: int):
        return self.inner.scatter_blocks(total, nprocs)

    def scan(self, contributions, op: str = "sum"):
        self.check_rank_failure()
        return self.inner.scan(contributions, op)

    def alltoallv(self, rows, copy: bool = True):
        self.check_rank_failure()
        return self.inner.alltoallv(rows, copy=copy)

    def allgather(self, contributions, copy: bool = True):
        self.check_rank_failure()
        return self.inner.allgather(contributions, copy=copy)

    def gather(self, contributions):
        self.check_rank_failure()
        return self.inner.gather(contributions)
