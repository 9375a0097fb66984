"""Deterministic, seedable fault injection on the point-to-point wire.

A :class:`FaultPlan` is a declarative list of fault specs — *which*
phase, *which* rank pair, *which* step, *what* goes wrong — plus a seed
for the rate-based specs.  A :class:`FaultInjector` binds a plan to a
run and is a verdict source: the communicator's healing hook
(:mod:`repro.resilience.heal`) asks :meth:`FaultInjector.verdicts`
which spec fires on each message of a transmission attempt, and the
injector schedules whole-rank deaths.  It moves no bytes; a corruption
is applied by the payload path to its own delivered copy (the sender's
buffers are never touched, so a retransmit always has the pristine
payload available).

Fault kinds, mirroring what the paper's platforms actually suffer:

* :class:`MessageDrop` — the payload never arrives (receiver times out);
* :class:`BitFlip` — one bit of the delivered payload is flipped
  (caught by the CRC-32 checked on arrival);
* :class:`LatencySpike` — the payload arrives intact but late (a
  straggler link; pure recovery-column time, no retransmit);
* :class:`RankFailure` — a whole rank dies at a given step; raises
  :class:`~repro.resilience.policy.RankFailureError` so the harness can
  restore from the last checkpoint.

Determinism: specs with ``rate < 1`` draw from a private
``np.random.default_rng(plan.seed)`` in message-posting order, which is
serialized by construction (communication is forbidden inside
``map_shards`` regions), so a plan replays identically under any
executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policy import RankFailureError


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

    def corrupt(self, payload: np.ndarray) -> np.ndarray:
        """A corrupted *copy* of ``payload`` (the original is untouched)."""
        corrupted = np.array(payload, copy=True)
        raw = corrupted.view(np.uint8).reshape(-1)
        raw[self.byte_index % raw.size] ^= np.uint8(1 << self.bit)
        return corrupted


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

    def check_ranks(self, nprocs: int) -> None:
        """Reject a spec naming a rank outside an ``nprocs``-rank world.

        Such a spec could never match (a drop that silently never
        fires) or would kill a rank the run does not have.
        """
        for f in self.faults:
            named = (f.rank,) if isinstance(f, RankFailure) else (f.src, f.dst)
            if any(r is not None and not 0 <= r < nprocs for r in named):
                raise ValueError(
                    f"{f!r} names a rank outside the {nprocs}-rank world"
                )


class FaultInjector:
    """Applies a :class:`FaultPlan` to one run, attempt by attempt.

    Installed by ``Communicator.enable_resilience``; the communicator
    consults it at every communication: :meth:`check_rank_failure` when one
    starts, :meth:`verdicts` when the healing hook judges a
    point-to-point transmission.  Faults live on the point-to-point
    wire, where the paper's fabrics actually flake; collectives only
    surface scheduled rank deaths.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)
        self.step = 0
        self._fired_failures: set[int] = set()

    # -- step context (driven by the harness / the app loop) -----------

    def begin_step(self, step: int) -> None:
        """Declare the application step faults are matched against."""
        self.step = step

    def end_step(self) -> None:
        """Close the step; fires a scheduled failure the step's (lack
        of) communication never surfaced."""
        self.check_rank_failure()

    def check_rank_failure(self) -> None:
        """Raise :class:`RankFailureError` if a death is due now."""
        for i, f in enumerate(self.plan.rank_failures):
            if i not in self._fired_failures and f.step == self.step:
                self._fired_failures.add(i)
                raise RankFailureError(rank=f.rank, step=f.step)

    # -- message faulting ----------------------------------------------

    def verdicts(
        self,
        *,
        phase: str | None,
        granks: Sequence[tuple[int, int]],
        nbytes: Sequence[int],
        attempt: int,
    ) -> list[FaultSpec | None]:
        """The spec that fires on each message of one transmission.

        ``granks[k]`` is message ``k``'s global ``(src, dst)`` pair and
        ``nbytes[k]`` its size; ``attempt`` counts earlier transmissions
        of these messages.  Each entry is the first matching plan spec
        whose rate draw hits, or ``None`` when the message goes through
        clean — including a :class:`BitFlip` on a zero-byte payload,
        which has no bits to flip.  Rate draws happen here, in posting
        order, so outcomes are a pure function of the plan seed and the
        (serialized) communication schedule.
        """
        out: list[FaultSpec | None] = []
        for (src, dst), nb in zip(granks, nbytes):
            fired = None
            for spec in self.plan.message_faults:
                if spec.matches(
                    step=self.step, phase=phase, src=src, dst=dst,
                    attempt=attempt,
                ) and (spec.rate >= 1.0 or self.rng.random() < spec.rate):
                    fired = spec
                    break
            if isinstance(fired, BitFlip) and nb == 0:
                fired = None
            out.append(fired)
        return out
