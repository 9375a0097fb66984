"""IPM-style per-phase accounting for the simulated runtime.

The paper's measurement discipline is an IPM profile: every run is
split into named phases (GTC's ``charge -> reduce -> field -> push ->
shift``, LBMHD's ``collision -> stream``, ...), and each phase is
attributed its compute time, communication time, synchronization wait,
byte volume, and message count — per rank.  This module is the
simulated counterpart of that instrument.

A :class:`PhaseLedger` holds one :class:`PhaseBucket` of per-rank
accumulator arrays per phase name.  The :class:`~repro.simmpi.comm.
Communicator` carries the *current phase* in a small shared box
(:class:`PhaseState`) — shared, like the clocks and the trace, between
a world communicator and every subgroup split from it, so a GTC
subgroup ``Allreduce`` lands in whatever phase the enclosing solver
opened.  Phases are scoped with a context manager::

    with comm.phase("charge"):
        ...            # every compute / exchange / collective in here
                       # is attributed to "charge"

Activity outside any scope accumulates under :data:`UNPHASED`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Phase label charged when no ``with comm.phase(...)`` scope is open.
UNPHASED = "(unphased)"


class PhaseState:
    """Shared mutable current-phase + ledger box of one communicator world."""

    __slots__ = ("current", "ledger")

    def __init__(self) -> None:
        self.current: str | None = None
        self.ledger: PhaseLedger | None = None


class PhaseScope:
    """Context manager that names the enclosing instrumentation phase.

    Re-entrant and nestable: an inner scope re-attributes its region
    (PARATEC's FFT transposes open ``fft`` inside the ``cg`` sweep), and
    the outer label is restored on exit.  Entering a scope is a couple
    of attribute writes — cheap enough to sit on every hot step.
    """

    __slots__ = ("_state", "_trace", "_name", "_prev")

    def __init__(self, state: PhaseState, trace, name: str) -> None:
        self._state = state
        self._trace = trace
        self._name = name

    def __enter__(self) -> "PhaseScope":
        self._prev = self._state.current
        self._state.current = self._name
        if self._trace is not None:
            self._trace.phase = self._name
        return self

    def __exit__(self, *exc) -> None:
        self._state.current = self._prev
        if self._trace is not None:
            self._trace.phase = self._prev


@dataclass
class PhaseBucket:
    """Per-rank accumulators of one named phase.

    ``recovery_s`` is the resilience column: virtual seconds spent
    detecting, backing off from, and repairing injected faults
    (retransmits after drops/corruption, straggler delays, checkpoint
    writes, and restart/restore after a rank failure) — time a
    fault-free run would not have charged.
    """

    nprocs: int
    compute_s: np.ndarray = field(init=False)
    comm_s: np.ndarray = field(init=False)
    wait_s: np.ndarray = field(init=False)
    recovery_s: np.ndarray = field(init=False)
    flops: np.ndarray = field(init=False)
    nbytes: np.ndarray = field(init=False)
    messages: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        for name in ("compute_s", "comm_s", "wait_s", "recovery_s",
                     "flops", "nbytes", "messages"):
            setattr(self, name, np.zeros(self.nprocs, dtype=np.float64))

    @property
    def total_seconds(self) -> float:
        """Summed rank-seconds (compute + comm + wait + recovery)."""
        return float(
            self.compute_s.sum()
            + self.comm_s.sum()
            + self.wait_s.sum()
            + self.recovery_s.sum()
        )

    def as_record(self, steps: int = 1) -> dict:
        """Aggregate summary (per step when ``steps`` is given)."""
        s = max(steps, 1)
        return {
            "compute_s_mean": float(self.compute_s.mean()) / s,
            "compute_s_max": float(self.compute_s.max()) / s,
            "comm_s_mean": float(self.comm_s.mean()) / s,
            "comm_s_max": float(self.comm_s.max()) / s,
            "wait_s_mean": float(self.wait_s.mean()) / s,
            "wait_s_max": float(self.wait_s.max()) / s,
            "recovery_s_mean": float(self.recovery_s.mean()) / s,
            "recovery_s_max": float(self.recovery_s.max()) / s,
            "flops": float(self.flops.sum()) / s,
            "nbytes": float(self.nbytes.sum()) / s,
            "messages": float(self.messages.sum()) / s,
        }


class PhaseLedger:
    """Per-rank, per-phase compute/comm/wait/bytes/messages record.

    Sized to the *world* communicator; ranks are global rank ids, so
    subgroup operations (GTC's particle-subgroup ``Allreduce``, FVCAM's
    level-group transposes) attribute to the right rows.
    """

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self._buckets: dict[str, PhaseBucket] = {}

    # -- recording (called from Communicator internals) -----------------

    def bucket(self, phase: str | None) -> PhaseBucket:
        key = phase if phase is not None else UNPHASED
        b = self._buckets.get(key)
        if b is None:
            b = self._buckets[key] = PhaseBucket(self.nprocs)
        return b

    def record_compute(
        self, phase: str | None, rank: int, seconds: float, flops: float = 0.0
    ) -> None:
        b = self.bucket(phase)
        b.compute_s[rank] += seconds
        b.flops[rank] += flops

    def record_comm(self, phase: str | None, rank: int, seconds: float) -> None:
        self.bucket(phase).comm_s[rank] += seconds

    def record_comm_group(
        self, phase: str | None, ranks, seconds: float
    ) -> None:
        self.bucket(phase).comm_s[list(ranks)] += seconds

    def record_wait(self, phase: str | None, rank: int, seconds: float) -> None:
        self.bucket(phase).wait_s[rank] += seconds

    def record_waits(self, phase: str | None, ranks, seconds) -> None:
        """Vector counterpart of :meth:`record_wait` (one value per rank)."""
        b = self.bucket(phase)
        np.add.at(b.wait_s, list(ranks), seconds)

    def record_recovery(
        self, phase: str | None, rank: int, seconds: float
    ) -> None:
        """Book fault-recovery time (retransmit, restore...)."""
        self.bucket(phase).recovery_s[rank] += seconds

    def record_recovery_group(
        self, phase: str | None, ranks, seconds
    ) -> None:
        """Vector counterpart of :meth:`record_recovery`.

        ``seconds`` is a scalar charged to every rank, or one value per
        rank (``np.add.at`` scatter semantics either way).
        """
        b = self.bucket(phase)
        np.add.at(b.recovery_s, list(ranks), seconds)

    def record_traffic(
        self, phase: str | None, rank: int, nbytes: float, messages: int = 1
    ) -> None:
        b = self.bucket(phase)
        b.nbytes[rank] += nbytes
        b.messages[rank] += messages

    def record_traffic_bulk(self, phase: str | None, ranks, nbytes) -> None:
        """One scatter-add for a whole batch of sends (``exchange_phase``)."""
        b = self.bucket(phase)
        idx = np.asarray(ranks, dtype=np.intp)
        np.add.at(b.nbytes, idx, np.asarray(nbytes, dtype=np.float64))
        np.add.at(b.messages, idx, 1.0)

    def record_collective(
        self, phase: str | None, ranks, nbytes_per_rank: float
    ) -> None:
        """Attribute one collective call: every rank sends ~its payload."""
        b = self.bucket(phase)
        idx = list(ranks)
        b.nbytes[idx] += nbytes_per_rank
        b.messages[idx] += 1.0

    # -- inspection ------------------------------------------------------

    @property
    def phases(self) -> list[str]:
        """Phase names in first-recorded order."""
        return list(self._buckets)

    def __getitem__(self, phase: str) -> PhaseBucket:
        return self._buckets[phase]

    def __contains__(self, phase: str) -> bool:
        return phase in self._buckets

    def totals(self) -> PhaseBucket:
        """Everything summed over phases (still per rank)."""
        out = PhaseBucket(self.nprocs)
        for b in self._buckets.values():
            out.compute_s += b.compute_s
            out.comm_s += b.comm_s
            out.wait_s += b.wait_s
            out.recovery_s += b.recovery_s
            out.flops += b.flops
            out.nbytes += b.nbytes
            out.messages += b.messages
        return out

    def as_records(self, steps: int = 1) -> list[dict]:
        """One aggregate dict per phase (JSON-friendly)."""
        return [
            {"phase": name, **bucket.as_record(steps)}
            for name, bucket in self._buckets.items()
        ]

    def render(self, title: str = "", steps: int = 1) -> str:
        """ASCII per-phase table (per step when ``steps`` is given)."""
        lines = []
        if title:
            lines.append(title)
        lines.append(
            f"{'phase':<14} {'compute ms':>11} {'comm ms':>9} "
            f"{'sync ms':>9} {'recov ms':>9} {'MB':>9} {'msgs':>8}"
        )
        total = PhaseBucket(self.nprocs)
        for name in self.phases:
            r = self._buckets[name].as_record(steps)
            lines.append(
                f"{name:<14} {r['compute_s_mean'] * 1e3:>11.3f} "
                f"{r['comm_s_mean'] * 1e3:>9.3f} "
                f"{r['wait_s_mean'] * 1e3:>9.3f} "
                f"{r['recovery_s_mean'] * 1e3:>9.3f} "
                f"{r['nbytes'] / 1e6:>9.3f} {r['messages']:>8.0f}"
            )
        t = self.totals().as_record(steps)
        lines.append(
            f"{'total':<14} {t['compute_s_mean'] * 1e3:>11.3f} "
            f"{t['comm_s_mean'] * 1e3:>9.3f} "
            f"{t['wait_s_mean'] * 1e3:>9.3f} "
            f"{t['recovery_s_mean'] * 1e3:>9.3f} "
            f"{t['nbytes'] / 1e6:>9.3f} {t['messages']:>8.0f}"
        )
        return "\n".join(lines)

    def reset(self) -> None:
        self._buckets.clear()
