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

#: The kinds of charged time — one vocabulary for both instruments: the
#: communicator books a second of kind ``k`` into a :class:`PhaseBucket`
#: column ``k_s`` and a :class:`~repro.simmpi.timeline.Timeline` event
#: of kind ``k``.
KINDS = ("compute", "comm", "wait", "recovery")

#: Every :class:`PhaseBucket` column: the seconds of each kind, then
#: the work and traffic counts.
COLUMNS = tuple(f"{k}_s" for k in KINDS) + ("flops", "nbytes", "messages")


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
        for name in COLUMNS:
            setattr(self, name, np.zeros(self.nprocs, dtype=np.float64))

    @property
    def total_seconds(self) -> float:
        """Summed rank-seconds (compute + comm + wait + recovery)."""
        return float(sum(getattr(self, f"{k}_s").sum() for k in KINDS))

    def as_record(self, steps: int = 1) -> dict:
        """Aggregate summary (per step when ``steps`` is given)."""
        s = max(steps, 1)
        record = {}
        for k in KINDS:
            col = getattr(self, f"{k}_s")
            record[f"{k}_s_mean"] = float(col.mean()) / s
            record[f"{k}_s_max"] = float(col.max()) / s
        for name in COLUMNS[len(KINDS):]:
            record[name] = float(getattr(self, name).sum()) / s
        return record


class PhaseLedger:
    """Per-rank, per-phase seconds of each kind, flops, bytes, messages.

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

    def record(self, phase: str | None, ranks, column: str, amount) -> None:
        """Add ``amount`` to one column of ``phase``'s bucket.

        The one mutator: the communicator books every charged second
        (column ``<kind>_s`` for each of :data:`KINDS`) and every flop,
        byte and message through it.  ``ranks`` is one global rank id
        or a sequence of them; ``amount`` is one value for every rank
        or one per rank, summed in order where a rank repeats.
        """
        col = getattr(self.bucket(phase), column)
        if type(ranks) is int:  # one rank: the compute replay's hot path
            col[ranks] += amount
        else:
            np.add.at(col, np.asarray(ranks, dtype=np.intp), amount)

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
            for name in COLUMNS:
                total = getattr(out, name)
                total += getattr(b, name)
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
        rows = list(self._buckets.items())
        rows.append(("total", self.totals()))
        for name, bucket in rows:
            r = bucket.as_record(steps)
            lines.append(
                f"{name:<14} {r['compute_s_mean'] * 1e3:>11.3f} "
                f"{r['comm_s_mean'] * 1e3:>9.3f} "
                f"{r['wait_s_mean'] * 1e3:>9.3f} "
                f"{r['recovery_s_mean'] * 1e3:>9.3f} "
                f"{r['nbytes'] / 1e6:>9.3f} {r['messages']:>8.0f}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        self._buckets.clear()
