"""Per-rank execution timelines for the simulated runtime.

Beyond the aggregate clocks, a :class:`Timeline` records every compute
kernel, communication operation, synchronization wait and fault
recovery as an interval on its rank's time axis, and renders the result
as an ASCII Gantt chart — the closest thing to a parallel profiler's
trace view for the simulated machine.  Useful for seeing *why* a
configuration is slow: load imbalance shows up as wait bars,
communication-bound runs as tilde-filled rows.

The event kinds are the phase ledger's :data:`~repro.simmpi.phases.KINDS`:
the communicator books each charged second into both instruments at
once, so a rank's timeline total of a kind equals its ledger column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .phases import KINDS

#: Event kinds and their Gantt glyphs.
GLYPHS = dict(zip(KINDS, "#~.!"))


@dataclass(frozen=True)
class Event:
    """One interval on one rank's time axis."""

    rank: int
    start: float
    end: float
    label: str
    kind: str  # one of KINDS

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("event ends before it starts")
        if self.kind not in GLYPHS:
            raise ValueError(f"unknown event kind {self.kind!r}")

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Event store for one simulated job."""

    nprocs: int
    events: list[Event] = field(default_factory=list)

    def record(
        self, rank: int, start: float, end: float, label: str, kind: str
    ) -> None:
        if not 0 <= rank < self.nprocs:
            raise IndexError(f"rank {rank} out of range")
        if end > start:  # zero-length events are dropped silently
            self.events.append(Event(rank, start, end, label, kind))

    def events_for(self, rank: int, kind: str | None = None) -> list[Event]:
        return [
            e
            for e in self.events
            if e.rank == rank and (kind is None or e.kind == kind)
        ]

    def total(self, kind: str, rank: int | None = None) -> float:
        """Summed duration of one kind (per rank, or across all)."""
        return sum(
            e.duration
            for e in self.events
            if e.kind == kind and (rank is None or e.rank == rank)
        )

    @property
    def span(self) -> float:
        """Latest event end (the traced job's virtual makespan)."""
        return max((e.end for e in self.events), default=0.0)

    def busy_fraction(self, rank: int) -> float:
        """Compute share of a rank's traced activity."""
        busy = self.total("compute", rank)
        everything = sum(e.duration for e in self.events_for(rank))
        return busy / everything if everything > 0 else 0.0

    def kind_shares(self) -> dict[str, float]:
        """Global time shares by kind (normalized over traced time)."""
        totals = {k: self.total(k) for k in GLYPHS}
        grand = sum(totals.values())
        if grand == 0:
            return {k: 0.0 for k in GLYPHS}
        return {k: v / grand for k, v in totals.items()}

    def render_gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart: one row per rank, '#'=compute, '~'=comm,
        '.'=wait, '!'=recovery, ' '=idle; later events overwrite earlier
        in a cell."""
        span = self.span
        if span == 0:
            return "(no events)"
        legend = " ".join(f"{glyph}={kind}" for kind, glyph in GLYPHS.items())
        lines = [f"virtual time 0 .. {span:.3e} s   [{legend}]"]
        for rank in range(self.nprocs):
            row = [" "] * width
            for e in self.events_for(rank):
                lo = int(e.start / span * width)
                hi = max(lo + 1, int(e.end / span * width))
                for i in range(lo, min(hi, width)):
                    row[i] = GLYPHS[e.kind]
            lines.append(f"rank {rank:3d} |{''.join(row)}|")
        return "\n".join(lines)

    def reset(self) -> None:
        self.events.clear()
