"""Per-rank virtual clocks for the simulated SPMD runtime.

Each rank owns a clock advanced by the compute and communication cost
models.  Synchronizing operations (barriers, collectives, paired
exchanges) align the participating clocks to their maximum before adding
the operation's cost — load imbalance between ranks therefore shows up
as wait time exactly as it would under real MPI.
"""

from __future__ import annotations

import numpy as np


class VirtualClock:
    """A vector of per-rank times, in seconds."""

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self._t = np.zeros(nprocs, dtype=np.float64)

    def advance(self, rank, dt: float) -> None:
        """Add ``dt`` seconds to one rank's clock (or to each of a list
        of distinct ranks)."""
        if dt < 0:
            raise ValueError(f"negative time increment {dt}")
        self._t[rank] += dt

    def synchronize(self, ranks=None) -> float:
        """Align clocks (all, or a subgroup) to their max; return it."""
        idx = slice(None) if ranks is None else list(ranks)
        t_max = float(self._t[idx].max())
        self._t[idx] = t_max
        return t_max

    def synchronize_with_waits(self, ranks=None) -> tuple[float, np.ndarray]:
        """:meth:`synchronize`, also returning each rank's wait time.

        The waits (``t_max - t_rank``, in the order of ``ranks``) are
        what the phase ledger books as synchronization overhead — load
        imbalance surfacing at a collective, exactly as IPM reports it.
        """
        idx = slice(None) if ranks is None else list(ranks)
        waits = -self._t[idx]
        t_max = float(self._t[idx].max())
        self._t[idx] = t_max
        waits += t_max
        return t_max, waits

    def time(self, rank: int) -> float:
        return float(self._t[rank])

    @property
    def elapsed(self) -> float:
        """Wall-clock of the simulated job: the slowest rank's time."""
        return float(self._t.max())

    @property
    def times(self) -> np.ndarray:
        """Copy of all per-rank times."""
        return self._t.copy()

    def imbalance(self) -> float:
        """(max - min) / max, 0 for a perfectly balanced run."""
        t_max = self._t.max()
        if t_max == 0:
            return 0.0
        return float((t_max - self._t.min()) / t_max)

    def reset(self) -> None:
        self._t[:] = 0.0
