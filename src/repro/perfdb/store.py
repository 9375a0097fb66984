"""Record-JSONL store of :class:`~repro.perfdb.record.RunRecord` rows.

A store file holds one canonical record dict per line — the form
``perf_history.jsonl`` and ``repro-perfdb export`` use, so a store is
itself an ingest source.  Records are addressed by
:meth:`RunRecord.uid`: ``add`` is idempotent, and re-ingesting a file
someone already ingested is a no-op, not a duplicate trajectory.

File order is ingest order; :meth:`PerfDB.all` returns the records in
:func:`~repro.perfdb.record.trajectory_order`, the order
:mod:`repro.perfdb.trend` pairs them along.

Each ``add`` is one flushed and fsynced append.  A writer killed
mid-append leaves a torn last line: opening the file drops it from the
records, and the next ``add`` cuts it off before appending, so a new
line never lands glued onto it; a last record without its newline is
kept and gets one.  Opening a file that is not record JSONL (a JSON
payload, a campaign journal, an SQLite ``perf.db`` from an older
version) is a ValueError, and the file is left as it is.  A store has
one writer at a time.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Iterator

from .ingest import read_store
from .query import AXIS_FIELDS, filter_records
from .record import RunRecord, trajectory_order


class PerfDB:
    """The performance database: a record-JSONL file, or ``:memory:``."""

    def __init__(self, path: "str | Path" = ":memory:") -> None:
        self.path = str(path)
        self._file = None if self.path == ":memory:" else Path(self.path)
        self._records: list[RunRecord] = []
        self._uids: set[str] = set()
        #: (cut at, write first) for the next append to a ragged end
        self._mend: tuple[int, bytes] | None = None
        if self._file is None or not self._file.exists():
            return
        data = self._file.read_bytes()
        records, end = read_store(data, self.path)
        if data and not data.endswith(b"\n"):
            self._mend = (end, b"\n" if end == len(data) else b"")
        self._keep(self._unseen(records))

    def close(self) -> None:
        """Nothing to release: every ``add`` closes the file it wrote."""

    def __enter__(self) -> "PerfDB":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- writes ----------------------------------------------------------

    def _unseen(self, records: Iterable[RunRecord]) -> dict[str, RunRecord]:
        new: dict[str, RunRecord] = {}
        for rec in records:
            uid = rec.uid()
            if uid not in self._uids:
                new.setdefault(uid, rec)
        return new

    def _keep(self, new: dict[str, RunRecord]) -> None:
        self._uids.update(new)
        self._records.extend(new.values())

    def add(self, records: "RunRecord | Iterable[RunRecord]") -> int:
        """Append records, deduping on uid; returns how many were new."""
        if isinstance(records, RunRecord):
            records = [records]
        new = self._unseen(records)
        if new and self._file is not None:
            data = "".join(_line(rec) for rec in new.values()).encode()
            self._file.parent.mkdir(parents=True, exist_ok=True)
            with self._file.open("ab") as fh:
                if self._mend is not None:
                    end, newline = self._mend
                    fh.truncate(end)
                    data = newline + data
                    self._mend = None
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        self._keep(new)
        return len(new)

    # -- reads -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.all())

    def all(self) -> list[RunRecord]:
        """Every record in trajectory order (PR tag, then ingest order)."""
        return trajectory_order(self._records)

    def query(self, **where: Any) -> list[RunRecord]:
        """Records matching :func:`~repro.perfdb.query.filter_records`,
        trajectory-ordered: ``db.query(app="lbmhd", pr=[None, 1])``."""
        return filter_records(self.all(), **where)

    def distinct(self, column: str) -> list[Any]:
        """An axis field's values, ``None`` first, the rest sorted."""
        if column not in AXIS_FIELDS:
            raise ValueError(f"unknown column {column!r}")
        values = {getattr(rec, column) for rec in self._records}
        return sorted(values, key=lambda v: (v is not None, v))

    def sources(self) -> dict[str, int]:
        """Record count per source tag — the ingest ledger."""
        counts = Counter(rec.source for rec in self._records)
        return dict(sorted(counts.items()))

    # -- JSONL interchange ----------------------------------------------

    def export_jsonl(self, path: "str | Path") -> int:
        """One canonical-JSON record per line; returns the line count."""
        records = self.all()
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text("".join(_line(rec) for rec in records))
        return len(records)

    def import_jsonl(self, path: "str | Path") -> int:
        """Read record JSONL (torn last line skipped); returns new records."""
        records, _end = read_store(Path(path).read_bytes(), str(path))
        return self.add(records)


def _line(rec: RunRecord) -> str:
    return json.dumps(rec.to_dict(), sort_keys=True) + "\n"
