"""JSONL progress journal of one campaign invocation.

Every event is one JSON object per line, written as it happens, so a
campaign killed mid-flight leaves a readable journal up to the kill
point.  Resume correctness comes from the content-addressed
cache (a completed run's entry was published before its ``run-done``
event was journaled).  The journals in a cache root are its one record
of traffic: ``repro-campaign status`` renders them, and
:meth:`~repro.campaign.cache.ResultCache.lifetime_stats` folds them.

Events::

    {"event": "campaign-start", "name": ..., "total": N, "spec": {...},
     "host": {"name": ..., "cpu_count": N}, "version": ..., "time": ...}
    {"event": "run-start",  "key": ..., "label": ..., "config": {...},
     "rerun": true}                          # rerun only under rerun=True
    {"event": "run-done",   "key": ..., "label": ..., "config": {...},
     "cached": bool, "wall_s": ..., "gflops": ..., "executor": ...}
    {"event": "run-failed", "key": ..., "label": ..., "config": {...},
     "error": "..."}
    {"event": "campaign-end", "hits": H, "misses": M, "failures": F,
     "wall_s": ...}

``run_campaign`` journals ``campaign-start`` and ``campaign-end``
around its run events; the prediction service, once per process.

The ``config`` and ``host``/``version`` fields are what
:func:`repro.perfdb.ingest.records_from_manifest` normalizes into
canonical :class:`~repro.perfdb.record.RunRecord` rows, one per
``run-done`` event.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterator

#: File suffix of a campaign journal.
SUFFIX = ".manifest.jsonl"


class Manifest:
    """Append-only JSONL journal: each event one ``os.write`` of its
    whole line, on a descriptor opened ``O_APPEND`` for that event alone.
    Nothing stays open, so a journal deleted between events (a cache
    :meth:`~repro.campaign.cache.ResultCache.clear`) is created again."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, event: dict[str, Any]) -> None:
        line = (json.dumps(event, sort_keys=True) + "\n").encode()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while line:  # a short write leaves the rest to write
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)


class NullManifest:
    """No-op stand-in when journaling is disabled."""

    path = None

    def append(self, event: dict[str, Any]) -> None:  # pragma: no cover
        pass


def read_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Parse a journal, skipping a torn trailing line if the writer died
    mid-append."""
    p = Path(path)
    if not p.exists():
        return
    with p.open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def summarize(path: str | Path) -> dict[str, Any]:
    """Aggregate a journal into the ``status`` view.

    Returns name/total plus per-state counts and the latest event per
    run key, so an interrupted campaign shows exactly which configs
    completed, failed, or never started.
    """
    name = None
    total = 0
    runs: dict[str, dict[str, Any]] = {}
    ended = False
    for event in read_events(path):
        kind = event.get("event")
        if kind == "campaign-start":
            name = event.get("name")
            total = int(event.get("total", 0))
            runs.clear()
            ended = False
        elif kind in ("run-start", "run-done", "run-failed"):
            key = str(event.get("key"))
            runs[key] = event
        elif kind == "campaign-end":
            ended = True
    done = [e for e in runs.values() if e.get("event") == "run-done"]
    failed = [e for e in runs.values() if e.get("event") == "run-failed"]
    running = [e for e in runs.values() if e.get("event") == "run-start"]
    hits = sum(1 for e in done if e.get("cached"))
    return {
        "name": name,
        # the service journals an open-ended campaign (total 0)
        "total": max(total, len(runs)),
        "complete": ended,
        "done": len(done),
        "hits": hits,
        "misses": len(done) - hits,
        "failed": len(failed),
        "in_flight": len(running),
        "pending": max(total - len(runs), 0),
        "runs": runs,
    }
