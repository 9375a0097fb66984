"""In-memory span recorder for the traced run.

Spans wrap only the benchmark's own calls into public functions of
``repro`` (spans inside ``src/`` are a later issue).  A span is
``(id, parent, op, name, start, end)``: ``parent`` is the span open on
the same thread when it began, ``op`` the id of its root span, so all
spans of one operation share an identifier.  Rows stay in memory and
are written as JSON lines when the pass ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Spans:
    """Collects spans while ``enabled``; a disabled recorder costs one
    attribute test per call, so call sites need no branch of their own."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.rows: list[tuple[int, int | None, int, str, float, float]] = []
        self._ids = itertools.count()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._open.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent, op = (stack[-1] if stack else (None, sid))
        stack.append((sid, op))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.rows.append((sid, parent, op, name, t0, t1))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self milliseconds.

        A span's self time is its duration minus the part of that
        interval its child spans cover (children of one parent run on
        one thread, one after another, so their durations add).
        """
        covered: dict[int, float] = {}
        for _sid, parent, _op, _name, t0, t1 in self.rows:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, _op, name, t0, t1 in self.rows:
            row = out.setdefault(
                name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += (t1 - t0) * 1e3
            row["self_ms"] += (t1 - t0 - covered.get(sid, 0.0)) * 1e3
        return out

    def write(self, path: Path, **tags: object) -> None:
        """Append every span to ``path`` as JSON lines (``tags`` on each)."""
        with path.open("a") as fh:
            for sid, parent, op, name, t0, t1 in self.rows:
                fh.write(json.dumps({
                    **tags, "id": sid, "parent": parent, "op": op,
                    "name": name, "start": t0, "end": t1,
                }) + "\n")
