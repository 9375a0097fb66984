"""Content-addressed on-disk store of completed campaign runs.

One JSON file per result, addressed by :meth:`RunConfig.key` — the
SHA-256 of the canonical config plus the package version.  Identical
configs therefore share one entry across campaigns, and bumping the
package version invalidates everything at once (stale physics is worse
than a cold cache).

Entries are written atomically (temp file + rename in the same
directory), so a campaign killed mid-write never leaves a torn entry —
the resume path either sees a complete result or a miss.  Campaigns in
different processes may race to publish the same key; last rename wins
and both wrote equivalent content, so the race is benign.

Every cache instance counts its own traffic (:class:`CacheStats`:
hits, misses, puts) so cache effectiveness is observable directly —
the service's ``/v1/stats`` endpoint reads the live counters, and
``repro-campaign status`` reads the *lifetime* counters, which
instances persist as append-only delta lines in
``<root>/cache-stats.jsonl`` (one small ``O_APPEND`` write per flush,
so concurrent campaigns and services never torn-write each other).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from .. import __version__
from .spec import RunConfig

#: File (under the cache root) accumulating persisted counter deltas.
STATS_FILENAME = "cache-stats.jsonl"


@dataclass
class CacheStats:
    """Traffic counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Forced executions (``rerun=True``): counted inside ``misses``
    #: too — a forced rerun *is* a lookup the cache did not serve, and
    #: counting it preserves the ``gets == hits + misses`` invariant
    #: that hit-rate rendering relies on — but broken out so status
    #: output can tell "cold cache" from "operator forced it".
    reruns: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "reruns": self.reruns,
        }

    @property
    def gets(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when nothing was looked up yet)."""
        return self.hits / self.gets if self.gets else 0.0


class ResultCache:
    """Directory of ``<key[:2]>/<key>.json`` result entries."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)
        self.stats = CacheStats()
        self._stats_lock = threading.Lock()
        self._persisted = CacheStats()  # counts already flushed to disk
        self._stats_file = os.path.join(self._root, STATS_FILENAME)
        self._life_lock = threading.Lock()
        self._forget_lifetime()

    def _file(self, key: str) -> str:
        # a plain string on the lookup path: pathlib interns every part
        # it parses, and a fresh key string per lookup churns the
        # interpreter's intern table, whose resizes show in peak RSS
        return os.path.join(self._root, key[:2], key + ".json")

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def get(self, config: RunConfig) -> dict[str, Any] | None:
        """The cached result dict for ``config``, or ``None`` on a miss."""
        try:
            with open(self._file(config.key())) as fh:
                entry = json.load(fh)
        except (ValueError, OSError):
            # absent or unreadable (not UTF-8, not JSON) == miss; the
            # rerun will overwrite it
            self._count(misses=1)
            return None
        result = entry.get("result") if isinstance(entry, dict) else None
        if not isinstance(result, dict):
            self._count(misses=1)  # parsed, but no result in it
            return None
        self._count(hits=1)
        return result

    def put(self, config: RunConfig, result: dict[str, Any]) -> Path:
        """Atomically publish one completed run."""
        key = config.key()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "version": __version__,
            "config": config.to_dict(),
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                # one write; json.dump writes chunk by chunk (slower)
                fh.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise
        self._count(puts=1)
        return path

    def count_rerun(self) -> None:
        """Book one forced execution (``run_campaign(rerun=True)``).

        A forced rerun bypasses :meth:`get`, so without this the
        resulting :meth:`put` would persist with no matching lookup and
        lifetime counters would violate ``gets == hits + misses``.  It
        counts as a miss (a lookup the cache did not serve) *and* as a
        distinct ``reruns`` counter so status output can attribute it.
        """
        self._count(misses=1, reruns=1)

    def _count(
        self,
        *,
        hits: int = 0,
        misses: int = 0,
        puts: int = 0,
        reruns: int = 0,
    ) -> None:
        with self._stats_lock:
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.puts += puts
            self.stats.reruns += reruns

    def persist_stats(self) -> None:
        """Append this instance's unflushed counter deltas to
        ``cache-stats.jsonl`` (no-op when nothing changed since the last
        flush).  The campaign engine calls it after every publish and
        once more at the end of an invocation, so lifetime counters
        survive the process, even a killed one."""
        with self._stats_lock:
            delta = CacheStats(
                hits=self.stats.hits - self._persisted.hits,
                misses=self.stats.misses - self._persisted.misses,
                puts=self.stats.puts - self._persisted.puts,
                reruns=self.stats.reruns - self._persisted.reruns,
            )
            if not (delta.hits or delta.misses or delta.puts or delta.reruns):
                return
            self._persisted = CacheStats(**self.stats.as_dict())
        line = json.dumps(
            {**delta.as_dict(), "time": time.time()}, sort_keys=True
        )
        # O_APPEND: one small write, atomic in practice across processes
        with open(self._stats_file, "a") as fh:
            fh.write(line + "\n")

    def lifetime_stats(self) -> CacheStats:
        """Summed persisted counters across every instance and process
        that ever flushed into this cache root (torn lines skipped).

        Incremental: the instance keeps a running total and the byte
        offset just past the last complete line it read, so a call
        parses only the lines appended since.  A last line still
        missing its newline (a flush being written) waits for the next
        call.  A missing, shrunk or replaced file (:meth:`clear` from
        any process) starts the total over; inode numbers get reused,
        so "replaced" also compares the first line, which carries its
        flush time.
        """
        with self._life_lock:
            try:
                fh = open(self._stats_file, "rb")
            except OSError:
                self._forget_lifetime()
                return CacheStats()
            with fh:
                st = os.fstat(fh.fileno())
                ident = (st.st_ino, fh.readline())
                if ident != self._life_ident or st.st_size < self._life_at:
                    self._forget_lifetime()
                    fh.seek(0)
                else:
                    fh.seek(self._life_at)
                total = self._life
                for line in fh:
                    if not line.endswith(b"\n"):
                        break  # torn tail: read it once it is whole
                    self._life_at += len(line)
                    try:
                        d = json.loads(line)
                    except ValueError:
                        continue
                    total.hits += int(d.get("hits", 0))
                    total.misses += int(d.get("misses", 0))
                    total.puts += int(d.get("puts", 0))
                    # older stats lines predate the reruns counter
                    total.reruns += int(d.get("reruns", 0))
                if self._life_at:
                    self._life_ident = ident
            return CacheStats(**total.as_dict())

    def _forget_lifetime(self) -> None:
        """Drop the running lifetime total (caller holds the lock, or
        the instance is not shared yet)."""
        self._life = CacheStats()
        self._life_at = 0
        self._life_ident: tuple[int, bytes] | None = None

    @staticmethod
    def _is_entry(path: Path) -> bool:
        """True for a published entry file — explicitly *not* for the
        ``.{key[:8]}-*.tmp`` staging files :meth:`put` writes before its
        atomic rename (a worker killed between ``mkstemp`` and
        ``os.replace`` leaves one behind)."""
        return path.suffix == ".json" and not path.name.startswith(".")

    def entries(self) -> Iterator[dict[str, Any]]:
        """Every readable entry (config + result + version)."""
        for path in sorted(self.root.glob("*/*.json")):
            if not self._is_entry(path):
                continue
            try:
                yield json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                continue

    def __len__(self) -> int:
        return sum(1 for p in self.root.glob("*/*.json") if self._is_entry(p))

    def __contains__(self, config: RunConfig) -> bool:
        return self._path(config.key()).exists()

    def sweep_tmp(self) -> int:
        """Remove staging files orphaned by killed writers; returns how
        many were swept.  Safe against live writers only in the sense
        every cleanup of a rename-based scheme is: a concurrent ``put``
        whose tmp file is swept fails its ``os.replace`` loudly and the
        entry is simply re-put — never torn."""
        swept = 0
        for path in list(self.root.glob("*/*.tmp")):
            try:
                path.unlink()
                swept += 1
            except FileNotFoundError:
                pass
        return swept

    def clear(self) -> int:
        """Delete every entry (stale ``.tmp`` staging files included, so
        shard dirs actually empty out); returns how many entries were
        removed."""
        removed = 0
        self.sweep_tmp()
        for path in list(self.root.glob("*/*.json")):
            try:
                path.unlink()
                if self._is_entry(path):
                    removed += 1
            except FileNotFoundError:
                pass
        for sub in list(self.root.iterdir()):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass
        try:  # lifetime counters describe the entries; drop them together
            (self.root / STATS_FILENAME).unlink()
        except FileNotFoundError:
            pass
        with self._stats_lock:
            self.stats = CacheStats()
            self._persisted = CacheStats()
        with self._life_lock:
            self._forget_lifetime()
        return removed
