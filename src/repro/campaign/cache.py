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
the service's ``/v1/stats`` endpoint reads the live counters.  The
*lifetime* counters, which ``repro-campaign status`` reads, are a fold
over the run events of the campaign journals in the root
(``<root>/*.manifest.jsonl``), whichever process wrote them; a
campaign journaled elsewhere, or not at all, is not in them.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .. import __version__
from .manifest import SUFFIX
from .spec import RunConfig

#: Decoded entries each :class:`ResultCache` keeps for :meth:`~ResultCache.get`.
MEMO_ENTRIES = 1024


@dataclass
class CacheStats:
    """Traffic counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Forced executions (``rerun=True``; lifetime counters only).
    #: Counted inside ``misses`` too — a forced rerun *is* a lookup the
    #: cache did not serve, which keeps ``gets == hits + misses`` — but
    #: broken out so status output can tell "cold cache" from
    #: "operator forced it".
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
        self._life_lock = threading.Lock()
        #: journal path -> what lifetime_stats has read of it
        self._folds: dict[Path, _Fold] = {}
        #: entry path -> (inode, mtime_ns, size) stat stamp, result
        self._memo: dict[str, tuple[tuple[int, int, int], dict]] = {}
        self._memo_lock = threading.Lock()

    def _file(self, key: str) -> str:
        # a plain string on the lookup path: pathlib interns every part
        # it parses, and a fresh key string per lookup churns the
        # interpreter's intern table, whose resizes show in peak RSS
        return os.path.join(self._root, key[:2], key + ".json")

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    def get(self, config: RunConfig) -> dict[str, Any] | None:
        """The cached result dict for ``config``, or ``None`` on a miss.

        An entry this instance has decoded is served from its memo
        (:data:`MEMO_ENTRIES` of them, oldest out) while one ``os.stat``
        still finds the file it read: same inode, mtime and size.  A
        re-put is a rename, so a new inode (and this instance's own
        ``put`` drops the path); a cleared entry is ``ENOENT``, a miss.  The memo hands out the dict it holds, not
        a copy: nothing in the package mutates a result after ``get``
        or ``put`` (the distrib worker adds its name to a result it has
        just computed, before any ``put``)."""
        path = self._file(config.key())
        try:
            st = os.stat(path)
            stamp = (st.st_ino, st.st_mtime_ns, st.st_size)
            memo = self._memo.get(path)
            if memo is not None and memo[0] == stamp:
                result = memo[1]
            else:
                with open(path, "rb") as fh:
                    entry = json.loads(fh.read())
                result = (
                    entry.get("result") if isinstance(entry, dict) else None
                )
                if isinstance(result, dict):
                    self._remember(path, stamp, result)
        except (ValueError, OSError):
            # absent or unreadable (not UTF-8, not JSON) == miss; the
            # rerun will overwrite it
            result = None
        if not isinstance(result, dict):
            self._count(misses=1)
            return None
        self._count(hits=1)
        return result

    def _remember(
        self, path: str, stamp: tuple[int, int, int], result: dict
    ) -> None:
        with self._memo_lock:
            self._memo.pop(path, None)
            self._memo[path] = (stamp, result)
            while len(self._memo) > MEMO_ENTRIES:
                del self._memo[next(iter(self._memo))]

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
        with self._memo_lock:
            self._memo.pop(str(path), None)
        self._count(puts=1)
        return path

    def _count(
        self, *, hits: int = 0, misses: int = 0, puts: int = 0
    ) -> None:
        with self._stats_lock:
            self.stats.hits += hits
            self.stats.misses += misses
            self.stats.puts += puts

    def persist_stats(self) -> None:
        """A no-op (lifetime counters fold the journals), kept only while
        the ladder's layer probe times it (``campaign.persist_stats_us``)."""

    def journals(self) -> list[Path]:
        """The campaign journals in the root: its record of traffic."""
        return sorted(self.root.glob("*" + SUFFIX))

    def lifetime_stats(self) -> CacheStats:
        """Counters summed over every journal in the root, whoever
        wrote it: a ``run-start`` is a miss (and a rerun when it says
        so), a ``run-done`` a hit when ``cached`` and a put otherwise.

        Incremental: the instance keeps, per journal, its counts and the
        byte offset just past the last complete line it read, so a call
        parses only the lines appended since, one at a time.  A last
        line still missing its newline (an append being written) waits
        for the next call.  A missing, shrunk or replaced journal
        (:meth:`clear` from any process) is folded from the start;
        inode numbers get reused, so "replaced" also compares the first
        line, whose ``campaign-start`` carries its time.
        """
        with self._life_lock:
            self._folds = {
                path: fold
                for path in self.journals()
                if (fold := _fold(path, self._folds.get(path))) is not None
            }
            total: Counter[str] = Counter()
            for fold in self._folds.values():
                total.update(fold.counts.as_dict())
            return CacheStats(**total)

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
        shard dirs actually empty out) and the root's journals, which
        record its traffic; returns how many entries were removed."""
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
        for path in self.journals():
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        with self._stats_lock:
            self.stats = CacheStats()
        with self._memo_lock:
            self._memo = {}
        with self._life_lock:
            self._folds = {}
        return removed


@dataclass
class _Fold:
    """What :meth:`ResultCache.lifetime_stats` has read of a journal."""

    ident: tuple[int, bytes]  # inode, first line
    at: int = 0  # just past the last complete line
    counts: CacheStats = field(default_factory=CacheStats)


def _fold(path: Path, fold: "_Fold | None") -> "_Fold | None":
    """``fold`` brought up to the end of ``path`` (a fresh one when the
    file is not the one it read), or ``None`` when it cannot be read."""
    try:
        fh = open(path, "rb")
    except OSError:
        return None
    with fh:
        st = os.fstat(fh.fileno())
        ident = (st.st_ino, fh.readline())
        if fold is None or ident != fold.ident or st.st_size < fold.at:
            fold = _Fold(ident)
        fh.seek(fold.at)
        counts = fold.counts
        for line in fh:
            if not line.endswith(b"\n"):
                break  # torn tail: read it once it is whole
            fold.at += len(line)
            try:
                event = json.loads(line)
                kind = event.get("event")
            except (AttributeError, ValueError):
                continue  # junk, or JSON that is not an event
            if kind == "run-start":
                counts.misses += 1
                counts.reruns += bool(event.get("rerun"))
            elif kind == "run-done":
                counts.hits += bool(event.get("cached"))
                counts.puts += not event.get("cached")
    return fold
