"""The canonical measurement record every source normalizes into.

One :class:`RunRecord` is one timed run of one configuration: what ran
(app, bench series, variant), where it ran (machine model, host,
cpu_count), how it ran (P, executor, kernel backend, seed, steps,
repeats), what was measured (wall seconds, Gflop/s, per-phase
compute/comm/sync/recovery seconds, bytes, messages), and where the
number came from (source file or manifest, PR tag, package version,
content key).

The record is frozen and JSON-plain by construction.  :meth:`uid` is a
SHA-256 over the canonical JSON form, so a record is its own identity:
ingesting the same file twice dedupes exactly, and two records that
differ in any field are distinct rows.

Series identity (:meth:`series_key`) is the cross-PR pairing axis used
by :mod:`repro.perfdb.trend`: the same (bench, variant, app, machine,
P, executor, kernel_backend, seed) cell measured by two PRs is two
points on one trajectory.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

#: Bumped when the RunRecord field set changes incompatibly.
SCHEMA_VERSION = 1

_PR_RE = re.compile(r"PR(\d+)", re.IGNORECASE)


def pr_from_source(source: str) -> int | None:
    """Parse the PR ordinal out of a source tag like ``BENCH_PR5.json``."""
    m = _PR_RE.search(source or "")
    return int(m.group(1)) if m else None


def _freeze_extra(value: Any) -> Any:
    """Hashable form: a dict becomes a frozenset of pairs, a list a tuple."""
    if isinstance(value, dict):
        return frozenset(
            (str(k), _freeze_extra(v)) for k, v in value.items()
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_extra(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"RunRecord extras must be JSON-plain, got {type(value).__name__}"
    )


def _thaw_extra(value: Any) -> Any:
    if isinstance(value, frozenset):
        pairs = sorted(value, key=lambda kv: kv[0])
        return {k: _thaw_extra(v) for k, v in pairs}
    if isinstance(value, tuple):
        return [_thaw_extra(v) for v in value]
    return value


@dataclass(frozen=True)
class RunRecord:
    """One measurement, fully described.  All fields JSON-plain."""

    # -- what ran --------------------------------------------------------
    #: Application key (``lbmhd``/``gtc``/``paratec``/``fvcam``) or a
    #: synthetic subject like ``campaign`` for whole-sweep timings.
    app: str
    #: Series name: the tracked loop or sweep this point belongs to
    #: (``lbmhd_step_loop``, ``backend_shootout``, ``campaign:<name>``).
    bench: str
    #: Cell within the series (``seed``/``fast``/``serial``/``threads``/
    #: ``processes``/``plain``/``checkpointed``/a backend name/a label).
    variant: str = ""

    # -- how it ran ------------------------------------------------------
    machine: str | None = None
    nprocs: int | None = None
    executor: str = "serial"
    kernel_backend: str = "numpy"
    seed: int | None = None
    steps: int | None = None
    repeats: int | None = None

    # -- what was measured ----------------------------------------------
    wall_s: float = 0.0
    gflops: float | None = None
    compute_s: float | None = None
    comm_s: float | None = None
    sync_s: float | None = None
    recovery_s: float | None = None
    nbytes: float | None = None
    messages: float | None = None

    # -- provenance ------------------------------------------------------
    #: Where the number came from: a payload's file name (the history
    #: keeps ``BENCH_PRn.json``), a ``manifest:<name>`` tag, ``cache``,
    #: or ``synthetic-*``.
    source: str = ""
    #: PR ordinal for cross-PR ordering (parsed from the source tag).
    pr: int | None = None
    host: str | None = None
    cpu_count: int | None = None
    #: Package version that produced the measurement, when known.
    version: str | None = None
    #: Content key (``RunConfig.key``) for campaign-born records.
    key: str | None = None
    #: Anything schema-less worth keeping (frozen mapping).
    extra: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.wall_s < 0:
            raise ValueError("wall_s must be >= 0")
        if isinstance(self.extra, frozenset):
            return  # frozen already: dataclasses.replace() of a record
        extra = self.extra or {}
        if not isinstance(extra, dict):
            raise TypeError(
                f"RunRecord extra must be a mapping, "
                f"got {type(extra).__name__}"
            )
        object.__setattr__(self, "extra", _freeze_extra(extra))

    def extra_dict(self) -> dict[str, Any]:
        return _thaw_extra(self.extra)

    # -- identities ------------------------------------------------------

    def series_key(self) -> tuple:
        """The cross-PR trajectory this record is one point on."""
        return (
            self.bench,
            self.variant,
            self.app,
            self.machine,
            self.nprocs,
            self.executor,
            self.kernel_backend,
            self.seed,
        )

    @property
    def series_label(self) -> str:
        bits = [self.bench]
        if self.variant:
            bits.append(f".{self.variant}")
        tail = []
        if self.app and self.app != self.bench:
            tail.append(self.app)
        if self.machine:
            tail.append(f"@{self.machine}")
        if self.nprocs is not None:
            tail.append(f"P={self.nprocs}")
        if self.executor != "serial":
            tail.append(self.executor)
        if self.kernel_backend != "numpy":
            tail.append(f"k:{self.kernel_backend}")
        if self.seed is not None:
            tail.append(f"seed={self.seed}")
        if tail:
            bits.append(" [" + " ".join(tail) + "]")
        return "".join(bits)

    def uid(self) -> str:
        """SHA-256 of the canonical JSON form — the dedupe identity."""
        canon = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canon.encode()).hexdigest()

    #: Seconds of wall-clock per unit of work, when the unit is known —
    #: the quantity regression detection compares so that a series whose
    #: step count changed between PRs still pairs fairly.
    @property
    def wall_per_step(self) -> float:
        if self.steps and self.steps > 0:
            return self.wall_s / self.steps
        return self.wall_s

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "bench": self.bench,
            "variant": self.variant,
            "machine": self.machine,
            "nprocs": self.nprocs,
            "executor": self.executor,
            "kernel_backend": self.kernel_backend,
            "seed": self.seed,
            "steps": self.steps,
            "repeats": self.repeats,
            "wall_s": self.wall_s,
            "gflops": self.gflops,
            "compute_s": self.compute_s,
            "comm_s": self.comm_s,
            "sync_s": self.sync_s,
            "recovery_s": self.recovery_s,
            "nbytes": self.nbytes,
            "messages": self.messages,
            "source": self.source,
            "pr": self.pr,
            "host": self.host,
            "cpu_count": self.cpu_count,
            "version": self.version,
            "key": self.key,
            "extra": self.extra_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunRecord":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"unknown RunRecord field(s): {', '.join(unknown)}"
            )
        return cls(**d)

    def with_provenance(
        self,
        *,
        source: str | None = None,
        pr: int | None = None,
        host: str | None = None,
        cpu_count: int | None = None,
        version: str | None = None,
    ) -> "RunRecord":
        """Fill provenance fields that are still unset (never overwrite)."""
        updates: dict[str, Any] = {}
        if source is not None and not self.source:
            updates["source"] = source
        if pr is not None and self.pr is None:
            updates["pr"] = pr
        if host is not None and self.host is None:
            updates["host"] = host
        if cpu_count is not None and self.cpu_count is None:
            updates["cpu_count"] = cpu_count
        if version is not None and self.version is None:
            updates["version"] = version
        return replace(self, **updates) if updates else self
