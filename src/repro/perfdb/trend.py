"""Paired-ratio trend and regression detection across PRs.

Records sharing one :meth:`RunRecord.series_key` are a trajectory:
the same measured cell, recorded by successive PRs.  Within each
trajectory (by PR tag, then input order: :func:`trajectory_order`),
consecutive pairs are compared on wall seconds *per step*, and a pair
whose ratio exceeds the applicable threshold is a :class:`Regression`.

Thresholds are **host-aware** because absolute wall-clock is only
comparable on comparable hardware: a pair measured on the same named
host with the same core count uses the tight ``same_host_ratio``; a
pair spanning different hosts — or whose host was never recorded,
which is true of every measurement before PR 7 — uses the loose
``cross_host_ratio``.  The historical trajectory (recorded across
unknown CI containers, up to ~1.9x apart on identical code) therefore
passes, while a genuine 2x slowdown measured on one machine is
flagged.

:func:`inject_slowdown` synthesizes exactly that worst case — a
same-host copy of each trajectory's latest point at ``factor`` times
the wall-clock — which is how the CI job proves the detector has
teeth without waiting for a real regression.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable

from .record import RunRecord, trajectory_order


@dataclass(frozen=True)
class TrendPolicy:
    """Detection thresholds (ratios of wall seconds per step)."""

    #: Flag when new/old exceeds this and both ran on one known host.
    same_host_ratio: float = 1.8
    #: Flag when new/old exceeds this across (or without) host identity.
    cross_host_ratio: float = 3.0
    #: Ignore points faster than this — sub-millisecond timings are
    #: dominated by scheduler noise, not code.
    min_wall_s: float = 1e-3


@dataclass(frozen=True)
class Regression:
    """One flagged consecutive pair within a series."""

    series: tuple
    label: str
    before: RunRecord
    after: RunRecord
    ratio: float
    threshold: float
    same_host: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "series": self.label,
            "ratio": self.ratio,
            "threshold": self.threshold,
            "same_host": self.same_host,
            "before": {
                "source": self.before.source,
                "pr": self.before.pr,
                "host": self.before.host,
                "wall_s": self.before.wall_s,
            },
            "after": {
                "source": self.after.source,
                "pr": self.after.pr,
                "host": self.after.host,
                "wall_s": self.after.wall_s,
            },
        }

    def describe(self) -> str:
        where = "same host" if self.same_host else "cross-host"
        return (
            f"{self.label}: {self.ratio:.2f}x slower "
            f"({self.before.wall_per_step:.6f} -> "
            f"{self.after.wall_per_step:.6f} s/step, "
            f"{self.before.source or '?'} -> {self.after.source or '?'}, "
            f"{where} threshold {self.threshold}x)"
        )


def _ordered_series(
    records: Iterable[RunRecord],
) -> dict[tuple, list[RunRecord]]:
    """Series buckets, each in :func:`trajectory_order`; the buckets
    keep the order their series first appear in."""
    records = list(records)
    out: dict[tuple, list[RunRecord]] = {
        rec.series_key(): [] for rec in records
    }
    for rec in trajectory_order(records):
        out[rec.series_key()].append(rec)
    return out


def _same_host(a: RunRecord, b: RunRecord) -> bool:
    return (
        a.host is not None
        and a.host == b.host
        and a.cpu_count == b.cpu_count
    )


def detect_regressions(
    records: Iterable[RunRecord],
    policy: TrendPolicy | None = None,
) -> list[Regression]:
    """Every consecutive same-series pair breaching its threshold."""
    policy = policy or TrendPolicy()
    findings: list[Regression] = []
    for key, series in _ordered_series(records).items():
        for before, after in zip(series, series[1:]):
            a, b = before.wall_per_step, after.wall_per_step
            if (
                before.wall_s < policy.min_wall_s
                or after.wall_s < policy.min_wall_s
                or a <= 0.0
            ):
                continue
            ratio = b / a
            same = _same_host(before, after)
            threshold = (
                policy.same_host_ratio if same else policy.cross_host_ratio
            )
            if ratio >= threshold:
                findings.append(
                    Regression(
                        series=key,
                        label=after.series_label,
                        before=before,
                        after=after,
                        ratio=ratio,
                        threshold=threshold,
                        same_host=same,
                    )
                )
    findings.sort(key=lambda f: f.ratio, reverse=True)
    return findings


def series_trends(
    records: Iterable[RunRecord],
) -> list[dict[str, Any]]:
    """Per-series trajectory summaries for the ``report`` view."""
    out: list[dict[str, Any]] = []
    for key, series in _ordered_series(records).items():
        points = [
            {
                "source": r.source,
                "pr": r.pr,
                "host": r.host,
                "wall_s": r.wall_s,
                "wall_per_step": r.wall_per_step,
                "gflops": r.gflops,
            }
            for r in series
        ]
        first, last = series[0], series[-1]
        net = (
            last.wall_per_step / first.wall_per_step
            if first.wall_per_step > 0
            else None
        )
        out.append(
            {
                "series": last.series_label,
                "points": points,
                "net_ratio": net,
            }
        )
    out.sort(key=lambda s: s["series"])
    return out


def inject_slowdown(
    records: Iterable[RunRecord],
    factor: float = 2.0,
    *,
    source: str = "synthetic-slowdown",
) -> list[RunRecord]:
    """Records plus a synthetic slowed copy of each series' last point.

    The synthetic point keeps the original's host identity, so on
    series with recorded host facts it forms a same-host pair —
    the tight threshold applies and :func:`detect_regressions` must
    flag it.  Used by ``repro-perfdb check --inject-slowdown`` (and the
    tests) to prove the detector trips.
    """
    if factor <= 0:
        raise ValueError("factor must be > 0")
    out = list(records)
    for series in _ordered_series(out).values():
        last = series[-1]
        out.append(
            replace(
                last,
                wall_s=last.wall_s * factor,
                gflops=(
                    last.gflops / factor
                    if last.gflops is not None
                    else None
                ),
                source=source,
                pr=(last.pr + 1) if last.pr is not None else None,
            )
        )
    return out
