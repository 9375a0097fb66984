"""repro.perfdb — the queryable performance database.

The paper's core contribution is *measurement*: Gflop/s, % of peak,
and phase breakdowns compared across applications, platforms, and
concurrencies.  This package does the same for the reproduction's own
trajectory: one canonical :class:`RunRecord` schema for every
measurement the repository produces (the ladder benchmark's record
payloads, the tracked ``perf_history.jsonl``, campaign manifests,
result-cache entries), a :class:`PerfDB` store that keeps each
record once, as one line of record JSONL, a filter/group/pivot query
API, paired-ratio regression detection with host-aware
thresholds, and rendered roofline / phase-breakdown / shootout reports
reusing :mod:`repro.perfmodel`.

The ``repro-perfdb`` CLI (``ingest`` / ``query`` / ``check`` /
``report`` / ``export``) is the product surface; see
``docs/perfdb.md``.
"""

from .ingest import (
    ingest_path,
    records_from_cache,
    records_from_manifest,
    records_from_report,
)
from .query import Pivot, filter_records, group_by, pivot
from .record import RunRecord
from .reports import (
    render_phase_breakdown,
    render_roofline,
    render_shootout,
    render_trend,
)
from .store import PerfDB
from .trend import (
    Regression,
    TrendPolicy,
    detect_regressions,
    inject_slowdown,
    series_trends,
)

__all__ = [
    "PerfDB",
    "Pivot",
    "Regression",
    "RunRecord",
    "TrendPolicy",
    "detect_regressions",
    "filter_records",
    "group_by",
    "ingest_path",
    "inject_slowdown",
    "pivot",
    "records_from_cache",
    "records_from_manifest",
    "records_from_report",
    "render_phase_breakdown",
    "render_roofline",
    "render_shootout",
    "render_trend",
    "series_trends",
]
