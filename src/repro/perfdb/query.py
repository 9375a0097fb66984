"""Filter / group / pivot over record lists.

The one filter (:func:`filter_records`, which :meth:`PerfDB.query`
runs), grouping by arbitrary field tuples, and the pivot the shootout
and cross-PR views are built from, e.g. Gflop/s by app x (executor,
kernel_backend)::

    pivot(records, rows=("app",), cols=("executor", "kernel_backend"),
          value="gflops", agg="max")

Aggregations are named, not callables, so the CLI can expose them
verbatim: ``min``/``max``/``mean``/``sum``/``count``/``first``/``last``
plus ``best`` (min for seconds-like values, max for rate-like values —
resolved from the value field's name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .record import RunRecord

#: Fields a query/group/pivot axis may name.
AXIS_FIELDS = (
    "app", "bench", "variant", "machine", "nprocs", "executor",
    "kernel_backend", "seed", "steps", "repeats", "source", "pr",
    "host", "cpu_count", "version",
)

#: Numeric fields a pivot may aggregate.
VALUE_FIELDS = (
    "wall_s", "wall_per_step", "gflops", "compute_s", "comm_s",
    "sync_s", "recovery_s", "nbytes", "messages",
)

#: Rate-like fields where "best" means biggest.
_HIGHER_IS_BETTER = {"gflops", "messages", "nbytes"}

_AGGS: dict[str, Callable[[list[float]], float]] = {
    "min": min,
    "max": max,
    "mean": lambda xs: sum(xs) / len(xs),
    "sum": sum,
    "count": len,
    "first": lambda xs: xs[0],
    "last": lambda xs: xs[-1],
}


def _axis_value(rec: RunRecord, name: str) -> Any:
    if name not in AXIS_FIELDS:
        raise ValueError(
            f"unknown axis field {name!r}; choices: " + ", ".join(AXIS_FIELDS)
        )
    return getattr(rec, name)


def _metric_value(rec: RunRecord, name: str) -> float | None:
    if name not in VALUE_FIELDS:
        raise ValueError(
            f"unknown value field {name!r}; choices: "
            + ", ".join(VALUE_FIELDS)
        )
    value = getattr(rec, name)
    return None if value is None else float(value)


def resolve_agg(agg: str, value: str) -> Callable[[list[float]], float]:
    """The aggregation function for ``agg`` over value field ``value``."""
    if agg == "best":
        return max if value in _HIGHER_IS_BETTER else min
    try:
        return _AGGS[agg]
    except KeyError:
        raise ValueError(
            f"unknown aggregation {agg!r}; choices: best, "
            + ", ".join(_AGGS)
        ) from None


def filter_records(
    records: Iterable[RunRecord], **where: Any
) -> list[RunRecord]:
    """Records whose axis fields equal ``where``'s values, in input
    order; a list/tuple/set value matches any member, ``None`` included."""
    out = list(records)
    for name, wanted in where.items():
        if isinstance(wanted, (list, tuple, set, frozenset)):
            allowed = set(wanted)
            out = [r for r in out if _axis_value(r, name) in allowed]
        else:
            out = [r for r in out if _axis_value(r, name) == wanted]
    return out


def group_by(
    records: Iterable[RunRecord], keys: Sequence[str]
) -> dict[tuple, list[RunRecord]]:
    """Records bucketed by a tuple of axis fields, insertion-ordered."""
    groups: dict[tuple, list[RunRecord]] = {}
    for rec in records:
        k = tuple(_axis_value(rec, name) for name in keys)
        groups.setdefault(k, []).append(rec)
    return groups


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


@dataclass
class Pivot:
    """A dense table: row keys x column keys -> aggregated value."""

    row_fields: tuple[str, ...]
    col_fields: tuple[str, ...]
    value: str
    agg: str
    cells: dict[tuple[tuple, tuple], float] = field(default_factory=dict)
    counts: dict[tuple[tuple, tuple], int] = field(default_factory=dict)

    @property
    def row_keys(self) -> list[tuple]:
        seen: list[tuple] = []
        for r, _ in self.cells:
            if r not in seen:
                seen.append(r)
        return seen

    @property
    def col_keys(self) -> list[tuple]:
        seen: list[tuple] = []
        for _, c in self.cells:
            if c not in seen:
                seen.append(c)
        return seen

    def get(self, row: tuple, col: tuple) -> float | None:
        return self.cells.get((row, col))

    def to_dict(self) -> dict[str, Any]:
        return {
            "rows": list(self.row_fields),
            "cols": list(self.col_fields),
            "value": self.value,
            "agg": self.agg,
            "cells": [
                {
                    "row": list(r),
                    "col": list(c),
                    "value": v,
                    "n": self.counts.get((r, c), 0),
                }
                for (r, c), v in self.cells.items()
            ],
        }

    def render(self) -> str:
        """ASCII table: one line per row key, one column per col key."""
        col_keys = self.col_keys
        headers = [" x ".join(_fmt(v) for v in c) or self.value
                   for c in col_keys]
        label_w = max(
            [len(" ".join(_fmt(v) for v in r)) for r in self.row_keys]
            + [len("/".join(self.row_fields)), 4]
        )
        widths = [max(len(h), 10) for h in headers]
        title = (
            f"{self.agg}({self.value}) by "
            f"{'/'.join(self.row_fields) or '(all)'} x "
            f"{'/'.join(self.col_fields) or '(all)'}"
        )
        lines = [title,
                 f"{'/'.join(self.row_fields) or 'all':<{label_w}}  "
                 + "  ".join(f"{h:>{w}}" for h, w in zip(headers, widths))]
        for r in self.row_keys:
            label = " ".join(_fmt(v) for v in r) or "(all)"
            cells = []
            for c, w in zip(col_keys, widths):
                v = self.cells.get((r, c))
                cells.append(f"{_fmt(v):>{w}}")
            lines.append(f"{label:<{label_w}}  " + "  ".join(cells))
        return "\n".join(lines)


def pivot(
    records: Iterable[RunRecord],
    rows: Sequence[str] = ("app",),
    cols: Sequence[str] = (),
    value: str = "gflops",
    agg: str = "best",
) -> Pivot:
    """Aggregate ``value`` over rows x cols of axis fields."""
    fn = resolve_agg(agg, value)
    buckets: dict[tuple[tuple, tuple], list[float]] = {}
    for rec in records:
        v = _metric_value(rec, value)
        if v is None:
            continue
        rk = tuple(_axis_value(rec, name) for name in rows)
        ck = tuple(_axis_value(rec, name) for name in cols)
        buckets.setdefault((rk, ck), []).append(v)
    out = Pivot(
        row_fields=tuple(rows),
        col_fields=tuple(cols),
        value=value,
        agg=agg,
    )
    for key, values in buckets.items():
        out.cells[key] = float(fn(values))
        out.counts[key] = len(values)
    return out
