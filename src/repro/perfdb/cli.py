"""``repro-perfdb`` — ingest, query, and regression-check measurements.

Usage::

    repro-perfdb ingest perf.db perf_history.jsonl .repro-cache/x.manifest.jsonl
    repro-perfdb query perf.db --rows app --cols executor,kernel_backend
    repro-perfdb query perf.db --where app=lbmhd --value wall_s --agg min
    repro-perfdb check perf.db                      # exit 1 on regression
    repro-perfdb check perf.db --inject-slowdown 2  # must exit 1 (teeth)
    repro-perfdb report perf.db --kind trend|shootout|phases|roofline
    repro-perfdb export perf.db records.jsonl
    python -m repro.perfdb.cli ...

Exit codes: 0 ok, 1 regressions found (``check``), 2 bad usage/input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..clitools import quiet_on_closed_stdout
from .ingest import ingest_path
from .query import AXIS_FIELDS, VALUE_FIELDS, pivot
from .reports import (
    render_phase_breakdown,
    render_roofline,
    render_shootout,
    render_trend,
)
from .store import PerfDB
from .trend import TrendPolicy, detect_regressions, inject_slowdown


def _parse_where(pairs: list[str]) -> dict:
    out: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(
                f"bad --where filter {pair!r} (expected field=value)"
            )
        field, raw = pair.split("=", 1)
        field = field.strip()
        if field not in AXIS_FIELDS:
            raise ValueError(
                f"unknown filter field {field!r}; choices: "
                + ", ".join(AXIS_FIELDS)
            )
        values = []
        for token in raw.split(","):
            token = token.strip()
            if token in ("", "none", "None", "null"):
                values.append(None)
            else:
                try:
                    values.append(int(token))
                except ValueError:
                    values.append(token)
        out[field] = values[0] if len(values) == 1 else values
    return out


def _cmd_ingest(args) -> int:
    db = PerfDB(args.db)
    total_new = 0
    bad = 0
    for raw in args.paths:
        path = Path(raw)
        try:
            records = ingest_path(path)
        except FileNotFoundError:
            print(f"repro-perfdb: no such source: {path}", file=sys.stderr)
            bad += 1
            continue
        except (json.JSONDecodeError, ValueError) as exc:
            print(f"repro-perfdb: bad source {path}: {exc}", file=sys.stderr)
            bad += 1
            continue
        new = db.add(records)
        total_new += new
        if not args.quiet:
            dupes = len(records) - new
            dupe_txt = f" ({dupes} already present)" if dupes else ""
            print(f"{path}: {new} new record(s){dupe_txt}")
    if not args.quiet:
        print(
            f"repro-perfdb: {len(db)} record(s) in {args.db} "
            f"({total_new} new, {len(db.sources())} source(s))"
        )
    return 2 if bad else 0


def _cmd_query(args) -> int:
    try:
        records = PerfDB(args.db).query(**_parse_where(args.where or []))
        rows = [f for f in (args.rows or "app").split(",") if f]
        cols = [f for f in (args.cols or "").split(",") if f]
        table = pivot(
            records, rows=rows, cols=cols, value=args.value, agg=args.agg
        )
    except ValueError as exc:
        print(f"repro-perfdb: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(table.to_dict(), indent=2, sort_keys=True))
    else:
        print(table.render())
        print(f"({len(records)} record(s) matched)")
    return 0


def _cmd_check(args) -> int:
    policy = TrendPolicy(
        same_host_ratio=args.same_host_ratio,
        cross_host_ratio=args.cross_host_ratio,
        min_wall_s=args.min_wall_s,
    )
    records = PerfDB(args.db).all()
    if args.inject_slowdown is not None:
        records = inject_slowdown(records, args.inject_slowdown)
    findings = detect_regressions(records, policy)
    if args.json:
        print(
            json.dumps(
                {
                    "records": len(records),
                    "regressions": [f.to_dict() for f in findings],
                    "policy": {
                        "same_host_ratio": policy.same_host_ratio,
                        "cross_host_ratio": policy.cross_host_ratio,
                        "min_wall_s": policy.min_wall_s,
                    },
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif findings:
        print(
            f"repro-perfdb: {len(findings)} regression(s) across "
            f"{len(records)} record(s):"
        )
        for f in findings:
            print(f"  {f.describe()}")
    elif not args.quiet:
        print(
            f"repro-perfdb: no regressions across {len(records)} "
            f"record(s) "
            f"(same-host > {policy.same_host_ratio}x, "
            f"cross-host > {policy.cross_host_ratio}x)"
        )
    return 1 if findings else 0


def _cmd_report(args) -> int:
    records = PerfDB(args.db).all()
    renderers = {
        "trend": render_trend,
        "shootout": render_shootout,
        "phases": render_phase_breakdown,
        "roofline": render_roofline,
    }
    kinds = (
        list(renderers) if args.kind == "all" else [args.kind]
    )
    blocks = [
        f"== {k} ==\n{renderers[k](records)}" for k in kinds
    ]
    print("\n\n".join(blocks))
    return 0


def _cmd_export(args) -> int:
    n = PerfDB(args.db).export_jsonl(args.out)
    print(f"repro-perfdb: exported {n} record(s) to {args.out}")
    return 0


@quiet_on_closed_stdout
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-perfdb",
        description=(
            "Queryable performance database over benchmark record payloads, "
            "campaign manifests, and result caches — with cross-PR "
            "regression detection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser(
        "ingest", help="normalize sources into the database"
    )
    p_ingest.add_argument(
        "db", help="record-JSONL store file (created if absent)"
    )
    p_ingest.add_argument(
        "paths", nargs="+",
        help=(
            '{"records": [...]} JSON payloads, campaign '
            "*.manifest.jsonl journals, record JSONL (stores, exports, "
            "perf_history.jsonl), or ResultCache directories"
        ),
    )
    p_ingest.add_argument("--quiet", action="store_true")
    p_ingest.set_defaults(fn=_cmd_ingest)

    p_query = sub.add_parser(
        "query", help="pivot an aggregated value over axis fields"
    )
    p_query.add_argument("db")
    p_query.add_argument(
        "--where", action="append", metavar="FIELD=VALUE",
        help="equality filter; repeatable; comma = IN-list",
    )
    p_query.add_argument(
        "--rows", default="app", metavar="FIELDS",
        help="comma-separated row axes (default: app)",
    )
    p_query.add_argument(
        "--cols", default="executor,kernel_backend", metavar="FIELDS",
        help="comma-separated column axes "
             "(default: executor,kernel_backend)",
    )
    p_query.add_argument(
        "--value", default="gflops", choices=VALUE_FIELDS,
        help="metric to aggregate (default: gflops)",
    )
    p_query.add_argument(
        "--agg", default="best",
        help="best/min/max/mean/sum/count/first/last (default: best)",
    )
    p_query.add_argument("--json", action="store_true")
    p_query.set_defaults(fn=_cmd_query)

    p_check = sub.add_parser(
        "check",
        help="regression-check the trajectory (exit 1 on findings)",
    )
    p_check.add_argument("db")
    p_check.add_argument(
        "--inject-slowdown", type=float, metavar="FACTOR",
        help=(
            "append a synthetic same-host FACTORx-slower copy of each "
            "series' latest point — the check must then fail"
        ),
    )
    p_check.add_argument(
        "--same-host-ratio", type=float,
        default=TrendPolicy.same_host_ratio, metavar="R",
    )
    p_check.add_argument(
        "--cross-host-ratio", type=float,
        default=TrendPolicy.cross_host_ratio, metavar="R",
    )
    p_check.add_argument(
        "--min-wall-s", type=float,
        default=TrendPolicy.min_wall_s, metavar="S",
    )
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--quiet", action="store_true")
    p_check.set_defaults(fn=_cmd_check)

    p_report = sub.add_parser(
        "report", help="render trend/shootout/phases/roofline views"
    )
    p_report.add_argument("db")
    p_report.add_argument(
        "--kind", default="all",
        choices=("all", "trend", "shootout", "phases", "roofline"),
    )
    p_report.set_defaults(fn=_cmd_report)

    p_export = sub.add_parser(
        "export", help="dump every record as canonical JSONL"
    )
    p_export.add_argument("db")
    p_export.add_argument("out", help="output .jsonl path")
    p_export.set_defaults(fn=_cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"repro-perfdb: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `repro-perfdb report ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
