"""``repro-campaign`` — run, inspect, and clean measurement campaigns.

Usage::

    repro-campaign run sweep.json                 # execute / resume
    repro-campaign run sweep.json --scheduler processes:4 --json
    repro-campaign status                         # latest journal
    repro-campaign status path/to/x.manifest.jsonl
    repro-campaign clean                          # drop cache + journals
    python -m repro.campaign.cli run sweep.json

A spec file is the JSON form of
:class:`~repro.campaign.spec.CampaignSpec`::

    {"name": "demo",
     "apps": ["lbmhd", "fvcam"],
     "nprocs": [4, 8],
     "steps": 2,
     "params": {"lbmhd": {"shape": [8, 8, 8]}}}
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..harness.apps import APPLICATIONS
from .cache import ResultCache
from .engine import default_manifest_path, run_campaign
from .manifest import summarize
from .spec import CampaignSpec
from .worker import build_params

DEFAULT_CACHE_DIR = ".repro-cache"


def _progress_printer(stream):
    def progress(done, total, row):
        wall = f"{row.wall_s:8.3f}s" if row.ok else "       -"
        print(
            f"[{done:>{len(str(total))}}/{total}] "
            f"{row.config.label:<40} {row.status:>6} {wall}",
            file=stream,
            flush=True,
        )

    return progress


def load_spec(path: "str | Path") -> CampaignSpec:
    """Read a :class:`CampaignSpec` JSON file and check every cell.

    Every cell is type-checked, and its params built, before anything
    runs: a bad params body never reaches a pool (an unknown app stays
    a failure of its own cells).  Raises ``ValueError`` naming the file
    for a missing file or a bad spec.
    """
    path = Path(path)
    try:
        spec = CampaignSpec.from_json(path.read_text())
        for config in spec.expand():
            if config.app in APPLICATIONS:
                build_params(config.app, config.params_dict())
    except FileNotFoundError:
        raise ValueError(f"no such spec file: {path}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad spec {path}: {exc}") from None
    return spec


def _cmd_run(args) -> int:
    try:
        spec = load_spec(args.spec)
    except ValueError as exc:
        print(f"repro-campaign: {exc}", file=sys.stderr)
        return 2

    cache = ResultCache(args.cache_dir)
    manifest = (
        Path(args.manifest)
        if args.manifest
        else default_manifest_path(args.cache_dir, spec.name)
    )
    progress = None if args.quiet else _progress_printer(sys.stderr)
    try:
        report = run_campaign(
            spec,
            cache=cache,
            manifest=manifest,
            scheduler=args.scheduler,
            rerun=args.rerun,
            progress=progress,
        )
    except ValueError as exc:  # bad --scheduler spec
        print(f"repro-campaign: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _latest_manifest(cache_dir: str) -> Path | None:
    root = Path(cache_dir)
    journals = sorted(
        root.glob("*.manifest.jsonl"), key=lambda p: p.stat().st_mtime
    )
    return journals[-1] if journals else None


def _cache_stats_line(cache_dir: str) -> str | None:
    """Entry count + lifetime hit/miss/put counters, or ``None`` when
    there is no cache directory to describe."""
    root = Path(cache_dir)
    if not root.is_dir():
        return None
    cache = ResultCache(root)
    life = cache.lifetime_stats()
    line = (
        f"cache {root}: {len(cache)} entr{'y' if len(cache) == 1 else 'ies'}; "
        f"lifetime {life.hits} hit(s), {life.misses} miss(es), "
        f"{life.puts} put(s)"
    )
    if life.reruns:
        # forced executions are already inside the miss count; name
        # them so a 0% hit rate after --rerun reads as intentional
        line += f" ({life.reruns} forced rerun(s))"
    return line


def _cmd_status(args) -> int:
    path = Path(args.manifest) if args.manifest else _latest_manifest(
        args.cache_dir
    )
    if path is None or not path.exists():
        where = args.manifest or f"{args.cache_dir}/*.manifest.jsonl"
        print(f"repro-campaign: no manifest found: {where}",
              file=sys.stderr)
        return 2
    s = summarize(path)
    if s["name"] is None and not s["runs"]:
        print(f"repro-campaign: empty manifest: {path}", file=sys.stderr)
        return 2
    if args.json:
        root = Path(args.cache_dir)
        if root.is_dir():
            cache = ResultCache(root)
            s["cache"] = {
                "entries": len(cache),
                "lifetime": cache.lifetime_stats().as_dict(),
            }
        print(json.dumps(s, indent=2, sort_keys=True))
        return 0
    state = "complete" if s["complete"] else "interrupted/in progress"
    print(
        f"campaign {s['name']!r} [{state}] — {s['done']}/{s['total']} done "
        f"({s['hits']} hit(s), {s['misses']} miss(es)), "
        f"{s['failed']} failed, {s['in_flight']} in flight, "
        f"{s['pending']} never started   [{path}]"
    )
    for key, event in sorted(
        s["runs"].items(), key=lambda kv: kv[1].get("label", "")
    ):
        kind = event.get("event")
        if kind == "run-done":
            tag = "hit " if event.get("cached") else "done"
            extra = f"{event.get('wall_s', 0.0):8.3f}s"
        elif kind == "run-failed":
            tag, extra = "FAIL", str(event.get("error", ""))
        else:
            tag, extra = "....", "(started, no completion journaled)"
        print(f"  {tag}  {event.get('label', key):<40} {extra}")
    cache_line = _cache_stats_line(args.cache_dir)
    if cache_line is not None:
        print(cache_line)
    return 0


def _cmd_clean(args) -> int:
    cache = ResultCache(args.cache_dir)
    removed = cache.clear()
    journals = 0
    for path in Path(args.cache_dir).glob("*.manifest.jsonl"):
        path.unlink()
        journals += 1
    print(
        f"repro-campaign: removed {removed} cached result(s) and "
        f"{journals} manifest(s) from {args.cache_dir}"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description=(
            "Cached, resumable, multi-process measurement campaigns over "
            "the harness applications."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )

    p_run = sub.add_parser(
        "run", parents=[common],
        help="execute (or resume) a campaign spec",
    )
    p_run.add_argument("spec", help="JSON CampaignSpec file")
    p_run.add_argument(
        "--scheduler",
        default="processes",
        metavar="SPEC",
        help=(
            "campaign-level scheduler: 'processes[:N]' (default), "
            "'serial', 'threads[:N]', or 'distrib:HOST:PORT' (dispatch "
            "to connected repro-distrib workers)"
        ),
    )
    p_run.add_argument(
        "--manifest", metavar="FILE",
        help="journal path (default: <cache-dir>/<name>.manifest.jsonl)",
    )
    p_run.add_argument(
        "--rerun", action="store_true",
        help="ignore cache hits and re-execute every config",
    )
    p_run.add_argument(
        "--json", action="store_true",
        help="emit the aggregated report as JSON on stdout",
    )
    p_run.add_argument(
        "--quiet", action="store_true",
        help="suppress the live per-run progress lines (stderr)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_status = sub.add_parser(
        "status", parents=[common],
        help="summarize a campaign journal",
    )
    p_status.add_argument(
        "manifest", nargs="?",
        help="journal to summarize (default: newest in --cache-dir)",
    )
    p_status.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    p_status.set_defaults(fn=_cmd_status)

    p_clean = sub.add_parser(
        "clean", parents=[common],
        help="delete cached results and journals",
    )
    p_clean.set_defaults(fn=_cmd_clean)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
