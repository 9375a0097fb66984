"""``repro-service`` — serve what-if predictions; pre-warm the cache.

Usage::

    repro-service serve --port 8177 --cache-dir .repro-cache
    repro-service serve --scheduler processes:4 --workers 4
    repro-service warm                       # built-in popular cells
    repro-service warm --spec sweep.json     # any CampaignSpec file
    python -m repro.service.cli serve

``serve`` runs the asyncio front end in the foreground until SIGINT /
SIGTERM or ``POST /v1/shutdown``.  ``warm`` sweeps app x machine x P
cells into the shared content-addressed cache *before* traffic
arrives, so the service's first clients hit warm entries instead of
paying cold-computation latency; it is the campaign engine underneath
(resumable, journaled, coalesced by content key with any concurrently
running service).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys

from ..campaign.cache import ResultCache
from ..campaign.cli import _progress_printer, load_spec
from ..campaign.engine import default_manifest_path, run_campaign
from ..campaign.spec import CampaignSpec
from .server import ReproService

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_PORT = 8177

#: The built-in warm-up sweep: every app at the popular small rank
#: counts, modest workloads — the cells interactive clients ask for
#: first.  ``--spec`` replaces this wholesale for real deployments.
DEFAULT_WARM_SPEC = {
    "name": "service-warm",
    "apps": ["lbmhd", "gtc", "fvcam", "paratec"],
    "nprocs": [4, 8],
    "seeds": [0],
    "steps": 1,
    "params": {
        "lbmhd": {"shape": [16, 16, 16]},
        "gtc": {"particles_per_cell": 8},
    },
}


def _cmd_serve(args) -> int:
    try:
        service = ReproService(
            args.cache_dir,
            workers=args.workers,
            scheduler=args.scheduler,
            manifest=args.manifest,
        )
    except (TypeError, ValueError) as exc:  # bad --scheduler spec
        print(f"repro-service: {exc}", file=sys.stderr)
        return 2

    async def main() -> None:
        await service.start(args.host, args.port)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, service.request_stop)
        print(
            f"repro-service: listening on http://{service.host}:"
            f"{service.port} (cache {service.cache.root}, "
            f"scheduler {service.scheduler.name}, "
            f"{service.queue.workers} job worker(s))",
            file=sys.stderr,
            flush=True,
        )
        await service.serve_until_stopped()
        print("repro-service: stopped", file=sys.stderr)

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_warm(args) -> int:
    try:
        spec = (
            load_spec(args.spec) if args.spec
            else CampaignSpec.from_dict(DEFAULT_WARM_SPEC)
        )
    except ValueError as exc:
        print(f"repro-service: {exc}", file=sys.stderr)
        return 2

    cache = ResultCache(args.cache_dir)
    progress = None if args.quiet else _progress_printer(sys.stderr)
    try:
        report = run_campaign(
            spec,
            cache=cache,
            manifest=default_manifest_path(args.cache_dir, spec.name),
            scheduler=args.scheduler,
            progress=progress,
        )
    except ValueError as exc:  # bad --scheduler spec
        print(f"repro-service: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
        life = cache.lifetime_stats()
        n = len(cache)
        print(
            f"cache {cache.root}: {n} entr{'y' if n == 1 else 'ies'} warm; "
            f"lifetime {life.hits} hit(s), {life.misses} miss(es), "
            f"{life.puts} put(s)"
        )
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description=(
            "Async what-if performance-prediction service over the "
            "campaign engine."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"shared result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    common.add_argument(
        "--scheduler",
        default="processes",
        metavar="SPEC",
        help=(
            "campaign-level scheduler for cold computations: "
            "'processes[:N]' (default), 'serial', 'threads[:N]', or "
            "'distrib:HOST:PORT' (fan out to repro-distrib workers)"
        ),
    )

    p_serve = sub.add_parser(
        "serve", parents=[common],
        help="run the HTTP prediction service in the foreground",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"TCP port (default: {DEFAULT_PORT}; 0 picks a free one)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent prediction jobs (default: 2)",
    )
    p_serve.add_argument(
        "--manifest", metavar="FILE",
        help="journal path (default: <cache-dir>/service.manifest.jsonl)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_warm = sub.add_parser(
        "warm", parents=[common],
        help="precompute popular app x machine x P cells into the cache",
    )
    p_warm.add_argument(
        "--spec", metavar="FILE",
        help="JSON CampaignSpec to sweep (default: built-in popular cells)",
    )
    p_warm.add_argument(
        "--json", action="store_true",
        help="emit the aggregated report as JSON on stdout",
    )
    p_warm.add_argument(
        "--quiet", action="store_true",
        help="suppress the live per-run progress lines (stderr)",
    )
    p_warm.set_defaults(fn=_cmd_warm)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
