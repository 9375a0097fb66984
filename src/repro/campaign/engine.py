"""The campaign scheduler: cache-check, fan out, journal, aggregate.

:func:`run_campaign` expands a spec, serves every config it can from
the :class:`~repro.campaign.cache.ResultCache`, schedules the misses
concurrently on an executor (worker *processes* by default), journals
every completion to the JSONL manifest, and returns a
:class:`~repro.campaign.report.CampaignReport`.

Resume comes for free: workers publish each result to the
content-addressed cache the moment it completes, so re-invoking an
interrupted campaign finds the finished configs as cache hits and only
executes the remainder.  A failing config is isolated — it is reported
(journal + report row) and the rest of the sweep still runs.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from .. import __version__
from ..runtime.executors import Executor, get_executor
from . import worker
from .cache import ResultCache
from .manifest import Manifest, NullManifest
from .report import CampaignReport, ConfigResult
from .spec import CampaignSpec, RunConfig, unique_configs

#: Called after every config completes: (done_so_far, total, row).
ProgressFn = Callable[[int, int, ConfigResult], None]


def default_manifest_path(
    cache_root: str | Path, name: str
) -> Path:
    """Where ``repro-campaign run`` journals campaign ``name``."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return Path(cache_root) / f"{safe}.manifest.jsonl"


def resolve_scheduler(spec: "str | Executor") -> Executor:
    """Resolve a campaign scheduler spec to an executor.

    Everything :func:`~repro.runtime.executors.get_executor` accepts,
    plus ``"distrib:HOST:PORT"`` — distributed dispatch to
    ``repro-distrib worker`` processes.  The one place that knows
    ``distrib:`` specs; imported here, not at module level, because
    :mod:`repro.distrib` itself imports the campaign package.
    """
    if isinstance(spec, str):
        from ..distrib.dispatch import DistribExecutor, is_distrib_spec

        if is_distrib_spec(spec):
            return DistribExecutor.from_spec(spec)
    return get_executor(spec)


def run_campaign(
    spec: CampaignSpec,
    *,
    configs: "Iterable[RunConfig] | None" = None,
    cache: "ResultCache | str | Path | None" = None,
    manifest: "Manifest | str | Path | None" = None,
    scheduler: "str | Executor" = "processes",
    rerun: bool = False,
    progress: ProgressFn | None = None,
) -> CampaignReport:
    """Execute (or resume) a campaign and aggregate the results.

    Parameters
    ----------
    configs:
        Explicit :class:`RunConfig` list to schedule instead of
        ``spec.expand()`` — for sweeps whose cells vary in ways the
        spec axes cannot express (e.g. per-config parameter overrides,
        as in the Figure 2 decomposition comparison).  The spec still
        names the campaign and is journaled as its identity.
    cache:
        A :class:`ResultCache`, a directory for one, or ``None`` to run
        uncached (every config executes; benchmarks do this).
    manifest:
        A :class:`Manifest`, a path for one, or ``None`` for no journal.
    scheduler:
        How configs are fanned out: an executor spec string
        (``"processes"``, ``"processes:N"``, ``"serial"``,
        ``"threads:N"``, or ``"distrib:HOST:PORT"`` for remote
        ``repro-distrib`` workers) or an :class:`Executor`.  This is the
        *campaign-level* scheduler; each config's ``executor`` field
        governs rank stepping inside its own run.
    rerun:
        Ignore cache hits and re-execute everything (entries are
        overwritten with the fresh results).
    progress:
        Callback invoked after every config resolves (hit, miss, or
        failure) with ``(done, total, row)`` — the CLI's live line.
    """
    t0 = time.perf_counter()
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    journal: "Manifest | NullManifest"
    if manifest is None:
        journal = NullManifest()
    elif isinstance(manifest, Manifest):
        journal = manifest
    else:
        journal = Manifest(manifest)

    configs = unique_configs(
        spec.expand() if configs is None else configs
    )
    executor = resolve_scheduler(scheduler)
    journal.append(
        {
            "event": "campaign-start",
            "name": spec.name,
            "total": len(configs),
            "scheduler": executor.name,
            "spec": spec.to_dict(),
            # provenance for repro.perfdb ingestion: which host and
            # package version this invocation's numbers come from
            "host": {
                "name": socket.gethostname(),
                "cpu_count": os.cpu_count() or 1,
            },
            "version": __version__,
        }
    )

    rows: dict[int, ConfigResult] = {}
    pending: list[int] = []
    done = 0

    def finish(i: int, row: ConfigResult) -> None:
        nonlocal done
        done += 1
        rows[i] = row
        if row.ok:
            event = {
                "event": "run-done",
                "key": row.key,
                "label": row.config.label,
                "config": row.config.to_dict(),
                "cached": row.cached,
                "wall_s": row.wall_s,
                "gflops": row.gflops,
            }
            # per-run provenance: with a distrib scheduler different
            # cells run on different hosts, so the campaign-start
            # host block is not authoritative — journal where this
            # result was actually computed (cache hits carry the
            # original computing host, which is the right answer)
            result = row.result or {}
            for field in (
                "host", "cpu_count", "version", "worker", "executor"
            ):
                if field in result:
                    event[field] = result[field]
            journal.append(event)
        else:
            journal.append(
                {
                    "event": "run-failed",
                    "key": row.key,
                    "label": row.config.label,
                    "config": row.config.to_dict(),
                    "error": row.error,
                }
            )
        if progress is not None:
            progress(done, len(configs), row)

    for i, cfg in enumerate(configs):
        hit = cache.get(cfg) if (cache is not None and not rerun) else None
        if hit is None and rerun and cache is not None:
            # a forced execution never called cache.get, but its put
            # still lands — book the lookup-we-skipped so lifetime
            # counters keep gets == hits + misses (with a distinct
            # rerun count so status can attribute it)
            cache.count_rerun()
        if hit is not None:
            finish(
                i,
                ConfigResult(
                    config=cfg,
                    key=cfg.key(),
                    cached=True,
                    wall_s=float(hit.get("wall_s", 0.0)),
                    gflops=float(hit.get("gflops", 0.0)),
                    result=hit,
                ),
            )
        else:
            pending.append(i)

    if pending:
        cache_root = str(cache.root) if cache is not None else None
        jobs: list[tuple[dict[str, Any], str | None]] = []
        for i in pending:
            cfg = configs[i]
            journal.append(
                {
                    "event": "run-start",
                    "key": cfg.key(),
                    "label": cfg.label,
                    "config": cfg.to_dict(),
                }
            )
            jobs.append((cfg.to_dict(), cache_root))
        for j, payload, exc in executor.imap_unordered(
            worker.run_and_cache, jobs
        ):
            cfg = configs[pending[j]]
            if exc is not None:
                row = ConfigResult(
                    config=cfg,
                    key=cfg.key(),
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                result = payload["result"]
                row = ConfigResult(
                    config=cfg,
                    key=payload["key"],
                    cached=False,
                    wall_s=float(result.get("wall_s", 0.0)),
                    gflops=float(result.get("gflops", 0.0)),
                    result=result,
                )
            finish(pending[j], row)

    report = CampaignReport(
        spec=spec,
        rows=[rows[i] for i in sorted(rows)],
        wall_s=time.perf_counter() - t0,
        scheduler=executor.name,
    )
    journal.append(
        {
            "event": "campaign-end",
            "hits": report.hits,
            "misses": report.misses,
            "failures": report.failures,
            "wall_s": report.wall_s,
        }
    )
    if cache is not None:
        # lifetime counters: workers flushed their puts as they
        # published; this invocation's hits/misses flush here
        cache.persist_stats()
    return report
