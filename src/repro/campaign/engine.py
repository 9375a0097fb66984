"""The campaign scheduler: cache-check, fan out, journal, aggregate.

:func:`run_campaign` expands a spec, serves every config it can from
the :class:`~repro.campaign.cache.ResultCache`, schedules the misses
concurrently on an executor (worker *processes* by default), journals
every completion to the JSONL manifest, and returns a
:class:`~repro.campaign.report.CampaignReport`.

It runs in two halves a caller may also take apart.
:func:`open_campaign` serves the hits (one cache lookup per config, no
computation); :meth:`OpenCampaign.run_pending` computes the misses, the
one blocking part; :meth:`OpenCampaign.close` builds the report.  Those
journal run events only: :func:`run_campaign` journals
``campaign-start`` and ``campaign-end`` around them, and the prediction
service does so once per process.

Resume comes for free: the engine is the cache's one writer.  It
publishes each result to the content-addressed cache the moment the
scheduler hands it back, before journaling its ``run-done``, so
re-invoking an interrupted campaign finds the finished configs as cache
hits and only executes the remainder.  Workers only compute: a result
a worker finished after the campaign's process died was never handed
back, so it is computed again on resume.  A failing config is
isolated — it is reported (journal + report row) and the rest of the
sweep still runs.
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
from .manifest import SUFFIX, Manifest, NullManifest
from .report import CampaignReport, ConfigResult
from .spec import CampaignSpec, RunConfig, unique_configs

#: Called after every config completes: (done_so_far, total, row).
ProgressFn = Callable[[int, int, ConfigResult], None]


def default_manifest_path(
    cache_root: str | Path, name: str
) -> Path:
    """Where a campaign named ``name`` journals when given a cache at
    ``cache_root`` and no journal of its own."""
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
    return Path(cache_root) / f"{safe}{SUFFIX}"


def open_journal(
    manifest: "Manifest | NullManifest | str | Path | None",
    cache: ResultCache | None,
    name: str,
) -> "Manifest | NullManifest":
    """The one placement rule: ``None`` is the cache root's journal for
    campaign ``name`` (none without a cache), where the root's lifetime
    counters fold it; a path or journal is the caller's choice."""
    if isinstance(manifest, (Manifest, NullManifest)):
        return manifest
    if manifest is None:
        if cache is None:
            return NullManifest()
        manifest = default_manifest_path(cache.root, name)
    return Manifest(manifest)


def start_event(spec: CampaignSpec, total: int, scheduler: str) -> dict:
    """``campaign-start`` for ``spec``: with the host and version its
    numbers come from (``repro.perfdb`` ingests them) and its time."""
    return {
        "event": "campaign-start",
        "name": spec.name,
        "total": total,
        "scheduler": scheduler,
        "spec": spec.to_dict(),
        "host": {
            "name": socket.gethostname(),
            "cpu_count": os.cpu_count() or 1,
        },
        "version": __version__,
        "time": time.time(),
    }


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
    manifest: "Manifest | NullManifest | str | Path | None" = None,
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
        A :class:`Manifest`, a path for one, a :class:`NullManifest`
        for no journal, or ``None``: the cache root's
        ``<name>.manifest.jsonl`` (no journal when uncached).  Only a
        journal in the cache root counts in its lifetime counters.
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
    campaign = OpenCampaign(
        spec,
        configs=configs,
        cache=cache,
        manifest=manifest,
        scheduler=scheduler,
        rerun=rerun,
        progress=progress,
    )
    campaign.journal.append(
        start_event(spec, len(campaign.configs), campaign.executor.name)
    )
    campaign.serve_hits()
    campaign.run_pending()
    report = campaign.close()
    campaign.journal.append(
        {
            "event": "campaign-end",
            "hits": report.hits,
            "misses": report.misses,
            "failures": report.failures,
            "wall_s": report.wall_s,
        }
    )
    return report


def open_campaign(spec: CampaignSpec, **options: Any) -> "OpenCampaign":
    """The first half of :func:`run_campaign`, less its framing: look
    every config up in the cache once and journal ``run-done`` for each
    hit.  Nothing is computed here; the misses wait in
    :attr:`OpenCampaign.pending` for :meth:`~OpenCampaign.run_pending`.
    ``options`` are :func:`run_campaign`'s.
    """
    campaign = OpenCampaign(spec, **options)
    campaign.serve_hits()
    return campaign


class OpenCampaign:
    """A campaign between :func:`open_campaign` and :meth:`close`.

    ``pending`` lists the indices (into ``configs``) the cache did not
    serve.  :meth:`run_pending` computes them on the scheduler — the
    one blocking half — and :meth:`close` returns the report.  A
    campaign whose ``pending`` is empty after opening needs only
    :meth:`close`.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        configs: "Iterable[RunConfig] | None" = None,
        cache: "ResultCache | str | Path | None" = None,
        manifest: "Manifest | NullManifest | str | Path | None" = None,
        scheduler: "str | Executor" = "processes",
        rerun: bool = False,
        progress: ProgressFn | None = None,
    ) -> None:
        self._t0 = time.perf_counter()
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.spec = spec
        self.configs = unique_configs(
            spec.expand() if configs is None else configs
        )
        self.cache = cache
        self.journal = open_journal(manifest, cache, spec.name)
        self.executor = resolve_scheduler(scheduler)
        self.rerun = rerun
        self.progress = progress
        self.pending: list[int] = []
        self._rows: dict[int, ConfigResult] = {}

    def serve_hits(self) -> None:
        """Look every config up in the cache once (none under
        ``rerun``): journal ``run-done`` for each hit, and leave the
        rest in ``pending``."""
        cache = None if self.rerun else self.cache
        for i, cfg in enumerate(self.configs):
            hit = cache.get(cfg) if cache is not None else None
            if hit is None:
                self.pending.append(i)
            else:
                self._finish(i, _done(cfg, hit, cached=True))

    def _finish(self, i: int, row: ConfigResult) -> None:
        self._rows[i] = row
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
            self.journal.append(event)
        else:
            self.journal.append(
                {
                    "event": "run-failed",
                    "key": row.key,
                    "label": row.config.label,
                    "config": row.config.to_dict(),
                    "error": row.error,
                }
            )
        if self.progress is not None:
            self.progress(len(self._rows), len(self.configs), row)

    def run_pending(self) -> None:
        """Blocking: compute every pending config on the scheduler,
        journaling ``run-start`` for each and, as it completes, its
        ``run-done`` (after publishing the result to the cache) or
        ``run-failed``."""
        pending, self.pending = self.pending, []
        if not pending:
            return
        configs = [self.configs[i] for i in pending]
        for cfg in configs:
            event = {
                "event": "run-start",
                "key": cfg.key(),
                "label": cfg.label,
                "config": cfg.to_dict(),
            }
            if self.rerun:
                # a forced execution: a miss the cache was never asked
                # about, booked apart in the lifetime counters
                event["rerun"] = True
            self.journal.append(event)
        for j, result, exc in self.executor.imap_unordered(
            worker.execute_config, configs
        ):
            cfg = configs[j]
            if exc is None and self.cache is not None:
                # published before its run-done: a campaign killed
                # between the two resumes from the result
                try:
                    self.cache.put(cfg, result)
                except OSError as err:  # a result it cannot keep fails
                    exc = err
            if exc is not None:
                row = ConfigResult(
                    config=cfg,
                    key=cfg.key(),
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                row = _done(cfg, result, cached=False)
            self._finish(pending[j], row)

    def close(self) -> CampaignReport:
        """The report of every config served or computed so far."""
        return CampaignReport(
            spec=self.spec,
            rows=[self._rows[i] for i in sorted(self._rows)],
            wall_s=time.perf_counter() - self._t0,
            scheduler=self.executor.name,
        )


def _done(cfg: RunConfig, result: dict, *, cached: bool) -> ConfigResult:
    """The report row of a config served or computed."""
    return ConfigResult(
        config=cfg,
        key=cfg.key(),
        cached=cached,
        wall_s=float(result.get("wall_s", 0.0)),
        gflops=float(result.get("gflops", 0.0)),
        result=result,
    )
