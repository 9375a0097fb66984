"""Declarative measurement campaigns: cached, resumable, multi-process.

The paper's results are sweeps — every table and figure is a grid of
(application x platform x concurrency x decomposition) measurements.
This package turns such a grid into a managed campaign:

* :class:`~repro.campaign.spec.CampaignSpec` declares the sweep axes
  and expands into hashable :class:`~repro.campaign.spec.RunConfig`\\ s;
* :mod:`~repro.campaign.worker` executes one config through the
  harness inside a worker process and marshals the result back as a
  plain dict;
* :class:`~repro.campaign.cache.ResultCache` is a content-addressed
  on-disk store keyed by config hash + package version, so completed
  runs are never re-executed;
* :class:`~repro.campaign.manifest.Manifest` journals progress to a
  JSONL file, so an interrupted campaign resumes by skipping hits;
* :func:`~repro.campaign.engine.run_campaign` schedules the misses
  concurrently across worker processes (``ProcessExecutor``) and
  aggregates everything into a
  :class:`~repro.campaign.report.CampaignReport`.

The ``repro-campaign`` CLI (:mod:`repro.campaign.cli`) exposes
``run`` / ``status`` / ``clean`` on top.
"""

from .cache import CacheStats, ResultCache
from .engine import OpenCampaign, open_campaign, run_campaign
from .manifest import Manifest, read_events, summarize
from .report import CampaignReport, ConfigResult
from .spec import CampaignSpec, RunConfig

__all__ = [
    "CacheStats",
    "CampaignReport",
    "CampaignSpec",
    "ConfigResult",
    "Manifest",
    "OpenCampaign",
    "ResultCache",
    "RunConfig",
    "open_campaign",
    "read_events",
    "run_campaign",
    "summarize",
]
