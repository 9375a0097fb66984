"""The what-if performance-prediction service: an async API over the
campaign engine.

The paper's question — "how does application X perform on machine Y at
P ranks?" — is answered offline by ``repro.campaign`` sweeps and
``repro-experiments whatif``.  This package serves those answers at
interactive latency to many concurrent clients:

* :mod:`~repro.service.api` — JSON request validation: a predict body
  *is* a :class:`~repro.campaign.spec.RunConfig`, so requests share
  the campaign's content-key identity;
* :mod:`~repro.service.jobs` — the asyncio job queue over the
  campaign engine: identical in-flight configs attach to one job
  (keyed on the SHA-256 content key), cache hits are answered on the
  event loop, misses computed in worker threads (on its
  ``ProcessExecutor`` worker pool by default), journaling
  campaign-style manifests ``repro.perfdb`` ingests unchanged;
* :mod:`~repro.service.server` — the hand-rolled asyncio HTTP front
  end (predict / jobs / machines / whatif / stats endpoints, NDJSON
  progress streaming);
* :mod:`~repro.service.cli` — ``repro-service serve`` and the
  cache-warming ``repro-service warm`` precompute sweep.

The shared :class:`~repro.campaign.cache.ResultCache` is the warm
tier: ``repro-service warm`` precomputes popular cells before traffic
arrives, cold misses run on the worker pool, and every completed
prediction is published back for every later client.
"""

from .api import ApiError, parse_predict
from .jobs import DONE, FAILED, QUEUED, RUNNING, Job, JobQueue
from .server import ReproService, ServiceThread

__all__ = [
    "ApiError",
    "DONE",
    "FAILED",
    "Job",
    "JobQueue",
    "QUEUED",
    "ReproService",
    "RUNNING",
    "ServiceThread",
    "parse_predict",
]
