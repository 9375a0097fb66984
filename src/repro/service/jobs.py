"""The service's job layer: predictions over the campaign engine.

A :class:`Job` is one prediction in flight — a single
:class:`~repro.campaign.spec.RunConfig` with an event log every
subscriber can stream (``queued`` -> ``running`` -> ``done``/``failed``).
:meth:`JobQueue.submit` is synchronous.  It looks the request's content
key up in the queue's one in-flight table: an unfinished job there
takes the request as a coalesced waiter.  Otherwise it indexes a new
job and opens a one-config campaign through
:func:`~repro.campaign.engine.open_campaign` with the shared
:class:`~repro.campaign.cache.ResultCache`, the shared service manifest
and the shared campaign-level executor (``ProcessExecutor`` worker pool
by default).  That call is the engine's own hit-serving: it journals
``campaign-start``, makes the request's one cache lookup, and journals
``run-done`` for a hit — so a warm prediction is answered right there,
on the event loop, and finished before ``submit`` returns.  A miss
becomes one asyncio task, which waits for one of ``workers`` slots and
runs the campaign's pending half (worker-side cache publish, per-config
failure isolation) and its close in ``asyncio.to_thread``.  Either way
the manifest holds the campaign-style JSONL ``repro.perfdb`` ingests
unchanged.

All job state is mutated on the event loop, and nothing awaits between
the in-flight lookup and the indexing of a new job, so two identical
requests can never both open a campaign.  What runs on the loop for a
hit is one cache entry read, three journal appends and one stats
flush; nothing is computed there — a miss, including an entry the
cache cannot read, always goes to a worker thread.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from ..campaign.cache import ResultCache
from ..campaign.engine import OpenCampaign, open_campaign, resolve_scheduler
from ..campaign.manifest import Manifest, NullManifest
from ..campaign.report import CampaignReport, ConfigResult
from ..campaign.spec import CampaignSpec, RunConfig

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Finished jobs kept around for ``GET /v1/jobs/<id>`` before pruning.
MAX_FINISHED_JOBS = 256


@dataclass
class Job:
    """One prediction moving through the queue."""

    id: str
    config: RunConfig
    key: str
    state: str = QUEUED
    created: float = field(default_factory=time.time)
    #: Requests beyond the first that attached to this computation.
    coalesced: int = 0
    cached: bool = False
    wall_s: float = 0.0
    gflops: float = 0.0
    result: dict[str, Any] | None = None
    error: str | None = None
    events: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._changed = asyncio.Event()

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def summary(self) -> dict[str, Any]:
        """The job as the API's JSON shape (result omitted)."""
        return {
            "job": self.id,
            "key": self.key,
            "label": self.config.label,
            "config": self.config.to_dict(),
            "state": self.state,
            "coalesced": self.coalesced,
            "cached": self.cached,
            "wall_s": self.wall_s,
            "gflops": self.gflops,
            "error": self.error,
        }

    def emit(self, event: dict[str, Any]) -> None:
        """Append one stream event and wake every subscriber.  The
        event is set and replaced, so a later wait parks afresh."""
        self.events.append(event)
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()

    async def stream(self):
        """Yield every event, live, until the job finishes.

        Past events replay first, so a subscriber attaching after
        completion still sees the full history.
        """
        idx = 0
        while True:
            while idx < len(self.events):
                yield self.events[idx]
                idx += 1
            if self.finished:
                return
            await self._changed.wait()

    async def wait(self) -> None:
        """Block until the job reaches a terminal state."""
        async for _ in self.stream():
            pass


class JobQueue:
    """Hits answered at submit; each miss a task that holds one of
    ``workers`` slots while it computes, so ``workers`` bounds
    concurrent *computations*, misses start in submit order, and a
    hit never waits for one."""

    def __init__(
        self,
        *,
        cache: ResultCache | None,
        manifest: "Manifest | NullManifest | None" = None,
        scheduler: Any = "serial",
        workers: int = 2,
        campaign_name: str = "service",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.manifest = manifest if manifest is not None else NullManifest()
        self.scheduler = resolve_scheduler(scheduler)
        self.workers = workers
        self.campaign_name = campaign_name
        self._slots = asyncio.Semaphore(workers)
        self._tasks: set[asyncio.Task] = set()
        self._jobs: dict[str, Job] = {}
        #: content key -> its unfinished job; a job leaves as it finishes
        self._inflight: dict[str, Job] = {}
        #: ids of finished jobs still tracked, oldest first
        self._finished: deque[str] = deque()
        self._running = 0
        self._seq = 0
        #: Requests served by attaching to an in-flight job.
        self.coalesced_total = 0
        self.completed = 0
        self.failed = 0

    # -- introspection ----------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    @property
    def in_flight(self) -> int:
        """Distinct keys being computed or waiting for a slot."""
        return len(self._inflight)

    @property
    def depth(self) -> int:
        """Misses waiting for a computation slot."""
        return len(self._inflight) - self._running

    @property
    def running(self) -> int:
        return self._running

    # -- lifecycle --------------------------------------------------------

    async def stop(self) -> None:
        """Return once every accepted miss has finished."""
        while self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)

    def submit(self, config: RunConfig) -> tuple[Job, bool]:
        """Accept one prediction: ``(job, coalesced)``.  ``coalesced``
        is True when the request attached to an unfinished job for the
        same key.  A new job comes back finished for a cache hit (or a
        failed journal write) and queued for a miss."""
        key = config.key()
        job = self._inflight.get(key)
        if job is not None:
            job.coalesced += 1
            self.coalesced_total += 1
            return job, True
        self._seq += 1
        job = Job(id=f"j{self._seq:06d}", config=config, key=key)
        self._jobs[job.id] = job
        self._inflight[key] = job
        job.emit(
            {
                "event": QUEUED,
                "job": job.id,
                "key": key,
                "label": config.label,
                "t": time.time(),
            }
        )
        try:
            campaign = open_campaign(
                CampaignSpec(
                    name=self.campaign_name,
                    apps=(config.app,),
                    steps=config.steps,
                ),
                configs=[config],
                cache=self.cache,
                manifest=self.manifest,
                scheduler=self.scheduler,
            )
            if not campaign.pending:
                self._start(job)
                self._finish(job, row=campaign.close().rows[0])
                return job, False
        except Exception as exc:  # noqa: BLE001 - a failed job, not a 500
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return job, False
        task = asyncio.create_task(
            self._compute(job, campaign), name=f"job-{job.id}"
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return job, False

    # -- execution --------------------------------------------------------

    async def _compute(self, job: Job, campaign: OpenCampaign) -> None:
        """A miss: wait for a slot, compute in a thread, finish ``job``."""
        try:
            async with self._slots:
                self._running += 1
                self._start(job)
                try:
                    report = await asyncio.to_thread(_complete, campaign)
                    row = report.rows[0]
                finally:
                    self._running -= 1
        except BaseException as exc:  # noqa: BLE001 - isolation seam
            self._finish(job, error=f"{type(exc).__name__}: {exc}")
            if not isinstance(exc, Exception):
                # cancellation, interrupt, exit: the job is failed and
                # its waiters woken, but the task must not swallow it
                raise
        else:
            self._finish(job, row=row)

    def _start(self, job: Job) -> None:
        job.state = RUNNING
        job.emit({"event": RUNNING, "job": job.id, "t": time.time()})

    def _finish(
        self,
        job: Job,
        *,
        row: ConfigResult | None = None,
        error: str | None = None,
    ) -> None:
        if row is not None and row.ok:
            job.state = DONE
            job.cached = row.cached
            job.wall_s = row.wall_s
            job.gflops = row.gflops
            job.result = row.result
            self.completed += 1
            final = {
                "event": DONE,
                "job": job.id,
                "key": job.key,
                "cached": job.cached,
                "wall_s": job.wall_s,
                "gflops": job.gflops,
                "result": job.result,
                "t": time.time(),
            }
        else:
            job.state = FAILED
            job.error = (
                error or getattr(row, "error", None) or "unknown failure"
            )
            self.failed += 1
            final = {
                "event": FAILED,
                "job": job.id,
                "key": job.key,
                "error": job.error,
                "t": time.time(),
            }
        del self._inflight[job.key]
        # cap the finished-job history at MAX_FINISHED_JOBS, oldest out
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            self._jobs.pop(self._finished.popleft(), None)
        job.emit(final)


def _complete(campaign: OpenCampaign) -> CampaignReport:
    """Blocking: a campaign's pending half, then its close."""
    campaign.run_pending()
    return campaign.close()
