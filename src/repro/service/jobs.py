"""The service's job layer: predictions over the campaign engine.

A :class:`Job` is one prediction in flight — a single
:class:`~repro.campaign.spec.RunConfig` with an event log every
subscriber can stream (``queued`` -> ``running`` -> ``done``/``failed``).
:meth:`JobQueue.submit` opens a one-config campaign through
:func:`~repro.campaign.engine.open_campaign` with the shared
:class:`~repro.campaign.cache.ResultCache`, the shared service manifest
and the shared campaign-level executor (``ProcessExecutor`` worker pool
by default).  That call is the engine's own hit-serving: it journals
``campaign-start``, makes the request's one cache lookup, and journals
``run-done`` for a hit — so a warm prediction is answered right there,
on the event loop, and finished before ``submit`` returns.  A miss
goes into the queue; one of a fixed set of asyncio worker tasks runs
the campaign's pending half (worker-side cache publish, per-config
failure isolation) and its close in ``asyncio.to_thread``.  Either way
the manifest holds the campaign-style JSONL ``repro.perfdb`` ingests
unchanged.

All job state is mutated on the event loop.  What runs on it for a
hit is one cache entry read, three journal appends and one stats
flush; nothing is computed there — a miss, including an entry the
cache cannot read, always goes to a worker thread.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

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
        self._cond = asyncio.Condition()

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

    async def emit(self, event: dict[str, Any]) -> None:
        """Append one stream event and wake every subscriber."""
        self.events.append(event)
        async with self._cond:
            self._cond.notify_all()

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
            async with self._cond:
                if idx >= len(self.events) and not self.finished:
                    await self._cond.wait()

    async def wait(self) -> None:
        """Block until the job reaches a terminal state."""
        async for _ in self.stream():
            pass


class JobQueue:
    """Hits answered at submit; misses drained FIFO by a fixed-width
    asyncio worker pool, so ``workers`` bounds concurrent
    *computations* and a hit never waits for one."""

    def __init__(
        self,
        *,
        cache: ResultCache | None,
        manifest: "Manifest | NullManifest | None" = None,
        scheduler: Any = "serial",
        workers: int = 2,
        campaign_name: str = "service",
        on_finish: Callable[[Job], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.manifest = manifest if manifest is not None else NullManifest()
        self.scheduler = resolve_scheduler(scheduler)
        self.workers = workers
        self.campaign_name = campaign_name
        self.on_finish = on_finish
        self._queue: asyncio.Queue[tuple[Job, OpenCampaign] | None] = (
            asyncio.Queue()
        )
        self._tasks: list[asyncio.Task] = []
        self._jobs: dict[str, Job] = {}
        #: ids of finished jobs still tracked, oldest first
        self._finished: deque[str] = deque()
        self._running = 0
        self._seq = 0
        self.completed = 0
        self.failed = 0

    # -- introspection ----------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    @property
    def depth(self) -> int:
        """Jobs accepted but not yet picked up by a worker."""
        return self._queue.qsize()

    @property
    def running(self) -> int:
        return self._running

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        if self._tasks:
            return
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"job-worker-{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Drain-free shutdown: workers exit after their current job."""
        for _ in self._tasks:
            self._queue.put_nowait(None)
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    async def submit(self, config: RunConfig) -> Job:
        """Accept one prediction.  A cache hit comes back finished; a
        miss comes back queued for a worker."""
        self._seq += 1
        job = Job(
            id=f"j{self._seq:06d}", config=config, key=config.key()
        )
        self._jobs[job.id] = job
        await job.emit(
            {
                "event": QUEUED,
                "job": job.id,
                "key": job.key,
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
        except Exception as exc:  # noqa: BLE001 - a failed job, not a 500
            await self._finish(job, error=f"{type(exc).__name__}: {exc}")
            return job
        if campaign.pending:
            await self._queue.put((job, campaign))
        else:
            await self._run(job, campaign)
        return job

    # -- execution --------------------------------------------------------

    async def _worker(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                return
            await self._run(*item)

    async def _run(self, job: Job, campaign: OpenCampaign) -> None:
        """Take an opened campaign to its report and finish ``job``:
        a miss computes in a thread, a hit only closes, here."""
        job.state = RUNNING
        self._running += 1
        await job.emit({"event": RUNNING, "job": job.id, "t": time.time()})
        try:
            if campaign.pending:
                report = await asyncio.to_thread(_complete, campaign)
            else:
                report = campaign.close()
            row = report.rows[0]
        except BaseException as exc:  # noqa: BLE001 - isolation seam
            await self._finish(job, error=f"{type(exc).__name__}: {exc}")
            if not isinstance(exc, Exception):
                # cancellation, interrupt, exit: the job is failed and
                # its waiters woken, but the worker must not live on
                raise
        else:
            if row.ok:
                await self._finish(job, row=row)
            else:
                await self._finish(job, error=row.error, row=row)
        finally:
            self._running -= 1

    async def _finish(
        self,
        job: Job,
        *,
        row: ConfigResult | None = None,
        error: str | None = None,
    ) -> None:
        if error is None and row is not None:
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
            job.error = error or "unknown failure"
            self.failed += 1
            final = {
                "event": FAILED,
                "job": job.id,
                "key": job.key,
                "error": job.error,
                "t": time.time(),
            }
        # cap the finished-job history at MAX_FINISHED_JOBS, oldest out
        self._finished.append(job.id)
        while len(self._finished) > MAX_FINISHED_JOBS:
            self._jobs.pop(self._finished.popleft(), None)
        if self.on_finish is not None:
            self.on_finish(job)
        await job.emit(final)


def _complete(campaign: OpenCampaign) -> CampaignReport:
    """Blocking: a campaign's pending half, then its close."""
    campaign.run_pending()
    return campaign.close()
