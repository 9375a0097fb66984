"""Request coalescing: identical in-flight configs share one computation.

The identity is the campaign's own SHA-256 content key
(:meth:`RunConfig.key` — canonical config JSON + package version), so
"identical" here means exactly what it means to the result cache: two
requests that would produce byte-identical cache entries.  The first
request creates the job; every later request arriving while that job
is still queued or running attaches to it, waits on the same event
stream, and receives the same result.  N identical concurrent clients
therefore cost exactly one engine computation — the acceptance
criterion ``/v1/stats`` makes observable via ``coalesced_total`` and
the cache hit/miss counters.

Single-threaded by construction: every method runs on the event loop.
"""

from __future__ import annotations

import asyncio

from ..campaign.spec import RunConfig
from .jobs import Job, JobQueue


class Coalescer:
    """In-flight job dedupe keyed on RunConfig content keys.

    The index holds either a live :class:`Job` or an
    :class:`asyncio.Future` *placeholder*.  The placeholder is the fix
    for an interleaving hole: ``queue.submit`` awaits, so two identical
    requests could both pass a naive "not in flight" check before
    either's job existed, enqueue two computations, and silently
    overwrite each other in the index.  Reserving the key
    *synchronously* (no await between the check and the reservation)
    makes the second request wait on the first's placeholder and then
    coalesce onto the job it resolves to.
    """

    def __init__(self) -> None:
        self._inflight: "dict[str, Job | asyncio.Future]" = {}
        #: Requests served by attaching to an existing in-flight job.
        self.coalesced_total = 0

    @property
    def in_flight(self) -> int:
        return len(self._inflight)

    async def submit(
        self, config: RunConfig, queue: JobQueue
    ) -> tuple[Job, bool]:
        """Route one request: attach to the in-flight twin or enqueue.

        Returns ``(job, coalesced)`` — ``coalesced`` is True when the
        request piggybacked on an existing computation.
        """
        key = config.key()
        while True:
            entry = self._inflight.get(key)
            if isinstance(entry, asyncio.Future):
                # someone is mid-enqueue for this key: wait for their
                # job.  shield() keeps a cancelled waiter from
                # cancelling the shared placeholder under everyone else.
                entry = await asyncio.shield(entry)
                if entry is None:
                    continue  # their enqueue failed; race for the slot
            if entry is not None and not entry.finished:
                entry.coalesced += 1
                self.coalesced_total += 1
                return entry, True
            # slot is empty (or holds only a finished job): reserve it
            # synchronously before the first await
            placeholder = asyncio.get_running_loop().create_future()
            self._inflight[key] = placeholder
            try:
                job = await queue.submit(config)
            except BaseException:
                if self._inflight.get(key) is placeholder:
                    del self._inflight[key]
                if not placeholder.done():
                    placeholder.set_result(None)  # wake waiters to retry
                raise
            if self._inflight.get(key) is placeholder:
                if job.finished:
                    # completed before we could index it — a cache hit
                    # always is (release saw the placeholder and left
                    # it) — don't index a terminal job
                    del self._inflight[key]
                else:
                    self._inflight[key] = job
            if not placeholder.done():
                placeholder.set_result(job)
            return job, False

    def release(self, job: Job) -> None:
        """Drop a finished job from the in-flight index (wired as the
        queue's ``on_finish`` hook, so release happens before waiters
        observe the terminal event).  The identity check makes this a
        no-op while the slot still holds another request's placeholder
        or a newer job for the same key."""
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
