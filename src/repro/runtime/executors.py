"""Pluggable executors: how per-rank compute segments are scheduled.

The simulated machine keeps every rank's data in one Python process, so
"parallel" rank compute has historically meant a serial ``for rank in
range(nprocs)`` loop.  The executor seam makes that loop pluggable:

* :class:`SerialExecutor` — run segments one after another on the
  calling thread.  This is the default and reproduces the historical
  lockstep semantics exactly.
* :class:`ThreadExecutor` — run contiguous shards of the segments on
  a shared thread pool, one task per worker.  Threads overlap only
  where a kernel releases the GIL for long enough; see
  ``docs/executors.md`` for what that has measured to.
* :class:`ProcessExecutor` — run jobs in worker *processes*, two ways.
  Coarse campaign-level jobs (whole ``harness.run`` invocations with
  picklable dict arguments/results, see :mod:`repro.campaign`) go
  through the long-lived shared pool (:meth:`~Executor.map` /
  :meth:`~Executor.imap_unordered`).  Per-rank compute segments go
  through :meth:`ProcessExecutor.map_segments` to the executor's
  persistent :class:`~repro.runtime.team.RankTeam`: workers forked
  once, at the first parallel region, and sent every later region as a
  message.  Segment scheduling needs ``fork`` plus POSIX shared memory
  (for the solvers' in-place state blocks);
  :meth:`~Executor.segment_support` reports whether this host
  qualifies and why not; :func:`segment_executor` applies the
  capability policy to it.

Executors schedule **compute only**.  Communication stays serialized
between parallel regions (see ``Communicator.map_shards``), and the
deferred-accounting replay in the communicator guarantees that every
executor produces bitwise-identical solver states and identical
clock/trace/ledger instrumentation — only real wall-clock differs.

Which executor a run gets is decided by :data:`EXECUTORS`, this seam's
instance of the one resolution rule in :mod:`repro.runtime.resolve`.

Spec strings are ``"serial"``, ``"threads"`` (worker count picked from
the host), ``"threads:N"``, ``"processes"``, or ``"processes:N"``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from operator import methodcaller
from typing import Callable, Iterator, Sequence, TypeVar

from .arena import Arena
from .resolve import Resolver, Support
from .shm import SharedArenaPool, shm_unavailable_reason
from .team import RankTeam, contiguous_shards

_T = TypeVar("_T")
_R = TypeVar("_R")


class Executor:
    """Schedules a batch of independent segments and collects results.

    Subclasses must preserve *result order*: ``map(fn, items)`` returns
    ``[fn(items[0]), fn(items[1]), ...]`` regardless of the order the
    calls actually ran in.  If any call raises, ``map`` raises (the
    first failure in item order); remaining segments may or may not
    have run, so callers must treat a raised region as charged-nothing
    (the communicator does).
    """

    #: spec-style name ("serial", "threads")
    name: str = "executor"
    #: number of worker threads segments may occupy concurrently
    workers: int = 1
    #: True when segments may run concurrently (drives deferred
    #: accounting and the parallel-region communication guard)
    parallel: bool = False
    #: True when jobs run in the calling process, sharing its memory.
    #: Process executors set this False; their rank segments run in
    #: team workers (see :meth:`map_segments`) and must route effects
    #: through return values or shared-memory arguments.
    in_process: bool = True

    def map(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:  # pragma: no cover - interface
        raise NotImplementedError

    def segment_support(self) -> Support:
        """Can this executor schedule rank segments here?

        In-process executors always can; :class:`ProcessExecutor`
        checks the host for ``fork`` and POSIX shared memory.  The
        communicator consults this instead of hard-rejecting by class.
        """
        return Support(True, "segments run in the calling process")

    def map_segments(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        """Like :meth:`map`, for rank segments specifically.

        In-process executors have no distinction to make.  The process
        executor overrides this to step the segments on its rank team
        (its :meth:`map` is the campaign job pool).  Either way a
        parallel executor gives each worker one contiguous shard of
        ``items`` (:func:`~repro.runtime.team.contiguous_shards`).
        """
        return self.map(fn, items)

    def arena(self, name: str = "arena") -> Arena:
        """A fresh arena whose buffers this executor's segments can
        write: private memory here, shared memory from a pool the
        executor owns on :class:`ProcessExecutor`.  Which kind of
        memory backs a run is decided here and nowhere else."""
        return Arena(name=name)

    def reaches(self, arena: Arena) -> bool:
        """Do writes a segment makes through ``arena``'s buffers land
        in the caller's memory?"""
        return self.in_process or arena.shared

    def adopt(self, arena: Arena | None, name: str = "arena") -> Arena:
        """The arena a solver on this executor keeps its buffers in:
        the caller's, or with ``None`` a fresh one called ``name``."""
        if arena is None:
            return self.arena(name)
        if not self.reaches(arena):
            raise ValueError(
                f"arena {arena.name!r} is not shared memory (it is "
                "private, or its pool has been closed), so the worker "
                f"processes of a {self.name!r} executor cannot write "
                "through it: omit arena= or take one from "
                "comm.executor.arena()"
            )
        return arena

    def close(self) -> None:
        """Release what the executor holds between regions (a process
        executor's rank team and shared-memory pool).  Idempotent; the
        executor stays usable — the next region, or the next
        :meth:`arena`, brings it all back — but arenas it handed out
        before are private memory from here on."""

    def imap_unordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R | None, BaseException | None]]:
        """Yield ``(index, result, error)`` as each job *completes*.

        Exactly one of ``result``/``error`` is non-None per item; the
        order is completion order, not item order (serial executors
        complete in item order by construction).  Unlike :meth:`map`, a
        failing job does not poison the batch — the exception is
        yielded, and every other item still runs.  This is the campaign
        engine's seam: it needs per-completion progress/journaling and
        per-job error isolation, which a barrier ``map`` cannot give.
        """
        for i, item in enumerate(items):
            try:
                yield i, fn(item), None
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - isolation seam
                yield i, None, exc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Run every segment on the calling thread, in item order."""

    name = "serial"
    workers = 1
    parallel = False

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        return [fn(item) for item in items]


# One shared pool per worker count, process-wide.  Communicators are
# created by the hundreds across a test run; per-communicator pools
# would churn threads, and idle pool threads cost nothing.
_POOLS: dict[int, _ThreadPool] = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(workers: int) -> _ThreadPool:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _ThreadPool(
                max_workers=workers, thread_name_prefix=f"repro-exec{workers}"
            )
            _POOLS[workers] = pool
        return pool


def _run_items(fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
    return [fn(item) for item in items]


class ThreadExecutor(Executor):
    """Run segments on a shared thread pool.

    ``workers=None`` picks ``min(8, os.cpu_count())`` — eight threads
    saturate the per-rank segment sizes the benchmarks use, and more
    only adds scheduling noise.
    """

    name = "threads"
    parallel = True

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = min(8, os.cpu_count() or 1)
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        items = list(items)
        shards = contiguous_shards(len(items), self.workers)
        if len(shards) <= 1:
            return _run_items(fn, items)
        pool = _shared_pool(self.workers)
        # one task per worker, not one future per item
        futures = [
            pool.submit(_run_items, fn, items[lo:hi]) for lo, hi in shards
        ]
        # a shard stops at its first failing item and shards are read
        # in item order, so this raises the first failure in item order
        try:
            return [result for f in futures for result in f.result()]
        except BaseException:
            # the caller takes the region as over once this raises, so
            # the shards still running must be, too
            wait(futures)
            raise

    def imap_unordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R | None, BaseException | None]]:
        pool = _shared_pool(self.workers)
        yield from _drain_as_completed(pool, fn, items)


def _drain_as_completed(pool, fn, items):
    """Submit all items and yield ``(index, result, error)`` triples as
    futures finish; on generator teardown (e.g. a KeyboardInterrupt in
    the consumer) the not-yet-started futures are cancelled."""
    futures = {pool.submit(fn, item): i for i, item in enumerate(items)}
    try:
        pending = set(futures)
        while pending:
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for f in done:
                i = futures[f]
                exc = f.exception()
                if exc is not None:
                    yield i, None, exc
                else:
                    yield i, f.result(), None
    finally:
        for f in futures:
            f.cancel()


# Process pools are shared per worker count like thread pools: campaign
# invocations come in bursts (cold sweep, then warm rerun) and re-forking
# a pool for each would dominate small sweeps.  ``shutdown_process_pools``
# exists for the ladder benchmark, which wants a cold-start measure and
# to leave no worker behind.
_PROC_POOLS: dict[int, _ProcessPool] = {}
_PROC_POOLS_LOCK = threading.Lock()


def _shared_process_pool(workers: int) -> _ProcessPool:
    with _PROC_POOLS_LOCK:
        pool = _PROC_POOLS.get(workers)
        if pool is None:
            import multiprocessing

            # fork keeps worker start cheap (no re-import of NumPy/SciPy)
            # where available; spawn elsewhere.
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            pool = _ProcessPool(max_workers=workers, mp_context=ctx)
            _PROC_POOLS[workers] = pool
        return pool


def shutdown_process_pools() -> None:
    """Tear down the shared worker-process pools (tests/benchmarks)."""
    with _PROC_POOLS_LOCK:
        pools = list(_PROC_POOLS.values())
        _PROC_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


class ProcessExecutor(Executor):
    """Run jobs on worker processes — pooled jobs or team segments.

    Campaign-level scheduling (:meth:`map` / :meth:`imap_unordered`)
    uses the long-lived shared pool: ``fn`` must be a module-level
    callable and items/results must pickle (plain dicts in practice —
    see ``repro.campaign.worker``).

    Rank segments (:meth:`map_segments`) go to :attr:`team`, this
    executor's own :class:`~repro.runtime.team.RankTeam`; its module
    docstring has the rule for what a region message carries and when
    the team is re-forked.  The arenas it hands out (:meth:`arena`) are
    views into one :class:`~repro.runtime.shm.SharedArenaPool` it owns,
    so its workers write rank state where the parent reads it.
    :meth:`close` stops the workers and unlinks the pool (``harness.
    run`` does so when the run ends; an executor nobody closed is
    cleaned up when it is garbage-collected or the process exits).
    :meth:`segment_support` gates the whole mode on ``fork`` + POSIX
    shared memory being available.

    ``workers=None`` uses every core — both whole-run campaign jobs
    and rank segments scale to the host, unlike the eight-way segment
    sweet spot the thread pool targets.
    """

    name = "processes"
    parallel = True
    in_process = False

    def __init__(self, workers: int | None = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        workers = int(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        #: no process exists until the first region that needs one
        self.team = RankTeam(workers)
        #: no segment exists until the first arena is asked for
        self._pool: SharedArenaPool | None = None

    def arena(self, name: str = "arena") -> Arena:
        if self._pool is None:
            self._pool = SharedArenaPool(name=f"repro-{self.name}")
        return self._pool.arena(name)

    def close(self) -> None:
        # the team first: its workers hold mappings of the pool's slabs
        self.team.close()
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def segment_support(self) -> Support:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return Support(
                False,
                "the host has no fork start method (rank-team workers "
                "inherit the solver the parent built; spawned workers "
                "could not)",
            )
        reason = shm_unavailable_reason()
        if reason is not None:
            return Support(
                False,
                "rank segments need POSIX shared memory, which is "
                f"unavailable ({reason})",
            )
        return Support(
            True, "fork + POSIX shared memory are available"
        )

    def map_segments(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        items = list(items)
        shards = contiguous_shards(len(items), self.workers)
        if len(shards) <= 1:
            # nothing to overlap: run inline, no worker involved
            return _run_items(fn, items)
        support = self.segment_support()
        if not support.ok:
            raise RuntimeError(
                f"process executor cannot run rank segments here: "
                f"{support.reason}"
            )
        return self.team.run(fn, items, shards)

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> list[_R]:
        items = list(items)
        if not items:
            return []
        pool = _shared_process_pool(self.workers)
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def imap_unordered(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> Iterator[tuple[int, _R | None, BaseException | None]]:
        pool = _shared_process_pool(self.workers)
        yield from _drain_as_completed(pool, fn, items)


def _parse(spec: str) -> Executor:
    """Spec string -> executor; a malformed spec is a ValueError
    listing the valid forms."""
    base, _, arg = spec.partition(":")
    base = base.strip().lower()
    if base == "serial":
        if arg:
            raise ValueError(f"serial executor takes no argument: {spec!r}")
        return SerialExecutor()
    if base in ("threads", "processes"):
        cls = ThreadExecutor if base == "threads" else ProcessExecutor
        if not arg:
            return cls()
        try:
            workers = int(arg)
        except ValueError:
            raise ValueError(
                f"bad worker count in executor spec {spec!r}"
            ) from None
        return cls(workers)
    raise ValueError(
        f"unknown executor {spec!r}; expected 'serial', 'threads', "
        "'threads:N', 'processes', or 'processes:N'"
    )


#: The executor seam's resolver (``EXECUTORS.scoped(spec)`` installs a
#: scoped process default; ``EXECUTORS.default()`` reads it).
EXECUTORS: Resolver[Executor] = Resolver(
    kind="executor",
    base=Executor,
    env_var="REPRO_EXECUTOR",
    fallback="serial",
    parse=_parse,
)


def get_executor(spec: "str | Executor | None" = None) -> Executor:
    """Resolve an executor spec for *any* use, campaign scheduling
    included — no capability check (a process pool needs neither fork
    nor shared memory)."""
    return EXECUTORS.resolve(spec)


_segment_capable = methodcaller("segment_support")


def segment_executor(
    spec: "str | Executor | None" = None, *, degrade_explicit: bool = False
) -> Executor:
    """Resolve an executor that is about to schedule rank segments:
    the capability policy is applied to ``segment_support()``."""
    return EXECUTORS.resolve(
        spec, usable=_segment_capable, degrade_explicit=degrade_explicit
    )


def available_executors() -> list[str]:
    """Spec names accepted by :func:`get_executor` (for CLI help)."""
    return ["serial", "threads", "threads:N", "processes", "processes:N"]
