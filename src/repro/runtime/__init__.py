"""Execution-runtime utilities shared by the hot paths.

* :mod:`repro.runtime.arena` — shape/dtype-keyed scratch-buffer arena
  that lets hot kernels (LBMHD collide, GTC deposit/push, PARATEC FFT
  transposes) reuse workspaces across time steps instead of
  reallocating them; per-rank child arenas keep concurrent rank
  segments from aliasing a workspace;
* :mod:`repro.runtime.shm` — the shared-memory backing for arenas:
  :class:`SharedArenaPool` owns POSIX shared-memory slabs and serves
  :class:`ShmArena` buffers as views into them, so worker processes
  mutate rank state the parent can see (zero-copy exchange);
* :mod:`repro.runtime.executors` — the executor seam: serial lockstep,
  a thread pool, or worker processes for per-rank compute segments;
* :mod:`repro.runtime.team` — the persistent rank team behind the
  process executor: workers forked once per run, regions sent as
  messages (shared-memory arrays by reference, communicators, arenas
  and kernel backends by token, the rest by value);
* :mod:`repro.runtime.resolve` — the one resolution rule (precedence
  chain + capability policy) the executor and kernel-backend seams
  both instantiate; only executors have a capability to check.
"""

from .arena import Arena
from .executors import (
    EXECUTORS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    get_executor,
    segment_executor,
)
from .shm import SharedArenaPool, ShmArena, ShmHandles, shm_available

__all__ = [
    "Arena",
    "EXECUTORS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "SharedArenaPool",
    "ShmArena",
    "ShmHandles",
    "ThreadExecutor",
    "available_executors",
    "get_executor",
    "segment_executor",
    "shm_available",
]
