"""Process hygiene for the ladder benchmark: nothing outlives a run.

Rules every spawn in ``benchmarks/ladder`` follows:

* never ``setsid`` / ``start_new_session`` / daemonise — every process
  stays in the invoking process group, so an outer ``kill`` of the
  group reaps the lot;
* every directly spawned child asks the kernel for ``SIGKILL`` when its
  parent dies (``PR_SET_PDEATHSIG``).  The child sets this *itself* as
  its first action — pass children call :func:`die_with_parent`,
  ``python -m`` targets are started through this file's launcher
  (``python procs.py PARENT_PID MODULE ARGS...``) — so no ``preexec_fn``
  runs between fork and exec in a parent that may hold threads;
* every spawned child lives inside :func:`managed`, which stops it
  politely, then ``terminate``, then ``kill`` after a grace period, and
  always ``wait``\\ s;
* the orchestrator is a *child subreaper*: a descendant orphaned by a
  killed parent (fork-pool workers never see EOF when their parent
  dies) is re-parented to the orchestrator, where :func:`sweep` finds,
  kills and reaps it.

``/proc`` is the only source of truth about who is alive; Linux only.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Seconds a child gets to honour a polite stop, and again a SIGTERM.
GRACE_S = 5.0
_SHM_DIR = Path("/dev/shm")


def _prctl(option: int, arg: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(option, arg, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl({option}) failed: {os.strerror(err)}")


def die_with_parent(parent_pid: int) -> None:
    """SIGKILL this process when its parent exits (and exit right now if
    the parent already went away before the request was installed)."""
    _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent_pid:
        os._exit(1)


def pool_worker_die_with_parent(parent_pid: int) -> int:
    """Pool task installing :func:`die_with_parent` in a fork-pool worker.

    Sleeps briefly so that ``map`` over as many items as the pool has
    workers lands one item on each of them.
    """
    die_with_parent(parent_pid)
    time.sleep(0.05)
    return os.getpid()


def become_subreaper() -> None:
    """Adopt orphaned descendants instead of letting them escape to init."""
    _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def spawn_module(module: str, args: list[str], log: Path) -> subprocess.Popen:
    """Start ``python -m module args...`` through the launcher below
    (same environment, output appended to ``log``)."""
    with log.open("ab") as fh:
        return subprocess.Popen(
            [sys.executable, __file__, str(os.getpid()), module, *args],
            stdin=subprocess.DEVNULL,
            stdout=fh,
            stderr=fh,
        )


def stop(
    proc: subprocess.Popen, polite: Callable[[], None] | None = None
) -> None:
    """Polite stop, then SIGTERM, then SIGKILL, ``GRACE_S`` apart; always
    reaps."""
    if proc.poll() is None and polite is not None:
        try:
            polite()
        except OSError as exc:  # e.g. connection refused: already going
            print(f"ladder: polite stop of pid {proc.pid} failed: {exc}",
                  file=sys.stderr)
        try:
            proc.wait(GRACE_S)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


@contextmanager
def managed(
    proc: subprocess.Popen, polite: Callable[[], None] | None = None
) -> Iterator[subprocess.Popen]:
    """Own ``proc`` for the block; it is stopped and reaped on the way out."""
    try:
        yield proc
    finally:
        stop(proc, polite)


# -- /proc --------------------------------------------------------------


def _stat(pid: int) -> tuple[int, str, int] | None:
    """``(ppid, state, cpu ticks incl. reaped children)`` of a live pid."""
    try:
        data = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after it
    rest = data[data.rindex(")") + 2:].split()
    ticks = sum(int(rest[i]) for i in (11, 12, 13, 14))
    return int(rest[1]), rest[0], ticks


def _cmdline(pid: int) -> str:
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()


def descendants(root: int) -> list[int]:
    """Every live process below ``root``, found before any of their
    parents is touched.  Zombies are walked through (their children are
    still theirs until someone reaps them) but not returned."""
    children: dict[int, list[int]] = {}
    zombies: set[int] = set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            st = _stat(int(entry))
            if st is not None:
                children.setdefault(st[0], []).append(int(entry))
                if st[1] == "Z":
                    zombies.add(int(entry))
    out: list[int] = []
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            stack.append(child)
            if child not in zombies:
                out.append(child)
    return out


def tree_cpu_s(root: int) -> float:
    """User+system CPU seconds of ``root`` and its whole tree so far.

    Each process's figure includes the children it has reaped, so the
    difference of two readings counts processes born and reaped in
    between (fork-per-region segment workers) exactly once.
    """
    ticks = 0
    for pid in [root, *descendants(root)]:
        st = _stat(pid)
        if st is not None:
            ticks += st[2]
    return ticks / _CLK_TCK


def _reap() -> None:
    """Collect every exited child without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def sweep(settle_s: float = 0.0) -> tuple[int, int]:
    """Kill and reap everything below this process.

    Descendants get ``settle_s`` to leave on their own first (a helper
    such as multiprocessing's resource tracker exits a moment *after*
    the parent whose pipe it watches).  Returns ``(found, remaining)``:
    distinct live descendants that had to be killed, and how many were
    still alive ``GRACE_S`` later.  Orphans re-parent to us
    (subreaper), so the loop repeats until the tree is empty.
    """
    me = os.getpid()
    settled = time.monotonic() + settle_s
    while True:
        _reap()
        if not descendants(me) or time.monotonic() >= settled:
            break
        time.sleep(0.01)
    seen: set[int] = set()
    deadline = time.monotonic() + GRACE_S
    while True:
        _reap()
        live = descendants(me)
        if not live or time.monotonic() > deadline:
            return len(seen), len(live)
        for pid in set(live) - seen:
            print(f"ladder: killing leftover pid {pid}: {_cmdline(pid)}",
                  file=sys.stderr)
        seen.update(live)
        for pid in live:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.02)


# -- shared memory --------------------------------------------------------


def remove_shm(names: Iterable[str]) -> int:
    """Unlink those of the named POSIX shared-memory segments that still
    exist; how many there were.  The names are the ones the benchmark
    logged as it created them (``workloads.LoggedPool``), so a segment
    of any other process of this user is never touched."""
    found = 0
    for name in names:
        try:
            (_SHM_DIR / Path(name).name).unlink()
        except FileNotFoundError:
            continue
        found += 1
    return found


if __name__ == "__main__":
    # launcher: python procs.py PARENT_PID MODULE ARGS...
    import runpy

    die_with_parent(int(sys.argv[1]))
    sys.argv = sys.argv[2:]
    runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
