"""What every ``repro-*`` command's ``main`` shares."""

from __future__ import annotations

import functools
import os
import select
import sys


def quiet_on_closed_stdout(main):
    """Make ``main`` exit 0, without a traceback, when the reader of its
    stdout goes away (``repro-experiments --list | head -1``): the
    reader took what it wanted.  A broken pipe that is not stdout (a
    socket, a pool's pipe) still raises."""

    @functools.wraps(main)
    def wrapper(*args, **kwargs) -> int:
        try:
            code = main(*args, **kwargs)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            if not _stdout_widowed():
                raise
            # what is still buffered goes nowhere, so the flush at exit
            # does not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0

    return wrapper


def _stdout_widowed() -> bool:
    """True when stdout is a pipe whose reader has gone."""
    try:
        poller = select.poll()
        poller.register(sys.stdout.fileno(), select.POLLOUT)
        return any(ev & select.POLLERR for _, ev in poller.poll(0))
    except (AttributeError, OSError, ValueError):
        return False  # no descriptor to ask (captured, or no poll)
