"""Shared fixtures for the reproduction test suite."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.machines import list_machines
from repro.runtime import EXECUTORS, team
from repro.simmpi import Communicator


@pytest.fixture(params=[m.name for m in list_machines()])
def machine_name(request) -> str:
    """Every platform of Table 1, one at a time."""
    return request.param


@pytest.fixture
def ideal_comm4() -> Communicator:
    """A 4-rank communicator with no cost models (pure numerics)."""
    return Communicator(4)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20050512)


def _leaked_defaults(seams=(EXECUTORS,)) -> list[str]:
    """One line per seam whose scoped default is still installed."""
    return [
        f"default {seam.kind} {seam.default()!r}"
        for seam in seams
        if seam.default() is not None
    ]


@pytest.fixture
def leaked_defaults():
    """The leak guard's check, for the test that shows it has teeth."""
    return _leaked_defaults


@pytest.fixture(autouse=True)
def no_ambient_defaults_left_behind():
    """Fail — and clean up after — any test that leaves a process-wide
    default executor installed (a ``scoped`` block entered and never
    left): the next test would silently run under it (a leaked
    ``processes`` executor keeps a rank team of worker processes alive
    for the rest of the session)."""
    yield
    leaked = _leaked_defaults()
    EXECUTORS._default = None  # so the next test is not blamed too
    if leaked:
        pytest.fail(f"test left {' and '.join(leaked)} installed")


def _leaked_team_workers() -> list[int]:
    """Pids of rank-team workers something still holds on to.  An
    executor the test merely dropped is not a leak: collecting it stops
    its team (communicators sit in a reference cycle, so that takes the
    collector)."""
    if team.live_workers():
        gc.collect()
    return team.live_workers()


@pytest.fixture
def leaked_team_workers():
    """The team guard's check, for the test that shows it has teeth."""
    return _leaked_team_workers


@pytest.fixture(autouse=True)
def no_team_workers_left_behind():
    """Fail — and clean up after — any test that leaves rank-team
    worker processes alive behind a process executor it still
    references (module state, a fixture, a leaked default): they would
    idle there, holding their fork-time copy of the heap, until the
    session ends."""
    yield
    leaked = _leaked_team_workers()
    for t in list(team._TEAMS):
        t.close()  # so the next test is not blamed too
    if leaked:
        pytest.fail(f"test left rank-team workers alive: pids {leaked}")
