"""Shared fixtures for the reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines import list_machines
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


@pytest.fixture(autouse=True)
def no_ambient_defaults_left_behind():
    """Fail — and clean up after — any test that leaves a process-wide
    default executor or kernel backend installed: the next test would
    silently run under it (a leaked ``processes`` executor forks per
    ``map_ranks`` region for the rest of the session)."""
    yield
    from repro.kernels import get_default_backend, set_default_backend
    from repro.runtime import get_default_executor, set_default_executor

    left = {
        "executor": get_default_executor(),
        "kernel backend": get_default_backend(),
    }
    set_default_executor(None)
    set_default_backend(None)
    leaked = [f"default {what} {spec!r}" for what, spec in left.items()
              if spec is not None]
    if leaked:
        pytest.fail(f"test left {' and '.join(leaked)} installed")
