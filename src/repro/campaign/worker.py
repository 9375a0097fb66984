"""Worker-side execution of one campaign config.

These functions are module-level on purpose: the
:class:`~repro.runtime.executors.ProcessExecutor` pickles the callable
and its :class:`RunConfig` into a worker process, runs the harness
there, and pickles the return value back.  What comes back is a plain
dict of JSON-plain values — solver objects, communicators, and ledgers
stay in the worker.  Workers only compute: the campaign engine that
receives the result is the one that publishes it to the cache.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import time
from typing import Any

from .. import __version__, harness
from ..harness.apps import get_application
from .spec import RunConfig


def _coerce(current: Any, value: Any) -> Any:
    """Shape a JSON-plain override to the default field's type.

    JSON has no tuples and no nested dataclasses, so ``[8, 8, 8]``
    overriding a tuple default becomes a tuple, and a dict overriding a
    dataclass default (FVCAM's ``grid``) becomes ``replace(default,
    **coerced_fields)``.
    """
    if dataclasses.is_dataclass(current) and isinstance(value, dict):
        return dataclasses.replace(
            current,
            **{
                k: _coerce(getattr(current, k), v)
                for k, v in value.items()
            },
        )
    if isinstance(current, tuple) and isinstance(value, (list, tuple)):
        return tuple(value)
    return value


def build_params(app: str, overrides: dict[str, Any]) -> Any:
    """The app's ``default_params()`` with coerced overrides applied."""
    defaults = get_application(app).default_params()
    if not overrides:
        return defaults
    unknown = [k for k in overrides if not hasattr(defaults, k)]
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for {app!r}: {', '.join(sorted(unknown))}"
        )
    return dataclasses.replace(
        defaults,
        **{
            k: _coerce(getattr(defaults, k), v)
            for k, v in overrides.items()
        },
    )


def execute_config(config: RunConfig) -> dict[str, Any]:
    """Run one config through the harness; return a plain result dict.

    ``repeats`` re-runs the whole thing (fresh solver each time) and
    reports every wall-clock sample plus the best; diagnostics and
    instrumentation come from the last repeat.  With a seed set, the
    global RNG is re-seeded before *each* repeat so they are identical
    workloads.
    """
    params = build_params(config.app, config.params_dict())
    samples: list[float] = []
    result = None
    for _ in range(config.repeats):
        if config.seed is not None:
            import numpy as np

            np.random.seed(config.seed)
        t0 = time.perf_counter()
        result = harness.run(
            config.app,
            params,
            steps=config.steps,
            nprocs=config.nprocs,
            machine=config.machine,
            executor=config.executor,
            trace=config.trace,
        )
        samples.append(time.perf_counter() - t0)

    wall_s = min(samples)
    flops_per_step = float(result.flops_per_step)
    total_flops = flops_per_step * config.steps
    # harness.run runs serial when the config's executor cannot
    # schedule rank segments here: report the executor that ran
    ran = result.comm.executor.name
    requested = config.executor.partition(":")[0].strip().lower()
    out: dict[str, Any] = {
        "label": config.label,
        "executor": config.executor if ran == requested else ran,
        "wall_s": wall_s,
        "wall_samples_s": samples,
        "machine": result.machine_name,
        "nprocs": result.comm.nprocs,
        "steps": config.steps,
        "flops_per_step": flops_per_step,
        # Gflop/s-equivalent: the modeled flop count of the simulated
        # application divided by the *real* seconds this host took —
        # the campaign's cross-config throughput yardstick.
        "gflops": (total_flops / wall_s / 1e9) if wall_s > 0 else 0.0,
        "virtual_elapsed_s": float(result.comm.elapsed),
        "diagnostics": {
            k: float(v) for k, v in result.diagnostics.items()
        },
        # provenance for repro.perfdb: where and by which package
        # version this number was measured (host-aware regression
        # thresholds key on these)
        "host": socket.gethostname(),
        "cpu_count": os.cpu_count() or 1,
        "version": __version__,
    }
    if result.ledger is not None:
        out["phases"] = result.ledger.as_records(steps=max(config.steps, 1))
    if config.trace and result.comm.trace is not None:
        out["trace_volume"] = result.comm.trace.matrix().tolist()
    return out

