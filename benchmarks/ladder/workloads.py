"""The four workloads of the ladder benchmark (one pass each).

Every workload is measured from outside, by timing calls into public
functions of ``repro``; an *op* is one such call, tagged with its op
class.  A pass runs ``set-up -> measured window -> end checks ->
teardown`` and reports its set-up stages, the window's CPU, and one
``(class, ms, ok, traced, host slowdown)`` row per op, all raw: scaling
to reference host speed is ``run.py``'s one job.  Loops are closed: one
caller, or for ``predict_warm`` two client threads each waiting for its
reply.

Why these four (the same reasons are in ``BENCHMARK.json``):

* ``solver_serial`` — kernels, apps and simmpi do nearly all the work;
  no executor, cache, socket or HTTP code runs.
* ``solver_ranks`` — the same kernels driven through the rank-executor
  and shared-memory seams, which dominate.
* ``campaign_sweep`` — campaign engine, cache writes, manifest, worker
  marshalling, process pool and the distrib protocol carry the cost.
* ``predict_warm`` — service, single-config campaigns and cache reads;
  no solver code runs.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import math
import os
import random
import re
import socket
import threading
import time
import traceback
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro import __version__, harness
from repro.campaign import (
    CampaignSpec,
    Manifest,
    ResultCache,
    RunConfig,
    run_campaign,
)
from repro.campaign.worker import build_params, execute_config
from repro.distrib import DistribExecutor
from repro.harness import get_application
from repro.kernels import get_backend
from repro.machines.catalog import get_machine
from repro.perfdb.record import RunRecord
from repro.runtime.arena import Arena
from repro.runtime.executors import (
    ProcessExecutor,
    get_executor,
    shutdown_process_pools,
)
from repro.runtime.shm import SharedArenaPool
from repro.simmpi.comm import Communicator

import procs
from spans import Spans

#: Width of every parallel seam under test.  Fixed here, never read from
#: the host, so two hosts run the same program.
WIDTH = 2
#: The simulated platform of every solver run.
MACHINE = "ES"
#: A second core that has been idle runs its first second or so of work
#: at about half speed on this kind of host; parallel workloads keep
#: both cores busy this long before their window opens.
WARM_S = 1.5
#: Kernel-backend method prefixes (one per application).
APPS = ("lbmhd", "gtc", "fvcam", "paratec")
#: What :func:`calibrate` takes when this host is at its fastest; the
#: host slowdown beside an op is its calibration over this.  Changing
#: the constant rescales every timing metric, so it never changes.
CALIB_REF_MS = 2.0
#: Share of one core the idle process tree may burn while calibrations
#: are taken (:meth:`Workload.check_idle`): 7 clock ticks in the half
#: second watched; reading /proc and late cache-stats flushes cost 1-3.
IDLE_CPU_MAX = 0.15
IDLE_CHECK_S = 0.5

_CALIB_MATRIX = np.full((96, 96), 1.0 / 96)


def calibrate() -> float:
    """Milliseconds a fixed numpy + interpreter kernel takes right now.

    The host flips, second by second, between regimes that differ by
    1.4-1.8x for cache-resident compute, and drifts by as much over an
    hour (README: raw medians of the same code spread by up to 45 % from
    run to run and moved 24 % between two sets an hour apart).  The
    kernel is a chain of small matmuls and a Python loop, the two kinds
    of work every op here is made of, and touches nothing of ``repro``.
    It is only ever taken between ops, when no op is in flight; what of
    ``repro`` is alive then (idle pool workers, the idle server, distrib
    workers polling) must stay idle for the kernel to read the host and
    not the repo, which :meth:`Workload.check_idle` enforces.
    """
    t0 = time.perf_counter()
    a = _CALIB_MATRIX
    for _ in range(40):
        a = a @ _CALIB_MATRIX
    total = 0
    for i in range(15_000):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


class LoggedPool(SharedArenaPool):
    """A ``SharedArenaPool`` that writes each slab's name into the pass
    work directory the moment it exists, so the orchestrator can tell
    this run's segments from any other process's (``procs.remove_shm``)
    even when the pass is killed."""

    def __init__(self, workdir: Path) -> None:
        super().__init__(name="repro-ladder")
        self._log = workdir / "shm.log"
        self._logged = 0

    def try_allocate(self, shape, dtype=np.float64, label=None):
        out = super().try_allocate(shape, dtype, label=label)
        if self.num_segments > self._logged:
            names = self.handles().segments
            with self._log.open("a") as fh:
                fh.writelines(f"{name}\n" for name in names[self._logged:])
            self._logged = len(names)
        return out


def build(app: str, params: dict, nprocs: int, *, executor="serial",
          arena=None, kernels=None, ledger: bool = True):
    """A solver of ``app`` on the simulated machine, set up and ready to
    step: ``(adapter, comm, state)``."""
    adapter = get_application(app)
    comm = Communicator(
        nprocs, machine=get_machine(MACHINE), executor=get_executor(executor)
    )
    if ledger:
        comm.attach_phase_ledger()
    state = adapter.setup(
        comm, build_params(app, params), arena=arena, kernels=kernels
    )
    return adapter, comm, state


def advance(adapter, state, steps: int):
    """``steps`` adapter steps; the new state."""
    for _ in range(steps):
        state = adapter.step(state)
    return state


@dataclass
class Ctx:
    """What one pass is told: seed, measured seconds, scratch, tracing."""

    seed: int
    seconds: float
    workdir: Path
    spans: Spans = field(default_factory=lambda: Spans(enabled=False))


def span_backend(spans: Spans):
    """The numpy kernel backend with a span around every app kernel.

    Passed through the public ``kernels=`` seam, so a solver step shows
    where its kernel time goes without touching ``src/``.
    """
    base = type(get_backend("numpy"))

    def wrap(attr: str, method):
        def timed(self, *args, **kwargs):
            with spans.span(f"kernels.{attr}"):
                return method(self, *args, **kwargs)

        return timed

    body = {
        attr: wrap(attr, getattr(base, attr))
        for attr in dir(base)
        if attr.split("_")[0] in APPS
    }
    return type("SpanBackend", (base,), body)()


class Workload:
    """Book-keeping shared by the four workloads."""

    name = ""
    #: Every Nth traced op is followed by its shadow decomposition.
    SHADOW_EVERY = 10
    #: Closed-loop callers issuing ops at once.
    CALLERS = 1

    def __init__(self, ctx: Ctx) -> None:
        self.ctx = ctx
        self.rng = random.Random(f"{self.name}:{ctx.seed}")
        #: (class, raw ms, ok, traced, host slowdown beside the op)
        self.ops: list[tuple[str, float, bool, bool, float]] = []
        #: set-up stages: (raw seconds, host slowdown across the stage)
        self.stages: list[tuple[float, float]] = []
        self.cpu_s = 0.0
        self.calib_ms: list[float] = []
        self.idle_cpu_frac = 0.0
        #: class -> reason; every op of a bad class counts as failed
        self.bad: dict[str, str] = {}
        #: pass-level check failures and op tracebacks (first few)
        self.problems: list[str] = []

    # -- to implement -----------------------------------------------------

    def run(self) -> None:
        raise NotImplementedError

    def record_axes(self, cls: str) -> dict[str, Any]:
        """RunRecord identity fields of one op class."""
        raise NotImplementedError

    # -- measuring --------------------------------------------------------

    def problem(self, message: str) -> None:
        if len(self.problems) < 8:
            self.problems.append(message)

    def slowdown(self) -> float:
        """How much slower than its best the host is right now."""
        ms = calibrate()
        self.calib_ms.append(ms)
        return ms / CALIB_REF_MS

    @contextmanager
    def setting_up(self) -> Iterator[Callable[[], None]]:
        """Times set-up in stages: the yielded ``lap`` closes one, with
        the host slowdown measured at its two ends."""
        slow = self.slowdown()
        t0 = time.perf_counter()

        def lap() -> None:
            nonlocal slow, t0
            wall = time.perf_counter() - t0
            after = self.slowdown()
            self.stages.append((wall, (slow + after) / 2))
            slow, t0 = after, time.perf_counter()

        try:
            yield lap
        finally:
            lap()

    def check_idle(self) -> None:
        """With everything up and no op in flight — the state every
        calibration is taken in — the process tree must be idle.  A
        change to the repo that keeps a thread or a child busy then
        would slow the calibration kernel along with the ops and so hide
        in the scaled times; here it fails the pass instead."""
        c0 = procs.tree_cpu_s(os.getpid())
        time.sleep(IDLE_CHECK_S)
        frac = (procs.tree_cpu_s(os.getpid()) - c0) / IDLE_CHECK_S
        self.idle_cpu_frac = max(self.idle_cpu_frac, frac)
        if frac > IDLE_CPU_MAX:
            self.problem(
                f"idle process tree burns {frac:.0%} of a core: the "
                f"calibration kernel no longer measures the host alone"
            )

    @contextmanager
    def window(self) -> Iterator[None]:
        """The measured window: CPU of this process tree, less what the
        calibrations inside it burnt; then the idle check, while
        everything the window used is still alive."""
        calibrations = len(self.calib_ms)
        c0 = procs.tree_cpu_s(os.getpid())
        try:
            yield
        finally:
            self.cpu_s += procs.tree_cpu_s(os.getpid()) - c0
            self.cpu_s -= sum(self.calib_ms[calibrations:]) / 1e3
        self.check_idle()

    def op(
        self, cls: str, fn: Callable[[], bool], traced: bool
    ) -> tuple[str, float, bool, bool]:
        """Time one op; ``fn`` returns whether its output checked out."""
        scope = self.ctx.spans.span(f"op:{cls}") if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                ok = bool(fn())
        except Exception:
            ok = False
            self.problem(f"{cls}: op raised\n{traceback.format_exc()}")
        return cls, (time.perf_counter() - t0) * 1e3, ok, traced

    def cycles(
        self,
        classes: dict[str, Callable[[], bool]],
        seconds: float,
        *,
        think_s: float = 0.0,
        shadow: Callable[[str], None] | None = None,
    ) -> None:
        """Round-robin cycles over ``classes`` for ``seconds``; the seed
        reshuffles the class order each cycle and draws the think times.
        A calibration sits between every two ops.  In a traced pass
        every other cycle is traced, so the two halves give the tracing
        overhead."""
        names = list(classes)
        tracing = self.ctx.spans.enabled
        end = time.perf_counter() + seconds
        cycle = traced_ops = 0
        before = self.slowdown()
        while time.perf_counter() < end:
            self.rng.shuffle(names)
            traced = tracing and cycle % 2 == 0
            for cls in names:
                if think_s:
                    pause = self.rng.uniform(0.0, think_s)
                    time.sleep(pause)
                    end += pause
                    before = self.slowdown()
                row = self.op(cls, classes[cls], traced)
                after = self.slowdown()
                self.ops.append((*row, (before + after) / 2))
                before = after
                traced_ops += traced
                if traced and shadow and traced_ops % self.SHADOW_EVERY == 0:
                    shadow(cls)
                    before = self.slowdown()
            cycle += 1

    def result(self) -> dict[str, Any]:
        host = socket.gethostname()
        return {
            "callers": self.CALLERS,
            "stages": self.stages,
            "cpu_s": self.cpu_s,
            "calib_ms": self.calib_ms,
            "idle_cpu_frac": self.idle_cpu_frac,
            "ops": [
                [cls, ms, ok and cls not in self.bad, traced, slow]
                for cls, ms, ok, traced, slow in self.ops
            ],
            "bad_classes": self.bad,
            "problems": self.problems,
            "records": {
                cls: RunRecord(
                    bench=self.name,
                    variant=cls,
                    host=host,
                    cpu_count=os.cpu_count() or 1,
                    version=__version__,
                    **self.record_axes(cls),
                ).to_dict()
                for cls in sorted({row[0] for row in self.ops})
            },
        }


# -- solver workloads -------------------------------------------------------


@dataclass(frozen=True)
class SolverClass:
    """One solver op class: ``steps`` adapter steps of one configuration."""

    app: str
    params: dict[str, Any]
    nprocs: int
    executor: str = "serial"
    steps: int = 1
    arena: bool = False


def _fingerprint(adapter, comm: Communicator, state) -> tuple:
    """What must be bitwise-equal across step paths: state, virtual
    clock, and the phase ledger's totals."""
    vector = np.ascontiguousarray(adapter.state_vector(state))
    totals = comm.phase_ledger.totals().as_record()
    return (
        hashlib.sha256(vector.tobytes()).hexdigest(),
        float(comm.elapsed),
        tuple(sorted(totals.items())),
    )


class SolverWorkload(Workload):
    """``adapter.step`` on solvers built once in set-up."""

    CLASSES: dict[str, SolverClass] = {}
    #: Ops of each class stepped before the state is compared with
    #: ``harness.run`` (they double as the first warm-up cycles).
    VERIFY_OPS = 2
    warm_s = 0.0

    def __init__(self, ctx: Ctx) -> None:
        super().__init__(ctx)
        self.pool: LoggedPool | None = None
        self.live: dict[str, tuple] = {}
        self.twins: dict[str, tuple] = {}
        self.baseline: dict[str, dict[str, float]] = {}
        self.references: dict[str, tuple] = {}

    def record_axes(self, cls: str) -> dict[str, Any]:
        c = self.CLASSES[cls]
        return {
            "app": c.app,
            "machine": MACHINE,
            "nprocs": c.nprocs,
            "executor": c.executor,
            "steps": c.steps,
        }

    def build(self, cls: str, *, executor: str | None = None, kernels=None):
        c = self.CLASSES[cls]
        runner = get_executor(executor or c.executor)
        arena = None
        if c.arena:
            arena = Arena() if runner.in_process else self.pool.arena(cls)
        return build(
            c.app, c.params, c.nprocs,
            executor=runner, arena=arena, kernels=kernels,
        )

    def step(self, cls: str, live: dict[str, tuple] | None = None) -> bool:
        live = self.live if live is None else live
        adapter, comm, state = live[cls]
        live[cls] = (
            adapter, comm, advance(adapter, state, self.CLASSES[cls].steps)
        )
        return True

    def reference(self, cls: str, steps: int) -> tuple:
        """The same configuration through ``harness.run``, serial and
        arena-free — a different path to the same bits."""
        c = self.CLASSES[cls]
        # classes that differ only in executor and arena share one
        key = json.dumps([c.app, c.params, c.nprocs, steps])
        if key not in self.references:
            ref = harness.run(
                c.app,
                build_params(c.app, c.params),
                steps=steps,
                nprocs=c.nprocs,
                machine=MACHINE,
                executor="serial",
            )
            self.references[key] = _fingerprint(ref.app, ref.comm, ref.state)
        return self.references[key]

    def shadow(self, cls: str) -> None:
        """The op again on a serial twin whose kernels record spans."""
        if cls not in self.twins:
            self.twins[cls] = self.build(
                cls, executor="serial", kernels=span_backend(self.ctx.spans)
            )
        with self.ctx.spans.span(f"shadow:{cls}"):
            self.step(cls, self.twins)

    def run(self) -> None:
        with ExitStack() as stack:
            with self.setting_up() as lap:
                if any(
                    not get_executor(c.executor).in_process
                    for c in self.CLASSES.values()
                ):
                    self.pool = stack.enter_context(
                        LoggedPool(self.ctx.workdir)
                    )
                for cls in self.CLASSES:
                    self.live[cls] = self.build(cls)
                    adapter, _comm, state = self.live[cls]
                    self.baseline[cls] = adapter.diagnostics(state)
                    lap()
                for _ in range(self.VERIFY_OPS):
                    for cls in self.CLASSES:
                        self.step(cls)
                    lap()
                for cls, c in self.CLASSES.items():
                    got = _fingerprint(*self.live[cls])
                    if got != self.reference(cls, self.VERIFY_OPS * c.steps):
                        self.bad[cls] = (
                            "state, clock or ledger differ from "
                            "harness.run(executor='serial')"
                        )
                    lap()
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < self.warm_s:
                    for cls in self.CLASSES:
                        self.step(cls)
                    lap()
            with self.window():
                self.cycles(
                    {cls: partial(self.step, cls) for cls in self.CLASSES},
                    self.ctx.seconds,
                    shadow=self.shadow,
                )
            self.end_checks()

    def end_checks(self) -> None:
        for cls, (adapter, _comm, state) in self.live.items():
            now = adapter.diagnostics(state)
            if not all(math.isfinite(v) for v in now.values()):
                self.bad[cls] = f"non-finite diagnostics {now}"
            conserved = {"lbmhd": "mass", "gtc": "particles"}.get(
                self.CLASSES[cls].app
            )
            if conserved and not math.isclose(
                now[conserved], self.baseline[cls][conserved], rel_tol=1e-9
            ):
                self.bad[cls] = (
                    f"{conserved} not conserved: "
                    f"{self.baseline[cls][conserved]!r} -> {now[conserved]!r}"
                )


class SolverSerial(SolverWorkload):
    name = "solver_serial"
    CLASSES = {
        "lbmhd": SolverClass("lbmhd", {"shape": [32, 32, 32]}, 8),
        "gtc": SolverClass(
            "gtc", {"particles_per_cell": 16, "ntoroidal": 8}, 8
        ),
        # four steps = one remap/physics cycle
        "fvcam": SolverClass(
            "fvcam",
            {"grid": {"im": 48, "jm": 48, "km": 8}, "py": 4, "pz": 2},
            8,
            steps=4,
        ),
        "paratec": SolverClass(
            "paratec", {"grid_shape": [16, 16, 16], "nbands": 8}, 4
        ),
    }


class SolverRanks(SolverWorkload):
    name = "solver_ranks"
    CLASSES = {
        f"{app}.{tag}": SolverClass(app, params, 32, executor, arena=True)
        for app, params in (
            ("lbmhd", {"shape": [32, 32, 32]}),
            ("gtc", {"particles_per_cell": 16, "ntoroidal": 8}),
        )
        for tag, executor in (
            (f"threads{WIDTH}", f"threads:{WIDTH}"),
            (f"processes{WIDTH}", f"processes:{WIDTH}"),
        )
    }
    warm_s = WARM_S


# -- campaign_sweep ---------------------------------------------------------


class CampaignSweep(Workload):
    """Cold ``run_campaign`` sweeps of a small spec, fresh seed per op so
    every cell misses, against a disk cache and manifest.  Two class
    blocks, each with only its own processes alive."""

    name = "campaign_sweep"
    SHADOW_EVERY = 4
    CELLS = 4
    #: Seeded pause before each distrib sweep, so the workers' 0.25 s
    #: idle poll cannot phase-lock with the loop (it does otherwise, and
    #: flips between a 270 ms and a 400 ms regime from run to run).
    THINK_S = 0.2
    #: Warm-up sweeps per scheduler (besides the WARM_S floor).
    WARM_SWEEPS = 4

    def __init__(self, ctx: Ctx) -> None:
        super().__init__(ctx)
        self.cache = ResultCache(ctx.workdir / "cache")
        self.manifest = Manifest(ctx.workdir / "sweep.manifest.jsonl")
        self.sweeps = 0

    def record_axes(self, cls: str) -> dict[str, Any]:
        return {
            "app": "campaign",
            "machine": MACHINE,
            "executor": cls,
            "steps": self.CELLS,
        }

    def spec(self) -> CampaignSpec:
        self.sweeps += 1
        return CampaignSpec(
            name="ladder",
            apps=("lbmhd", "gtc"),
            machines=(MACHINE,),
            nprocs=(4, 8),
            seeds=((self.ctx.seed % 4096) * 100_000 + self.sweeps,),
            steps=2,
            params={
                "lbmhd": {"shape": [16, 16, 16]},
                "gtc": {"particles_per_cell": 8},
            },
        )

    def sweep(self, scheduler, verify: bool = False) -> bool:
        report = run_campaign(
            self.spec(),
            cache=self.cache,
            manifest=self.manifest,
            scheduler=scheduler,
        )
        ok = report.ok and report.misses == self.CELLS
        if ok and verify:
            for row in report.rows:
                ref = execute_config(row.config)
                ok = ok and all(
                    row.result[k] == ref[k]
                    for k in ("diagnostics", "virtual_elapsed_s")
                )
        return ok

    def warm(self, cls: str, scheduler, lap=lambda: None) -> None:
        """First sweep checked cell-for-cell against in-process
        ``execute_config``; then sweep until the pool is warm."""
        t0 = time.perf_counter()
        if not self.sweep(scheduler, verify=True):
            self.bad[cls] = "first sweep differs from execute_config"
        lap()
        n = 1
        while n < self.WARM_SWEEPS or time.perf_counter() - t0 < WARM_S:
            self.sweep(scheduler)
            n += 1
            if n % 4 == 0:
                lap()

    def shadow(self, cls: str) -> None:
        """One sweep's cells through the lower rungs, one call each."""
        span = self.ctx.spans.span
        spec = self.spec()
        with span(f"shadow:{cls}"):
            with span("campaign.expand"):
                configs = spec.expand()
            for cfg in configs:
                with span("campaign.key"):
                    key = cfg.key()
                with span("campaign.cache_get"):
                    self.cache.get(cfg)
                with span("campaign.execute_config"):
                    result = execute_config(cfg)
                with span("campaign.cache_put"):
                    self.cache.put(cfg, result)
                with span("campaign.manifest_append"):
                    self.manifest.append(
                        {"event": "run-done", "key": key, "shadow": True}
                    )

    def run(self) -> None:
        half = self.ctx.seconds / 2
        cls = f"processes{WIDTH}"
        try:
            with self.setting_up() as lap:
                pool = ProcessExecutor(WIDTH)
                pool.map(
                    procs.pool_worker_die_with_parent, [os.getpid()] * WIDTH
                )
                self.warm(cls, pool, lap)
            with self.window():
                self.cycles(
                    {cls: partial(self.sweep, pool)}, half, shadow=self.shadow
                )
        finally:
            shutdown_process_pools()

        cls = f"distrib{WIDTH}"
        with ExitStack() as stack:
            with self.setting_up() as lap:
                remote = self.start_workers(stack)
                lap()
                self.warm(cls, remote, lap)
            with self.window():
                self.cycles(
                    {cls: partial(self.sweep, remote)},
                    half,
                    think_s=self.THINK_S,
                    shadow=self.shadow,
                )
            stats = remote.stats
            if stats.local_runs or stats.retried:
                self.bad[cls] = f"not fully remote: {stats.as_dict()}"

    def start_workers(self, stack: ExitStack) -> DistribExecutor:
        """A coordinator and ``WIDTH`` real worker processes, connected;
        ``stack`` owns them all."""
        remote = DistribExecutor(
            "127.0.0.1", 0, grace_s=3600.0, local_fallback=False
        )
        stack.callback(remote.close)
        remote.coordinator.ensure_started()
        workers = [
            stack.enter_context(
                procs.managed(
                    procs.spawn_module(
                        "repro.distrib.cli",
                        ["worker", remote.coordinator.endpoint, "--quiet"],
                        self.ctx.workdir / f"worker{i}.log",
                    ),
                    # closing the coordinator is the polite stop: workers
                    # see EOF and leave on their own
                    polite=remote.close,
                )
            )
            for i in range(WIDTH)
        ]
        deadline = time.monotonic() + 30.0
        while len(remote.coordinator.workers()) < WIDTH:
            if time.monotonic() > deadline or any(
                w.poll() is not None for w in workers
            ):
                raise RuntimeError("distrib workers did not connect")
            time.sleep(0.01)
        return remote


# -- predict_warm -----------------------------------------------------------


class PredictWarm(Workload):
    """``POST /v1/predict`` answered from cache by a real service process;
    two closed-loop client threads pick among configs made warm in
    set-up.  Op classes are the apps of the configs."""

    name = "predict_warm"
    SHADOW_EVERY = 50
    CONFIGS = 64
    CALLERS = 2
    TIMEOUT_S = 30.0
    SLICE_S = 0.25

    def __init__(self, ctx: Ctx) -> None:
        super().__init__(ctx)
        self.port = 0
        self.configs: list[dict[str, Any]] = []
        self.expected: list[dict[str, float]] = []
        self.client_rngs = [
            random.Random(f"{self.name}:{ctx.seed}:{i}")
            for i in range(self.CALLERS)
        ]
        self.client_ops = [0] * self.CALLERS
        #: what the shadow decompositions read and write through
        self.shadow_cache = ResultCache(ctx.workdir / "cache")
        self.shadow_journal = Manifest(ctx.workdir / "shadow.manifest.jsonl")

    def record_axes(self, cls: str) -> dict[str, Any]:
        return {"app": cls, "machine": MACHINE, "executor": "service"}

    def http(self, method: str, path: str, body: Any = None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=self.TIMEOUT_S
        )
        try:
            conn.request(
                method, path,
                body=None if body is None else json.dumps(body),
            )
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        finally:
            conn.close()

    def make_configs(self) -> list[dict[str, Any]]:
        cells = [
            (app, params, nprocs)
            for app, params in (
                ("lbmhd", {"shape": [8, 8, 8]}),
                ("gtc", {"particles_per_cell": 4}),
            )
            for nprocs in (4, 8)
        ]
        base = (self.ctx.seed % 4096) * 100_000
        return [
            {
                "app": app, "params": params, "nprocs": nprocs,
                "machine": MACHINE, "steps": 1,
                "seed": base + i // len(cells),
            }
            for i, (app, params, nprocs) in zip(
                range(self.CONFIGS), itertools.cycle(cells)
            )
        ]

    def start_server(self, stack: ExitStack, cache_dir: Path) -> None:
        """A real service process on a free port, owned by ``stack``;
        returns once it listens (``self.port``)."""
        log = self.ctx.workdir / "service.log"
        log.touch()
        server = stack.enter_context(
            procs.managed(
                procs.spawn_module(
                    "repro.service.cli",
                    ["serve", "--port", "0", "--scheduler", "serial",
                     "--workers", "2", "--cache-dir", str(cache_dir)],
                    log,
                ),
                polite=lambda: self.http("POST", "/v1/shutdown"),
            )
        )
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and server.poll() is None:
            match = re.search(
                r"listening on http://[\d.]+:(\d+)", log.read_text()
            )
            if match:
                self.port = int(match.group(1))
                return
            time.sleep(0.01)
        raise RuntimeError(f"service did not start:\n{log.read_text()}")

    def predict(self, index: int) -> bool:
        status, body = self.http("POST", "/v1/predict", self.configs[index])
        return (
            status == 200
            and body["cached"] is True
            and body["result"]["diagnostics"] == self.expected[index]
        )

    def shadow(self, index: int) -> None:
        """What a warm request costs below HTTP, one call each."""
        span = self.ctx.spans.span
        with span(f"shadow:{self.configs[index]['app']}"):
            with span("service.connect"):
                socket.create_connection(("127.0.0.1", self.port)).close()
            with span("campaign.from_dict"):
                config = RunConfig.from_dict(self.configs[index])
            with span("campaign.key"):
                key = config.key()
            with span("campaign.cache_get"):
                self.shadow_cache.get(config)
            for event in ("campaign-start", "run-done", "campaign-end"):
                with span("campaign.manifest_append"):
                    self.shadow_journal.append({"event": event, "key": key})

    def client(
        self, number: int, seconds: float, tracing: bool, sink: list
    ) -> None:
        """One closed-loop client for one slice of the window."""
        rng = self.client_rngs[number]
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            index = rng.randrange(self.CONFIGS)
            n = self.client_ops[number]
            self.client_ops[number] = n + 1
            traced = tracing and n % 2 == 0
            sink.append(self.op(
                self.configs[index]["app"], partial(self.predict, index),
                traced,
            ))
            if traced and number == 0 and n % (2 * self.SHADOW_EVERY) == 0:
                self.shadow(index)

    def clients(self, seconds: float, timed: bool) -> None:
        """Both clients for ``seconds``, in slices of ``SLICE_S`` with a
        calibration between slices (the clients pause for it: an op is
        too short to have a calibration of its own).  ``timed=False`` is
        the warm-up: nothing is booked or traced."""
        tracing = timed and self.ctx.spans.enabled
        end = time.perf_counter() + seconds
        before = self.slowdown()
        while time.perf_counter() < end:
            sinks: list[list] = [[] for _ in range(self.CALLERS)]
            threads = [
                threading.Thread(
                    target=self.client,
                    args=(i, self.SLICE_S, tracing, sinks[i]),
                )
                for i in range(self.CALLERS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            after = self.slowdown()
            if timed:
                slow = (before + after) / 2
                self.ops.extend(
                    (*row, slow) for sink in sinks for row in sink
                )
            before = after

    def run(self) -> None:
        with ExitStack() as stack:
            with self.setting_up() as lap:
                self.start_server(stack, self.ctx.workdir / "cache")
                lap()
                self.configs = self.make_configs()
                for i, config in enumerate(self.configs):
                    status, body = self.http("POST", "/v1/predict", config)
                    if status != 200 or body["cached"]:
                        raise RuntimeError(f"cold predict failed: {body}")
                    self.expected.append(body["result"]["diagnostics"])
                    if i % 16 == 15:
                        lap()
                self.clients(WARM_S, timed=False)
            before = self.http("GET", "/v1/stats")[1]["cache"]
            with self.window():
                self.clients(self.ctx.seconds, timed=True)
            after = self.http("GET", "/v1/stats")[1]["cache"]
            # no solver step may run inside the window: a miss or a new
            # entry would mean a request was computed, not read
            for counter in ("misses", "entries"):
                if after[counter] != before[counter]:
                    self.problem(
                        f"cache {counter} moved during the window: "
                        f"{before[counter]} -> {after[counter]}"
                    )


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (SolverSerial, SolverRanks, CampaignSweep, PredictWarm)
}
