"""Per-layer probes: one number per layer boundary, measured from outside.

``measure`` returns every per-layer metric of ``BENCHMARK.json`` except
the two the orchestrator owns (``runtime.import_s``,
``trace.overhead_frac``).  Each probe times calls into public functions
of one layer (module) of ``repro``; counts marked *exact* in the README
repeat exactly from run to run.  Sample counts are small on purpose:
the whole suite has to fit beside a traced pass in one driver run, and
these numbers carry no bound — they explain an end-to-end change, they
do not gate one.

Which end-to-end metric each layer should move, on which workload, is
written down in ``README.md`` before it was measured.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import socket
import statistics
import threading
import time
from contextlib import ExitStack
from functools import partial
from typing import Any, Callable

import numpy as np

from repro import harness
from repro.campaign import Manifest, ResultCache, RunConfig, run_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import build_params, execute_config
from repro.distrib import recv_msg, send_msg
from repro.experiments import table3, table4, table5, table6, validate
from repro.experiments.common import mean_abs_deviation
from repro.kernels import get_backend
from repro.machines.catalog import get_machine
from repro.perfdb import PerfDB
from repro.perfdb.ingest import ingest_path
from repro.perfdb.record import RunRecord
from repro.perfdb.trend import detect_regressions
from repro.resilience.checkpoint import MemoryCheckpointStore
from repro.resilience.inject import FaultPlan
from repro.runtime.arena import Arena
from repro.runtime.executors import (
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    shutdown_process_pools,
)
from repro.simmpi.comm import Communicator, Message

import procs
from workloads import (
    MACHINE,
    WIDTH,
    CampaignSweep,
    Ctx,
    LoggedPool,
    PredictWarm,
    SolverSerial,
    advance,
    build,
    calibrate,
    span_backend,
)

#: The one fixed config every ladder rung runs (fresh seed per sample).
LADDER = {"app": "lbmhd", "nprocs": 4, "steps": 8, "machine": MACHINE,
          "params": {"shape": [16, 16, 16]}}
#: Interleaved samples per ladder rung.
LADDER_SAMPLES = 9
#: Steps from a fresh solver over which exact per-step counts are taken
#: (FVCAM's remap/physics cycle is four steps long).
COUNT_STEPS = 4
#: Steps of the span-backend twin behind the per-kernel times.
SPAN_STEPS = 2
#: Kernel spans behind each ``kernels.*_us`` metric.
KERNELS = {
    "lbmhd_collide": "lbmhd_collide",
    "lbmhd_stream": "lbmhd_stream_from_padded",
    "gtc_deposit": "gtc_deposit_scalar",
    "gtc_gather": "gtc_gather_field",
    "gtc_push": "gtc_push_particles",
    "fvcam_transport": "fvcam_transport_2d",
    "fvcam_suffix_sum": "fvcam_suffix_sum",
    "paratec_fft2_planes": "paratec_fft2_planes",
    "paratec_fft_z": "paratec_fft_z",
}


def timed(fn: Callable[[], Any], n: int, warm: int = 1) -> list[float]:
    """Seconds of ``n`` calls after ``warm`` untimed ones."""
    for _ in range(warm):
        fn()
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def med(values) -> float:
    return statistics.median(values)


class CountingExecutor(SerialExecutor):
    """Serial executor counting the regions handed through the seam."""

    def __init__(self) -> None:
        self.regions = 0

    def map(self, fn, items):
        self.regions += 1
        return super().map(fn, items)


# -- kernels, apps, simmpi ------------------------------------------------------


def probe_solvers(ctx: Ctx, m: dict[str, float]) -> None:
    """The ``solver_serial`` configs once more, three ways: plain (step
    and set-up time), counting (exact per-step counts from a fresh
    solver), and with the span backend (time per kernel call)."""
    spans = ctx.spans
    serial_ms: dict[str, float] = {}
    for app, c in SolverSerial.CLASSES.items():
        setup_s = timed(lambda: build(app, c.params, c.nprocs), 2, warm=0)
        m[f"apps.{app}.setup_ms"] = min(setup_s) * 1e3

        counter = CountingExecutor()
        adapter, comm, state = build(app, c.params, c.nprocs, executor=counter)
        state = advance(adapter, state, COUNT_STEPS)
        totals = comm.phase_ledger.totals().as_record()
        m[f"apps.{app}.flops_per_step"] = float(adapter.flops_per_step(state))
        m[f"apps.{app}.virtual_us_per_step"] = (
            comm.elapsed / COUNT_STEPS * 1e6
        )
        m[f"simmpi.{app}.msgs_per_step"] = totals["messages"] / COUNT_STEPS
        m[f"simmpi.{app}.bytes_per_step"] = totals["nbytes"] / COUNT_STEPS
        m[f"simmpi.{app}.regions_per_step"] = counter.regions / COUNT_STEPS

        step_s = timed(lambda: adapter.step(state), 5, warm=0)
        serial_ms[app] = m[f"apps.{app}.step_ms_p50"] = med(step_s) * 1e3

        first = len(spans.rows)
        adapter, _comm, state = build(
            app, c.params, c.nprocs, kernels=span_backend(spans)
        )
        advance(adapter, state, SPAN_STEPS)
        by_kernel: dict[str, list[float]] = {}
        for _sid, _parent, _op, name, t0, t1 in spans.rows[first:]:
            by_kernel.setdefault(name, []).append(t1 - t0)
        for metric, method in KERNELS.items():
            if method.split("_")[0] == app:
                m[f"kernels.{metric}_us"] = (
                    med(by_kernel[f"kernels.{method}"]) * 1e6
                )

        # the same step through the two parallel rank executors; arena
        # on, so LBMHD and GTC take the path solver_ranks measures
        for tag, spec in ((f"threads{WIDTH}", f"threads:{WIDTH}"),
                          (f"processes{WIDTH}", f"processes:{WIDTH}")):
            if tag.startswith("processes") and app == "paratec":
                # hundreds of fork-per-region regions a step: seconds
                # per sample.  regions_per_step x region_us.processes2
                # predicts it; README says so.
                continue
            with ExitStack() as stack:
                arena = Arena()
                if tag.startswith("processes"):
                    pool = stack.enter_context(LoggedPool(ctx.workdir))
                    arena = pool.arena(app)
                adapter, _comm, state = build(
                    app, c.params, c.nprocs, executor=spec, arena=arena
                )
                step_s = timed(lambda: adapter.step(state), 3, warm=1)
            m[f"runtime.{app}.{tag}_x"] = med(step_s) * 1e3 / serial_ms[app]

    c = SolverSerial.CLASSES["lbmhd"]
    adapter, _comm, state = build("lbmhd", c.params, c.nprocs, arena=Arena())
    fast_s = timed(lambda: adapter.step(state), 5, warm=2)
    m["apps.lbmhd.fast_over_plain_x"] = serial_ms["lbmhd"] / (med(fast_s) * 1e3)

    # one hop to a kernel: every call through a ``repro.kernels.<app>``
    # dispatch function re-resolves the backend first; this is that
    # resolution alone (timing it inside a kernel call drowns it)
    def resolve_many() -> None:
        for _ in range(1000):
            get_backend(None)

    m["kernels.dispatch_ns"] = med(timed(resolve_many, 7)) * 1e9 / 1000


def probe_simmpi(m: dict[str, float]) -> None:
    """Collectives at P=32 on the ES model, and what the ledger costs."""
    p = 32
    comm = Communicator(p, machine=get_machine(MACHINE))
    comm.attach_phase_ledger()
    plane = np.zeros(1024)
    ring = [Message(r, (r + 1) % p, plane) for r in range(p)]
    m["simmpi.exchange_us"] = med(timed(lambda: comm.exchange(ring), 30)) * 1e6
    parts = [np.ones(1024) for _ in range(p)]
    m["simmpi.allreduce_us"] = (
        med(timed(lambda: comm.allreduce(parts), 30)) * 1e6
    )
    blocks = [[np.zeros(64) for _ in range(p)] for _ in range(p)]
    m["simmpi.alltoallv_us"] = (
        med(timed(lambda: comm.alltoallv(blocks), 30)) * 1e6
    )

    params = {"shape": [16, 16, 16]}
    with_ledger = build("lbmhd", params, 8)
    without = build("lbmhd", params, 8, ledger=False)
    on, off = [], []
    for _ in range(8):  # interleaved, so drift hits both alike
        on += timed(lambda: with_ledger[0].step(with_ledger[2]), 1, warm=0)
        off += timed(lambda: without[0].step(without[2]), 1, warm=0)
    m["simmpi.ledger_overhead_frac"] = med(on) / med(off) - 1.0


# -- runtime ---------------------------------------------------------------------


def _nothing(_item) -> None:
    return None


def probe_runtime(ctx: Ctx, m: dict[str, float]) -> None:
    """What a parallel region costs before it does any work."""
    items = list(range(32))
    for tag, spec in (("serial", "serial"), (f"threads{WIDTH}",
                      f"threads:{WIDTH}"), (f"processes{WIDTH}",
                      f"processes:{WIDTH}")):
        executor = get_executor(spec)
        region_s = timed(lambda: executor.map_segments(_nothing, items), 20, 3)
        m[f"runtime.region_us.{tag}"] = med(region_s) * 1e6

    def pool_cycle() -> None:
        with LoggedPool(ctx.workdir) as pool:
            pool.arena("probe").scratch("block", (1 << 20,))

    m["runtime.shm_pool_ms"] = med(timed(pool_cycle, 5)) * 1e3

    def spawn_cycle() -> None:
        ProcessExecutor(WIDTH).map(_nothing, [0] * WIDTH)
        shutdown_process_pools()

    m["runtime.pool_spawn_ms"] = med(timed(spawn_cycle, 3, warm=0)) * 1e3


# -- harness, resilience ------------------------------------------------------------


def probe_harness(m: dict[str, float]) -> None:
    params = build_params("lbmhd", LADDER["params"])
    common = dict(steps=LADDER["steps"], nprocs=LADDER["nprocs"],
                  machine=MACHINE, executor="serial")
    variants = {
        "plain": lambda: harness.run("lbmhd", params, **common),
        "bare": lambda: harness.run(
            "lbmhd", params, instrument=False, **common),
        "resilient": lambda: harness.run(
            "lbmhd", params, fault_plan=FaultPlan(), checkpoint_every=10,
            **common),
    }
    walls: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(5):
        for name, fn in variants.items():
            walls[name] += timed(fn, 1, warm=0)
    plain = med(walls["plain"])
    m["harness.instrument_overhead_frac"] = plain / med(walls["bare"]) - 1.0
    m["harness.resilient_overhead_frac"] = med(walls["resilient"]) / plain - 1.0

    solver = variants["plain"]().state
    store = MemoryCheckpointStore()
    save_s = timed(
        lambda: store.save("lbmhd", 1, solver.checkpoint_state(), copy=False),
        7,
    )
    m["resilience.checkpoint_ms"] = med(save_s) * 1e3


# -- campaign, distrib, service, ladder ------------------------------------------------


def probe_campaign_parts(ctx: Ctx, m: dict[str, float]) -> None:
    """The single calls a sweep is made of."""
    cache = ResultCache(ctx.workdir / "parts-cache")
    manifest = Manifest(ctx.workdir / "parts.manifest.jsonl")
    config = RunConfig.from_dict({**LADDER, "steps": 1, "seed": 1})
    result = execute_config(config)
    cache.put(config, result)
    absent = RunConfig.from_dict({**LADDER, "steps": 1, "seed": 2})
    event = {"event": "run-done", "key": config.key(), "label": config.label,
             "config": config.to_dict(), "cached": False,
             "wall_s": result["wall_s"], "gflops": result["gflops"]}

    def persist() -> None:
        cache.get(config)  # so there is a delta to flush
        cache.persist_stats()

    m["campaign.key_us"] = med(timed(config.key, 200)) * 1e6
    hit = med(timed(lambda: cache.get(config), 50))
    m["campaign.cache_get_hit_us"] = hit * 1e6
    m["campaign.cache_get_miss_us"] = (
        med(timed(lambda: cache.get(absent), 50)) * 1e6
    )
    m["campaign.cache_put_us"] = (
        med(timed(lambda: cache.put(config, result), 50)) * 1e6
    )
    m["campaign.manifest_append_us"] = (
        med(timed(lambda: manifest.append(event), 50)) * 1e6
    )
    m["campaign.persist_stats_us"] = (med(timed(persist, 50)) - hit) * 1e6


class Stack:
    """Campaign sweeps, the distrib and service seams, and the ladder —
    together, because they share one cache and manifest, one pool, one
    server and one worker pair (each costs a second or more to bring up
    and warm)."""

    def __init__(self, ctx: Ctx, m: dict[str, float]) -> None:
        self.ctx = ctx
        self.m = m
        self.sweeper = CampaignSweep(ctx)  # its spec, cache and manifest
        self.cache = self.sweeper.cache
        self.manifest = self.sweeper.manifest
        self.service = PredictWarm(ctx)  # its HTTP client and launcher
        #: fresh seed axis values, so every cold sample misses the cache
        self.seeds = itertools.count((ctx.seed % 4096) * 100_000 + 50_001)
        self.warm_body = {**LADDER, "seed": next(self.seeds)}
        self.rungs: dict[str, Callable[[], Any]] = {
            "steps": self.steps_rung,
            "harness_run": lambda: harness.run(
                "lbmhd", build_params("lbmhd", LADDER["params"]),
                steps=LADDER["steps"], nprocs=LADDER["nprocs"],
                machine=MACHINE, executor="serial",
            ),
            "execute_config": lambda: execute_config(self.fresh_config()),
            "campaign_cell": self.cell("serial"),
        }
        self.serial_ms = self.exec_ms = 0.0

    # -- pieces ------------------------------------------------------------

    def fresh_config(self) -> RunConfig:
        return RunConfig.from_dict({**LADDER, "seed": next(self.seeds)})

    def cell(self, scheduler) -> Callable[[], Any]:
        """One cold single-config campaign of the ladder config."""
        return lambda: run_campaign(
            CampaignSpec(name="ladder", apps=("lbmhd",)),
            configs=[self.fresh_config()],
            cache=self.cache, manifest=self.manifest, scheduler=scheduler,
        )

    @staticmethod
    def steps_rung() -> None:
        adapter, _comm, state = build(
            "lbmhd", LADDER["params"], LADDER["nprocs"]
        )
        adapter.diagnostics(advance(adapter, state, LADDER["steps"]))

    def predict(self, body: dict) -> dict:
        status, reply = self.service.http("POST", "/v1/predict", body)
        if status != 200:
            raise RuntimeError(f"predict failed: {reply}")
        return reply

    def sweep_ms(self, scheduler, n: int, think_s: float = 0.0) -> float:
        """Median cold sweep; pauses stepped across ``think_s``."""
        walls: list[float] = []
        for i in range(n):
            time.sleep(think_s * (i + 1) / (n + 1))
            walls += timed(lambda: self.sweeper.sweep(scheduler), 1, warm=0)
        return med(walls) * 1e3

    def overhead_ms(self, sweep_ms: float, width: int) -> float:
        """Per cell: the sweep minus its share of pure computation."""
        cells = self.sweeper.CELLS
        return (sweep_ms - self.exec_ms * cells / width) / cells

    # -- probes, in the order they run -----------------------------------------

    def serial_sweeps(self) -> None:
        """Nothing else alive: the serial baseline of everything below."""
        m, sweeper = self.m, self.sweeper
        sweeper.sweep("serial")  # creates the manifest
        lines = len(self.manifest.path.read_text().splitlines())
        sweeper.sweep("serial")
        m["campaign.manifest_events_per_cell"] = (
            len(self.manifest.path.read_text().splitlines()) - lines
        ) / sweeper.CELLS
        self.serial_ms = self.sweep_ms("serial", 5)
        # mean over the spec's cells (they differ in app and P), so that
        # cells x exec_ms is what a sweep must spend computing
        self.exec_ms = statistics.fmean(
            min(timed(lambda: execute_config(config), 2, warm=0))
            for config in sweeper.spec().expand()
        ) * 1e3
        warm_spec = sweeper.spec()
        rerun = partial(
            run_campaign, warm_spec, cache=self.cache,
            manifest=self.manifest, scheduler="serial",
        )
        m["campaign.warm_sweep_ms"] = med(timed(rerun, 5)) * 1e3
        m["campaign.execute_config_ms"] = self.exec_ms
        m["campaign.sweep_ms_p50.serial"] = self.serial_ms
        m["campaign.cell_overhead_ms.serial"] = self.overhead_ms(
            self.serial_ms, 1)

    def pool(self, stack: ExitStack) -> None:
        m, tag = self.m, f"processes{WIDTH}"
        pool = ProcessExecutor(WIDTH)
        stack.callback(shutdown_process_pools)
        pool.map(procs.pool_worker_die_with_parent, [os.getpid()] * WIDTH)
        self.sweeper.warm(tag, pool)
        pool_ms = self.sweep_ms(pool, 7)
        self.rungs["pool_cell"] = self.cell(pool)
        m[f"campaign.sweep_ms_p50.{tag}"] = pool_ms
        m[f"campaign.{tag}_speedup_x"] = self.serial_ms / pool_ms
        m[f"campaign.cell_overhead_ms.{tag}"] = self.overhead_ms(
            pool_ms, WIDTH)

    def server(self, stack: ExitStack) -> None:
        t0 = time.perf_counter()
        self.service.start_server(stack, self.cache.root)
        self.m["service.spawn_ms"] = (time.perf_counter() - t0) * 1e3
        self.predict(self.warm_body)
        self.rungs["predict_cold"] = lambda: self.predict(
            {**LADDER, "seed": next(self.seeds)})
        self.rungs["predict_warm"] = lambda: self.predict(self.warm_body)

    def workers(self, stack: ExitStack) -> None:
        m = self.m
        t0 = time.perf_counter()
        remote = self.sweeper.start_workers(stack)
        m["distrib.worker_spawn_ms"] = (time.perf_counter() - t0) * 1e3
        for _ in range(2):  # the workers have just imported: cores warm
            self.sweeper.sweep(remote)
        remote_ms = self.sweep_ms(remote, 5, think_s=self.sweeper.THINK_S)
        self.rungs["distrib_cell"] = self.cell(remote)
        m["distrib.sweep_ms_p50"] = remote_ms
        m["distrib.cell_overhead_ms"] = self.overhead_ms(remote_ms, WIDTH)
        m[f"distrib.workers{WIDTH}_speedup_x"] = self.serial_ms / remote_ms
        self.remote = remote

    def ladder(self) -> None:
        """Every rung, interleaved; rung order reshuffled each round so
        no rung always follows the same one."""
        m, spans = self.m, self.ctx.spans
        for fn in self.rungs.values():
            fn()  # warm
        walls: dict[str, list[float]] = {name: [] for name in self.rungs}
        order = list(self.rungs)
        rng = random.Random(self.ctx.seed)
        for i in range(LADDER_SAMPLES):
            rng.shuffle(order)
            for name in order:
                if name == "distrib_cell":
                    # stepped across the workers' 0.25 s idle poll
                    time.sleep(0.25 * (i + 1) / (LADDER_SAMPLES + 1))
                with spans.span(f"ladder.{name}"):
                    walls[name] += timed(self.rungs[name], 1, warm=0)
        stats = self.remote.stats
        if stats.local_runs or stats.retried:
            raise RuntimeError(f"distrib not fully remote: {stats.as_dict()}")

        for name, samples in walls.items():
            m[f"ladder.{name}_ms"] = med(samples) * 1e3

        def self_ms(rung: str, below: str) -> float:
            """A rung minus the rung below it, paired round by round (the
            two were taken moments apart, so host drift cancels)."""
            return med(a - b for a, b in zip(walls[rung], walls[below])) * 1e3

        m["ladder.self.harness_ms"] = self_ms("harness_run", "steps")
        m["ladder.self.campaign_ms"] = self_ms("campaign_cell", "harness_run")
        m["ladder.self.distrib_ms"] = self_ms("distrib_cell", "campaign_cell")
        m["ladder.self.service_ms"] = self_ms("predict_cold", "campaign_cell")
        m["harness.run_overhead_frac"] = (
            m["ladder.self.harness_ms"] / m["ladder.harness_run_ms"]
        )
        m["service.cold_ms_p50"] = m["ladder.predict_cold_ms"]
        m["service.cold_overhead_ms"] = m["ladder.self.service_ms"]

    def service_details(self) -> None:
        m, service, predict = self.m, self.service, self.predict
        warm_body = self.warm_body
        m["service.warm_ms_p50.c1"] = med(
            timed(lambda: predict(warm_body), 100)) * 1e3
        m["service.healthz_ms"] = med(timed(
            lambda: service.http("GET", "/v1/healthz"), 50)) * 1e3
        m["service.connect_us"] = med(timed(
            lambda: socket.create_connection(
                ("127.0.0.1", service.port)).close(), 50)) * 1e6
        journal = self.cache.root / "service.manifest.jsonl"
        sizes = []
        for _ in range(9):
            before = journal.stat().st_size
            predict(warm_body)
            sizes.append(journal.stat().st_size - before)
        m["service.manifest_bytes_per_req"] = med(sizes)
        # the same warm request as the service's job runs it, in process
        config = RunConfig.from_dict(warm_body)
        in_process = partial(
            run_campaign,
            CampaignSpec(name="service", apps=(config.app,),
                         steps=config.steps),
            configs=[config], cache=self.cache, manifest=self.manifest,
            scheduler="serial",
        )
        m["service.warm_overhead_ms"] = (
            m["service.warm_ms_p50.c1"] - med(timed(in_process, 20)) * 1e3
        )
        # eight identical concurrent clients must cost one computation
        same = {**LADDER, "seed": next(self.seeds)}
        before = service.http("GET", "/v1/stats")[1]["cache"]["misses"]
        clients = [threading.Thread(target=predict, args=(same,))
                   for _ in range(8)]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        after = service.http("GET", "/v1/stats")[1]["cache"]["misses"]
        m["service.coalesce_computations"] = float(after - before)

    def frames(self) -> None:
        """What a result frame costs on the wire."""
        config = RunConfig.from_dict(self.warm_body)
        frame = {"type": "result", "tid": 1, "key": config.key(),
                 "result": self.cache.get(config)}
        left, right = socket.socketpair()
        with left, right:
            def roundtrip() -> None:
                send_msg(left, frame)
                recv_msg(right)

            self.m["distrib.frame_roundtrip_us"] = (
                med(timed(roundtrip, 100, 5)) * 1e6
            )
            send_msg(left, frame)  # about 1 KiB: arrives in one piece
            self.m["distrib.result_frame_bytes"] = float(
                len(right.recv(1 << 20))
            )


def probe_stack(ctx: Ctx, m: dict[str, float]) -> None:
    probes = Stack(ctx, m)
    probes.serial_sweeps()
    with ExitStack() as stack:
        probes.pool(stack)
        probes.server(stack)
        probes.workers(stack)
        probes.ladder()
        probes.service_details()
    probes.frames()


# -- perfdb, experiments, host ---------------------------------------------------------


def probe_perfdb(ctx: Ctx, m: dict[str, float]) -> None:
    """The measured layers as embedded records, through the real ingest."""
    records = [
        RunRecord(app="ladder", bench="ladder.layers", variant=name,
                  wall_s=abs(value) * 1e-3, host=socket.gethostname(),
                  cpu_count=os.cpu_count() or 1).to_dict()
        for name, value in sorted(m.items()) if name.endswith("_ms")
    ]
    path = ctx.workdir / "layers.json"
    path.write_text(json.dumps({"records": records}))
    loaded: list[RunRecord] = []

    def ingest() -> None:
        loaded[:] = ingest_path(path)
        with PerfDB(":memory:") as db:
            db.add(loaded)

    m["perfdb.ingest_ms"] = med(timed(ingest, 5)) * 1e3
    m["perfdb.records"] = float(len(loaded))
    m["perfdb.check_ms"] = med(
        timed(lambda: detect_regressions(loaded), 5)) * 1e3


def probe_experiments(m: dict[str, float]) -> None:
    """The fidelity figures EXPERIMENTS.md keeps as prose."""
    tables = {"table3": table3, "table4": table4, "table5": table5,
              "table6": table6}
    t0 = time.perf_counter()
    for name, module in tables.items():
        m[f"experiments.paper_dev_pct.{name}"] = (
            mean_abs_deviation(module.run()) * 100.0
        )
    m["experiments.tables_ms"] = (time.perf_counter() - t0) * 1e3
    m["experiments.validate_passed"] = float(
        sum(check.passed for check in validate.run())
    )


def measure(ctx: Ctx) -> dict[str, float]:
    m: dict[str, float] = {}
    calib = []
    for name, probe in (
        ("solvers", partial(probe_solvers, ctx, m)),
        ("simmpi", partial(probe_simmpi, m)),
        ("runtime", partial(probe_runtime, ctx, m)),
        ("harness", partial(probe_harness, m)),
        ("campaign_parts", partial(probe_campaign_parts, ctx, m)),
        ("stack", partial(probe_stack, ctx, m)),
        ("perfdb", partial(probe_perfdb, ctx, m)),
        ("experiments", partial(probe_experiments, m)),
    ):
        calib.append(calibrate())
        with ctx.spans.span(f"probe:{name}"):
            probe()
    calib.append(calibrate())
    m["host.calib_ms_p50"] = med(calib)
    return m
