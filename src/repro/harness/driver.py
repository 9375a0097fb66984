"""The single driver that runs any application on any machine.

``run("gtc", steps=5, machine="ES")`` builds a simulated communicator
for the named machine, attaches an IPM-style phase ledger, constructs
the solver through its adapter, advances it, and returns a
:class:`HarnessResult` bundling the state, the per-rank per-phase
compute/comm/wait/bytes/messages breakdown, and the physics
diagnostics.  Every experiment script reduces to a call (or a few)
into this function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..kernels import get_backend
from ..machines.catalog import get_machine
from ..machines.spec import MachineSpec
from ..runtime.executors import segment_executor
from ..resilience.checkpoint import Checkpointable, MemoryCheckpointStore
from ..resilience.inject import FaultInjector, FaultPlan
from ..resilience.policy import (
    RankFailureError,
    RecoveryStats,
    RetryPolicy,
)
from ..simmpi.comm import Communicator
from ..simmpi.phases import PhaseLedger
from .apps import get_application
from .protocol import SPMDApplication


@dataclass
class HarnessResult:
    """Everything one instrumented harness run produced."""

    app: SPMDApplication
    params: Any
    comm: Communicator
    state: Any
    steps: int
    ledger: PhaseLedger | None
    diagnostics: dict[str, float]
    #: Fault-recovery counters; ``None`` for a non-resilient run.
    recovery: RecoveryStats | None = None

    @property
    def machine_name(self) -> str:
        return self.comm.machine.name if self.comm.machine else "ideal"

    @property
    def flops_per_step(self) -> float:
        return self.app.flops_per_step(self.state)

    def breakdown(self, reduce: str = "mean"):
        """Empirical :class:`~repro.perfmodel.breakdown.PhaseBreakdown`."""
        from ..perfmodel.breakdown import PhaseBreakdown

        if self.ledger is None:
            raise RuntimeError("run was not instrumented (instrument=False)")
        return PhaseBreakdown.from_ledger(
            self.app.key,
            self.machine_name,
            self.ledger,
            steps=self.steps,
            reduce=reduce,
        )

    def render(self, title: str | None = None) -> str:
        """Per-phase ASCII table (per step, averaged over ranks)."""
        if self.ledger is None:
            raise RuntimeError("run was not instrumented (instrument=False)")
        if title is None:
            title = (
                f"{self.app.name} on {self.machine_name}, "
                f"P={self.comm.nprocs}, {self.steps} step(s)"
            )
        return self.ledger.render(title=title, steps=self.steps)


def run(
    app: str | SPMDApplication,
    params: Any | None = None,
    *,
    steps: int = 1,
    nprocs: int | None = None,
    machine: str | MachineSpec | None = None,
    comm: Communicator | None = None,
    trace: bool = False,
    timeline: bool = False,
    arena: Any | None = None,
    instrument: bool = True,
    loop_registers: float | None = None,
    executor: Any | None = None,
    kernel_backend: Any | None = None,
    fault_plan: FaultPlan | None = None,
    policy: RetryPolicy | None = None,
    checkpoint_every: int | None = None,
    checkpoint_store: Any | None = None,
    max_restarts: int = 8,
) -> HarnessResult:
    """Run ``steps`` steps of an application and return the result.

    Parameters
    ----------
    app:
        Registry key (``"lbmhd"``, ``"gtc"``, ``"fvcam"``,
        ``"paratec"``) or an adapter satisfying
        :class:`~repro.harness.protocol.SPMDApplication`.
    params:
        Application parameter dataclass; the adapter's
        ``default_params()`` when omitted.
    nprocs, machine, trace, timeline, loop_registers:
        Communicator construction knobs, used only when ``comm`` is not
        given.  ``machine`` accepts a catalog name or a
        :class:`~repro.machines.spec.MachineSpec`; ``None`` gives the
        ideal (zero-cost) communicator.
    comm:
        An existing communicator to run on instead (its machine/trace
        settings are respected; the other knobs must be left default).
    arena:
        The :class:`~repro.runtime.arena.Arena` the solver keeps its
        buffers in, for a caller that wants to reuse one across runs
        or inspect it afterwards.  Omitted, the run takes one from the
        communicator's executor and drops its scratch when it ends.
    instrument:
        Attach a fresh :class:`~repro.simmpi.PhaseLedger` for the run
        (the default).  ``False`` runs without phase accounting — the
        overhead is tiny, but bit-for-bit benchmarking wants it off.
    executor:
        How per-rank compute segments are scheduled: an
        :class:`~repro.runtime.executors.Executor`, a spec string
        (``"serial"``, ``"threads[:N]"``, ``"processes[:N]"``), or
        ``None`` for the ambient choice.  Changes wall-clock only —
        states, traces, and ledgers are identical across executors.
        The harness promises a completed run, not a particular
        schedule: an executor that cannot run rank segments here (even
        an explicit one) warns once and runs serial
        (:mod:`repro.runtime.resolve`).  The executor is also where the
        run's arena comes from (``Executor.arena``): a process executor
        serves shared memory, which its workers write in place, and
        unlinks the segments when the run ends; a caller's private
        ``arena`` is replaced by a shared one of the same name for
        such a run.  Only meaningful when the harness builds the
        communicator; combining it with an explicit ``comm`` is an
        error (the communicator already carries its executor).
    kernel_backend:
        Which kernel implementations the solver's hot loops use: a
        :class:`~repro.kernels.KernelBackend`, a registered name
        (``"numpy"``), or ``None`` for the ambient choice.  Resolved
        here, once; the instance is handed to the solver and used as
        is.  Changes nothing but wall-clock — every backend is pinned
        bitwise to the numpy reference, so states, traces, and ledgers
        are identical.  An unknown name raises listing the valid
        choices.
    fault_plan, policy:
        A :class:`~repro.resilience.FaultPlan` to inject on the
        point-to-point wire, and the
        :class:`~repro.resilience.RetryPolicy` governing
        detection/retry/restart costs.  A plan with faults installs an
        injector, stepped along with the run; recovery time lands in
        the ledger's ``recovery`` column and the counters in
        ``result.recovery`` (which any ``fault_plan`` or
        ``checkpoint_every`` fills in).  A plan naming a rank the run
        does not have is a ``ValueError``.
    checkpoint_every, checkpoint_store:
        Snapshot the solver every N completed steps into the store
        (an in-memory store by default).  A rank failure from the
        plan restores the latest snapshot and replays; without a
        snapshot (solver not Checkpointable) the failure propagates.
    max_restarts:
        Abort (re-raise :class:`RankFailureError`) after this many
        restore-and-replay cycles, so a plan that kills ranks faster
        than checkpoints advance cannot loop forever.
    """
    adapter = get_application(app) if isinstance(app, str) else app
    if params is None:
        params = adapter.default_params()
    if steps < 0:
        raise ValueError("steps must be >= 0")
    kernels = get_backend(kernel_backend)

    if comm is None:
        if nprocs is None:
            nprocs = adapter.default_nprocs(params)
        spec = get_machine(machine) if isinstance(machine, str) else machine
        comm = Communicator(
            nprocs,
            machine=spec,
            trace=trace,
            timeline=timeline,
            loop_registers=loop_registers,
            executor=segment_executor(executor, degrade_explicit=True),
        )
    elif nprocs is not None and nprocs != comm.nprocs:
        raise ValueError(
            f"nprocs={nprocs} conflicts with the given communicator "
            f"(nprocs={comm.nprocs})"
        )
    elif executor is not None:
        raise ValueError(
            "executor= conflicts with an explicit comm=; construct the "
            "communicator with the executor instead"
        )

    resilient = fault_plan is not None or checkpoint_every is not None
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    # only a plan with faults needs an injector; a checkpoint-only run
    # still charges its snapshots at the policy's bandwidth
    faulty = fault_plan is not None and bool(fault_plan.faults)
    injector: FaultInjector | None = None
    if faulty or policy is not None:
        injector = comm.enable_resilience(
            fault_plan if faulty else None, policy=policy
        )

    ledger = comm.attach_phase_ledger() if instrument else None

    # The run's buffers live in the caller's arena where the
    # executor's segments can write through it (team workers cannot
    # through private memory), else in one the executor makes — for
    # this run only.
    made_arena = not (arena is not None and comm.executor.reaches(arena))
    if made_arena:
        arena = comm.executor.arena(
            arena.name if arena is not None else adapter.key
        )

    try:
        state = adapter.setup(comm, params, arena=arena, kernels=kernels)

        recovery = comm.recovery_stats
        store = (
            checkpoint_store
            if checkpoint_store is not None
            else MemoryCheckpointStore()
        )
        tag = adapter.key
        last_ckpt = None
        plan_kills_ranks = faulty and bool(fault_plan.rank_failures)
        if isinstance(state, Checkpointable) and plan_kills_ranks:
            # the step-0 anchor (the job's initial condition) is only
            # needed when a failure can strike before the first
            # periodic snapshot; it exists before the run starts and
            # is not charged.  checkpoint_state hands over fresh
            # copies, so the store takes ownership (copy=False).
            last_ckpt = store.save(
                tag, 0, state.checkpoint_state(), copy=False
            )
        completed = 0
        restarts = 0
        while completed < steps:
            try:
                if injector is not None:
                    injector.begin_step(completed)
                state = adapter.step(state)
                if injector is not None:
                    injector.end_step()
            except RankFailureError:
                recovery.rank_failures += 1
                if last_ckpt is None or restarts >= max_restarts:
                    raise
                restarts += 1
                ckpt = store.load(tag)
                if ckpt is None:
                    # The anchor was saved, so a vanished checkpoint is
                    # store corruption (deleted npz, evicted entry...) —
                    # name it instead of surfacing whatever attribute
                    # error the restore path would hit downstream.
                    raise RuntimeError(
                        f"restart of {tag!r} at step {completed} needs "
                        f"the checkpoint saved at step {last_ckpt.step}, "
                        f"but {type(store).__name__}.load({tag!r}) "
                        "returned None — the checkpoint store lost it"
                    ) from None
                comm.recover_restart(ckpt.nbytes)
                state.restore_state(ckpt.payload)
                recovery.replayed_steps += completed - ckpt.step
                completed = ckpt.step
                continue
            completed += 1
            if (
                checkpoint_every is not None
                and completed % checkpoint_every == 0
                and completed < steps
                and isinstance(state, Checkpointable)
            ):
                t0 = time.perf_counter()
                last_ckpt = store.save(
                    tag, completed, state.checkpoint_state(), copy=False
                )
                recovery.checkpoint_host_seconds += time.perf_counter() - t0
                comm.charge_checkpoint(last_ckpt.nbytes)

        diagnostics = adapter.diagnostics(state)
    finally:
        # the rank team and the shared memory behind the run's arena
        # (if it had them) go with the run; live views in the returned
        # state keep their mappings until they are garbage collected
        comm.executor.close()
        if made_arena:
            # scratch goes too; the state keeps what it references
            arena.clear()
    return HarnessResult(
        app=adapter,
        params=params,
        comm=comm,
        state=state,
        steps=steps,
        ledger=ledger,
        diagnostics=diagnostics,
        recovery=recovery if resilient else None,
    )
