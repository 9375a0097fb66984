"""In-process simulated MPI: SPMD over decomposed NumPy arrays.

The four applications in :mod:`repro.apps` are written against this
runtime exactly as they would be against mpi4py: rank-local arrays,
point-to-point exchanges, subcommunicators, ``Allreduce`` and
``Alltoallv``.  The difference is that all ranks live in one Python
process — the communicator *actually moves the bytes* between rank-local
buffers (so the numerics are exact and decomposition-independence is
testable), while per-rank virtual clocks are advanced by the platform's
processor, memory and network cost models.

The :class:`Communicator` itself is a facade over four composed layers:

* :class:`~repro.simmpi.transport.Transport` — pure byte movement;
* :class:`~repro.simmpi.clock.VirtualClock` — per-rank virtual time;
* :class:`~repro.simmpi.tracing.CommTrace` /
  :class:`~repro.simmpi.phases.PhaseLedger` — IPM-style instrumentation;
* :class:`~repro.runtime.executors.Executor` — how per-rank compute
  segments are scheduled (serial lockstep, a thread pool, or a
  persistent team of forked worker processes over shared-memory
  arenas), reached through :meth:`Communicator.map_shards`.

Every charged second goes through one private primitive,
:meth:`Communicator._book` (or :meth:`Communicator._sync` for a group
synchronization), which advances the clocks, appends the timeline
interval and adds to the phase-ledger column of the same kind — so the
instruments cannot disagree.

Fault handling is not one of the layers: the facade consults a
:class:`~repro.resilience.heal.Resilience` hook when a communication
starts and after each point-to-point phase, and the hook books its
repair time through the same primitive.

Passing ``machine=None`` yields an *ideal* communicator: data still
moves and traces still record, but no time is charged — this is the mode
the correctness tests run in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, TypeVar

import numpy as np

from ..machines.processor import make_model
from ..machines.spec import MachineSpec
from ..network.collectives import CollectiveModel
from ..network.model import NetworkModel
from ..resilience import RecoveryStats, Resilience, RetryPolicy
from ..runtime.executors import Executor, segment_executor
from ..runtime.team import Tokened, contiguous_shards
from ..workload import Work, WorkloadMeter
from .clock import VirtualClock
from .phases import PhaseLedger, PhaseScope, PhaseState
from .timeline import Timeline
from .tracing import CommTrace
from .transport import Transport, get_reducer

_R = TypeVar("_R")

#: Distinct work records a communicator keeps the processor model's
#: time of.  A solver charges a handful of fixed records plus, for
#: particle codes, one per rank population size, which changes every
#: step — hence a bound, with the least recently used dropped.
WORK_MEMO_SIZE = 256


@dataclass(frozen=True)
class Message:
    """One point-to-point message: local src rank -> local dst rank."""

    src: int
    dst: int
    payload: np.ndarray
    tag: int = 0

    @property
    def nbytes(self) -> int:
        return int(self.payload.nbytes)


@dataclass
class Request:
    """Handle for a posted nonblocking send (completed by ``waitall``)."""

    comm: "Communicator"
    message: Message
    done: bool = False
    data: np.ndarray | None = None

    def _complete(self, delivered: np.ndarray) -> None:
        self.done = True
        self.data = delivered

    def test(self) -> bool:
        return self.done


class _ExecState:
    """Executor + parallel-region state shared by world and subgroups.

    Lives in one box (like :class:`PhaseState`) so a subgroup split
    before or after a ``map_shards`` region sees the same region flag:
    compute charged on a subcommunicator inside a segment defers like
    compute charged on the world, and communication attempted on either
    is rejected.

    ``tls.buffer`` is the calling thread's deferred-work buffer; it is
    only set while that thread is running a segment, so charges from
    concurrent segments land in disjoint per-segment lists without a
    lock (list.append is atomic under the GIL either way).
    """

    __slots__ = ("executor", "active", "tls")

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.active = False
        self.tls = threading.local()


class _Segment:
    """What a region hands the executor: ``(lo, hi) -> (charges, result)``.

    Each call runs ``fn(lo, hi)`` with a private deferred-charge buffer
    installed on the calling thread.  A class rather than a closure so
    that a region can be sent to a rank-team worker: it pickles as its
    communicator (by token — the worker's inherited copy, whose
    executor state the call then uses) and ``fn``.
    """

    __slots__ = ("comm", "fn", "state")

    def __init__(self, comm: "Communicator", fn: Callable) -> None:
        self.comm = comm
        self.fn = fn
        self.state = comm._exec

    def __reduce__(self):
        return _segment_in_worker, (self.comm, self.fn)

    def __call__(self, shard: tuple[int, int]):
        buf: list[tuple[int, Work, float]] = []
        tls = self.state.tls
        tls.buffer = buf
        try:
            result = self.fn(*shard)
        finally:
            tls.buffer = None
        # charges first: pickled home, the names every charge repeats
        # then take pickle's short memo slots before a shard's results
        # fill them
        return buf, result


def _segment_in_worker(comm: "Communicator", fn: Callable) -> _Segment:
    """Unpickle a :class:`_Segment` in a rank-team worker."""
    # the worker's copy of the executor state dates from its fork, when
    # this communicator need not have been inside a region — and a
    # worker only ever runs segments
    comm._exec.active = True
    return _Segment(comm, fn)


class Communicator(Tokened):
    """A group of simulated ranks sharing clocks, trace, and cost models.

    A rank-team message names a communicator by token
    (:class:`~repro.runtime.team.Tokened`): what a segment reads of it —
    its ranks, processor model and executor state — is fixed at
    construction, and what it charges is deferred and replayed here.

    Parameters
    ----------
    nprocs:
        Number of ranks in (the world of) this communicator.
    machine:
        Platform whose cost models charge virtual time; ``None`` for an
        ideal zero-cost network/processor (pure-numerics mode).
    trace:
        Record per-pair communication volumes (Figure 2 instrumentation).
    timeline:
        Record per-rank compute/comm/wait/recovery intervals (Gantt
        profiling).
    loop_registers:
        Register-demand hint forwarded to the vector processor model.
    executor:
        How :meth:`map_shards` schedules per-rank compute: an
        :class:`~repro.runtime.executors.Executor`, a spec string
        (``"serial"``, ``"threads[:N]"``, ``"processes[:N]"``), or
        ``None`` for the ambient choice — resolved here, once, by
        :func:`~repro.runtime.executors.segment_executor`.  Executor
        choice never changes results — only wall-clock.
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineSpec | None = None,
        trace: bool = False,
        timeline: bool = False,
        loop_registers: float | None = None,
        executor: "Executor | str | None" = None,
    ) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.machine = machine
        self._ranks: list[int] = list(range(nprocs))
        self._transport = Transport()
        self._clock = VirtualClock(nprocs)
        self._trace = CommTrace(nprocs) if trace else None
        self._timeline = Timeline(nprocs) if timeline else None
        self._meter = WorkloadMeter()
        self._pending: list[Request] = []
        self._world: Communicator = self
        self._phase = PhaseState()
        self._exec = _ExecState(segment_executor(executor))
        self._resil = Resilience()
        if machine is not None:
            model = make_model(machine, loop_registers=loop_registers)
            # the model is a pure function of a hashable, frozen work
            # record, and solvers charge the same few records over and
            # over: evaluate each once
            self._proc_time: Callable[[Work], float] | None = lru_cache(
                maxsize=WORK_MEMO_SIZE
            )(model.time)
            self._net: NetworkModel | None = NetworkModel(machine, nprocs)
            self._coll: CollectiveModel | None = CollectiveModel(self._net)
        else:
            self._proc_time = None
            self._net = None
            self._coll = None

    # -- construction of subgroups ------------------------------------

    @classmethod
    def _subgroup(cls, world: "Communicator", ranks: list[int]) -> "Communicator":
        sub = cls.__new__(cls)
        sub.machine = world.machine
        sub._ranks = list(ranks)
        sub._transport = world._transport
        sub._clock = world._clock
        sub._trace = world._trace
        sub._timeline = world._timeline
        sub._meter = world._meter
        sub._pending = []
        sub._proc_time = world._proc_time
        sub._net = world._net
        sub._coll = world._coll
        sub._world = world._world
        sub._phase = world._phase
        sub._exec = world._exec
        sub._resil = world._resil
        return sub

    def split(self, colors: Sequence[int]) -> list["Communicator"]:
        """Partition this communicator by color, as ``MPI_Comm_split``.

        ``colors[i]`` is the color of local rank ``i``; returns one
        subcommunicator per distinct color, ordered by color value.
        Local ranks within each subgroup follow the parent's rank order.
        """
        if len(colors) != self.nprocs:
            raise ValueError("need one color per rank")
        groups: dict[int, list[int]] = {}
        for local, color in enumerate(colors):
            groups.setdefault(color, []).append(self._ranks[local])
        return [
            Communicator._subgroup(self._world, groups[c])
            for c in sorted(groups)
        ]

    # -- introspection --------------------------------------------------

    @property
    def nprocs(self) -> int:
        return len(self._ranks)

    @property
    def ranks(self) -> list[int]:
        """Global rank ids of this communicator's members."""
        return list(self._ranks)

    @property
    def trace(self) -> CommTrace | None:
        return self._trace

    @property
    def timeline(self) -> Timeline | None:
        return self._timeline

    @property
    def meter(self) -> WorkloadMeter:
        return self._meter

    @property
    def executor(self) -> Executor:
        """The executor scheduling :meth:`map_shards` regions."""
        return self._exec.executor

    # -- IPM-style phase instrumentation -------------------------------

    def phase(self, name: str) -> PhaseScope:
        """Scope for attributing activity to a named phase.

        ``with comm.phase("charge"): ...`` labels every compute charge,
        point-to-point exchange, and collective issued inside the block
        — including those on subcommunicators split from this world —
        so the attached :class:`~repro.simmpi.phases.PhaseLedger` and
        the :class:`~repro.simmpi.tracing.CommTrace` can split the run
        the way the paper's IPM profiles do.  Without a ledger the
        scope is two attribute writes (safe on hot paths).
        """
        self._require_serial_region("phase")
        return PhaseScope(self._phase, self._trace, name)

    def attach_phase_ledger(
        self, ledger: PhaseLedger | None = None
    ) -> PhaseLedger:
        """Start per-phase accounting; returns the (shared) ledger.

        The ledger is sized to the world communicator and shared with
        every subgroup, whether split before or after this call.
        """
        if ledger is None:
            ledger = PhaseLedger(self._world.nprocs)
        elif ledger.nprocs != self._world.nprocs:
            raise ValueError(
                f"ledger sized for {ledger.nprocs} ranks, world has "
                f"{self._world.nprocs}"
            )
        self._phase.ledger = ledger
        return ledger

    def detach_phase_ledger(self) -> None:
        self._phase.ledger = None

    @property
    def phase_ledger(self) -> PhaseLedger | None:
        return self._phase.ledger

    @property
    def current_phase(self) -> str | None:
        return self._phase.current

    # -- resilience seam -------------------------------------------------

    def enable_resilience(self, injector, policy: RetryPolicy | None = None):
        """Install a fault injector (and optionally a retry policy).

        ``injector`` is a :class:`~repro.resilience.inject.FaultInjector`,
        a :class:`~repro.resilience.inject.FaultPlan` (wrapped in one),
        or ``None`` to install the policy alone.  A plan naming a rank
        outside this world is a ``ValueError``.  Point-to-point phases
        are then healed by :class:`~repro.resilience.heal.Resilience`:
        drops and CRC-detected corruption are retransmitted until they
        arrive intact, latency spikes are absorbed — every repair
        second booked as kind ``recovery`` (clock, timeline and phase
        ledger column).  Shared with all subgroups of this world.
        Returns the installed injector.
        """
        return self._resil.enable(injector, policy, self._world.nprocs)

    def disable_resilience(self) -> None:
        """Remove the fault injector (policy and stats are kept)."""
        self._resil.injector = None

    @property
    def fault_injector(self):
        return self._resil.injector

    @property
    def recovery_stats(self) -> RecoveryStats:
        return self._resil.stats

    def charge_checkpoint(self, nbytes: int) -> float:
        """Charge every rank the virtual cost of writing one checkpoint.

        The harness calls this when it snapshots a
        :class:`~repro.resilience.checkpoint.Checkpointable` solver;
        the per-rank seconds (aggregate ``nbytes`` over the policy's
        checkpoint bandwidth) land in the recovery column.  Returns the
        per-rank seconds charged.
        """
        return self._resil.charge_checkpoint(self, nbytes)

    def recover_restart(self, nbytes: int) -> float:
        """Charge a rank-failure recovery: sync, penalty, restore read.

        All ranks synchronize (the failed collective everyone notices),
        then pay the policy's flat restart penalty plus the restore
        read of ``nbytes`` checkpoint bytes.  Every second lands in the
        recovery column.  Returns the per-rank seconds charged after
        the synchronization.
        """
        return self._resil.recover_restart(self, nbytes)

    # -- booking ----------------------------------------------------------

    def _book(self, kind: str, ranks, seconds: float, label: str) -> None:
        """Charge ``seconds`` of ``kind`` time to global rank(s) ``ranks``.

        The one place a charged second is booked: each rank's clock
        advances, its timeline gets the interval, and the phase ledger
        adds it to the column of the same kind
        (:data:`~repro.simmpi.phases.KINDS`) in the current phase.
        ``ranks`` is one global rank id or a list of distinct ones.
        """
        if self._timeline is not None:
            for g in (ranks,) if type(ranks) is int else ranks:
                t0 = self._clock.time(g)
                self._timeline.record(g, t0, t0 + seconds, label, kind)
        self._clock.advance(ranks, seconds)
        ledger = self._phase.ledger
        if ledger is not None:
            ledger.record(self._phase.current, ranks, kind + "_s", seconds)

    def _sync(self, kind: str, label: str) -> np.ndarray:
        """Align the group's clocks to their max, booking each wait.

        The clocks are *set* to the group maximum rather than advanced
        by their waits (which could round differently); each rank's
        wait then goes to the timeline and the ledger column ``kind``
        as :meth:`_book` would.  Returns the waits in rank order.
        """
        ranks = self._ranks
        if self._timeline is not None:
            before = [self._clock.time(g) for g in ranks]
        t_sync, waits = self._clock.synchronize_with_waits(ranks)
        if self._timeline is not None:
            for g, t0 in zip(ranks, before):
                self._timeline.record(g, t0, t_sync, label, kind)
        ledger = self._phase.ledger
        if ledger is not None:
            ledger.record(self._phase.current, ranks, kind + "_s", waits)
        return waits

    def _traffic(self, g_srcs, nbytes) -> None:
        """Book sent bytes, one message per sender entry, in the ledger."""
        ledger = self._phase.ledger
        if ledger is not None:
            phase = self._phase.current
            idx = np.asarray(g_srcs, dtype=np.intp)
            ledger.record(phase, idx, "nbytes", nbytes)
            ledger.record(phase, idx, "messages", 1.0)

    @property
    def elapsed(self) -> float:
        """Virtual wall-clock so far (slowest rank of the world)."""
        return self._clock.elapsed

    def time(self, local_rank: int) -> float:
        return self._clock.time(self._ranks[local_rank])

    @property
    def times(self) -> np.ndarray:
        return self._clock.times[self._ranks]

    def imbalance(self) -> float:
        return self._clock.imbalance()

    def _g(self, local_rank: int) -> int:
        return self._ranks[local_rank]

    # -- executor seam ---------------------------------------------------

    def map_shards(self, fn: Callable[[int, int], _R]) -> list[_R]:
        """Run ``fn(lo, hi)`` once per contiguous shard of the ranks.

        The ranks are cut into as many contiguous ``[lo, hi)`` shards as
        the executor has workers — one shard ``(0, nprocs)`` on a serial
        executor — and ``fn`` steps its shard's ranks, possibly
        concurrently with the other shards; the results come back in
        shard order.  Shards are *compute only*: they may mutate
        rank-local state and charge :meth:`compute`, but any
        communication (exchange, collectives, phase changes) raises
        ``RuntimeError`` — communication belongs between regions, where
        rank order is deterministic.  Regions do not nest.

        Determinism contract: while the region runs, every ``compute``
        charge is deferred into the calling shard's buffer instead of
        touching the meter/clock/ledger; when all shards finish, the
        charges are replayed in shard order — so a ``fn`` that charges
        its ranks in ascending order replays exactly as a serial
        ``for`` loop over every rank would have charged.  Serial,
        threaded and process executors therefore yield
        bitwise-identical clocks, traces, ledgers and meters; only real
        wall-clock differs.  A region that raises charges nothing.

        Every shard runs with a private buffer and returns ``(buffer,
        result)`` through ``executor.map_segments`` — plain ``map`` in
        process, a message to a rank-team worker otherwise — so there
        is one replay path.  Shards scheduled out of process read only
        their arguments and return their effects (or write them through
        shared-memory arguments): in-place mutation of ordinary parent
        memory stays in the worker.
        """
        exec_state = self._exec
        if exec_state.active:
            raise RuntimeError("parallel regions cannot nest")
        shards = contiguous_shards(self.nprocs, exec_state.executor.workers)
        exec_state.active = True
        try:
            outcomes = exec_state.executor.map_segments(
                _Segment(self, fn), shards
            )
        finally:
            exec_state.active = False
            exec_state.tls.buffer = None
        results = []
        for buf, result in outcomes:
            results.append(result)
            for g, work, dt in buf:
                self._charge_compute(g, work, dt)
        return results

    def _require_serial_region(self, opname: str) -> None:
        if self._exec.active:
            raise RuntimeError(
                f"{opname} is not allowed inside a parallel region; "
                "shards are compute-only — communicate between regions"
            )

    # -- compute ---------------------------------------------------------

    def compute(self, local_rank: int, work: Work) -> float:
        """Charge one rank for a kernel; returns the seconds charged.

        Inside a :meth:`map_shards` region the charge is deferred (and
        replayed in deterministic order at region end) together with
        its duration, which the replay books as it is: the processor
        model is a pure function of the work record, so it is evaluated
        once, here — and once per distinct record, as the communicator
        remembers the last ``WORK_MEMO_SIZE`` it timed.
        """
        dt = self._proc_time(work) if self._proc_time is not None else 0.0
        g = self._g(local_rank)
        exec_state = self._exec
        if not exec_state.active:
            self._charge_compute(g, work, dt)
            return dt
        buf = getattr(exec_state.tls, "buffer", None)
        if buf is None:
            raise RuntimeError(
                "compute called during a parallel region from outside "
                "any shard"
            )
        buf.append((g, work, dt))
        return dt

    def _charge_compute(self, g: int, work: Work, dt: float) -> None:
        """Meter one charge and book its ``dt`` seconds and flops."""
        self._meter.record(work)
        self._book("compute", g, dt, work.name)
        ledger = self._phase.ledger
        if ledger is not None:
            ledger.record(self._phase.current, g, "flops", work.flops)

    def compute_all(self, work_per_rank: Sequence[Work]) -> float:
        """Charge every rank its own work; returns the max time charged."""
        if len(work_per_rank) != self.nprocs:
            raise ValueError("need one Work per rank")
        return max(self.compute(r, w) for r, w in enumerate(work_per_rank))

    # -- point-to-point ----------------------------------------------------

    def exchange(
        self, messages: Sequence[Message], copy: bool = True
    ) -> dict[int, list[np.ndarray]]:
        """Execute a phase of point-to-point messages.

        All messages are posted "simultaneously" (non-blocking), then
        completed: each sender's clock advances by its serialized send
        costs; each receiver's clock waits for the latest arrival.
        Returns ``{dst_local_rank: [payload, ...]}`` in posting order.

        Zero-byte messages are legitimate (empty halos on degenerate
        decompositions): they deliver an empty payload, count as one
        message in the trace, and cost pure latency on the wire.  An
        empty message list is a no-op.

        With ``copy=True`` (the default) payloads are copied, so
        senders may reuse their buffers.  ``copy=False`` is the
        zero-copy fast path: the posted payload objects themselves are
        delivered, which is only safe when the sender does not mutate
        them before the receiver is done.

        With a fault injector installed (:meth:`enable_resilience`),
        the booked first transmission is then healed: what it lost or
        corrupted is retransmitted until every payload arrives intact,
        the repair time booked in the recovery column.
        """
        self._require_serial_region("exchange")
        if not messages:
            return {}
        for m in messages:
            if not (0 <= m.src < self.nprocs and 0 <= m.dst < self.nprocs):
                raise IndexError(f"message rank out of range: {m.src}->{m.dst}")
        self._resil.check_rank_failure()
        received = self._transport.deliver(messages, copy=copy)
        self._ptp(
            [m.src for m in messages],
            [m.dst for m in messages],
            [m.nbytes for m in messages],
            messages,
            received,
        )
        return received

    def exchange_phase(
        self,
        srcs: Sequence[int],
        dsts: Sequence[int],
        nbytes: int | Sequence[int],
    ) -> None:
        """Accounting-only counterpart of :meth:`exchange`.

        Charges the exact clock/trace bookkeeping that
        ``exchange([Message(srcs[k], dsts[k], <nbytes[k] payload>), ...])``
        would, without constructing messages or moving data — the caller
        has already moved the bytes in bulk (e.g. one strided copy over
        a whole stacked rank block).  Message order is the sequence
        order, which fixes the per-sender serialization exactly as the
        legacy per-message loop did.

        ``nbytes`` is either one size for every message or a sequence
        with exactly one size per message; anything else (including the
        shapes NumPy broadcasting would quietly accept) is a
        ``ValueError``.  Zero sizes are legitimate; empty ``srcs`` /
        ``dsts`` is a no-op.
        """
        self._require_serial_region("exchange_phase")
        srcs_a = np.asarray(srcs, dtype=np.intp).reshape(-1)
        dsts_a = np.asarray(dsts, dtype=np.intp).reshape(-1)
        if srcs_a.shape != dsts_a.shape:
            raise ValueError(
                f"srcs and dsts must have equal length: "
                f"{srcs_a.size} vs {dsts_a.size}"
            )
        nbytes_in = np.asarray(nbytes, dtype=np.int64)
        if nbytes_in.ndim == 0:
            nbytes_a = np.full(srcs_a.shape, int(nbytes_in), dtype=np.int64)
        elif nbytes_in.shape == srcs_a.shape:
            nbytes_a = nbytes_in
        else:
            raise ValueError(
                f"nbytes must be a scalar or one size per message: got "
                f"{nbytes_in.size} sizes for {srcs_a.size} messages"
            )
        if nbytes_a.size and nbytes_a.min() < 0:
            raise ValueError("message sizes must be >= 0")
        if srcs_a.size == 0:
            return
        if (
            min(srcs_a.min(), dsts_a.min()) < 0
            or max(srcs_a.max(), dsts_a.max()) >= self.nprocs
        ):
            raise IndexError("message rank out of range")
        self._resil.check_rank_failure()
        self._ptp(srcs_a.tolist(), dsts_a.tolist(), nbytes_a.tolist())

    def _ptp(
        self,
        srcs: list[int],
        dsts: list[int],
        nbytes: list[int],
        messages: Sequence[Message] | None = None,
        received: dict[int, list[np.ndarray]] | None = None,
    ) -> None:
        """Accounting of one point-to-point phase, payloads moved or not.

        Message ``k`` goes from local rank ``srcs[k]`` to ``dsts[k]``
        with ``nbytes[k]`` bytes, in posting order.  Traces the pairs,
        books the traffic, charges the wire (senders serialize their
        own sends; receivers wait for their latest arrival) and hands
        the phase to the healing hook.  :meth:`exchange` passes the
        ``messages`` it delivered as ``received`` so the hook can check
        payloads; :meth:`exchange_phase` moved none.
        """
        ranks = self._ranks
        g_srcs = [ranks[s] for s in srcs]
        g_dsts = [ranks[d] for d in dsts]
        if self._trace is not None:
            self._trace.record_pairs(g_srcs, g_dsts, nbytes)
        self._traffic(g_srcs, nbytes)
        net = self._net
        if net is not None:
            clock = self._clock
            depart_base = {g: clock.time(g) for g in g_srcs}
            send_accum: dict[int, float] = {}
            arrivals: dict[int, float] = {}
            for s, d, nb in zip(g_srcs, g_dsts, nbytes):
                send_accum[s] = send_accum.get(s, 0.0) + net.ptp_time(nb, s, d)
                arrivals[d] = max(
                    arrivals.get(d, 0.0), depart_base[s] + send_accum[s]
                )
            for g, dt in send_accum.items():
                self._book("comm", g, dt, "send")
            for g, t_arr in arrivals.items():
                wait = t_arr - clock.time(g)
                if wait > 0:
                    self._book("wait", g, wait, "recv")
        if self._resil.injector is not None:
            self._resil.heal(
                self, list(zip(srcs, dsts, nbytes)), messages, received
            )

    def sendrecv(
        self, src: int, dst: int, payload: np.ndarray
    ) -> np.ndarray:
        """Single message convenience wrapper around :meth:`exchange`."""
        out = self.exchange([Message(src=src, dst=dst, payload=payload)])
        return out[dst][0]

    # -- nonblocking-style API -----------------------------------------

    def isend(
        self, src: int, dst: int, payload: np.ndarray, tag: int = 0
    ) -> "Request":
        """Post a message for a later :meth:`waitall` (MPI_Isend style).

        The payload is captured (copied) at post time, so the sender
        may immediately reuse its buffer — eager-protocol semantics.
        """
        self._require_serial_region("isend")
        req = Request(
            comm=self,
            message=Message(
                src=src, dst=dst, payload=np.array(payload, copy=True), tag=tag
            ),
        )
        self._pending.append(req)
        return req

    def waitall(self) -> dict[int, list[np.ndarray]]:
        """Complete every pending :meth:`isend` as one exchange phase.

        Returns the same ``{dst: [payload, ...]}`` map as
        :meth:`exchange` and marks all requests complete (each request's
        :attr:`Request.data` is filled for receives addressed to it).
        """
        self._require_serial_region("waitall")
        pending = self._pending
        self._pending = []
        if not pending:
            return {}
        received = self.exchange([r.message for r in pending])
        counters: dict[int, int] = {}
        for req in pending:
            i = counters.get(req.message.dst, 0)
            counters[req.message.dst] = i + 1
            req._complete(received[req.message.dst][i])
        return received

    @property
    def pending_requests(self) -> int:
        return len(self._pending)

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        cost = self._coll.barrier(self.nprocs) if self._coll else 0.0
        self._timed_collective("barrier", cost)

    def allreduce(
        self, contributions: Sequence[np.ndarray], op: str = "sum"
    ) -> list[np.ndarray]:
        """All-reduce one array per rank; every rank receives the result.

        Mirrors GTC's particle-subgroup ``Allreduce``: contributions are
        combined elementwise with ``op`` and each rank gets a private
        copy of the reduced array.
        """
        if len(contributions) != self.nprocs:
            raise ValueError("need one contribution per rank")
        result = self._transport.reduce(contributions, op)
        self._record_butterfly(result.nbytes, kind="allreduce")
        cost = (
            self._coll.allreduce(result.nbytes, self.nprocs)
            if self._coll
            else 0.0
        )
        self._timed_collective("allreduce", cost, result.nbytes)
        return self._transport.replicate(result, self.nprocs)

    def alltoallv(
        self, sendbufs: Sequence[Sequence[np.ndarray]], copy: bool = True
    ) -> list[list[np.ndarray]]:
        """Personalized all-to-all: ``sendbufs[i][j]`` goes from i to j.

        Returns ``recv[j][i]`` — the PARATEC FFT transpose and the FVCAM
        dynamics-to-remap transpose are both built on this.

        With ``copy=True`` every received block is backed by fresh
        memory (one contiguous pack per sender rather than ``P x P``
        individual array copies).  ``copy=False`` is the zero-copy fast
        path: the send blocks themselves are handed to the receivers,
        which is safe only when the sender does not reuse them (the FFT
        transposes build fresh blocks every call, so they qualify).
        """
        p = self.nprocs
        if len(sendbufs) != p or any(len(row) != p for row in sendbufs):
            raise ValueError("sendbufs must be a PxP nested sequence")
        rows = [[np.asarray(b) for b in row] for row in sendbufs]
        recv = self._transport.alltoallv(rows, copy=copy)
        volumes = np.array(
            [[b.nbytes for b in row] for row in rows], dtype=np.float64
        )
        total = float(volumes.sum())
        if self._trace is not None:
            self._trace.record_block(self._ranks, volumes, "alltoall")
        cost = 0.0
        if self._coll is not None and p > 1:
            cost = self._coll.alltoall(total / (p * p), p)
        self._timed_collective("alltoall", cost, total / max(p, 1))
        return recv

    def allgather(
        self, contributions: Sequence[np.ndarray], copy: bool = True
    ) -> list[list[np.ndarray]]:
        """Every rank receives every rank's contribution (in rank order).

        Homogeneous contributions are stacked once and replicated with
        one block copy per rank instead of ``P x P`` array copies.
        ``copy=False`` shares a single stacked block between all ranks
        (read-only fast path: receivers must not mutate the views).
        """
        if len(contributions) != self.nprocs:
            raise ValueError("need one contribution per rank")
        nbytes = sum(int(c.nbytes) for c in contributions)
        if self._trace is not None:
            self._record_butterfly(nbytes / max(self.nprocs, 1), "allgather")
        cost = 0.0
        if self._coll is not None and self.nprocs > 1:
            cost = self._coll.allgather(nbytes, self.nprocs)
        self._timed_collective("allgather", cost, nbytes / max(self.nprocs, 1))
        return self._transport.allgather(contributions, copy=copy)

    def reduce_scatter(
        self, contributions: Sequence[np.ndarray], op: str = "sum"
    ) -> list[np.ndarray]:
        """Element-wise reduce, then scatter equal blocks by rank.

        Each rank contributes a full-length array and receives the
        reduced values of its own 1/P block (flattened views; the block
        split follows ``np.array_split`` semantics).
        """
        if len(contributions) != self.nprocs:
            raise ValueError("need one contribution per rank")
        total = self._transport.reduce(contributions, op)
        if self._trace is not None:
            self._record_butterfly(total.nbytes / self.nprocs, "reduce_scatter")
        cost = 0.0
        if self._coll is not None and self.nprocs > 1:
            # half the allreduce: log p rounds, n bytes total
            cost = 0.5 * self._coll.allreduce(total.nbytes, self.nprocs)
        self._timed_collective("reduce_scatter", cost, total.nbytes)
        return self._transport.scatter_blocks(total, self.nprocs)

    def scan(
        self, contributions: Sequence[np.ndarray], op: str = "sum"
    ) -> list[np.ndarray]:
        """Inclusive prefix reduction: rank r gets reduce(ranks 0..r)."""
        if len(contributions) != self.nprocs:
            raise ValueError("need one contribution per rank")
        get_reducer(op)  # validate before any bookkeeping
        out = self._transport.scan(contributions, op)
        if self._trace is not None and self.nprocs > 1:
            for r in range(self.nprocs - 1):
                self._trace.record(
                    self._g(r), self._g(r + 1), contributions[0].nbytes, "scan"
                )
        cost = 0.0
        if self._coll is not None and self.nprocs > 1:
            cost = self._coll.allreduce(contributions[0].nbytes, self.nprocs)
        self._timed_collective("scan", cost, contributions[0].nbytes)
        return out

    def gather(self, contributions: Sequence[np.ndarray], root: int = 0) -> list[np.ndarray]:
        """Gather one array per rank onto ``root`` (returned as a list)."""
        if len(contributions) != self.nprocs:
            raise ValueError("need one contribution per rank")
        nbytes = sum(int(c.nbytes) for c in contributions)
        if self._trace is not None:
            for i, c in enumerate(contributions):
                if i != root:
                    self._trace.record(self._g(i), self._g(root), c.nbytes, "gather")
        cost = 0.0
        if self._coll is not None and self.nprocs > 1:
            # Root-bound binomial-tree gather (NOT a broadcast: the
            # root must absorb nearly the whole payload).
            cost = self._coll.gather(nbytes, self.nprocs)
        self._timed_collective("gather", cost, nbytes / max(self.nprocs, 1))
        return self._transport.gather(contributions)

    def _timed_collective(
        self, label: str, cost: float, nbytes_per_rank: float = 0.0
    ) -> None:
        """Synchronize the group (wait) then charge a collective (comm).

        ``nbytes_per_rank`` is the payload volume the phase ledger
        attributes to every participating rank (one message each) —
        the per-rank share of the collective's traffic.
        """
        self._require_serial_region(label)
        self._resil.check_rank_failure()
        self._sync("wait", label)
        if nbytes_per_rank > 0:
            self._traffic(self._ranks, nbytes_per_rank)
        if cost > 0:
            self._book("comm", self._ranks, cost, label)

    # -- internals ---------------------------------------------------------

    def _record_butterfly(self, nbytes: float, kind: str) -> None:
        """Trace the recursive-doubling pattern of a collective."""
        if self._trace is None or self.nprocs == 1:
            return
        p = self.nprocs
        step = 1
        while step < p:
            for i in range(p):
                j = i ^ step
                if j < p and i < j:
                    self._trace.record(self._g(i), self._g(j), nbytes, kind)
                    self._trace.record(self._g(j), self._g(i), nbytes, kind)
            step <<= 1

    def reset_clock(self) -> None:
        self._clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mach = self.machine.name if self.machine else "ideal"
        return f"Communicator(nprocs={self.nprocs}, machine={mach})"
