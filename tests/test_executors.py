"""The executor seam: resolution, ``map_ranks`` semantics, and the
determinism contract.

The contract is the heart of PR 3 (extended to worker processes in
PR 6): serial, threaded, and forked-process execution of the same run
must produce *bitwise-identical* solver states, identical
``CommTrace`` byte/message matrices, identical per-phase ledger
buckets, and identical virtual clocks — only host wall-clock may
differ.  The equivalence matrix below checks every application at
P in {1, 4, 8}.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro import harness
from repro.runtime import Arena
from repro.runtime.executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_executors,
    get_executor,
)
from repro.simmpi import Communicator
from repro.workload import Work

_process_capable = ProcessExecutor(2).segment_support()
needs_process_segments = pytest.mark.skipif(
    not _process_capable.ok, reason=_process_capable.reason
)


@pytest.fixture(autouse=True)
def _clean_default(monkeypatch):
    """Each test sees a pristine resolution chain (and fresh warn-once
    memory); a leaked default is the conftest guard's to catch."""
    monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
    monkeypatch.setattr(EXECUTORS, "_warned", set())


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------


class TestResolution:
    def test_default_is_serial(self):
        ex = get_executor()
        assert isinstance(ex, SerialExecutor)
        assert ex.name == "serial"
        assert not ex.parallel

    def test_spec_strings(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("threads"), ThreadExecutor)
        assert get_executor("threads:3").workers == 3
        assert isinstance(get_executor("processes"), ProcessExecutor)
        assert get_executor("processes:3").workers == 3

    def test_instance_passthrough(self):
        ex = ThreadExecutor(2)
        assert get_executor(ex) is ex

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threads:2")
        ex = get_executor()
        assert isinstance(ex, ThreadExecutor)
        assert ex.workers == 2

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threads:2")
        assert isinstance(get_executor("serial"), SerialExecutor)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError) as exc:
            get_executor("fibers")
        msg = str(exc.value)
        assert "unknown executor 'fibers'" in msg
        assert "'serial'" in msg and "'processes:N'" in msg
        assert "REPRO_EXECUTOR" not in msg  # not env-sourced

    def test_unknown_env_name_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "fibers")
        with pytest.raises(ValueError) as exc:
            get_executor()
        msg = str(exc.value)
        assert "(from REPRO_EXECUTOR)" in msg
        assert "'serial'" in msg and "'processes:N'" in msg

    def test_bad_env_worker_count_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threads:lots")
        with pytest.raises(ValueError, match="REPRO_EXECUTOR"):
            get_executor()

    def test_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "threads:2")
        with EXECUTORS.scoped("serial"):
            assert isinstance(get_executor(), SerialExecutor)

    def test_set_default_resolves_and_clears(self):
        with EXECUTORS.scoped("threads:5"):
            resolved = get_executor()
            assert isinstance(resolved, ThreadExecutor)
            assert resolved.workers == 5
        assert isinstance(get_executor(), SerialExecutor)

    @pytest.mark.parametrize(
        "bad",
        ["bogus", "serial:2", "threads:0", "threads:x", "processes:0", ""],
    )
    def test_bad_specs(self, bad):
        with pytest.raises(ValueError):
            get_executor(bad)

    def test_set_default_rejects_bad_spec(self):
        with EXECUTORS.scoped("threads:2"):
            with pytest.raises(ValueError):
                with EXECUTORS.scoped("bogus"):
                    pytest.fail("a bad default must not be entered")
            # a failed install must not clobber the previous default
            assert isinstance(get_executor(), ThreadExecutor)

    def test_thread_executor_validates_workers(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)

    def test_available_executors(self):
        names = available_executors()
        assert "serial" in names and "threads" in names
        assert "processes" in names

    def test_segment_support_reports(self):
        assert SerialExecutor().segment_support().ok
        assert ThreadExecutor(2).segment_support().ok
        support = ProcessExecutor(2).segment_support()
        assert isinstance(support.reason, str) and support.reason

    def test_segment_support_denied_without_shm(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        support = ProcessExecutor(2).segment_support()
        assert not support.ok
        assert "REPRO_SHM_DISABLE" in support.reason


# ---------------------------------------------------------------------------
# map_ranks semantics
# ---------------------------------------------------------------------------


def _work(flops: float = 1e6) -> Work:
    return Work(name="seg", flops=flops, bytes_unit=8.0)


#: Every rank-segment scheduler under contract; the process spec only
#: where the host can actually fork + share memory.
_SPECS = [
    "serial",
    "threads:4",
    pytest.param("processes:2", marks=needs_process_segments),
]


class TestMapRanks:
    @pytest.mark.parametrize("spec", _SPECS)
    def test_results_in_rank_order(self, spec):
        comm = Communicator(8, executor=spec)
        assert comm.map_ranks(lambda r: r * r) == [r * r for r in range(8)]

    @pytest.mark.parametrize("spec", _SPECS)
    def test_indices_subset(self, spec):
        comm = Communicator(8, executor=spec)
        assert comm.map_ranks(lambda r: -r, indices=[5, 1, 6]) == [-5, -1, -6]

    def test_empty_indices(self):
        comm = Communicator(4, executor="threads:2")
        assert comm.map_ranks(lambda r: r, indices=[]) == []

    @pytest.mark.parametrize("spec", _SPECS)
    def test_deferred_compute_matches_direct(self, spec):
        """compute() inside segments charges exactly like serial code."""
        from repro.machines.catalog import get_machine

        power3 = get_machine("Power3")
        direct = Communicator(4, machine=power3, trace=True)
        for r in range(4):
            direct.compute(r, _work((r + 1) * 1e6))

        seg = Communicator(4, machine=power3, trace=True, executor=spec)
        seg.map_ranks(lambda r: seg.compute(r, _work((r + 1) * 1e6)))

        assert np.array_equal(direct.times, seg.times)
        assert direct.meter.total_flops() == seg.meter.total_flops()
        assert direct.meter.records == seg.meter.records

    @pytest.mark.parametrize(
        "op",
        [
            lambda c, r: c.exchange([]),
            lambda c, r: c.allreduce([np.ones(3)] * 4),
            lambda c, r: c.barrier(),
            lambda c, r: c.phase("bad").__enter__(),
        ],
    )
    def test_communication_inside_segment_raises(self, op):
        comm = Communicator(4, executor="threads:2")
        with pytest.raises(RuntimeError, match="map_ranks"):
            comm.map_ranks(lambda r: op(comm, r))

    def test_nested_map_ranks_raises(self):
        comm = Communicator(4, executor="threads:2")
        with pytest.raises(RuntimeError, match="nest"):
            comm.map_ranks(lambda r: comm.map_ranks(lambda q: q))

    @pytest.mark.parametrize("spec", _SPECS)
    def test_exception_propagates_and_charges_nothing(self, spec):
        from repro.machines.catalog import get_machine

        comm = Communicator(4, machine=get_machine("Power3"), executor=spec)

        def boom(rank):
            comm.compute(rank, _work())
            raise KeyError("segment failed")

        before = comm.times.copy()
        with pytest.raises(KeyError, match="segment failed"):
            comm.map_ranks(boom)
        # failed regions replay nothing: the clocks are untouched
        assert np.array_equal(comm.times, before)
        # ...and the communicator is usable again afterwards
        comm.map_ranks(lambda r: comm.compute(r, _work()))
        assert (comm.times > before).all()

    def test_threads_actually_overlap(self):
        """ThreadExecutor runs segments on multiple threads."""
        comm = Communicator(4, executor=ThreadExecutor(4))
        barrier = threading.Barrier(4, timeout=10.0)
        idents = comm.map_ranks(
            lambda r: (barrier.wait(), threading.get_ident())[1]
        )
        assert len(set(idents)) > 1

    @needs_process_segments
    def test_processes_actually_fork(self):
        """ProcessExecutor steps ranks in worker processes, not here."""
        comm = Communicator(4, executor="processes:2")
        parent = os.getpid()
        pids = comm.map_ranks(lambda r: os.getpid())
        assert parent not in pids
        assert len(set(pids)) == 2  # two shards, one worker each

    @needs_process_segments
    def test_unpicklable_segment_result_is_named(self):
        comm = Communicator(4, executor="processes:2")
        with pytest.raises(RuntimeError, match="pickled"):
            comm.map_ranks(lambda r: threading.Lock())


# ---------------------------------------------------------------------------
# capability policy: explicit incapable specs fail, ambient ones degrade
# ---------------------------------------------------------------------------


class TestProcessCapabilityPolicy:
    @needs_process_segments
    def test_communicator_accepts_processes_when_capable(self):
        comm = Communicator(4, executor="processes:2")
        assert comm.executor.name == "processes"
        assert not comm.executor.in_process

    def test_explicit_incapable_spec_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        with pytest.raises(ValueError, match="REPRO_SHM_DISABLE"):
            Communicator(4, executor="processes:2")

    def test_ambient_incapable_spec_degrades_with_warning(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        monkeypatch.setenv("REPRO_EXECUTOR", "processes:2")
        with pytest.warns(RuntimeWarning, match="using 'serial' instead"):
            comm = Communicator(4)
        assert comm.executor.name == "serial"
        assert comm.map_ranks(lambda r: r) == [0, 1, 2, 3]

    def test_harness_degrades_incapable_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        with pytest.warns(RuntimeWarning, match="using 'serial' instead"):
            result = _run("lbmhd", 4, "processes:2", arena=True)
        assert result.comm.executor.name == "serial"


# ---------------------------------------------------------------------------
# the equivalence matrix: 4 apps x P in {1, 4, 8}, serial vs threaded
# ---------------------------------------------------------------------------


def _params_for(app: str, nprocs: int):
    if app == "lbmhd":
        from repro.apps.lbmhd import LBMHDParams

        return LBMHDParams(shape=(8, 8, 8)), 3
    if app == "gtc":
        from repro.apps.gtc import GTCParams

        return (
            GTCParams(
                mpsi=8,
                mtheta=16,
                ntoroidal=min(nprocs, 4),
                particles_per_cell=3,
            ),
            2,
        )
    if app == "fvcam":
        from repro.apps.fvcam import FVCAMParams, LatLonGrid

        # 4 steps crosses both the physics and remap intervals
        return FVCAMParams(grid=LatLonGrid(im=24, jm=24, km=4), py=nprocs), 4
    if app == "paratec":
        from repro.apps.paratec import ParatecParams

        return ParatecParams(), 2
    raise AssertionError(app)


def _flatten(obj) -> list[np.ndarray]:
    """Recursively flatten nested lists/tuples of arrays (paratec bands)."""
    if isinstance(obj, np.ndarray):
        return [obj]
    out: list[np.ndarray] = []
    for item in obj:
        out.extend(_flatten(item))
    return out


def _snapshot(app: str, state) -> np.ndarray:
    if app == "lbmhd":
        return state.global_state()
    if app == "gtc":
        parts = [c.ravel() for c in state.charge]
        for p in state.particles:
            for attr in ("r", "theta", "zeta", "vpar", "weight"):
                parts.append(getattr(p, attr).ravel())
        return np.concatenate(parts)
    if app == "fvcam":
        return np.concatenate([f.ravel() for f in state.global_fields()])
    if app == "paratec":
        parts = [a.ravel() for a in _flatten(state.bands)]
        parts.append(state.result.eigenvalues.ravel())
        return np.concatenate(parts)
    raise AssertionError(app)


def _assert_ledgers_equal(a, b) -> None:
    assert set(a._buckets) == set(b._buckets)
    for phase, bucket in a._buckets.items():
        other = b._buckets[phase]
        for attr in (
            "compute_s",
            "comm_s",
            "wait_s",
            "recovery_s",
            "flops",
            "nbytes",
            "messages",
        ):
            assert np.array_equal(
                getattr(bucket, attr), getattr(other, attr)
            ), (phase, attr)


def _run(app: str, nprocs: int, executor, arena: bool):
    params, steps = _params_for(app, nprocs)
    return harness.run(
        app,
        params,
        steps=steps,
        nprocs=nprocs,
        machine="Power3",
        trace=True,
        executor=executor,
        arena=Arena() if arena else None,
    )


class TestExecutorEquivalence:
    @pytest.mark.parametrize(
        "nprocs", [1, 4, pytest.param(8, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("app", ["lbmhd", "gtc", "fvcam", "paratec"])
    def test_threaded_matches_serial_bitwise(self, app, nprocs):
        serial = _run(app, nprocs, "serial", arena=False)
        threaded = _run(app, nprocs, ThreadExecutor(4), arena=False)

        assert np.array_equal(
            _snapshot(app, serial.state), _snapshot(app, threaded.state)
        )
        # identical byte/message traffic, call mix, and virtual clocks
        assert np.array_equal(
            serial.comm.trace.matrix(), threaded.comm.trace.matrix()
        )
        assert serial.comm.trace.calls == threaded.comm.trace.calls
        assert np.array_equal(serial.comm.times, threaded.comm.times)
        _assert_ledgers_equal(serial.ledger, threaded.ledger)

    @pytest.mark.parametrize("app", ["lbmhd", "gtc", "fvcam", "paratec"])
    def test_threaded_matches_serial_with_arena(self, app):
        """The zero-copy fast paths obey the same contract (P=4)."""
        serial = _run(app, 4, "serial", arena=True)
        threaded = _run(app, 4, ThreadExecutor(4), arena=True)

        assert np.array_equal(
            _snapshot(app, serial.state), _snapshot(app, threaded.state)
        )
        assert np.array_equal(
            serial.comm.trace.matrix(), threaded.comm.trace.matrix()
        )
        assert serial.comm.trace.calls == threaded.comm.trace.calls
        assert np.array_equal(serial.comm.times, threaded.comm.times)
        _assert_ledgers_equal(serial.ledger, threaded.ledger)

    @needs_process_segments
    @pytest.mark.parametrize(
        "nprocs", [4, pytest.param(8, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("app", ["lbmhd", "gtc", "fvcam", "paratec"])
    def test_processes_match_serial_bitwise(self, app, nprocs):
        """Forked rank stepping obeys the full determinism contract."""
        serial = _run(app, nprocs, "serial", arena=False)
        procs = _run(app, nprocs, "processes:2", arena=False)

        assert np.array_equal(
            _snapshot(app, serial.state), _snapshot(app, procs.state)
        )
        assert np.array_equal(
            serial.comm.trace.matrix(), procs.comm.trace.matrix()
        )
        assert serial.comm.trace.calls == procs.comm.trace.calls
        assert np.array_equal(serial.comm.times, procs.comm.times)
        _assert_ledgers_equal(serial.ledger, procs.ledger)

    @needs_process_segments
    @pytest.mark.parametrize("app", ["lbmhd", "gtc", "fvcam", "paratec"])
    def test_processes_match_serial_with_arena(self, app):
        """The shared-memory fast paths obey the same contract (P=4):
        the harness upgrades the private arena to an shm pool and the
        forked workers' writes land bitwise where serial's would."""
        serial = _run(app, 4, "serial", arena=True)
        procs = _run(app, 4, "processes:2", arena=True)

        assert np.array_equal(
            _snapshot(app, serial.state), _snapshot(app, procs.state)
        )
        assert np.array_equal(
            serial.comm.trace.matrix(), procs.comm.trace.matrix()
        )
        assert serial.comm.trace.calls == procs.comm.trace.calls
        assert np.array_equal(serial.comm.times, procs.comm.times)
        _assert_ledgers_equal(serial.ledger, procs.ledger)

    def test_arena_path_matches_plain_path_threaded(self):
        """Fast path vs slow path equality survives the thread pool."""
        plain = _run("lbmhd", 4, ThreadExecutor(4), arena=False)
        fast = _run("lbmhd", 4, ThreadExecutor(4), arena=True)
        assert np.array_equal(
            _snapshot("lbmhd", plain.state), _snapshot("lbmhd", fast.state)
        )

    @needs_process_segments
    def test_arena_path_matches_plain_path_processes(self):
        """Fast path vs slow path equality survives forked workers."""
        plain = _run("lbmhd", 4, "processes:2", arena=False)
        fast = _run("lbmhd", 4, "processes:2", arena=True)
        assert np.array_equal(
            _snapshot("lbmhd", plain.state), _snapshot("lbmhd", fast.state)
        )

    @needs_process_segments
    def test_processes_match_serial_under_fault_plan(self):
        """Executor determinism composes with the resilience subsystem:
        an active FaultPlan injects the same faults (and charges the
        same recovery) whether segments run serial or forked."""
        from repro.resilience import FaultPlan, RetryPolicy
        from repro.resilience.inject import LatencySpike, MessageDrop

        def go(executor):
            from repro.apps.lbmhd import LBMHDParams

            plan = FaultPlan(
                faults=(
                    MessageDrop(rate=0.05),
                    LatencySpike(rate=0.1, extra_s=5e-3),
                ),
                seed=7,
            )
            return harness.run(
                "lbmhd",
                LBMHDParams(shape=(8, 8, 8)),
                steps=3,
                nprocs=4,
                machine="Power3",
                trace=True,
                executor=executor,
                arena=Arena(),
                fault_plan=plan,
                policy=RetryPolicy(),
            )

        serial = go("serial")
        procs = go("processes:2")
        assert np.array_equal(
            _snapshot("lbmhd", serial.state), _snapshot("lbmhd", procs.state)
        )
        assert np.array_equal(serial.comm.times, procs.comm.times)
        _assert_ledgers_equal(serial.ledger, procs.ledger)
        assert serial.recovery is not None and procs.recovery is not None
        assert serial.recovery.resends == procs.recovery.resends
        assert (
            serial.recovery.drops_detected == procs.recovery.drops_detected
        )

    def test_harness_rejects_executor_with_explicit_comm(self):
        comm = Communicator(1)
        with pytest.raises(ValueError, match="executor"):
            harness.run("lbmhd", steps=0, comm=comm, executor="threads")
