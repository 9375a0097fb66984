"""The executor seam: resolution, ``map_shards`` semantics, the rank team behind the process executor, and the
determinism contract.

The contract is the heart of PR 3 (extended to worker processes in
PR 6): serial, threaded, and worker-process execution of the same run
must produce *bitwise-identical* solver states, identical
``CommTrace`` byte/message matrices, identical per-phase ledger
buckets, and identical virtual clocks — only host wall-clock may
differ.  The equivalence matrix below checks every application at
P in {1, 4, 8}.
"""

from __future__ import annotations

import os
import signal
import threading
from functools import partial
from itertools import chain

import numpy as np
import pytest

from repro import harness
from repro.runtime import Arena, SharedArenaPool, ShmArena, team
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
# parallel-region semantics, with closures as shard functions
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


def _per_rank(comm, fn):
    """``fn(rank)`` for every rank, one ``map_shards`` region."""
    shards = comm.map_shards(lambda lo, hi: [fn(r) for r in range(lo, hi)])
    return list(chain.from_iterable(shards))


class TestMapRanks:
    @pytest.mark.parametrize("spec", _SPECS)
    def test_results_in_rank_order(self, spec):
        comm = Communicator(8, executor=spec)
        assert _per_rank(comm, lambda r: r * r) == [r * r for r in range(8)]

    @pytest.mark.parametrize("spec", _SPECS)
    def test_deferred_compute_matches_direct(self, spec):
        """compute() inside shards charges exactly like serial code."""
        from repro.machines.catalog import get_machine

        power3 = get_machine("Power3")
        direct = Communicator(4, machine=power3, trace=True)
        for r in range(4):
            direct.compute(r, _work((r + 1) * 1e6))

        seg = Communicator(4, machine=power3, trace=True, executor=spec)
        _per_rank(seg, lambda r: seg.compute(r, _work((r + 1) * 1e6)))

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
        with pytest.raises(RuntimeError, match="inside a parallel region"):
            _per_rank(comm, lambda r: op(comm, r))

    def test_nested_map_ranks_raises(self):
        comm = Communicator(4, executor="threads:2")
        with pytest.raises(RuntimeError, match="nest"):
            _per_rank(comm, lambda r: _per_rank(comm, lambda q: q))

    @pytest.mark.parametrize("spec", _SPECS)
    def test_exception_propagates_and_charges_nothing(self, spec):
        from repro.machines.catalog import get_machine

        comm = Communicator(4, machine=get_machine("Power3"), executor=spec)

        def boom(rank):
            comm.compute(rank, _work())
            raise KeyError("segment failed")

        before = comm.times.copy()
        with pytest.raises(KeyError, match="segment failed"):
            _per_rank(comm, boom)
        # failed regions replay nothing: the clocks are untouched
        assert np.array_equal(comm.times, before)
        # ...and the communicator is usable again afterwards
        _per_rank(comm, lambda r: comm.compute(r, _work()))
        assert (comm.times > before).all()

    def test_threads_actually_overlap(self):
        """ThreadExecutor runs shards on multiple threads."""
        comm = Communicator(4, executor=ThreadExecutor(4))
        barrier = threading.Barrier(4, timeout=10.0)
        idents = _per_rank(
            comm, lambda r: (barrier.wait(), threading.get_ident())[1]
        )
        assert len(set(idents)) > 1

    @needs_process_segments
    def test_processes_actually_fork(self):
        """ProcessExecutor steps ranks in worker processes, not here."""
        comm = Communicator(4, executor="processes:2")
        parent = os.getpid()
        pids = _per_rank(comm, lambda r: os.getpid())
        assert parent not in pids
        assert len(set(pids)) == 2  # two shards, one worker each

    @needs_process_segments
    def test_unpicklable_segment_result_is_named(self):
        comm = Communicator(4, executor="processes:2")
        with pytest.raises(RuntimeError, match="pickled"):
            _per_rank(comm, lambda r: threading.Lock())


# ---------------------------------------------------------------------------
# map_shards: the same rules, one call per contiguous shard
# ---------------------------------------------------------------------------


def _span(lo, hi):
    return (lo, hi, os.getpid())


def _charge_span(lo, hi, comm):
    for rank in range(lo, hi):
        comm.compute(rank, _work((rank + 1) * 1e6))


def _charge_then_fail(lo, hi, comm):
    _charge_span(lo, hi, comm)
    raise KeyError(f"shard {lo}:{hi} failed")


def _nested(lo, hi, comm):
    return comm.map_shards(_span)


class TestMapShards:
    def test_serial_is_one_shard(self):
        comm = Communicator(8)
        assert comm.map_shards(_span) == [(0, 8, os.getpid())]

    @pytest.mark.parametrize(
        "spec, shards",
        [
            ("threads:3", [(0, 3), (3, 6), (6, 8)]),
            ("threads:16", [(r, r + 1) for r in range(8)]),
            pytest.param(
                "processes:3",
                [(0, 3), (3, 6), (6, 8)],
                marks=needs_process_segments,
            ),
        ],
    )
    def test_shards_are_contiguous_and_in_order(self, spec, shards):
        comm = Communicator(8, executor=spec)
        assert [r[:2] for r in comm.map_shards(_span)] == shards

    @needs_process_segments
    def test_process_shards_run_one_per_worker(self):
        comm = Communicator(8, executor="processes:2")
        pids = {pid for _, _, pid in comm.map_shards(_span)}
        assert len(pids) == 2 and os.getpid() not in pids

    def test_a_subclass_sees_one_map_call_per_region(self):
        calls = []

        class Counting(SerialExecutor):
            def map(self, fn, items):
                calls.append(list(items))
                return super().map(fn, items)

        comm = Communicator(4, executor=Counting())
        comm.map_shards(_span)
        comm.map_shards(partial(_charge_span, comm=comm))
        assert calls == [[(0, 4)], [(0, 4)]]

    @pytest.mark.parametrize("spec", _SPECS)
    def test_charges_replay_like_serial_code(self, spec):
        from repro.machines.catalog import get_machine

        power3 = get_machine("Power3")
        direct = Communicator(8, machine=power3)
        for r in range(8):
            direct.compute(r, _work((r + 1) * 1e6))
        comm = Communicator(8, machine=power3, executor=spec)
        for _ in range(2):  # the second region travels as a message
            direct_before = direct.times.copy()
            comm.map_shards(partial(_charge_span, comm=comm))
        assert np.array_equal(comm.times, 2 * direct_before)
        assert comm.meter.records[:8] == direct.meter.records

    @pytest.mark.parametrize("spec", _SPECS)
    def test_exception_propagates_and_charges_nothing(self, spec):
        from repro.machines.catalog import get_machine

        comm = Communicator(4, machine=get_machine("Power3"), executor=spec)
        comm.map_shards(_span)
        before = comm.times.copy()
        with pytest.raises(KeyError, match="shard 0:"):
            comm.map_shards(partial(_charge_then_fail, comm=comm))
        assert np.array_equal(comm.times, before)
        comm.map_shards(partial(_charge_span, comm=comm))
        assert (comm.times > before).all()

    @pytest.mark.parametrize("spec", _SPECS)
    def test_regions_cannot_nest(self, spec):
        comm = Communicator(4, executor=spec)
        comm.map_shards(_span)
        with pytest.raises(RuntimeError, match="nest"):
            comm.map_shards(partial(_nested, comm=comm))


# ---------------------------------------------------------------------------
# the rank team: what a region message carries, and the team's lifecycle
# ---------------------------------------------------------------------------


def _nothing(_item):
    return None


def _pid(_item):
    return os.getpid()


def _fill_column(k, view):
    view[:, k] = k + 1.0
    return view


def _bump(k, arr):
    arr[k] += 1.0
    return arr


def _a_lock(_item):
    return threading.Lock()


def _die_once(lo, hi, flag):
    if lo <= 2 < hi and not os.path.exists(flag):
        open(flag, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return lo


@pytest.fixture
def warm_team():
    """A process executor whose team is already up, so the regions a
    test runs travel as messages (the first region of a team runs
    inherited instead)."""
    ex = ProcessExecutor(2)
    ex.map_segments(_nothing, [0, 1])
    assert ex.team.spawns == 1
    yield ex
    ex.close()


@needs_process_segments
class TestRegionMessages:
    def test_strided_shm_view_goes_and_comes_back_by_reference(
        self, warm_team
    ):
        with SharedArenaPool(slab_bytes=1 << 16) as pool:
            block = pool.allocate((4, 6))
            view = block[:, 1:5:2]  # columns 1 and 3
            home = warm_team.map_segments(
                partial(_fill_column, view=view), [0, 1]
            )
            # the workers wrote the parent's memory...
            assert (block[:, 1] == 1.0).all() and (block[:, 3] == 2.0).all()
            assert not block[:, [0, 2, 4, 5]].any()
            # ...and what they returned is a view of it, not a copy
            for result in home:
                assert np.shares_memory(result, block)
                assert result.strides == view.strides
                assert np.array_equal(result, view)
        assert warm_team.team.spawns == 1
        assert warm_team.team.bytes_sent < 2048  # names, not bytes

    def test_slab_created_after_the_fork_is_attached_by_name(
        self, warm_team
    ):
        with SharedArenaPool(slab_bytes=1 << 16) as pool:
            late = pool.allocate((4, 2))
            warm_team.map_segments(partial(_fill_column, view=late), [0, 1])
            assert (late[:, 0] == 1.0).all() and (late[:, 1] == 2.0).all()
        assert warm_team.team.spawns == 1

    def test_private_array_arrives_as_a_copy(self, warm_team):
        arr = np.zeros(2)
        home = warm_team.map_segments(partial(_bump, arr=arr), [0, 1])
        assert not arr.any()  # the workers bumped their copies
        assert [list(a) for a in home] == [[1.0, 0.0], [0.0, 1.0]]
        assert not any(np.shares_memory(a, arr) for a in home)

    def test_unpicklable_result_is_named(self, warm_team):
        with pytest.raises(RuntimeError, match="segment 0 .* pickled"):
            warm_team.map_segments(_a_lock, [0, 1])
        # the team survives a segment's failure
        assert warm_team.map_segments(_pid, [0, 1]) == [
            m.pid for m in warm_team.team._members
        ]
        assert warm_team.team.spawns == 1

    def test_unpicklable_callable_reforks_and_runs_inherited(
        self, warm_team
    ):
        assert warm_team.map_segments(lambda i: i * i, [2, 3]) == [4, 9]
        assert warm_team.team.spawns == 2

    def test_token_minted_after_the_spawn_costs_one_respawn(self, warm_team):
        old = Communicator(4, executor=warm_team)
        old.map_shards(_span)
        assert warm_team.team.spawns == 2  # old itself was new once
        new = Communicator(4, executor=warm_team)
        for comm in (new, new, old, new):
            assert comm.map_shards(_span) == comm.map_shards(_span)
        assert warm_team.team.spawns == 3
        assert warm_team.team.regions == 10

    @pytest.mark.parametrize("app", ["lbmhd", "gtc", "fvcam", "paratec"])
    def test_every_app_steps_on_one_spawn(self, app):
        ex = ProcessExecutor(2)
        params, _ = _params_for(app, 4)
        harness.run(app, params, steps=5, nprocs=4, executor=ex)
        assert ex.team.spawns == 1
        assert ex.team.regions > 5
        assert ex.team.bytes_sent > 0 and ex.team.bytes_received > 0


@needs_process_segments
class TestTeamLifecycle:
    def test_no_worker_exists_before_the_first_parallel_region(self):
        ex = ProcessExecutor(2)
        assert ex.map_segments(_pid, [0]) == [os.getpid()]  # one shard
        assert ProcessExecutor(1).map_segments(_pid, [0, 1]) == [
            os.getpid()
        ] * 2
        assert team.live_workers() == []
        assert ex.team.spawns == 0

    def test_close_is_idempotent_and_a_later_region_respawns(self):
        ex = ProcessExecutor(2)
        first = ex.map_segments(_pid, [0, 1])
        assert sorted(team.live_workers()) == sorted(first)
        ex.close()
        ex.close()
        assert team.live_workers() == []
        for pid in first:  # reaped, not merely signalled
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        second = ex.map_segments(_pid, [0, 1])
        assert ex.team.spawns == 2 and not set(first) & set(second)
        ex.close()

    def test_two_teams_and_a_process_pool_do_not_hold_each_other_up(self):
        """Later forks inherit the earlier teams' pipe ends; closing in
        any order must still return promptly."""
        a, b = ProcessExecutor(2), ProcessExecutor(2)
        a.map_segments(_nothing, [0, 1])
        b.map_segments(_nothing, [0, 1])
        ProcessExecutor(2).map(_nothing, [0, 1])  # the campaign pool
        a.close()
        assert b.map_segments(_pid, [0, 1]) == [
            m.pid for m in b.team._members
        ]
        b.close()
        assert team.live_workers() == []

    def test_harness_run_leaves_no_worker_behind(self):
        ex = ProcessExecutor(2)
        params, steps = _params_for("lbmhd", 4)
        harness.run(
            "lbmhd", params, steps=steps, nprocs=4, executor=ex,
            arena=Arena(),
        )
        assert ex.team.spawns == 1
        assert team.live_workers() == []

    def test_an_abandoned_executor_is_cleaned_up_by_the_collector(
        self, leaked_team_workers
    ):
        comm = Communicator(4, executor="processes:2")
        comm.map_shards(_span)
        assert len(team.live_workers()) == 2
        del comm
        assert leaked_team_workers() == []

    def test_leak_guard_names_workers_still_referenced(
        self, leaked_team_workers
    ):
        ex = ProcessExecutor(2)
        pids = ex.map_segments(_pid, [0, 1])
        assert sorted(leaked_team_workers()) == sorted(pids)
        ex.close()
        assert leaked_team_workers() == []

    def test_killed_worker_fails_the_region_and_the_run_recovers(
        self, tmp_path
    ):
        """SIGKILL mid-region: a RuntimeError naming pid and exit code,
        nothing charged, the next region on a fresh team, and the run
        ends bitwise where a serial run does."""
        from repro.apps.lbmhd import LBMHD3D, LBMHDParams
        from repro.machines.catalog import get_machine

        def solver(executor, arena):
            comm = Communicator(
                4, machine=get_machine("Power3"), executor=executor
            )
            return LBMHD3D(LBMHDParams(shape=(8, 8, 8)), comm, arena=arena)

        serial = solver("serial", Arena())
        serial.run(4)

        ex = ProcessExecutor(2)
        with SharedArenaPool() as pool:
            procs = solver(ex, pool.arena("run"))
            procs.run(2)
            victim = ex.team._members[1].pid
            before = procs.comm.times.copy()
            with pytest.raises(RuntimeError) as exc:
                procs.comm.map_shards(
                    partial(_die_once, flag=str(tmp_path / "died"))
                )
            assert f"pid {victim}" in str(exc.value)
            assert "exit code -9" in str(exc.value)
            assert np.array_equal(procs.comm.times, before)
            assert team.live_workers() == []  # the survivor went too
            procs.run(2)
            assert ex.team.spawns == 2
            assert np.array_equal(procs.global_state(), serial.global_state())
            assert np.array_equal(procs.comm.times, serial.comm.times)
            ex.close()


# ---------------------------------------------------------------------------
# the executor decides what memory backs a run's arena
# ---------------------------------------------------------------------------


class TestExecutorArena:
    @pytest.mark.parametrize("ex", [SerialExecutor(), ThreadExecutor(2)])
    def test_in_process_executors_serve_fresh_private_arenas(self, ex):
        a, b = ex.arena("x"), ex.arena("x")
        assert a is not b and a.name == "x" and not a.shared
        assert ex.adopt(a, "unused") is a
        assert ex.adopt(None, "own").name == "own"

    @needs_process_segments
    def test_process_executor_serves_shared_arenas_until_closed(self):
        ex = ProcessExecutor(2)
        arena = ex.arena("run")
        block = arena.scratch("block", 64)
        assert isinstance(arena, ShmArena) and arena.shared
        assert ex.adopt(arena, "unused") is arena
        names = [f"/dev/shm/{n}" for n in arena.pool.handles().segments]
        assert names and all(os.path.exists(n) for n in names)
        ex.close()
        ex.close()
        assert not any(os.path.exists(n) for n in names)
        assert not arena.shared
        block[:] = 1.0  # a live view outlives the segment's name
        # the executor stays usable: the next arena brings a pool back
        again = ex.arena("run")
        assert again.shared and again.pool is not arena.pool
        ex.close()

    @needs_process_segments
    def test_solver_on_process_executor_refuses_a_private_arena(self):
        """It used to fall back, silently, to another step path."""
        from repro.apps.gtc import GTC, GTCParams
        from repro.apps.lbmhd import LBMHD3D, LBMHDParams
        from repro.apps.paratec import Paratec, ParatecParams

        ex = ProcessExecutor(2)
        lbmhd = LBMHDParams(shape=(8, 8, 8))
        for solver, params in (
            (LBMHD3D, lbmhd),
            (GTC, GTCParams(mpsi=8, mtheta=16, particles_per_cell=3)),
            (Paratec, ParatecParams()),
        ):
            with pytest.raises(ValueError, match=r"omit arena=.*\.arena\(\)"):
                solver(params, Communicator(4, executor=ex), arena=Arena())
        # the fix the message names
        procs = LBMHD3D(
            lbmhd, Communicator(4, executor=ex), arena=ex.arena("mine")
        )
        serial = LBMHD3D(lbmhd, Communicator(4))
        procs.run(2)
        serial.run(2)
        assert ex.team.spawns == 1
        assert np.array_equal(procs.global_state(), serial.global_state())
        ex.close()
        # closing the executor took the shared memory with it: workers
        # would now step copies of the block, so the solver says so
        with pytest.raises(ValueError, match="pool has been closed"):
            procs.step()


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
        assert comm.map_shards(_span) == [(0, 4, os.getpid())]

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


def _snapshot(app: str, state) -> np.ndarray:
    if app == "lbmhd":
        return state.global_state()
    if app == "gtc":
        parts = [c.ravel() for c in state.charge]
        parts += [f.ravel() for f in state.phi]
        for p in state.particles:
            for attr in ("r", "theta", "zeta", "vpar", "weight"):
                parts.append(getattr(p, attr).ravel())
        return np.concatenate(parts)
    if app == "fvcam":
        return np.concatenate([f.ravel() for f in state.global_fields()])
    if app == "paratec":
        # one (nbands, ng_local) stack per rank
        parts = [block.ravel() for block in state.bands]
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
    """``arena=True`` hands the run a caller's (private) arena;
    ``False`` leaves the solver to take its own from the executor."""
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
        """A caller's arena obeys the same contract (P=4)."""
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
        """A caller's private arena obeys the same contract (P=4): the
        run takes a shared one of that name from its executor, and the
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

    @pytest.mark.parametrize(
        "ntoroidal",
        [4, 1, 2],
        ids=["domain-over-two-shards", "one-domain", "two-domains"],
    )
    @pytest.mark.parametrize(
        "spec",
        ["threads:3", pytest.param("processes:3", marks=needs_process_segments)],
    )
    def test_gtc_domain_straddling_shards_matches_serial(
        self, spec, ntoroidal
    ):
        """P=8 on three workers is shards [0,3) [3,6) [6,8), so domain
        1's ranks {2, 3} (or, with one domain, all eight ranks) span
        more than one shard.  The domain is solved once, by the shard
        holding its first rank, and charged rank by rank wherever its
        ranks fall.  With two domains, four ranks a domain, each rank's
        left and right neighbour is the same rank."""
        from repro.apps.gtc import GTCParams

        params = GTCParams(
            mpsi=8, mtheta=16, ntoroidal=ntoroidal, particles_per_cell=3
        )

        def go(executor):
            return harness.run(
                "gtc",
                params,
                steps=2,
                nprocs=8,
                machine="Power3",
                trace=True,
                executor=executor,
            )

        serial, sharded = go("serial"), go(spec)
        assert np.array_equal(
            _snapshot("gtc", serial.state), _snapshot("gtc", sharded.state)
        )
        assert np.array_equal(
            serial.comm.trace.matrix(), sharded.comm.trace.matrix()
        )
        assert serial.comm.trace.calls == sharded.comm.trace.calls
        assert np.array_equal(serial.comm.times, sharded.comm.times)
        _assert_ledgers_equal(serial.ledger, sharded.ledger)

    def test_arena_path_matches_plain_path_threaded(self):
        """Whose arena it is does not show, on the thread pool either."""
        own = _run("lbmhd", 4, ThreadExecutor(4), arena=False)
        given = _run("lbmhd", 4, ThreadExecutor(4), arena=True)
        assert np.array_equal(
            _snapshot("lbmhd", own.state), _snapshot("lbmhd", given.state)
        )
        assert np.array_equal(own.comm.times, given.comm.times)

    @needs_process_segments
    def test_arena_path_matches_plain_path_processes(self):
        """Whose arena it is does not show on forked workers either:
        both runs end up in shared memory from the executor's pool."""
        own = _run("lbmhd", 4, "processes:2", arena=False)
        given = _run("lbmhd", 4, "processes:2", arena=True)
        assert np.array_equal(
            _snapshot("lbmhd", own.state), _snapshot("lbmhd", given.state)
        )
        assert np.array_equal(own.comm.times, given.comm.times)
        for result in (own, given):
            assert isinstance(result.state.arena, ShmArena)

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

    @pytest.mark.parametrize("faulty", [False, True], ids=["plain", "faults"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "kind",
        ["threads", pytest.param("processes", marks=needs_process_segments)],
    )
    def test_lbmhd_arena_shards_match_allocating_path(
        self, kind, workers, faulty
    ):
        """The step collides and streams a shard of ranks per call; at
        P=8 that is shards of 8, 4/4, 3/3/2 and 2/2/2/1/1 ranks, each
        bitwise the serial executor's one whole-block shard — state,
        clocks, trace and ledger, with and without injected faults."""
        from repro.apps.lbmhd import LBMHDParams
        from repro.resilience import FaultPlan, RetryPolicy
        from repro.resilience.inject import LatencySpike, MessageDrop

        def go(executor, arena):
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
                nprocs=8,
                machine="Power3",
                trace=True,
                executor=executor,
                arena=arena,
                fault_plan=plan if faulty else None,
                policy=RetryPolicy() if faulty else None,
            )

        whole = go("serial", None)
        sharded = go(f"{kind}:{workers}", Arena())
        assert np.array_equal(
            _snapshot("lbmhd", whole.state), _snapshot("lbmhd", sharded.state)
        )
        assert np.array_equal(
            whole.comm.trace.matrix(), sharded.comm.trace.matrix()
        )
        assert np.array_equal(whole.comm.times, sharded.comm.times)
        _assert_ledgers_equal(whole.ledger, sharded.ledger)
        if faulty:
            assert whole.recovery.resends == sharded.recovery.resends > 0

    def test_harness_rejects_executor_with_explicit_comm(self):
        comm = Communicator(1)
        with pytest.raises(ValueError, match="executor"):
            harness.run("lbmhd", steps=0, comm=comm, executor="threads")
