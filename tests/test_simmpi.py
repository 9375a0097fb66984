"""Tests for the simulated MPI runtime: clocks, tracing, communicator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machines import get_machine
from repro.simmpi import Communicator, CommTrace, Message, VirtualClock
from repro.workload import Work


class TestVirtualClock:
    def test_advance_and_elapsed(self):
        c = VirtualClock(4)
        c.advance(2, 1.5)
        assert c.elapsed == 1.5
        assert c.time(0) == 0.0

    def test_negative_rejected(self):
        c = VirtualClock(2)
        with pytest.raises(ValueError):
            c.advance(0, -1.0)

    def test_synchronize_group(self):
        c = VirtualClock(4)
        c.advance(0, 5.0)
        c.synchronize([0, 1])
        assert c.time(1) == 5.0
        assert c.time(2) == 0.0

    def test_imbalance(self):
        c = VirtualClock(2)
        assert c.imbalance() == 0.0
        c.advance(0, 4.0)
        c.advance(1, 2.0)
        assert c.imbalance() == pytest.approx(0.5)

    def test_reset(self):
        c = VirtualClock(2)
        c.advance(0, 1.0)
        c.reset()
        assert c.elapsed == 0.0


class TestCommTrace:
    def test_record_volume(self):
        t = CommTrace(4)
        t.record(0, 1, 100.0)
        t.record(0, 1, 50.0)
        assert t.matrix()[0, 1] == 150.0
        assert t.total_bytes == 150.0

    def test_partners(self):
        t = CommTrace(4)
        t.record(0, 2, 10.0)
        t.record(3, 0, 10.0)
        assert t.partners(0) == [2, 3]

    def test_kind_accounting(self):
        t = CommTrace(2)
        t.record(0, 1, 10.0, kind="ptp")
        t.record(1, 0, 20.0, kind="alltoall")
        assert t.calls["ptp"] == 1
        assert t.bytes_by_kind["alltoall"] == 20.0

    def test_render_shapes(self):
        t = CommTrace(8)
        for i in range(8):
            t.record(i, (i + 1) % 8, 1000.0)
        art = t.render()
        assert len(art.splitlines()) == 8

    def test_reset(self):
        t = CommTrace(2)
        t.record(0, 1, 5.0)
        t.reset()
        assert t.total_bytes == 0.0


class TestExchange:
    def test_payload_delivery(self):
        comm = Communicator(3)
        data = np.arange(5.0)
        out = comm.exchange([Message(src=0, dst=2, payload=data)])
        np.testing.assert_array_equal(out[2][0], data)

    def test_payload_is_copied(self):
        comm = Communicator(2)
        data = np.ones(4)
        out = comm.exchange([Message(src=0, dst=1, payload=data)])
        data[:] = 99.0
        assert out[1][0][0] == 1.0

    def test_posting_order_preserved(self):
        comm = Communicator(3)
        out = comm.exchange(
            [
                Message(src=0, dst=2, payload=np.array([1.0])),
                Message(src=1, dst=2, payload=np.array([2.0])),
            ]
        )
        assert [a[0] for a in out[2]] == [1.0, 2.0]

    def test_ideal_comm_charges_no_time(self):
        comm = Communicator(2)
        comm.exchange([Message(src=0, dst=1, payload=np.ones(1000))])
        assert comm.elapsed == 0.0

    def test_machine_comm_charges_time(self):
        comm = Communicator(32, machine=get_machine("Power3"))
        comm.exchange([Message(src=0, dst=31, payload=np.ones(100_000))])
        # Inter-node on Power3: at least latency + bytes/bw.
        assert comm.elapsed >= 16.3e-6

    def test_rank_out_of_range(self):
        comm = Communicator(2)
        with pytest.raises(IndexError):
            comm.exchange([Message(src=0, dst=5, payload=np.ones(2))])

    def test_trace_records_exchange(self):
        comm = Communicator(2, trace=True)
        comm.exchange([Message(src=0, dst=1, payload=np.ones(10))])
        assert comm.trace.matrix()[0, 1] == 80.0

    def test_receiver_waits_for_sender(self):
        comm = Communicator(32, machine=get_machine("ES"))
        w = Work(name="x", flops=1e9, bytes_unit=0.0)
        comm.compute(0, w)  # rank 0 is now ahead
        t0 = comm.time(0)
        comm.exchange([Message(src=0, dst=16, payload=np.ones(10))])
        assert comm.time(16) >= t0  # receiver waited for the send


class TestCollectiveSemantics:
    def test_allreduce_sum(self):
        comm = Communicator(4)
        out = comm.allreduce([np.full(3, float(i)) for i in range(4)])
        for arr in out:
            np.testing.assert_allclose(arr, 6.0)

    def test_allreduce_max(self):
        comm = Communicator(3)
        out = comm.allreduce(
            [np.array([1.0]), np.array([5.0]), np.array([3.0])], op="max"
        )
        assert out[0][0] == 5.0

    def test_allreduce_results_independent(self):
        comm = Communicator(2)
        out = comm.allreduce([np.ones(2), np.ones(2)])
        out[0][:] = 0.0
        assert out[1][0] == 2.0

    def test_allreduce_bad_op(self):
        comm = Communicator(2)
        with pytest.raises(KeyError):
            comm.allreduce([np.ones(1), np.ones(1)], op="xor")

    def test_allreduce_shape_mismatch(self):
        comm = Communicator(2)
        with pytest.raises(ValueError):
            comm.allreduce([np.ones(2), np.ones(3)])

    def test_alltoallv_transposes(self):
        comm = Communicator(3)
        send = [
            [np.array([10.0 * i + j]) for j in range(3)] for i in range(3)
        ]
        recv = comm.alltoallv(send)
        # recv[j][i] == send[i][j]
        for i in range(3):
            for j in range(3):
                assert recv[j][i][0] == 10.0 * i + j

    def test_gather(self):
        comm = Communicator(3)
        out = comm.gather([np.array([float(i)]) for i in range(3)])
        assert [a[0] for a in out] == [0.0, 1.0, 2.0]

    def test_barrier_synchronizes(self):
        comm = Communicator(4, machine=get_machine("ES"))
        comm.compute(0, Work(name="x", flops=1e9))
        comm.barrier()
        times = comm.times
        assert np.allclose(times, times[0])


class TestSplit:
    def test_split_groups(self):
        comm = Communicator(6)
        subs = comm.split([0, 0, 1, 1, 2, 2])
        assert [s.ranks for s in subs] == [[0, 1], [2, 3], [4, 5]]

    def test_split_shares_clock(self):
        comm = Communicator(4, machine=get_machine("ES"))
        subs = comm.split([0, 0, 1, 1])
        subs[1].compute(0, Work(name="x", flops=1e9))  # global rank 2
        assert comm.time(2) > 0.0
        assert comm.time(0) == 0.0

    def test_split_wrong_length(self):
        comm = Communicator(4)
        with pytest.raises(ValueError):
            comm.split([0, 1])

    def test_subgroup_allreduce_isolated(self):
        comm = Communicator(4)
        subs = comm.split([0, 0, 1, 1])
        out = subs[0].allreduce([np.array([1.0]), np.array([2.0])])
        assert out[0][0] == 3.0


class TestCompute:
    def test_compute_records_meter(self):
        comm = Communicator(2)
        comm.compute(0, Work(name="k", flops=123.0))
        assert comm.meter.total_flops() == 123.0

    def test_compute_all_requires_full_list(self):
        comm = Communicator(2)
        with pytest.raises(ValueError):
            comm.compute_all([Work(name="k", flops=1.0)])

    def test_processor_model_timed_once_per_distinct_work(self):
        from repro.machines.processor import make_model
        from repro.simmpi.comm import WORK_MEMO_SIZE

        machine = get_machine("ES")
        model = make_model(machine)
        comm = Communicator(4, machine=machine)
        sub = comm.split([0, 0, 1, 1])[1]
        work = Work(name="k", flops=1e9, bytes_unit=1e8)
        # an equal record built apart from the first hits the memo too
        charged = [comm.compute(0, work), sub.compute(1, Work(**vars(work)))]
        assert charged == [model.time(work)] * 2
        assert comm._proc_time.cache_info().hits == 1
        # one record per population size, as a particle code charges
        for n in range(2 * WORK_MEMO_SIZE):
            w = Work(name="push", flops=700.0 * n)
            assert comm.compute(n % 4, w) == model.time(w)
        assert comm._proc_time.cache_info().currsize == WORK_MEMO_SIZE

    @given(st.integers(min_value=1, max_value=16))
    def test_construction_sizes(self, n):
        assert Communicator(n).nprocs == n

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            Communicator(0)
