"""Transport edge cases reachable through the public Communicator API.

Pins down behavior the apps rely on implicitly: a rank may message
itself, same-tag messages between one pair never overtake each other
(FIFO posting order), and zero-byte traffic is legitimate through both
the data-moving and the accounting-only exchange paths — including on
a communicator driven by the threaded executor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines.catalog import get_machine
from repro.simmpi import Communicator
from repro.simmpi.comm import Message
from repro.workload import Work

POWER3 = get_machine("Power3")


class TestSelfSend:
    def test_exchange_delivers_self_message(self):
        comm = Communicator(4)
        payload = np.arange(5.0)
        out = comm.exchange([Message(src=2, dst=2, payload=payload)])
        assert list(out) == [2]
        assert np.array_equal(out[2][0], payload)

    def test_self_message_is_copied_by_default(self):
        comm = Communicator(2)
        payload = np.ones(3)
        out = comm.exchange([Message(src=0, dst=0, payload=payload)])
        payload[:] = -1.0
        assert np.array_equal(out[0][0], np.ones(3))

    def test_sendrecv_self(self):
        comm = Communicator(3)
        got = comm.sendrecv(1, 1, np.full(4, 7.0))
        assert np.array_equal(got, np.full(4, 7.0))

    def test_self_send_is_free_on_the_wire(self):
        """A self-send never touches the network model (cost 0)."""
        comm = Communicator(2, machine=POWER3)
        before = comm.times.copy()
        comm.exchange([Message(src=0, dst=0, payload=np.ones(64))])
        assert comm.times[0] == before[0]
        # a real neighbor message does pay
        comm.exchange([Message(src=0, dst=1, payload=np.ones(64))])
        assert comm.times[1] > before[1]


class TestDuplicateTags:
    def test_same_tag_messages_arrive_in_posting_order(self):
        """Non-overtaking: same (src, dst, tag) preserves FIFO order."""
        comm = Communicator(2)
        first = comm.isend(0, 1, np.array([1.0]), tag=9)
        second = comm.isend(0, 1, np.array([2.0]), tag=9)
        comm.waitall()
        assert first.data is not None and second.data is not None
        assert first.data[0] == 1.0
        assert second.data[0] == 2.0

    def test_mixed_tags_still_fifo_per_pair(self):
        comm = Communicator(2)
        reqs = [
            comm.isend(0, 1, np.array([float(i)]), tag=i % 2)
            for i in range(6)
        ]
        received = comm.waitall()
        # delivery order at the receiver is posting order, tags or not
        assert [p[0] for p in received[1]] == [float(i) for i in range(6)]
        assert [r.data[0] for r in reqs] == [float(i) for i in range(6)]

    def test_waitall_drains_pending(self):
        comm = Communicator(2)
        comm.isend(0, 1, np.zeros(1), tag=3)
        comm.isend(0, 1, np.zeros(1), tag=3)
        assert comm.pending_requests == 2
        comm.waitall()
        assert comm.pending_requests == 0
        assert comm.waitall() == {}


class TestZeroByteMessages:
    def test_exchange_zero_byte_payload(self):
        comm = Communicator(2, trace=True)
        out = comm.exchange([Message(src=0, dst=1, payload=np.empty(0))])
        assert out[1][0].size == 0
        assert comm.trace.matrix()[0, 1] == 0
        # counted as a call even though it carries no bytes
        assert comm.trace.calls["ptp"] == 1

    @pytest.mark.parametrize("executor", ["serial", "threads:4"])
    def test_exchange_phase_zero_bytes_threaded(self, executor):
        """The accounting-only bulk path accepts zero-size messages on
        a threaded communicator and books identical ledgers."""
        comm = Communicator(
            4, machine=POWER3, trace=True, executor=executor
        )
        ledger = comm.attach_phase_ledger()
        with comm.phase("halo"):
            comm.exchange_phase([0, 1, 2], [1, 2, 3], 0)
            # threaded compute segments around it stay legal
            comm.map_shards(
                lambda lo, hi: [
                    comm.compute(r, Work(name="noop", flops=1.0e3))
                    for r in range(lo, hi)
                ]
            )
        bucket = ledger.bucket("halo")
        assert bucket.messages.sum() == 3
        assert bucket.nbytes.sum() == 0
        # zero bytes still pay wire latency on a modeled machine
        assert bucket.comm_s.sum() > 0.0

    def test_exchange_phase_threaded_matches_serial(self):
        def run(executor):
            comm = Communicator(4, machine=POWER3, executor=executor)
            ledger = comm.attach_phase_ledger()
            with comm.phase("halo"):
                comm.exchange_phase([0, 1, 2, 3], [1, 2, 3, 0], [0, 8, 0, 16])
            return comm.times.copy(), ledger.bucket("halo")

        t_serial, b_serial = run("serial")
        t_threads, b_threads = run("threads:4")
        assert np.array_equal(t_serial, t_threads)
        for attr in ("compute_s", "comm_s", "wait_s", "nbytes", "messages"):
            assert np.array_equal(
                getattr(b_serial, attr), getattr(b_threads, attr)
            ), attr

    def test_exchange_phase_rejects_bad_sizes(self):
        comm = Communicator(2)
        with pytest.raises(ValueError):
            comm.exchange_phase([0], [1], [4, 4])
        with pytest.raises(ValueError):
            comm.exchange_phase([0], [1], -1)
        with pytest.raises(IndexError):
            comm.exchange_phase([0], [5], 4)

    def test_exchange_inside_map_ranks_raises(self):
        comm = Communicator(2, executor="threads:2")

        def bad(lo, hi):
            comm.exchange_phase([0], [1], 0)

        with pytest.raises(RuntimeError):
            comm.map_shards(bad)
