"""Unit tests of the resilience subsystem: injectors, policies, stores."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.machines.catalog import get_machine
from repro.resilience import (
    BitFlip,
    DiskCheckpointStore,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    MemoryCheckpointStore,
    MessageDrop,
    RankFailure,
    RankFailureError,
    RetryPolicy,
    UnrecoverableMessageError,
    payload_crc,
    snapshot_nbytes,
)
from repro.resilience.checkpoint import (
    copy_tree,
    flatten_tree,
    unflatten_tree,
)
from repro.simmpi import Communicator
from repro.simmpi.comm import Message


class TestFaultSpecs:
    def test_matches_all_wildcards(self):
        spec = MessageDrop()
        assert spec.matches(step=3, phase="halo", src=0, dst=1, attempt=0)

    def test_repeat_limits_attempts(self):
        spec = MessageDrop(repeat=2)
        assert spec.matches(step=0, phase=None, src=0, dst=1, attempt=1)
        assert not spec.matches(step=0, phase=None, src=0, dst=1, attempt=2)

    def test_selective_fields(self):
        spec = MessageDrop(phase="halo", step=2, src=1, dst=0)
        assert spec.matches(step=2, phase="halo", src=1, dst=0, attempt=0)
        assert not spec.matches(step=1, phase="halo", src=1, dst=0, attempt=0)
        assert not spec.matches(step=2, phase="cg", src=1, dst=0, attempt=0)
        assert not spec.matches(step=2, phase="halo", src=0, dst=0, attempt=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MessageDrop(rate=1.5)
        with pytest.raises(ValueError):
            MessageDrop(repeat=0)
        with pytest.raises(ValueError):
            BitFlip(bit=8)
        with pytest.raises(ValueError):
            LatencySpike(extra_s=-1.0)
        with pytest.raises(ValueError):
            RankFailure(rank=-1)
        with pytest.raises(TypeError):
            FaultPlan(faults=("drop",))

    def test_seeded_rate_draws_are_reproducible(self):
        def outcomes():
            inj = FaultInjector(
                FaultPlan(faults=(MessageDrop(rate=0.5),), seed=3)
            )
            inj.begin_step(0)
            specs = inj.verdicts(
                phase=None, granks=[(0, 1)] * 32, nbytes=[8] * 32, attempt=0
            )
            return [spec is not None for spec in specs]

        first, second = outcomes(), outcomes()
        assert first == second
        assert any(first) and not all(first)


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        p = RetryPolicy(backoff_base=1e-4, backoff_factor=2.0)
        assert p.backoff(1) == pytest.approx(1e-4)
        assert p.backoff(3) == pytest.approx(4e-4)
        with pytest.raises(ValueError):
            p.backoff(0)

    def test_checkpoint_time_scales(self):
        p = RetryPolicy(checkpoint_bandwidth=1e9, restore_bandwidth=2e9)
        assert p.checkpoint_time(1e9, 1) == pytest.approx(1.0)
        assert p.checkpoint_time(1e9, 4) == pytest.approx(0.25)
        assert p.restore_time(1e9, 1) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(checkpoint_bandwidth=0.0)

    def test_crc_detects_single_bit_flip(self):
        payload = np.arange(16.0)
        crc = payload_crc(payload)
        corrupted = payload.copy()
        corrupted.view(np.uint8)[5] ^= 1
        assert payload_crc(corrupted) != crc
        assert payload_crc(payload.copy()) == crc


class TestResilientExchange:
    def _comm(self, plan, policy=None):
        comm = Communicator(4)
        ledger = comm.attach_phase_ledger()
        comm.enable_resilience(plan, policy=policy)
        return comm, ledger

    def test_drop_is_retransmitted_intact(self):
        comm, ledger = self._comm(
            FaultPlan(faults=(MessageDrop(src=0, dst=1),))
        )
        comm.fault_injector.begin_step(0)
        with comm.phase("halo"):
            out = comm.exchange([Message(0, 1, np.arange(6.0))])
        assert np.array_equal(out[1][0], np.arange(6.0))
        stats = comm.recovery_stats
        assert stats.drops_detected == 1
        assert stats.resends == 1
        assert ledger.bucket("halo").recovery_s.sum() > 0.0

    def test_corruption_detected_by_crc(self):
        comm, _ = self._comm(
            FaultPlan(faults=(BitFlip(src=0, dst=1, byte_index=2, bit=7),))
        )
        comm.fault_injector.begin_step(0)
        out = comm.exchange([Message(0, 1, np.ones(8))])
        assert np.array_equal(out[1][0], np.ones(8))
        assert comm.recovery_stats.corruptions_detected == 1

    def test_latency_spike_charges_receiver_only(self):
        comm, ledger = self._comm(
            FaultPlan(faults=(LatencySpike(dst=1, extra_s=5e-3),))
        )
        comm.fault_injector.begin_step(0)
        with comm.phase("halo"):
            out = comm.exchange([Message(0, 1, np.ones(4))])
        assert np.array_equal(out[1][0], np.ones(4))
        stats = comm.recovery_stats
        assert stats.delays_absorbed == 1
        assert stats.resends == 0
        recov = ledger.bucket("halo").recovery_s
        assert recov[1] == pytest.approx(5e-3)
        assert recov[0] == 0.0

    def test_posting_order_survives_faults(self):
        comm, _ = self._comm(
            FaultPlan(faults=(MessageDrop(src=0, dst=2),))
        )
        comm.fault_injector.begin_step(0)
        out = comm.exchange(
            [
                Message(0, 2, np.array([1.0])),
                Message(1, 2, np.array([2.0])),
                Message(0, 2, np.array([3.0])),
            ]
        )
        assert [p[0] for p in out[2]] == [1.0, 2.0, 3.0]

    def test_persistent_fault_exhausts_retries(self):
        plan = FaultPlan(faults=(MessageDrop(src=0, dst=1, repeat=99),))
        comm, _ = self._comm(plan, RetryPolicy(max_retries=3))
        comm.fault_injector.begin_step(0)
        with pytest.raises(UnrecoverableMessageError):
            comm.exchange([Message(0, 1, np.ones(4))])

    def test_empty_plan_is_accounting_neutral(self):
        def totals(resilient):
            comm = Communicator(
                4, machine=get_machine("Power3"), trace=True
            )
            ledger = comm.attach_phase_ledger()
            if resilient:
                comm.enable_resilience(FaultPlan())
            with comm.phase("halo"):
                comm.exchange(
                    [
                        Message(0, 1, np.arange(32.0)),
                        Message(1, 2, np.ones(8)),
                        Message(3, 0, np.empty(0)),
                    ]
                )
            t = ledger.totals()
            return (
                comm.times.copy(),
                comm.trace.matrix(),
                {
                    k: np.asarray(getattr(t, k)).copy()
                    for k in (
                        "compute_s",
                        "comm_s",
                        "wait_s",
                        "recovery_s",
                        "nbytes",
                        "messages",
                    )
                },
            )

        times_a, mat_a, led_a = totals(False)
        times_b, mat_b, led_b = totals(True)
        assert np.array_equal(times_a, times_b)
        assert np.array_equal(mat_a, mat_b)
        for k in led_a:
            assert np.array_equal(led_a[k], led_b[k]), k

    def test_zero_byte_message_survives_bitflip_plan(self):
        comm, _ = self._comm(FaultPlan(faults=(BitFlip(),)))
        comm.fault_injector.begin_step(0)
        out = comm.exchange([Message(0, 1, np.empty(0))])
        assert out[1][0].size == 0
        assert comm.recovery_stats.corruptions_detected == 0

    def test_rank_failure_fires_once_at_collective(self):
        comm, _ = self._comm(
            FaultPlan(faults=(RankFailure(rank=2, step=1),))
        )
        inj = comm.fault_injector
        inj.begin_step(0)
        comm.allreduce([np.ones(2)] * 4)  # step 0: nothing scheduled
        inj.end_step()
        inj.begin_step(1)
        with pytest.raises(RankFailureError) as err:
            comm.allreduce([np.ones(2)] * 4)
        assert err.value.rank == 2 and err.value.step == 1
        inj.end_step()  # one-shot: must not re-raise
        comm.allreduce([np.ones(2)] * 4)

    def test_rank_failure_fires_at_step_boundary(self):
        """A communication-free step still notices the death."""
        comm, _ = self._comm(
            FaultPlan(faults=(RankFailure(rank=0, step=0),))
        )
        inj = comm.fault_injector
        inj.begin_step(0)
        with pytest.raises(RankFailureError):
            inj.end_step()

    def test_plan_naming_absent_ranks_is_rejected(self):
        comm = Communicator(4)
        for spec in (
            MessageDrop(src=9, dst=0),
            BitFlip(dst=4),
            RankFailure(rank=7, step=2),
        ):
            with pytest.raises(ValueError, match=re.escape(repr(spec))):
                comm.enable_resilience(FaultPlan(faults=(spec,)))
        assert comm.fault_injector is None
        # a subgroup's plan still names world ranks
        low, high = comm.split([0, 0, 1, 1])
        high.enable_resilience(FaultPlan(faults=(MessageDrop(src=3),)))
        assert comm.fault_injector is not None

    def test_harness_rejects_plan_naming_absent_ranks(self):
        from repro import harness

        plan = FaultPlan(
            faults=(RankFailure(rank=7, step=2), MessageDrop(src=9, dst=0))
        )
        with pytest.raises(ValueError, match="RankFailure"):
            harness.run(
                "lbmhd", steps=4, nprocs=4, machine="Power3",
                fault_plan=plan, checkpoint_every=2,
            )

    def test_world_plan_governs_subgroup_exchanges(self):
        """Faults match global ranks, and the resilience box is shared:
        a drop of world 2->3 hits the second subgroup's local 0->1."""
        comm, ledger = self._comm(
            FaultPlan(faults=(MessageDrop(src=2, dst=3),))
        )
        comm.fault_injector.begin_step(0)
        low, high = comm.split([0, 0, 1, 1])
        with comm.phase("halo"):
            out_low = low.exchange([Message(0, 1, np.arange(3.0))])
            assert comm.recovery_stats.resends == 0
            out_high = high.exchange([Message(0, 1, np.arange(5.0))])
        assert np.array_equal(out_low[1][0], np.arange(3.0))
        assert np.array_equal(out_high[1][0], np.arange(5.0))
        stats = comm.recovery_stats
        assert stats.drops_detected == stats.resends == 1
        assert stats.resend_bytes == 5 * 8
        recov = ledger.bucket("halo").recovery_s
        assert recov[0] == recov[1] == 0.0
        assert recov[2] > 0.0 and recov[3] > 0.0

    def test_disable_resilience_restores_plain_path(self):
        comm, _ = self._comm(
            FaultPlan(faults=(MessageDrop(src=0, dst=1, repeat=99),))
        )
        comm.disable_resilience()
        out = comm.exchange([Message(0, 1, np.arange(4.0))])
        assert np.array_equal(out[1][0], np.arange(4.0))
        assert comm.recovery_stats.drops_detected == 0


class TestBulkExchangeFaultParity:
    """``exchange_phase`` heals like ``exchange``.

    LBMHD steps through the bulk, accounting-only ``exchange_phase``;
    the seed step loop posts the same halo through per-message
    ``Communicator.exchange``.  The two charge equal compute and post
    equal messages in equal order, so under one fault plan they must
    book the same recovery, second for second — it used to fault the
    first attempt only, whatever ``repeat`` and ``max_retries`` said.
    """

    STEPS = 3

    def _pair(self, *faults):
        from repro.apps.lbmhd import LBMHD3D, LBMHDParams
        from seed_lbmhd import SeedLBMHD3D

        params = LBMHDParams(shape=(8, 8, 8))
        plan = FaultPlan(faults=faults, seed=5)
        solvers = []
        for cls in (LBMHD3D, SeedLBMHD3D):
            comm = Communicator(4, machine=get_machine("X1"), trace=True)
            comm.attach_phase_ledger()
            comm.enable_resilience(plan, policy=RetryPolicy())
            solvers.append(cls(params, comm))
        return solvers

    def _run(self, solver):
        inj = solver.comm.fault_injector
        for step in range(self.STEPS):
            inj.begin_step(step)
            solver.step()
            inj.end_step()

    def _assert_same_books(self, bulk, raw):
        assert np.array_equal(bulk.comm.times, raw.comm.times)
        assert bulk.comm.recovery_stats == raw.comm.recovery_stats
        assert np.array_equal(
            bulk.comm.trace.matrix(), raw.comm.trace.matrix()
        )
        assert bulk.comm.trace.calls == raw.comm.trace.calls
        a = bulk.comm.phase_ledger.totals()
        b = raw.comm.phase_ledger.totals()
        for k in ("comm_s", "wait_s", "recovery_s", "nbytes", "messages"):
            assert np.array_equal(getattr(a, k), getattr(b, k)), k

    @pytest.mark.parametrize(
        "repeat,drops,growth", [(1, 2, 1.0), (2, 4, 2.17)]
    )
    def test_drops_repeat_and_back_off_alike(self, repeat, drops, growth):
        def run(repeat):
            pair = self._pair(MessageDrop(src=0, dst=1, step=1, repeat=repeat))
            for solver in pair:
                self._run(solver)
            return pair

        bulk, raw = run(repeat)
        stats = bulk.comm.recovery_stats
        # rank 0 sends rank 1 its low and its high x-plane
        assert stats.drops_detected == stats.resends == drops
        self._assert_same_books(bulk, raw)
        once = run(1)[0].comm.recovery_stats.recovery_rank_seconds
        assert stats.recovery_rank_seconds == pytest.approx(
            growth * once, rel=0.01
        )

    def test_rate_faults_of_every_kind_alike(self):
        """Seeded draws happen in posting order on both paths."""
        bulk, raw = self._pair(
            MessageDrop(rate=0.1, repeat=2),
            BitFlip(rate=0.1),
            LatencySpike(rate=0.1, extra_s=2e-3),
        )
        self._run(bulk)
        self._run(raw)
        stats = bulk.comm.recovery_stats
        assert stats.drops_detected and stats.corruptions_detected
        assert stats.delays_absorbed
        self._assert_same_books(bulk, raw)

    def test_persistent_drop_exhausts_retries_on_both(self):
        bulk, raw = self._pair(MessageDrop(src=0, dst=1, step=1, repeat=99))
        messages = []
        for solver in (bulk, raw):
            with pytest.raises(UnrecoverableMessageError) as err:
                self._run(solver)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert "after 8 retransmits" in messages[0]
        self._assert_same_books(bulk, raw)

    def test_rank_death_fires_before_anything_is_charged_on_both(self):
        bulk, raw = self._pair(RankFailure(rank=3, step=1))
        for solver in (bulk, raw):
            with pytest.raises(RankFailureError):
                self._run(solver)
        self._assert_same_books(bulk, raw)


class TestCheckpointStores:
    def _payload(self):
        return {
            "step_count": 3,
            "states": [np.arange(6.0).reshape(2, 3), np.zeros(4)],
            "nested": {"phi": [np.ones(2)], "label": "x"},
        }

    def test_flatten_round_trip(self):
        payload = self._payload()
        back = unflatten_tree(flatten_tree(payload))
        assert back["step_count"] == 3
        assert np.array_equal(back["states"][0], payload["states"][0])
        assert np.array_equal(
            back["nested"]["phi"][0], payload["nested"]["phi"][0]
        )
        assert back["nested"]["label"] == "x"

    def test_snapshot_nbytes(self):
        assert snapshot_nbytes(self._payload()) == 6 * 8 + 4 * 8 + 2 * 8

    def test_memory_store_isolates_copies(self):
        store = MemoryCheckpointStore()
        payload = self._payload()
        store.save("app", 3, payload)
        payload["states"][0][:] = -1.0  # caller mutates after save
        loaded = store.load("app")
        assert loaded.step == 3
        assert np.array_equal(
            loaded.payload["states"][0], np.arange(6.0).reshape(2, 3)
        )
        # mutating a loaded copy must not poison the store
        loaded.payload["states"][1][:] = 9.0
        again = store.load("app")
        assert np.array_equal(again.payload["states"][1], np.zeros(4))

    def test_memory_store_missing_tag(self):
        assert MemoryCheckpointStore().load("nope") is None

    def test_disk_store_round_trip(self, tmp_path):
        store = DiskCheckpointStore(tmp_path)
        ckpt = store.save("lbmhd", 4, self._payload())
        assert ckpt.nbytes == snapshot_nbytes(self._payload())
        loaded = DiskCheckpointStore(tmp_path).load("lbmhd")
        assert loaded.step == 4
        assert np.array_equal(
            loaded.payload["states"][0], np.arange(6.0).reshape(2, 3)
        )
        assert loaded.payload["nested"]["label"] == "x"
        assert DiskCheckpointStore(tmp_path).tags() == ["lbmhd"]

    def test_copy_tree_deep_copies_arrays(self):
        payload = self._payload()
        clone = copy_tree(payload)
        clone["states"][0][:] = -5.0
        assert np.array_equal(
            payload["states"][0], np.arange(6.0).reshape(2, 3)
        )
