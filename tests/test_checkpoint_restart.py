"""Acceptance matrix: faulted runs recover to bitwise-identical physics.

For each of the four applications, a run with injected message drops
and one mid-run rank failure — recovered by CRC/retry and
checkpoint/restart — must finish with final physics state bitwise
identical to the fault-free run with the same seed, and the recovery
time must be visible in the ledger's recovery column.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import harness
from repro.apps.fvcam.solver import FVCAMParams
from repro.apps.gtc.solver import GTCParams
from repro.apps.lbmhd.solver import LBMHDParams
from repro.apps.paratec.solver import ParatecParams
from repro.resilience import (
    DiskCheckpointStore,
    FaultPlan,
    MemoryCheckpointStore,
    MessageDrop,
    RankFailure,
    RankFailureError,
    own_tree,
)
from repro.resilience.checkpoint import flatten_tree, unflatten_tree

APPS = ["lbmhd", "gtc", "fvcam", "paratec"]


def _config(app: str, nprocs: int):
    """(params, steps) sized for the test matrix."""
    if app == "lbmhd":
        return LBMHDParams(shape=(8, 8, 8)), 6
    if app == "gtc":
        return GTCParams(ntoroidal=nprocs, particles_per_cell=4), 6
    if app == "fvcam":
        if nprocs == 4:
            return FVCAMParams(py=2, pz=2), 6
        return FVCAMParams(py=4, pz=2), 6
    if app == "paratec":
        return ParatecParams(), 4
    raise AssertionError(app)


def _nprocs(app: str, requested: int) -> int:
    # PARATEC's mini problem distributes its G-sphere over few ranks
    return 2 if app == "paratec" else requested


def _plan(nprocs: int, steps: int) -> FaultPlan:
    return FaultPlan(
        faults=(
            MessageDrop(step=1, rate=0.4),
            MessageDrop(step=steps - 1, src=0),
            RankFailure(rank=nprocs - 1, step=steps // 2),
        ),
        seed=42,
    )


def _pair(app: str, nprocs: int, **kwargs):
    params, steps = _config(app, nprocs)
    clean = harness.run(app, params, steps=steps, nprocs=nprocs)
    faulted = harness.run(
        app,
        params,
        steps=steps,
        nprocs=nprocs,
        fault_plan=_plan(nprocs, steps),
        checkpoint_every=2,
        **kwargs,
    )
    return clean, faulted


class TestFaultedRunsMatchBitwise:
    @pytest.mark.parametrize(
        "nprocs", [4, pytest.param(8, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("app", APPS)
    def test_recovered_state_identical(self, app, nprocs):
        nprocs = _nprocs(app, nprocs)
        clean, faulted = _pair(app, nprocs)

        assert np.array_equal(
            clean.app.state_vector(clean.state),
            faulted.app.state_vector(faulted.state),
        )
        stats = faulted.recovery
        assert stats.rank_failures == 1
        assert stats.restarts == 1
        assert stats.checkpoints >= 1
        # recovery landed in the ledger column, not compute/comm/wait
        assert faulted.ledger.totals().recovery_s.sum() > 0.0
        assert clean.ledger.totals().recovery_s.sum() == 0.0
        # diagnostics agree exactly too
        assert clean.diagnostics == faulted.diagnostics

    @pytest.mark.parametrize("app", APPS)
    def test_recovery_survives_threaded_executor(self, app):
        nprocs = _nprocs(app, 4)
        clean, faulted = _pair(app, nprocs, executor="threads:4")
        assert np.array_equal(
            clean.app.state_vector(clean.state),
            faulted.app.state_vector(faulted.state),
        )


class TestHarnessRestartMechanics:
    def test_restart_replays_from_last_checkpoint(self):
        params, steps = _config("lbmhd", 4)
        plan = FaultPlan(faults=(RankFailure(rank=1, step=5),))
        result = harness.run(
            "lbmhd",
            params,
            steps=steps,
            nprocs=4,
            fault_plan=plan,
            checkpoint_every=2,
        )
        # failure at step 5 restores the step-4 snapshot: 1 replayed
        assert result.recovery.replayed_steps == 1
        assert result.recovery.restarts == 1

    def test_failure_without_checkpointing_uses_step0_anchor(self):
        params, steps = _config("lbmhd", 4)
        plan = FaultPlan(faults=(RankFailure(rank=0, step=2),))
        result = harness.run(
            "lbmhd", params, steps=steps, nprocs=4, fault_plan=plan
        )
        assert result.recovery.restarts == 1
        assert result.recovery.replayed_steps == 2

    def test_max_restarts_reraises(self):
        params, steps = _config("lbmhd", 4)
        plan = FaultPlan(
            faults=tuple(
                RankFailure(rank=0, step=s) for s in range(3)
            )
        )
        with pytest.raises(RankFailureError):
            harness.run(
                "lbmhd",
                params,
                steps=steps,
                nprocs=4,
                fault_plan=plan,
                max_restarts=1,
            )

    def test_disk_store_backs_restart(self, tmp_path):
        params, steps = _config("gtc", 4)
        plan = _plan(4, steps)
        clean = harness.run("gtc", params, steps=steps, nprocs=4)
        faulted = harness.run(
            "gtc",
            params,
            steps=steps,
            nprocs=4,
            fault_plan=plan,
            checkpoint_every=2,
            checkpoint_store=DiskCheckpointStore(tmp_path),
        )
        assert np.array_equal(
            clean.app.state_vector(clean.state),
            faulted.app.state_vector(faulted.state),
        )
        assert (tmp_path / "gtc.npz").exists()

    def test_checkpoint_time_charged_to_recovery_column(self):
        params, steps = _config("lbmhd", 4)
        result = harness.run(
            "lbmhd", params, steps=steps, nprocs=4, checkpoint_every=2
        )
        stats = result.recovery
        assert stats.checkpoints == 2  # steps 2 and 4 (not the end)
        assert stats.checkpoint_bytes > 0
        assert result.ledger.totals().recovery_s.sum() > 0.0

    def test_failed_step_accounting_is_path_independent(self):
        """Rank death aborts before charging, whoever owns the arena.

        A run on a caller's arena and one on the solver's own must
        leave identical clocks and ledgers behind a failed-and-replayed
        step — the death fires at entry of the next communication,
        never after a partial charge, and the replay restores into the
        same arena block it died in.  (That the bulk ``exchange_phase``
        dies where the per-message ``exchange`` does is pinned in
        ``test_resilience.py::TestBulkExchangeFaultParity``.)
        """
        from repro.runtime.arena import Arena

        params, steps = _config("lbmhd", 4)
        plan = FaultPlan(faults=(RankFailure(rank=3, step=3),))

        def run(**kwargs):
            return harness.run(
                "lbmhd", params, steps=steps, nprocs=4, machine="X1",
                fault_plan=plan, checkpoint_every=2, **kwargs,
            )

        given, own = run(arena=Arena()), run()
        assert np.array_equal(given.comm.times, own.comm.times)
        ta, tb = given.ledger.totals(), own.ledger.totals()
        for k in ("compute_s", "comm_s", "wait_s", "recovery_s",
                  "nbytes", "messages"):
            assert np.array_equal(
                np.asarray(getattr(ta, k)), np.asarray(getattr(tb, k))
            ), k

    def test_restart_fails_loudly_when_store_loses_checkpoint(self):
        """A restart whose expected checkpoint vanished must raise a
        RuntimeError naming the tag and step — not a downstream
        AttributeError on ``None``."""

        class AmnesiacStore(MemoryCheckpointStore):
            def load(self, tag):
                return None

        params, steps = _config("lbmhd", 4)
        plan = FaultPlan(faults=(RankFailure(rank=0, step=3),))
        with pytest.raises(RuntimeError, match=r"'lbmhd'.*step 3"):
            harness.run(
                "lbmhd",
                params,
                steps=steps,
                nprocs=4,
                fault_plan=plan,
                checkpoint_every=2,
                checkpoint_store=AmnesiacStore(),
            )

    def test_fault_free_resilient_run_matches_plain(self):
        """fault_plan=FaultPlan() changes nothing but adds the column."""
        params, steps = _config("fvcam", 4)
        plain = harness.run("fvcam", params, steps=steps, nprocs=4)
        resil = harness.run(
            "fvcam", params, steps=steps, nprocs=4, fault_plan=FaultPlan()
        )
        assert np.array_equal(
            plain.app.state_vector(plain.state),
            resil.app.state_vector(resil.state),
        )
        assert np.array_equal(plain.comm.times, resil.comm.times)


class TestStoreOwnershipTransfer:
    """Regression tests: ``save(copy=False)`` with view/zero-size leaves."""

    def test_memory_store_detaches_view_leaves(self):
        base = np.arange(10.0)
        store = MemoryCheckpointStore()
        store.save("t", 0, {"x": base[::2]}, copy=False)
        snapshot = np.array(store.load("t").payload["x"])
        base[:] = -1.0  # caller keeps stepping the live array
        assert np.array_equal(store.load("t").payload["x"], snapshot)
        assert np.array_equal(snapshot, [0.0, 2.0, 4.0, 6.0, 8.0])

    def test_memory_store_owned_arrays_transfer_without_copy(self):
        owned = np.arange(4.0)
        store = MemoryCheckpointStore()
        store.save("t", 0, {"x": owned}, copy=False)
        # zero-copy ownership transfer: the store holds the very array
        assert store._latest["t"].payload["x"] is owned

    def test_disk_store_returned_checkpoint_is_detached(self, tmp_path):
        base = np.arange(12.0).reshape(3, 4)
        payload = {"view": base[:, 1:3], "owned": np.ones(3)}
        store = DiskCheckpointStore(tmp_path)
        ckpt = store.save("t", 2, payload, copy=False)
        before = np.array(ckpt.payload["view"])
        base[:] = 99.0
        assert np.array_equal(ckpt.payload["view"], before)
        # and copy=True leaves the caller's arrays entirely alone
        owned = np.zeros(3)
        ckpt2 = store.save("u", 0, {"x": owned}, copy=True)
        assert ckpt2.payload["x"] is not owned

    def test_zero_size_arrays_keep_shape_and_dtype(self, tmp_path):
        payload = {
            "empty_rows": np.zeros((0, 4), dtype=np.float32),
            "empty_flat": np.zeros(0),
            "parts": [np.zeros((0, 7)), np.arange(3)],
        }
        store = DiskCheckpointStore(tmp_path)
        store.save("z", 1, payload, copy=False)
        back = store.load("z").payload
        assert back["empty_rows"].shape == (0, 4)
        assert back["empty_rows"].dtype == np.float32
        assert back["empty_flat"].shape == (0,)
        assert back["parts"][0].shape == (0, 7)
        assert np.array_equal(back["parts"][1], [0, 1, 2])

    def test_own_tree_copies_views_only(self):
        base = np.arange(6.0)
        owned = np.ones(2)
        tree = {"v": base[1:], "o": owned, "nest": [base.reshape(2, 3)]}
        result = own_tree(tree)
        assert result["o"] is owned
        assert result["v"].base is None
        assert result["nest"][0].base is None


class TestFlattenRoundTrip:
    """Regression tests: the npz flat form must never lose structure."""

    def test_slash_in_dict_key_raises_instead_of_colliding(self):
        # "a/b" leaf and nested a -> b used to flatten onto ONE key,
        # silently dropping data on the round trip
        with pytest.raises(ValueError, match="without '/'"):
            flatten_tree({"a/b": np.arange(2), "a": {"b": np.arange(3)}})

    def test_marker_dict_keys_raise(self):
        with pytest.raises(ValueError):
            flatten_tree({"{}": 1})
        with pytest.raises(ValueError):
            flatten_tree({"[]": 1})

    def test_non_string_dict_keys_raise(self):
        with pytest.raises(ValueError):
            flatten_tree({0: np.arange(2)})

    def test_empty_dict_key_raises(self):
        # "" at the top level flattened onto the root's own path, so
        # unflatten recursed forever
        with pytest.raises(ValueError):
            flatten_tree({"": np.arange(2)})
        with pytest.raises(ValueError):
            flatten_tree({"a": {"": np.arange(2)}})

    def test_tuples_round_trip_as_tuples(self, tmp_path):
        payload = {"t": (np.arange(2), 5.0), "l": [np.arange(2)]}
        back = unflatten_tree(flatten_tree(payload))
        assert isinstance(back["t"], tuple)
        assert isinstance(back["l"], list)
        store = DiskCheckpointStore(tmp_path)
        store.save("t", 0, payload)
        disk = store.load("t").payload
        assert isinstance(disk["t"], tuple)
        assert isinstance(disk["l"], list)
        assert np.array_equal(disk["t"][0], [0, 1])

    def test_empty_containers_round_trip(self, tmp_path):
        payload = {"d": {}, "l": [], "t": (), "x": 3}
        store = DiskCheckpointStore(tmp_path)
        store.save("e", 0, payload)
        back = store.load("e").payload
        assert back["d"] == {}
        assert back["l"] == []
        assert back["t"] == ()
        assert int(back["x"]) == 3


# -- property: any nested payload survives flatten -> npz -> unflatten ------

_LEAVES = arrays(
    st.sampled_from([np.float64, np.complex128, np.int64, np.float32]),
    array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements={"allow_nan": False, "min_value": -1e6, "max_value": 1e6},
)
_KEYS = st.text(
    st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=6,
).filter(lambda k: k not in ("{}", "[]", "()"))
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_KEYS, children, max_size=3),
    ),
    max_leaves=8,
)


def _assert_same_tree(got, want) -> None:
    """Same containers, same keys, same leaves by dtype, shape and value
    (the disk store hands 0-d leaves back as NumPy scalars)."""
    if isinstance(want, (dict, list, tuple)):
        assert type(got) is type(want)
        assert len(got) == len(want)
        keys = sorted(want) if isinstance(want, dict) else range(len(want))
        if isinstance(want, dict):
            assert sorted(got) == keys
        for k in keys:
            _assert_same_tree(got[k], want[k])
    else:
        got = np.asarray(got)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestFlattenRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(tree=st.dictionaries(_KEYS, _TREES, max_size=4))
    def test_nested_payload_round_trips_through_disk(self, tree):
        _assert_same_tree(unflatten_tree(flatten_tree(tree)), tree)
        with tempfile.TemporaryDirectory() as root:
            store = DiskCheckpointStore(root)
            store.save("t", 3, tree)
            back = store.load("t")
        assert back.step == 3
        _assert_same_tree(back.payload, tree)

    @pytest.mark.parametrize("nranks,nbands", [(1, 1), (2, 4), (4, 8)])
    def test_paratec_payload_round_trips(self, nranks, nbands, tmp_path):
        """PARATEC's checkpoint: one complex (nbands, ng_local) stack
        and one real potential slab per rank."""
        from repro.apps.paratec import Paratec
        from repro.simmpi import Communicator

        solver = Paratec(ParatecParams(nbands=nbands), Communicator(nranks))
        payload = solver.checkpoint_state()
        assert [b.shape[0] for b in payload["bands"]] == [nbands] * nranks
        store = DiskCheckpointStore(tmp_path)
        store.save("paratec", 1, payload)
        _assert_same_tree(store.load("paratec").payload, payload)
