"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.perfdb import PerfDB, RunRecord
from repro.simmpi import Communicator, Message


class TestExchangeIntegrity:
    """Random message patterns: the runtime must never lose or corrupt data."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        pattern=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_every_payload_arrives_intact(self, n, pattern):
        comm = Communicator(n)
        rng = np.random.default_rng(42)
        messages = []
        expected: dict[int, list[np.ndarray]] = {}
        for src, dst, size in pattern:
            src %= n
            dst %= n
            payload = rng.random(size)
            messages.append(Message(src, dst, payload))
            expected.setdefault(dst, []).append(payload.copy())
        received = comm.exchange(messages)
        for dst, payloads in expected.items():
            assert len(received[dst]) == len(payloads)
            for got, want in zip(received[dst], payloads):
                np.testing.assert_array_equal(got, want)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8))
    def test_allreduce_equals_numpy_sum(self, n):
        comm = Communicator(n)
        rng = np.random.default_rng(n)
        contribs = [rng.random(5) for _ in range(n)]
        out = comm.allreduce(contribs)
        want = np.sum(contribs, axis=0)
        for arr in out:
            np.testing.assert_allclose(arr, want)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=2, max_value=6))
    def test_alltoallv_is_a_permutation(self, n):
        comm = Communicator(n)
        send = [
            [np.array([100.0 * i + j]) for j in range(n)] for i in range(n)
        ]
        recv = comm.alltoallv(send)
        flat_sent = sorted(
            float(send[i][j][0]) for i in range(n) for j in range(n)
        )
        flat_recv = sorted(
            float(recv[j][i][0]) for i in range(n) for j in range(n)
        )
        assert flat_sent == flat_recv


class TestCICPartitionOfUnity:
    """CIC stencils must distribute each particle's exact weight."""

    @settings(max_examples=30, deadline=None)
    @given(
        r=st.floats(min_value=0.12, max_value=0.98),
        theta=st.floats(min_value=0.0, max_value=6.28),
        w=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_single_particle_weight_partition(self, r, theta, w):
        from repro.apps.gtc import ParticleArray, PoloidalGrid, deposit_scalar

        grid = PoloidalGrid(mpsi=16, mtheta=24)
        p = ParticleArray(
            r=np.array([r]),
            theta=np.array([theta]),
            zeta=np.array([0.0]),
            vpar=np.array([0.0]),
            weight=np.array([w]),
        )
        rho = deposit_scalar(grid, p)
        assert rho.sum() == pytest.approx(w, rel=1e-12)
        assert (rho >= 0).all()

    @settings(max_examples=20, deadline=None)
    @given(gyro=st.floats(min_value=0.0, max_value=0.08))
    def test_gyro_average_preserves_weight(self, gyro):
        from repro.apps.gtc import (
            PoloidalGrid,
            TorusGrid,
            deposit_scalar,
            load_particles,
        )

        grid = PoloidalGrid(mpsi=16, mtheta=24)
        torus = TorusGrid(plane=grid, ntoroidal=2)
        p = load_particles(torus, 50, 0, np.random.default_rng(3))
        rho = deposit_scalar(grid, p, gyro_radius=gyro)
        assert rho.sum() == pytest.approx(p.total_charge, rel=1e-12)


class TestTransportTVD:
    """van Leer transport must not amplify total variation (TVD)."""

    @settings(max_examples=30, deadline=None)
    @given(
        q=arrays(
            np.float64,
            32,
            elements=st.floats(min_value=0.0, max_value=10.0),
        ),
        c=st.floats(min_value=-0.9, max_value=0.9),
    )
    def test_total_variation_diminishing(self, q, c):
        from repro.apps.fvcam import advect_vanleer

        courant = np.full(32, c)
        out = advect_vanleer(q, courant, periodic=True)

        def tv(x):
            return np.abs(np.diff(np.concatenate([x, x[:1]]))).sum()

        assert tv(out) <= tv(q) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        q=arrays(
            np.float64,
            32,
            elements=st.floats(min_value=0.5, max_value=10.0),
        ),
        c=st.floats(min_value=-0.9, max_value=0.9),
    )
    def test_positivity_preserved(self, q, c):
        from repro.apps.fvcam import advect_vanleer

        out = advect_vanleer(q, np.full(32, c), periodic=True)
        assert (out >= -1e-12).all()


class TestRemapProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        h=arrays(
            np.float64,
            (5, 4),
            elements=st.floats(min_value=0.1, max_value=10.0),
        ),
        u=arrays(
            np.float64,
            (5, 4),
            elements=st.floats(min_value=-10.0, max_value=10.0),
        ),
    )
    def test_remap_conserves_mass_and_momentum(self, h, u):
        from repro.apps.fvcam import remap_column

        h2, (u2,) = remap_column(h, [u])
        np.testing.assert_allclose(h2.sum(axis=0), h.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            (h2 * u2).sum(axis=0), (h * u).sum(axis=0), rtol=1e-9, atol=1e-12
        )


class TestSphereProperty:
    @settings(max_examples=10, deadline=None)
    @given(ecut=st.floats(min_value=2.0, max_value=10.0))
    def test_sphere_inversion_symmetry(self, ecut):
        from repro.apps.paratec import GSphere

        sphere = GSphere(ecut=ecut, grid_shape=(14, 14, 14))
        vecs = {tuple(v) for v in sphere.vectors}
        assert all((-a, -b, -c) in vecs for (a, b, c) in vecs)
        assert (0, 0, 0) in vecs


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_count = st.none() | st.integers(min_value=0, max_value=2**31)
_seconds = st.none() | st.floats(min_value=0.0, max_value=1e9)
_tag = st.none() | st.text(max_size=8)
_run_records = st.builds(
    RunRecord,
    app=st.text(min_size=1, max_size=8),
    bench=st.text(min_size=1, max_size=8),
    variant=st.text(max_size=8),
    machine=_tag,
    nprocs=_count,
    executor=st.sampled_from(["serial", "threads:2", "processes:2"]),
    kernel_backend=st.sampled_from(["numpy", "numba"]),
    seed=_count,
    steps=_count,
    repeats=_count,
    wall_s=st.floats(min_value=0.0, max_value=1e9),
    gflops=_seconds,
    compute_s=_seconds,
    comm_s=_seconds,
    sync_s=_seconds,
    recovery_s=_seconds,
    nbytes=_seconds,
    messages=_seconds,
    source=st.text(max_size=8),
    pr=_count,
    host=_tag,
    cpu_count=_count,
    version=_tag,
    key=_tag,
)
_extras = st.dictionaries(st.text(max_size=4), _json_values, max_size=3)


class TestRunRecordRoundTrip:
    """A record is its JSON line: what ``perf_history.jsonl`` and
    ``repro-perfdb export`` rest on."""

    @settings(max_examples=200, deadline=None)
    @given(rec=_run_records, extra=_extras)
    def test_dict_json_dict_is_the_same_record(self, rec, extra):
        rec = replace(rec, extra=extra)
        assert rec.extra_dict() == extra  # lists stay lists, dicts dicts
        line = json.dumps(rec.to_dict(), sort_keys=True)
        back = RunRecord.from_dict(json.loads(line))
        assert back == rec and hash(back) == hash(rec)
        assert back.uid() == rec.uid()
        assert json.dumps(back.to_dict(), sort_keys=True) == line

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(
            st.builds(replace, _run_records, extra=_extras), max_size=6
        ),
        cut=st.integers(min_value=1, max_value=40),
    )
    def test_export_import_keeps_every_record_and_skips_a_torn_tail(
        self, records, cut
    ):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "records.jsonl"
            with PerfDB() as db, PerfDB() as again, PerfDB() as torn:
                db.add(records)
                n = db.export_jsonl(out)
                assert n == len(db.all()) == len({r.uid() for r in records})
                assert again.import_jsonl(out) == n
                assert again.all() == db.all()
                # a writer that died mid-append: the last line is cut
                # short, every earlier record still loads
                text = out.read_text()
                last = text.splitlines()[-1] if n else '{"app": "lbmhd"}'
                out.write_text(text + last[: min(cut, len(last) - 1)])
                assert torn.import_jsonl(out) == n
                assert torn.all() == db.all()


_plain_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
_plain_values = st.recursive(
    _plain_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_overrides = st.dictionaries(st.text(max_size=6), _plain_values, max_size=4)
_name = st.text(min_size=1, max_size=8)
_config_fields = dict(
    app=_name,
    nprocs=st.none() | st.integers(min_value=1, max_value=4096),
    steps=st.integers(min_value=0, max_value=1000),
    machine=st.none() | _name,
    executor=st.sampled_from(["serial", "threads:2", "processes:2"]),
    seed=st.none() | st.integers(min_value=0, max_value=2**31),
    params=_overrides,
    trace=st.booleans(),
    repeats=st.integers(min_value=1, max_value=9),
)
_spec_fields = dict(
    name=_name,
    apps=st.lists(_name, min_size=1, max_size=3),
    machines=st.lists(st.none() | _name, min_size=1, max_size=3),
    nprocs=st.lists(
        st.none() | st.integers(min_value=1, max_value=64),
        min_size=1, max_size=3,
    ),
    executors=st.lists(_config_fields["executor"], min_size=1, max_size=2),
    seeds=st.lists(_config_fields["seed"], min_size=1, max_size=2),
    steps=_config_fields["steps"],
    repeats=_config_fields["repeats"],
    trace=st.booleans(),
    params=st.dictionaries(_name, _overrides, max_size=2),
)


def _respell(value, rng):
    """The same JSON-plain value with its dict keys in another order and
    its lists spelled as tuples."""
    if isinstance(value, dict):
        items = [(k, _respell(v, rng)) for k, v in value.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(value, (list, tuple)):
        return tuple(_respell(v, rng) for v in value)
    return value


class TestCampaignConfigRoundTrip:
    """A config is its dict, and its key is a function of its content:
    what the result cache, the manifests and spec files rest on."""

    @staticmethod
    def _fields(cls):
        from dataclasses import fields

        return {f.name for f in fields(cls)}

    @settings(max_examples=150, deadline=None)
    @given(kwargs=st.fixed_dictionaries(_config_fields))
    def test_run_config_survives_dict_and_json(self, kwargs):
        from repro.campaign.spec import RunConfig

        assert set(kwargs) == self._fields(RunConfig)  # strategy is whole
        cfg = RunConfig.from_dict(kwargs)
        assert set(cfg.to_dict()) == self._fields(RunConfig)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        back = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg and hash(back) == hash(cfg)
        assert back.key() == cfg.key()

    @settings(max_examples=100, deadline=None)
    @given(kwargs=st.fixed_dictionaries(_spec_fields))
    def test_campaign_spec_survives_dict_and_json(self, kwargs):
        from repro.campaign.spec import CampaignSpec

        assert set(kwargs) == self._fields(CampaignSpec)
        spec = CampaignSpec.from_dict(kwargs)
        assert set(spec.to_dict()) == self._fields(CampaignSpec)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        back = CampaignSpec.from_json(json.dumps(spec.to_dict()))
        assert back == spec
        assert [c.key() for c in back.expand()] == [
            c.key() for c in spec.expand()
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        kwargs=st.fixed_dictionaries(_config_fields),
        rng=st.randoms(use_true_random=False),
    )
    def test_key_ignores_params_key_order_and_list_spelling(
        self, kwargs, rng
    ):
        from repro.campaign.spec import RunConfig

        cfg = RunConfig.from_dict(kwargs)
        again = RunConfig.from_dict(
            {**kwargs, "params": _respell(kwargs["params"], rng)}
        )
        assert again == cfg and again.key() == cfg.key()

    @settings(max_examples=100, deadline=None)
    @given(kwargs=st.fixed_dictionaries(_config_fields))
    def test_key_tells_every_field_and_the_version_apart(self, kwargs):
        from repro.campaign.spec import RunConfig

        cfg = RunConfig.from_dict(kwargs)
        other = {
            "app": kwargs["app"] + "x",
            "nprocs": (kwargs["nprocs"] or 0) + 1,
            "steps": kwargs["steps"] + 1,
            "machine": (kwargs["machine"] or "") + "x",
            "executor": kwargs["executor"] + "0",
            "seed": (kwargs["seed"] or 0) + 1,
            "params": {**kwargs["params"], "one more": 1},
            "trace": not kwargs["trace"],
            "repeats": kwargs["repeats"] + 1,
        }
        assert set(other) == self._fields(RunConfig)
        keys = {cfg.key(), cfg.key(version="some other version")}
        for name, value in other.items():
            keys.add(RunConfig.from_dict({**kwargs, name: value}).key())
        assert len(keys) == len(other) + 2

    def test_a_dict_still_carrying_arena_fails_loudly(self):
        """The field is gone; a stale spec file must say so, not run."""
        from repro.campaign.spec import CampaignSpec, RunConfig

        with pytest.raises(
            ValueError, match=r"unknown RunConfig field\(s\): arena"
        ):
            RunConfig.from_dict({"app": "lbmhd", "arena": True})
        with pytest.raises(
            ValueError, match=r"unknown CampaignSpec field\(s\): arena"
        ):
            CampaignSpec.from_json(
                '{"name": "old", "apps": ["lbmhd"], "arena": false}'
            )
