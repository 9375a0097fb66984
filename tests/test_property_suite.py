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
