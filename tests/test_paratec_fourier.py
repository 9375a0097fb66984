"""Tests for PARATEC's G-sphere, load balancing, and parallel 3-D FFT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.paratec import (
    GSphere,
    ParallelFFT3D,
    SphereDistribution,
    load_balance_columns,
)
from repro.kernels import get_backend
from repro.simmpi import Communicator

SPHERE = GSphere(ecut=8.0, grid_shape=(12, 12, 12))


class TestGSphere:
    def test_cutoff_respected(self):
        assert (SPHERE.kinetic <= 8.0 + 1e-12).all()

    def test_includes_origin_and_symmetric(self):
        vecs = {tuple(v) for v in SPHERE.vectors}
        assert (0, 0, 0) in vecs
        assert all((-a, -b, -c) in vecs for a, b, c in vecs)

    def test_count_matches_direct_enumeration(self):
        count = 0
        for a in range(-5, 6):
            for b in range(-5, 6):
                for c in range(-5, 6):
                    if 0.5 * (a * a + b * b + c * c) <= 8.0:
                        count += 1
        assert SPHERE.num_g == count

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            GSphere(ecut=8.0, grid_shape=(8, 8, 8))

    def test_columns_partition_points(self):
        cols = SPHERE.columns()
        total = sum(len(pts) for _, pts in cols)
        assert total == SPHERE.num_g
        # every column shares a single (gx, gy)
        for (gx, gy), pts in cols:
            assert (SPHERE.vectors[pts, 0] == gx).all()
            assert (SPHERE.vectors[pts, 1] == gy).all()

    def test_equatorial_columns_longest(self):
        cols = dict_by_key = {k: len(p) for k, p in SPHERE.columns()}
        assert dict_by_key[(0, 0)] == max(dict_by_key.values())


class TestLoadBalance:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 7, 16])
    def test_imbalance_bounded_by_longest_column(self, nranks):
        dist = SphereDistribution(SPHERE, nranks)
        cols = SPHERE.columns()
        longest = max(len(p) for _, p in cols)
        assert dist.max_imbalance() <= longest

    def test_all_points_assigned_once(self):
        dist = SphereDistribution(SPHERE, 5)
        seen = np.concatenate([dist.points_of(r) for r in range(5)])
        assert len(seen) == SPHERE.num_g
        assert len(np.unique(seen)) == SPHERE.num_g

    def test_scatter_gather_roundtrip(self, rng):
        dist = SphereDistribution(SPHERE, 4)
        x = rng.standard_normal(SPHERE.num_g)
        np.testing.assert_array_equal(dist.gather(dist.scatter(x)), x)

    def test_greedy_is_deterministic(self):
        a = SphereDistribution(SPHERE, 4)
        b = SphereDistribution(SPHERE, 4)
        for r in range(4):
            np.testing.assert_array_equal(a.points_of(r), b.points_of(r))

    @given(st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_counts_sum_property(self, nranks):
        dist = SphereDistribution(SPHERE, nranks)
        assert dist.counts().sum() == SPHERE.num_g


class TestParallelFFT:
    def make(self, nranks):
        dist = SphereDistribution(SPHERE, nranks)
        return dist, ParallelFFT3D(dist, Communicator(nranks))

    def dense_reference(self, psi):
        dense = np.zeros(SPHERE.grid_shape, dtype=complex)
        ix, iy, iz = SPHERE.grid_indices()
        dense[ix, iy, iz] = psi
        return np.fft.ifftn(dense)

    @pytest.mark.parametrize("nranks", [1, 2, 4, 5])
    def test_matches_numpy_ifftn(self, nranks, rng):
        dist, fft = self.make(nranks)
        psi = rng.standard_normal(SPHERE.num_g) + 1j * rng.standard_normal(
            SPHERE.num_g
        )
        slabs = fft.sphere_to_real(dist.scatter(psi))
        np.testing.assert_allclose(
            fft.gather_slabs(slabs), self.dense_reference(psi), atol=1e-13
        )

    @pytest.mark.parametrize("nranks", [1, 3, 4])
    def test_roundtrip_identity(self, nranks, rng):
        dist, fft = self.make(nranks)
        psi = rng.standard_normal(SPHERE.num_g) + 1j * rng.standard_normal(
            SPHERE.num_g
        )
        back = dist.gather(fft.real_to_sphere(fft.sphere_to_real(dist.scatter(psi))))
        np.testing.assert_allclose(back, psi, atol=1e-12)

    def test_cutoff_projection(self, rng):
        # real-space noise loses its super-cutoff content on the way back
        dist, fft = self.make(2)
        slabs = [
            rng.standard_normal(fft.slab_shape(r))
            + 1j * rng.standard_normal(fft.slab_shape(r))
            for r in range(2)
        ]
        coeffs = fft.real_to_sphere(slabs)
        # round trip from the sphere is now exact (projection idempotent)
        slabs2 = fft.sphere_to_real(coeffs)
        coeffs2 = fft.real_to_sphere(slabs2)
        for a, b in zip(coeffs, coeffs2):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_parseval_within_projection(self, rng):
        dist, fft = self.make(3)
        psi = rng.standard_normal(SPHERE.num_g) * 1j
        slabs = fft.sphere_to_real(dist.scatter(psi))
        n = np.prod(SPHERE.grid_shape)
        real_norm = sum(float((np.abs(s) ** 2).sum()) for s in slabs)
        # ifftn normalization: |psi|^2 = N * |psi(r)|^2
        assert real_norm * n == pytest.approx(float((np.abs(psi) ** 2).sum()))

    def test_communicator_size_mismatch(self):
        dist = SphereDistribution(SPHERE, 2)
        with pytest.raises(ValueError):
            ParallelFFT3D(dist, Communicator(3))

    def test_transposes_traced(self):
        dist = SphereDistribution(SPHERE, 4)
        comm = Communicator(4, trace=True)
        fft = ParallelFFT3D(dist, comm)
        psi = np.ones(SPHERE.num_g, dtype=complex)
        fft.sphere_to_real(dist.scatter(psi))
        assert comm.trace.bytes_by_kind["alltoall"] > 0


def _noise(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTransformEdgeCases:
    """The pruned planar passes at their edges.  Every case matches the
    dense ``numpy.fft`` reference, round-trips to the identity and
    returns slabs of the public ``(..., n1, n2, nz)`` shape."""

    CASES = {
        # (sphere, nranks, leading band axes)
        # the disk of columns touches every x-row: nothing to prune
        "unpruned": (GSphere(ecut=8.0, grid_shape=(9, 9, 9)), 3, (2,)),
        "n1-ne-n2": (GSphere(ecut=8.0, grid_shape=(16, 12, 10)), 3, (2,)),
        "single-band": (SPHERE, 4, ()),
        # more ranks than z-planes: four ranks hold no plane
        "empty-slabs": (SPHERE, 16, (2,)),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_dense_and_round_trips(self, case, rng):
        sphere, nranks, lead = self.CASES[case]
        dist = SphereDistribution(sphere, nranks)
        fft = ParallelFFT3D(dist, Communicator(nranks))
        psi = _noise(rng, (*lead, sphere.num_g))

        slabs = fft.sphere_to_real(dist.scatter(psi))
        for r, slab in enumerate(slabs):
            assert slab.shape == (*lead, *fft.slab_shape(r))
        dense = np.zeros((*lead, *sphere.grid_shape), dtype=complex)
        ix, iy, iz = sphere.grid_indices()
        dense[..., ix, iy, iz] = psi
        np.testing.assert_allclose(
            fft.gather_slabs(slabs),
            np.fft.ifftn(dense, axes=(-3, -2, -1)),
            atol=1e-13,
        )
        back = dist.gather(fft.real_to_sphere(slabs))
        np.testing.assert_allclose(back, psi, atol=1e-12)

    def test_cases_cover_the_edges(self):
        def engine(case):
            sphere, nranks, _ = self.CASES[case]
            return ParallelFFT3D(
                SphereDistribution(sphere, nranks), Communicator(nranks)
            )

        unpruned = engine("unpruned")
        assert unpruned._rows.all() and unpruned._cols.all()
        ragged = engine("n1-ne-n2")
        assert ragged.grid_shape[0] != ragged.grid_shape[1]
        assert not ragged._rows.all() and not ragged._cols.all()
        empty = engine("empty-slabs")
        assert 0 in [empty.slab_shape(r)[2] for r in range(16)]

    @pytest.mark.parametrize(
        "shape", [(3, 4, 12, 10), (4, 12, 10), (0, 12, 10)]
    )
    def test_pruned_kernels_keep_the_dense_bits(self, shape, rng):
        """The pruned passes equal the dense ones, bit for bit, on every
        entry kept: numpy's y-then-x order is preserved."""
        kernels = get_backend()
        planes = _noise(rng, shape)
        rows = np.zeros(shape[-2], dtype=bool)
        rows[[0, 1, 2, 9, 11]] = True
        cols = np.zeros(shape[-1], dtype=bool)
        cols[[0, 3, 4, 8]] = True

        sparse = planes.copy()
        sparse[..., ~rows, :] = 0.0
        dense = np.fft.ifft2(sparse, axes=(-2, -1))
        pruned = kernels.paratec_ifft2_planes(planes[..., rows, :], rows=rows)
        assert pruned.shape == shape
        assert pruned.tobytes() == dense.tobytes()

        dense = np.fft.fft2(planes, axes=(-2, -1))[..., cols]
        pruned = kernels.paratec_fft2_planes(planes, cols=cols)
        assert pruned.tobytes() == dense.tobytes()
