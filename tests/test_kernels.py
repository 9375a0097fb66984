"""The kernel-backend seam: one backend, substitutable by instance.

Three layers of contract, mirroring ``docs/kernels.md``:

* **Resolution** — ``get_backend`` maps ``None`` and ``"numpy"`` to the
  numpy backend and an instance to itself; any other name is a
  ValueError listing ``'numpy'``, and nothing ambient (no environment
  variable) is consulted.
* **Dispatch** — a backend instance handed to a solver (``kernels=``,
  directly or through ``adapter.setup``) runs every one of its kernels.
* **Parity** — the numpy backend is pinned bitwise against itself per
  kernel (the harness that would catch a divergent backend), and a run
  produces states, diagnostics, ledgers, and virtual clocks identical
  whether the solver is handed no backend, the name, or an instance.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import harness
from repro.apps.fvcam.solver import FVCAM, FVCAMParams
from repro.apps.gtc.particles import PARTICLE_FIELDS
from repro.apps.gtc.solver import GTC, GTCParams
from repro.apps.lbmhd.collision import CollisionParams
from repro.apps.lbmhd.equilibrium import f_equilibrium, g_equilibrium
from repro.kernels import KernelBackend, NumPyBackend, get_backend
from repro.kernels import base as kernels_base
from repro.simmpi.comm import Communicator


# -- resolution --------------------------------------------------------------


def test_default_resolution_is_numpy():
    assert get_backend().name == "numpy"
    assert isinstance(get_backend(), NumPyBackend)


def test_explicit_name_and_instance_resolve():
    assert get_backend("numpy").name == "numpy"
    inst = NumPyBackend()
    assert get_backend(inst) is inst


def test_default_outranks_env(monkeypatch):
    """The variable that once chose a backend is not read any more."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "not-a-backend")
    assert get_backend() is get_backend("numpy")


def test_explicit_outranks_default():
    class Marker(NumPyBackend):
        name = "marker"

    marker = Marker()
    assert get_backend(marker) is marker
    assert get_backend().name == "numpy"


def test_unknown_name_lists_choices():
    with pytest.raises(ValueError) as exc:
        get_backend("fortran")
    msg = str(exc.value)
    assert "unknown kernel backend 'fortran'" in msg
    assert "'numpy'" in msg


def test_non_string_spec_is_type_error():
    with pytest.raises(TypeError):
        get_backend(42)


# -- dispatch ----------------------------------------------------------------


class _DoublingBackend(KernelBackend):
    """Toy backend proving dispatch: doubles one kernel's output."""

    name = "toy-double"

    def fvcam_suffix_sum(self, h: np.ndarray) -> np.ndarray:
        return 2.0 * super().fvcam_suffix_sum(h)


def test_registered_backend_is_dispatched():
    """A solver handed a backend instance through ``adapter.setup``
    runs its kernels: the doubled suffix sum reaches FVCAM's state."""
    h = np.arange(24.0).reshape(2, 3, 4)
    toy, ref = _DoublingBackend(), get_backend()
    assert_array_equal(toy.fvcam_suffix_sum(h), 2.0 * ref.fvcam_suffix_sum(h))
    # non-overridden kernels inherit the reference
    assert_array_equal(
        toy.fvcam_geopotential(h, 9.8), ref.fvcam_geopotential(h, 9.8)
    )
    fvcam, params = harness.APPLICATIONS["fvcam"], FVCAMParams(py=2, pz=2)
    doubled = fvcam.setup(Communicator(4), params, kernels=toy)
    plain = fvcam.setup(Communicator(4), params)
    assert doubled.kernels is toy
    for state in (doubled, plain):
        fvcam.step(state)
    assert not np.array_equal(
        fvcam.state_vector(doubled), fvcam.state_vector(plain)
    )
    with pytest.raises(ValueError, match="valid choices"):
        get_backend("toy")


# -- per-kernel parity matrix ----------------------------------------------


def _kernel_cases():
    """name -> call(backend) for every kernel on the backend surface.

    Inputs are fixed (seeded RNG / deterministic solvers) so any two
    backends see identical arguments; in-place kernels copy their
    operands first and return the mutated copy.
    """
    rng = np.random.default_rng(42)

    # LBMHD: a physical state assembled from the equilibria
    shape = (4, 4, 4)
    rho = 1.0 + 0.01 * rng.standard_normal(shape)
    u = 0.01 * rng.standard_normal((3,) + shape)
    B = 0.05 * rng.standard_normal((3,) + shape)
    f = f_equilibrium(rho, u, B)
    g = g_equilibrium(u, B)
    state = np.concatenate([f, g.reshape(-1, *shape)])
    one_rank = np.ascontiguousarray(state[:, None])
    block = np.stack([state, np.roll(state, 1, axis=1)], axis=1)
    cparams = CollisionParams()

    # GTC: a real grid + particle population from a tiny solver
    gtc = GTC(
        GTCParams(ntoroidal=2, particles_per_cell=8), Communicator(2)
    )
    plane, torus = gtc.torus.plane, gtc.torus
    parts = gtc.particles[0]
    cells = plane.locate_cells(parts.r, parts.theta)
    e_r_grid = 0.01 * rng.standard_normal(plane.shape)
    e_theta_grid = 0.01 * rng.standard_normal(plane.shape)
    e_r_at_p = 0.01 * rng.standard_normal(parts.r.shape)
    e_theta_at_p = 0.01 * rng.standard_normal(parts.r.shape)
    push = gtc.push_params

    # PARATEC: complex lines/slabs/residuals, one band and a band block
    lines = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
    slab = rng.standard_normal((6, 6, 3)) + 1j * rng.standard_normal(
        (6, 6, 3)
    )
    line_block = np.stack([lines, 2.0 * lines, lines[::-1]])
    slab_block = np.stack([slab, slab[::-1]])
    residual = rng.standard_normal((3, 40)) + 1j * rng.standard_normal(
        (3, 40)
    )
    kinetic = rng.random(40) * 4.0

    # FVCAM: level stacks on the solver's own lat-lon grid
    fv_grid = FVCAM(FVCAMParams(), Communicator(1)).grid
    h = 100.0 + rng.standard_normal((5, fv_grid.jm, fv_grid.im))
    q = 1.0 + 0.1 * rng.standard_normal((3, fv_grid.jm, fv_grid.im))
    cu = 0.2 * rng.standard_normal(q.shape)
    cv = 0.2 * rng.standard_normal(q.shape)
    phi = 9.8 * h
    coslat = fv_grid.coslat

    return {
        "lbmhd_collide": lambda b: b.lbmhd_collide(state.copy(), cparams),
        "lbmhd_stream_from_padded": (
            lambda b: b.lbmhd_stream_from_padded(
                one_rank, (1, 1, 1), np.empty_like(one_rank)
            )
        ),
        "lbmhd_stream_from_padded_block": (
            lambda b: b.lbmhd_stream_from_padded(
                block, (2, 1, 1), np.empty_like(block)
            )
        ),
        "gtc_deposit_scalar": lambda b: b.gtc_deposit_scalar(plane, parts),
        "gtc_deposit_scalar_gyro": (
            lambda b: b.gtc_deposit_scalar(plane, parts, gyro_radius=0.05)
        ),
        "gtc_deposit_scalar_cells": (
            lambda b: b.gtc_deposit_scalar(plane, parts, cells=cells)
        ),
        "gtc_deposit_work_vector": (
            lambda b: b.gtc_deposit_work_vector(plane, parts, 8)
        ),
        "gtc_deposit_work_vector_cells": (
            lambda b: b.gtc_deposit_work_vector(plane, parts, 8, cells=cells)
        ),
        "gtc_gather_field": (
            lambda b: b.gtc_gather_field(plane, e_r_grid, e_theta_grid, cells)
        ),
        "gtc_push_particles": (
            lambda b: b.gtc_push_particles(
                torus, parts, e_r_at_p, e_theta_at_p, push
            )
        ),
        "paratec_ifft_z": lambda b: b.paratec_ifft_z(lines),
        "paratec_fft_z": lambda b: b.paratec_fft_z(lines),
        "paratec_ifft2_planes": lambda b: b.paratec_ifft2_planes(slab),
        "paratec_fft2_planes": lambda b: b.paratec_fft2_planes(slab),
        "paratec_fft_z_block": lambda b: b.paratec_fft_z(line_block),
        "paratec_ifft2_planes_block": (
            lambda b: b.paratec_ifft2_planes(slab_block)
        ),
        "paratec_precondition": (
            lambda b: b.paratec_precondition(residual, kinetic, 2.0)
        ),
        "fvcam_suffix_sum": lambda b: b.fvcam_suffix_sum(h),
        "fvcam_geopotential": lambda b: b.fvcam_geopotential(h, 9.8),
        "fvcam_transport_2d": (
            lambda b: b.fvcam_transport_2d(fv_grid, q, cu, cv)
        ),
        "fvcam_pressure_gradient": (
            lambda b: b.fvcam_pressure_gradient(fv_grid, phi, coslat, 0.1)
        ),
    }


def _assert_same(name: str, got, want) -> None:
    if isinstance(got, tuple):
        assert isinstance(want, tuple) and len(got) == len(want), name
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same(f"{name}[{i}]", a, b)
    elif hasattr(got, "r") and hasattr(got, "theta"):  # ParticleArray
        for fld in PARTICLE_FIELDS:
            assert_array_equal(
                getattr(got, fld), getattr(want, fld), err_msg=f"{name}.{fld}"
            )
    else:
        assert_array_equal(np.asarray(got), np.asarray(want), err_msg=name)


@pytest.mark.parametrize("backend_name", ["numpy"])
def test_backend_bitwise_parity_per_kernel(backend_name):
    """The named backend == the numpy one, kernel by kernel."""
    backend = get_backend(backend_name)
    reference = get_backend("numpy")
    for name, call in _kernel_cases().items():
        _assert_same(name, call(backend), call(reference))


def test_toy_backend_must_not_survive_parity():
    """The parity harness actually detects a divergent backend."""
    cases = _kernel_cases()
    with pytest.raises(AssertionError):
        _assert_same(
            "fvcam_suffix_sum",
            cases["fvcam_suffix_sum"](_DoublingBackend()),
            cases["fvcam_suffix_sum"](get_backend()),
        )


# -- harness-level equivalence ---------------------------------------------

#: (app, nprocs, params) cells of the equivalence matrix; FVCAM's
#: decomposition must match P explicitly.
_MATRIX_P4 = [
    ("lbmhd", 4, None),
    ("gtc", 4, None),
    ("fvcam", 4, FVCAMParams(py=2, pz=2)),
    ("paratec", 4, None),
]
_MATRIX_P8 = [
    ("lbmhd", 8, None),
    ("gtc", 8, None),
    ("fvcam", 8, FVCAMParams(py=2, pz=4)),
    ("paratec", 8, None),
]


def _assert_runs_identical(app: str, a, b) -> None:
    adapter = harness.APPLICATIONS[app]
    assert_array_equal(
        adapter.state_vector(a.state), adapter.state_vector(b.state)
    )
    assert a.diagnostics == b.diagnostics
    assert a.comm.elapsed == b.comm.elapsed  # virtual clock
    assert a.ledger.as_records(steps=1) == b.ledger.as_records(steps=1)


class _Handing:
    """An application's adapter that hands its solver ``kernels``."""

    def __init__(self, app: str, kernels) -> None:
        self._adapter = harness.APPLICATIONS[app]
        self._kernels = kernels

    def __getattr__(self, name: str):
        return getattr(self._adapter, name)

    def setup(self, comm, params, arena=None, kernels=None):
        return self._adapter.setup(
            comm, params, arena=arena, kernels=self._kernels
        )


def _assert_backend_specs_run_identically(app, nprocs, params) -> None:
    """No backend, the name ``"numpy"`` and a fresh
    :class:`NumPyBackend` instance handed through ``adapter.setup``
    give the same run."""
    base = harness.run(app, params, steps=2, nprocs=nprocs)
    for spec in ("numpy", NumPyBackend()):
        pinned = harness.run(
            _Handing(app, spec), params, steps=2, nprocs=nprocs
        )
        _assert_runs_identical(app, base, pinned)


@pytest.mark.parametrize("app,nprocs,params", _MATRIX_P4)
def test_harness_backend_equivalence_p4(app, nprocs, params):
    """States, traces, ledgers, and clocks do not depend on how the
    backend was specified."""
    _assert_backend_specs_run_identically(app, nprocs, params)


@pytest.mark.slow
@pytest.mark.parametrize("app,nprocs,params", _MATRIX_P8)
def test_harness_backend_equivalence_p8(app, nprocs, params):
    _assert_backend_specs_run_identically(app, nprocs, params)


@pytest.mark.parametrize("executor", ["serial", "threads:2"])
def test_backend_composes_with_executors(executor):
    """Backend dispatch threads through the executor seam unchanged."""
    handing = _Handing("gtc", NumPyBackend())
    serial = harness.run(handing, steps=2, nprocs=4, executor="serial")
    other = harness.run(handing, steps=2, nprocs=4, executor=executor)
    _assert_runs_identical("gtc", serial, other)


@pytest.mark.slow
def test_backend_composes_with_process_executor():
    from repro.runtime.executors import ProcessExecutor

    support = ProcessExecutor(2).segment_support()
    if not support.ok:
        pytest.skip(f"process executor unsupported: {support.reason}")
    handing = _Handing("lbmhd", NumPyBackend())
    serial = harness.run(handing, steps=2, nprocs=4, executor="serial")
    procs = harness.run(handing, steps=2, nprocs=4, executor="processes:2")
    _assert_runs_identical("lbmhd", serial, procs)


def test_solver_ctor_accepts_backend_spec():
    """Solvers take the name, an instance, or None (numpy) directly."""
    from repro.apps.lbmhd.solver import LBMHD3D, LBMHDParams

    params = LBMHDParams(shape=(8, 8, 8))
    by_name = LBMHD3D(params, Communicator(4), kernels="numpy")
    by_inst = LBMHD3D(params, Communicator(4), kernels=NumPyBackend())
    ambient = LBMHD3D(params, Communicator(4))
    for solver in (by_name, by_inst, ambient):
        solver.run(2)
    assert_array_equal(by_name.global_state(), by_inst.global_state())
    assert_array_equal(by_name.global_state(), ambient.global_state())


class _CountingBackend(NumPyBackend):
    """Reference kernels that count every ``paratec_*`` lookup."""

    name = "counting"

    def __init__(self) -> None:
        self.calls: collections.Counter = collections.Counter()

    def __getattribute__(self, attr: str):
        if attr.startswith("paratec_"):
            object.__getattribute__(self, "calls")[attr] += 1
        return object.__getattribute__(self, attr)


def test_explicit_backend_reaches_the_paratec_cg_sweep(monkeypatch):
    """The backend a solver is handed runs *all* of its kernels — the
    block CG's preconditioner too, which once looked up the default
    backend on every call and so never saw an explicit one.  Serial, so
    the counts are not kept in forked workers under ``REPRO_EXECUTOR``."""
    from repro.apps.paratec.solver import Paratec, ParatecParams

    explicit, ambient = _CountingBackend(), _CountingBackend()
    monkeypatch.setattr(kernels_base, "_NUMPY", ambient)
    comm = Communicator(4, executor="serial")
    solver = Paratec(ParatecParams(), comm, kernels=explicit)
    solver.scf_step()
    for kernel in ("paratec_precondition", "paratec_fft_z"):
        assert explicit.calls[kernel] > 0, kernel
    assert not ambient.calls


def test_batched_paratec_ffts_transform_each_band_alone():
    """A leading band axis is a batch: band b of the block transform is
    the transform of band b, bit for bit."""
    rng = np.random.default_rng(3)
    block = rng.standard_normal((3, 6, 6, 4)) + 1j * rng.standard_normal(
        (3, 6, 6, 4)
    )
    lines = block.reshape(3, 24, 6)
    backend = get_backend("numpy")
    for kernel, batch in (
        ("paratec_fft2_planes", block),
        ("paratec_ifft2_planes", block),
        ("paratec_fft_z", lines),
        ("paratec_ifft_z", lines),
    ):
        transform = getattr(backend, kernel)
        together = transform(batch)
        for b in range(3):
            assert_array_equal(together[b], transform(batch[b]))
