"""The kernel-backend seam: resolution, registration, parity.

Three layers of contract, mirroring ``docs/kernels.md``:

* **Resolution** — explicit argument > process default >
  ``REPRO_KERNEL_BACKEND`` > ``"numpy"``; unknown names are a
  ValueError listing the valid choices (and naming the environment
  variable when that is where the bad spec came from).
* **Registration** — a registered backend is dispatched; a duplicate
  name needs ``replace=True``.
* **Parity** — every registered backend is pinned bitwise against the
  numpy reference per kernel, and a harness run produces states,
  diagnostics, ledgers, and virtual clocks identical whether the
  backend is ambient, named, or handed over as an instance.
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
from repro.kernels import (
    BACKENDS,
    KernelBackend,
    NumPyBackend,
    backend_names,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.simmpi.comm import Communicator


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    """Every test starts with no env spec; a leaked default is the
    conftest guard's to catch."""
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)


# -- resolution order ------------------------------------------------------


def test_default_resolution_is_numpy():
    assert get_backend().name == "numpy"
    assert isinstance(get_backend(), NumPyBackend)


def test_explicit_name_and_instance_resolve():
    assert get_backend("numpy").name == "numpy"
    inst = NumPyBackend()
    assert get_backend(inst) is inst


def test_default_outranks_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "not-a-backend")
    with BACKENDS.scoped("numpy"):
        assert get_backend().name == "numpy"  # env never consulted


def test_explicit_outranks_default():
    class Marker(NumPyBackend):
        name = "marker"

    register_backend("marker", Marker)
    try:
        with BACKENDS.scoped("marker"):
            assert get_backend().name == "marker"
            assert get_backend("numpy").name == "numpy"
    finally:
        unregister_backend("marker")


def test_env_var_resolves(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numpy")
    assert get_backend().name == "numpy"


def test_unknown_name_lists_choices():
    with pytest.raises(ValueError) as exc:
        get_backend("fortran")
    msg = str(exc.value)
    assert "unknown kernel backend 'fortran'" in msg
    assert all(repr(name) in msg for name in backend_names())
    assert "REPRO_KERNEL_BACKEND" not in msg  # not env-sourced


def test_unknown_env_name_names_the_variable(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "fortran")
    with pytest.raises(ValueError) as exc:
        get_backend()
    msg = str(exc.value)
    assert "(from REPRO_KERNEL_BACKEND)" in msg
    assert "'numpy'" in msg


def test_set_default_validates_eagerly():
    with pytest.raises(ValueError, match="valid choices"):
        with BACKENDS.scoped("fortran"):
            pytest.fail("a bad default must not be entered")
    assert BACKENDS.default() is None  # nothing was installed


def test_non_string_spec_is_type_error():
    with pytest.raises(TypeError):
        get_backend(42)


# -- registration + dispatch -----------------------------------------------


class _DoublingBackend(KernelBackend):
    """Toy backend proving dispatch: doubles one kernel's output."""

    name = "toy-double"

    def fvcam_suffix_sum(self, h: np.ndarray) -> np.ndarray:
        return 2.0 * super().fvcam_suffix_sum(h)


def test_registered_backend_is_dispatched():
    register_backend("toy", _DoublingBackend)
    try:
        h = np.arange(24.0).reshape(2, 3, 4)
        ref = get_backend("numpy").fvcam_suffix_sum(h)
        assert_array_equal(get_backend("toy").fvcam_suffix_sum(h), 2.0 * ref)
        # non-overridden kernels inherit the reference
        g = get_backend("toy").fvcam_geopotential(h, 9.8)
        assert_array_equal(g, get_backend("numpy").fvcam_geopotential(h, 9.8))
    finally:
        unregister_backend("toy")
    with pytest.raises(ValueError, match="valid choices"):
        get_backend("toy")


def test_available_backends_reports_every_registration():
    """backend_names() lists each registration in order, and only
    while it is registered."""
    assert backend_names()[0] == "numpy"
    register_backend("toy", _DoublingBackend)
    try:
        assert backend_names()[-1] == "toy"
        assert get_backend("toy").name == "toy-double"
    finally:
        unregister_backend("toy")
    assert "toy" not in backend_names()


def test_duplicate_registration_needs_replace():
    register_backend("toy", _DoublingBackend)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_backend("toy", _DoublingBackend)
        register_backend("toy", _DoublingBackend, replace=True)
    finally:
        unregister_backend("toy")


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
    padded = np.pad(state, ((0, 0),) + ((1, 1),) * 3, mode="wrap")
    block = np.stack([state, np.roll(state, 1, axis=1)], axis=1)
    padded_block = np.pad(
        block, ((0, 0), (0, 0)) + ((1, 1),) * 3, mode="wrap"
    )
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
            lambda b: b.lbmhd_stream_from_padded(padded)
        ),
        "lbmhd_stream_from_padded_block": (
            lambda b: b.lbmhd_stream_from_padded(padded_block)
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


@pytest.mark.parametrize("backend_name", backend_names())
def test_backend_bitwise_parity_per_kernel(backend_name):
    """Every registered backend == numpy, kernel by kernel."""
    backend = get_backend(backend_name)
    reference = get_backend("numpy")
    for name, call in _kernel_cases().items():
        _assert_same(name, call(backend), call(reference))


def test_toy_backend_must_not_survive_parity():
    """The parity harness actually detects a divergent backend."""
    register_backend("toy", _DoublingBackend)
    try:
        cases = _kernel_cases()
        with pytest.raises(AssertionError):
            _assert_same(
                "fvcam_suffix_sum",
                cases["fvcam_suffix_sum"](get_backend("toy")),
                cases["fvcam_suffix_sum"](get_backend("numpy")),
            )
    finally:
        unregister_backend("toy")


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


def _assert_backend_specs_run_identically(app, nprocs, params) -> None:
    """The ambient backend, the name ``"numpy"`` and a fresh
    :class:`NumPyBackend` instance give the same run."""
    base = harness.run(app, params, steps=2, nprocs=nprocs)
    for spec in ("numpy", NumPyBackend()):
        pinned = harness.run(
            app, params, steps=2, nprocs=nprocs, kernel_backend=spec
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
    serial = harness.run(
        "gtc", steps=2, nprocs=4, kernel_backend="numpy", executor="serial"
    )
    other = harness.run(
        "gtc", steps=2, nprocs=4, kernel_backend="numpy", executor=executor
    )
    _assert_runs_identical("gtc", serial, other)


@pytest.mark.slow
def test_backend_composes_with_process_executor():
    from repro.runtime.executors import ProcessExecutor

    support = ProcessExecutor(2).segment_support()
    if not support.ok:
        pytest.skip(f"process executor unsupported: {support.reason}")
    serial = harness.run(
        "lbmhd", steps=2, nprocs=4, kernel_backend="numpy", executor="serial"
    )
    procs = harness.run(
        "lbmhd",
        steps=2,
        nprocs=4,
        kernel_backend="numpy",
        executor="processes:2",
    )
    _assert_runs_identical("lbmhd", serial, procs)


def test_solver_ctor_accepts_backend_spec():
    """Solvers take names, instances, or None (ambient) directly."""
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


def test_explicit_backend_reaches_the_paratec_cg_sweep():
    """The backend a solver is handed runs *all* of its kernels — the
    block CG's preconditioner too, which once asked the ambient chain on
    every call and so never saw an explicit backend.  Serial, so the
    counts are not kept in forked workers under ``REPRO_EXECUTOR``."""
    from repro.apps.paratec.solver import Paratec, ParatecParams

    explicit, ambient = _CountingBackend(), _CountingBackend()
    with BACKENDS.scoped(ambient):
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
