"""Adapters binding the four paper applications to the SPMD protocol.

Each adapter is a thin stateless shim: ``setup`` builds the existing
solver class unchanged (the solvers' public APIs are untouched, so
direct construction keeps working everywhere), ``step`` advances it by
its natural unit (a time step; one SCF iteration for PARATEC), and
``diagnostics`` surfaces the solver's conserved/monitored quantities.

The module-level :data:`APPLICATIONS` registry maps registry keys to
adapter singletons; :func:`get_application` resolves a key with a
helpful error, and :func:`register` lets external code add apps.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..apps.fvcam.solver import FVCAM, FVCAMParams
from ..apps.gtc.particles import PARTICLE_FIELDS
from ..apps.gtc.solver import GTC, GTCParams
from ..apps.lbmhd.solver import LBMHD3D, LBMHDParams
from ..apps.paratec.solver import Paratec, ParatecParams
from ..simmpi.comm import Communicator
from .protocol import SPMDApplication


class LBMHDApp:
    """Lattice Boltzmann magnetohydrodynamics (LBMHD3D)."""

    key = "lbmhd"
    name = "LBMHD3D"
    phases = LBMHD3D.phases
    params_cls = LBMHDParams

    def default_params(self) -> LBMHDParams:
        return LBMHDParams(shape=(16, 16, 16))

    def default_nprocs(self, params: LBMHDParams) -> int:
        return 8

    def setup(
        self,
        comm: Communicator,
        params: LBMHDParams,
        arena: Any | None = None,
        kernels: Any | None = None,
    ) -> LBMHD3D:
        return LBMHD3D(params, comm, arena=arena, kernels=kernels)

    def step(self, state: LBMHD3D) -> LBMHD3D:
        state.step()
        return state

    def flops_per_step(self, state: LBMHD3D) -> float:
        return state.flops_per_step

    def diagnostics(self, state: LBMHD3D) -> dict[str, float]:
        d = state.diagnostics()
        return {
            "mass": d.mass,
            "kinetic_energy": d.kinetic_energy,
            "magnetic_energy": d.magnetic_energy,
        }

    def state_vector(self, state: LBMHD3D) -> np.ndarray:
        return state.global_state().ravel()


class GTCApp:
    """Gyrokinetic toroidal particle-in-cell code (GTC)."""

    key = "gtc"
    name = "GTC"
    phases = GTC.phases
    params_cls = GTCParams

    def default_params(self) -> GTCParams:
        return GTCParams()

    def default_nprocs(self, params: GTCParams) -> int:
        return params.ntoroidal

    def setup(
        self,
        comm: Communicator,
        params: GTCParams,
        arena: Any | None = None,
        kernels: Any | None = None,
    ) -> GTC:
        return GTC(params, comm, arena=arena, kernels=kernels)

    def step(self, state: GTC) -> GTC:
        state.step()
        return state

    def flops_per_step(self, state: GTC) -> float:
        return state.flops_per_step

    def diagnostics(self, state: GTC) -> dict[str, float]:
        return {
            "particles": float(state.total_particles()),
            "total_charge": state.total_charge(),
        }

    def state_vector(self, state: GTC) -> np.ndarray:
        parts = [c.ravel() for c in state.charge]
        parts += [f.ravel() for f in state.phi]
        for p in state.particles:
            parts += [getattr(p, name).ravel() for name in PARTICLE_FIELDS]
        return np.concatenate(parts)


class FVCAMApp:
    """Finite-volume atmospheric dynamical core (FVCAM)."""

    key = "fvcam"
    name = "FVCAM"
    phases = FVCAM.phases
    params_cls = FVCAMParams

    def default_params(self) -> FVCAMParams:
        return FVCAMParams()

    def default_nprocs(self, params: FVCAMParams) -> int:
        return params.py * params.pz

    def setup(
        self,
        comm: Communicator,
        params: FVCAMParams,
        arena: Any | None = None,
        kernels: Any | None = None,
    ) -> FVCAM:
        return FVCAM(params, comm, arena=arena, kernels=kernels)

    def step(self, state: FVCAM) -> FVCAM:
        state.step()
        return state

    def flops_per_step(self, state: FVCAM) -> float:
        return state.flops_per_step

    def diagnostics(self, state: FVCAM) -> dict[str, float]:
        out = {"total_mass": state.total_mass()}
        if state.params.with_tracer:
            out["tracer_mass"] = state.tracer_mass()
        return out

    def state_vector(self, state: FVCAM) -> np.ndarray:
        parts = [f.ravel() for f in state.global_fields()]
        if state.q is not None:
            parts += [a.ravel() for a in state.q]
        return np.concatenate(parts)


class ParatecApp:
    """Plane-wave DFT total-energy code (PARATEC).

    One harness step is one SCF iteration (``Paratec.scf_step``);
    ``Paratec.run`` loops the same step.
    """

    key = "paratec"
    name = "PARATEC"
    phases = Paratec.phases
    params_cls = ParatecParams

    def default_params(self) -> ParatecParams:
        return ParatecParams()

    def default_nprocs(self, params: ParatecParams) -> int:
        return 2

    def setup(
        self,
        comm: Communicator,
        params: ParatecParams,
        arena: Any | None = None,
        kernels: Any | None = None,
    ) -> Paratec:
        return Paratec(params, comm, arena=arena, kernels=kernels)

    def step(self, state: Paratec) -> Paratec:
        state.scf_step()
        return state

    def flops_per_step(self, state: Paratec) -> float:
        return state.flops_per_step

    def diagnostics(self, state: Paratec) -> dict[str, float]:
        if state.result is None:
            return {}
        return {
            "band_energy": state.result.band_energy,
            "potential_change": state.result.potential_change,
        }

    def state_vector(self, state: Paratec) -> np.ndarray:
        parts = [b.ravel() for b in state.bands]
        parts += [s.ravel() for s in state.ham.potential_slabs]
        if state.result is not None:
            parts.append(state.result.eigenvalues.astype(complex).ravel())
        return np.concatenate(parts)


#: Registry of harness-runnable applications, keyed by ``app.key``.
APPLICATIONS: dict[str, SPMDApplication] = {
    app.key: app for app in (LBMHDApp(), GTCApp(), FVCAMApp(), ParatecApp())
}


def get_application(key: str) -> SPMDApplication:
    """Resolve a registry key to its adapter (KeyError lists options)."""
    try:
        return APPLICATIONS[key]
    except KeyError:
        raise KeyError(
            f"unknown application {key!r}; available: "
            f"{', '.join(sorted(APPLICATIONS))}"
        ) from None


def register(app: SPMDApplication) -> None:
    """Add (or replace) an application in the registry."""
    if not isinstance(app, SPMDApplication):
        raise TypeError(
            f"{app!r} does not satisfy the SPMDApplication protocol"
        )
    APPLICATIONS[app.key] = app
