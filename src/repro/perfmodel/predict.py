"""One paper-scale model per application, and the one derivation from it.

Each ``apps/<app>/workload.py`` states its model once, as an
:class:`AppModel`: the named compute kernels one rank runs per step
(``kernel_works``) and the named communication costs it pays
(``comm_times``).  Everything the experiments read off the model — step
time, uncalibrated rate, the calibrated table cell, the per-phase
breakdown, parameter sensitivities, roofline placement — is derived here
from those two functions, so no consumer keeps a copy that can drift.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

from ..machines.catalog import get_machine
from ..machines.processor import ProcessorModel, make_model
from ..machines.spec import MachineSpec
from ..workload import Work, combine
from .efficiency import get_calibration
from .report import PerfResult

#: The applications with a paper-scale model (``apps/<app>/workload.py``).
APPS = ("fvcam", "gtc", "lbmhd", "paratec")


@dataclass(frozen=True)
class AppModel:
    """An application's paper-scale model of one step on one rank.

    ``kernel_works(spec, scenario)`` and ``comm_times(spec, scenario)``
    return ``{phase name: Work}`` and ``{phase name: seconds}``.  The two
    optional fields are per-application constants: the live-register
    demand of the hot loop (vector spill model), and an adjustment of
    the modeled compute seconds, ``adjust_compute(t, spec, scenario)``,
    for effects outside the processor model.
    """

    app: str
    kernel_works: Callable[[MachineSpec, Any], dict[str, Work]]
    comm_times: Callable[[MachineSpec, Any], dict[str, float]]
    loop_registers: float | None = None
    adjust_compute: Callable[[float, MachineSpec, Any], float] | None = None

    def processor(self, spec: MachineSpec) -> ProcessorModel:
        """The processor model this application's loops run on."""
        return make_model(spec, self.loop_registers)

    def rank_work(self, spec: MachineSpec, scenario) -> Work:
        """All compute of one step on one rank, as one record."""
        works = list(self.kernel_works(spec, scenario).values())
        return combine(works, name=f"{self.app}.step")

    def step_time(self, spec: MachineSpec, scenario) -> tuple[float, float]:
        """(compute_seconds, comm_seconds) of one step on one rank."""
        _, t_comp, t_comm = self._step(spec, scenario)
        return t_comp, t_comm

    def rate(self, spec: MachineSpec, scenario) -> float:
        """Modeled Gflop/s per processor, without calibration residual."""
        flops, t_comp, t_comm = self._step(spec, scenario)
        return flops / (t_comp + t_comm) / 1e9

    def predict(self, machine: str, scenario) -> PerfResult:
        """The modeled table cell: calibrated rate of one scenario."""
        spec = get_machine(machine)
        flops, t_comp, t_comm = self._step(spec, scenario)
        t_total = t_comp / get_calibration(self.app, spec.name) + t_comm
        return PerfResult(
            app=self.app,
            machine=spec.name,
            nprocs=scenario.nprocs,
            gflops_per_proc=flops / t_total / 1e9,
            config=scenario.label,
            wall_seconds=t_total,
            total_flops=flops * scenario.nprocs,
        )

    def _step(self, spec: MachineSpec, scenario) -> tuple[float, ...]:
        """(flops, compute_seconds, comm_seconds) of one step on one rank."""
        work = self.rank_work(spec, scenario)
        t_comp = self.processor(spec).time(work)
        if self.adjust_compute is not None:
            t_comp = self.adjust_compute(t_comp, spec, scenario)
        t_comm = sum(self.comm_times(spec, scenario).values())
        return work.flops, t_comp, t_comm


def model_of(app: str) -> AppModel:
    """The :class:`AppModel` of one application, by name."""
    if app not in APPS:
        raise KeyError(f"unknown app {app!r}; one of {APPS}")
    workload = importlib.import_module(f"..apps.{app}.workload", __package__)
    return workload.MODEL
