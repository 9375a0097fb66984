"""Per-phase time breakdowns of the modeled application steps.

The paper's analysis reasons about phases — "the computational work
directly involving the particles accounts for almost 85% of the
overhead", "much of the computation time (typically 60%) involves FFTs
and BLAS3 routines", "the global data transposes ... account for the
bulk of PARATEC's communication overhead".  This module splits the
modeled step of :mod:`repro.perfmodel.predict` by named compute kernel
and communication operation, so those statements can be checked
against the same model the tables print (and are, in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machines.catalog import get_machine
from ..machines.spec import MachineSpec
from .predict import model_of


@dataclass
class PhaseBreakdown:
    """Per-phase seconds for one (app, machine, scenario).

    Built either analytically (:func:`phase_breakdown`, from the
    closed-form workload models) or empirically
    (:meth:`from_ledger`, from the phase ledger an instrumented
    harness run accumulated).  The empirical form also carries the
    synchronization (load-imbalance wait) seconds per phase.
    """

    app: str
    machine: str
    compute: dict[str, float] = field(default_factory=dict)
    comm: dict[str, float] = field(default_factory=dict)
    sync: dict[str, float] = field(default_factory=dict)

    @property
    def compute_seconds(self) -> float:
        return sum(self.compute.values())

    @property
    def comm_seconds(self) -> float:
        return sum(self.comm.values())

    @property
    def sync_seconds(self) -> float:
        return sum(self.sync.values())

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.comm_seconds + self.sync_seconds

    def fraction(self, phase: str) -> float:
        """Share of the step spent in one named phase."""
        t = self.compute.get(phase, self.comm.get(phase))
        if t is None:
            raise KeyError(
                f"unknown phase {phase!r}; have "
                f"{sorted(self.compute) + sorted(self.comm)}"
            )
        return (t + self.sync.get(phase, 0.0)) / self.total_seconds

    @property
    def comm_fraction(self) -> float:
        return (self.comm_seconds + self.sync_seconds) / self.total_seconds

    @classmethod
    def from_ledger(
        cls,
        app: str,
        machine: str,
        ledger,
        steps: int = 1,
        reduce: str = "mean",
    ) -> PhaseBreakdown:
        """Empirical breakdown from a :class:`simmpi.PhaseLedger`.

        ``reduce`` picks the across-ranks statistic: ``"mean"`` (the
        IPM convention) or ``"max"`` (the critical path).  Seconds are
        per step.
        """
        if reduce not in ("mean", "max"):
            raise ValueError(f"reduce must be 'mean' or 'max', not {reduce!r}")
        compute: dict[str, float] = {}
        comm: dict[str, float] = {}
        sync: dict[str, float] = {}
        denom = max(steps, 1)
        for name in ledger.phases:
            bucket = ledger[name]
            stat = getattr(bucket.compute_s, reduce)
            compute[name] = float(stat()) / denom
            comm[name] = float(getattr(bucket.comm_s, reduce)()) / denom
            sync[name] = float(getattr(bucket.wait_s, reduce)()) / denom
        return cls(
            app=app, machine=machine, compute=compute, comm=comm, sync=sync
        )

    def render(self) -> str:
        lines = [
            f"{self.app} on {self.machine}: modeled step breakdown",
        ]
        total = self.total_seconds
        for name, t in sorted(
            self.compute.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  compute  {name:<22} {t * 1e3:9.2f} ms  "
                f"{100 * t / total:5.1f}%"
            )
        for name, t in sorted(self.comm.items(), key=lambda kv: -kv[1]):
            lines.append(
                f"  comm     {name:<22} {t * 1e3:9.2f} ms  "
                f"{100 * t / total:5.1f}%"
            )
        for name, t in sorted(self.sync.items(), key=lambda kv: -kv[1]):
            if t <= 0.0:
                continue
            lines.append(
                f"  sync     {name:<22} {t * 1e3:9.2f} ms  "
                f"{100 * t / total:5.1f}%"
            )
        lines.append(f"  total    {'':<22} {total * 1e3:9.2f} ms")
        return "\n".join(lines)


def phase_breakdown(
    app: str, scenario, machine: str | MachineSpec
) -> PhaseBreakdown:
    """The modeled step of one scenario, split by named phase.

    The compute phases are the step's compute time (processor model,
    register demand and adjustment included) shared out in proportion
    to each kernel's own modeled time, so they sum to it; the comm
    phases are the step's communication costs as they are.
    """
    spec = machine if isinstance(machine, MachineSpec) else get_machine(machine)
    model = model_of(app)
    t_comp, _ = model.step_time(spec, scenario)
    processor = model.processor(spec)
    alone = {
        name: processor.time(work)
        for name, work in model.kernel_works(spec, scenario).items()
    }
    scale = t_comp / sum(alone.values())
    return PhaseBreakdown(
        app=app,
        machine=spec.name,
        compute={name: t * scale for name, t in alone.items()},
        comm=dict(model.comm_times(spec, scenario)),
    )
