"""Chaos run — injected faults, self-healing retries, checkpoint/restart.

Not a table from the paper: the paper's multi-hour production runs
survive flaky fabrics and node deaths through checksummed retransmits
and periodic checkpoints, and this experiment demonstrates the
simulated runtime doing the same.  Each of the four applications runs
twice on the Power3 model — once fault-free, once under a
:class:`~repro.resilience.FaultPlan` mixing message drops, a bit-flip,
a latency spike, and one mid-run rank failure — with checkpoints every
two steps.  The acceptance property is printed per app: the recovered
run's final physics state is **bitwise identical** to the fault-free
run, and every second the recovery machinery spent is visible in the
ledger's recovery column.

The rendered output ends with a machine-readable JSON document (one
object per app: fault counters, recovery seconds, overhead ratio,
identity flag) so CI and notebooks can assert on it directly.  A run
that breaks the property raises instead, with the table in the
message, so ``repro-experiments chaos`` exits nonzero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .. import harness
from ..apps.fvcam.solver import FVCAMParams
from ..resilience import (
    BitFlip,
    FaultPlan,
    LatencySpike,
    MessageDrop,
    RankFailure,
)

MACHINE = "Power3"
STEPS = 6
CHECKPOINT_EVERY = 2


def _cases(quick: bool):
    """(app, params, nprocs, steps) for the sweep."""
    cases = [
        ("lbmhd", None, 4, STEPS),
        ("gtc", None, 4, STEPS),
    ]
    if not quick:
        cases += [
            ("fvcam", FVCAMParams(py=2, pz=2), 4, STEPS),
            ("paratec", None, 2, 4),
        ]
    return cases


def _plan(nprocs: int, steps: int) -> FaultPlan:
    """Drops + one corruption + one straggler + one mid-run death."""
    return FaultPlan(
        faults=(
            MessageDrop(step=1, rate=0.3),
            BitFlip(step=2, src=0, byte_index=3, bit=5),
            LatencySpike(step=2, dst=0, extra_s=2e-3),
            RankFailure(rank=nprocs - 1, step=steps // 2),
        ),
        seed=2005,
    )


@dataclass
class ChaosCase:
    """Outcome of one app's faulted-vs-clean comparison."""

    app: str
    nprocs: int
    steps: int
    identical: bool
    clean_elapsed: float
    faulted_elapsed: float
    recovery_s: float
    stats: dict[str, float]

    @property
    def overhead(self) -> float:
        """Faulted / clean virtual wall-clock ratio."""
        if self.clean_elapsed == 0:
            return float("nan")
        return self.faulted_elapsed / self.clean_elapsed

    def as_dict(self) -> dict:
        return {
            "app": self.app,
            "nprocs": self.nprocs,
            "steps": self.steps,
            "identical": self.identical,
            "clean_elapsed_s": self.clean_elapsed,
            "faulted_elapsed_s": self.faulted_elapsed,
            "recovery_s": self.recovery_s,
            "overhead": self.overhead,
            "stats": self.stats,
        }


def _elapsed(result) -> float:
    """Max per-rank virtual time of a finished run."""
    return float(result.comm.elapsed)


def compute(quick: bool = False) -> list[ChaosCase]:
    out: list[ChaosCase] = []
    for app, params, nprocs, steps in _cases(quick):
        clean = harness.run(
            app, params, steps=steps, nprocs=nprocs, machine=MACHINE
        )
        faulted = harness.run(
            app,
            params,
            steps=steps,
            nprocs=nprocs,
            machine=MACHINE,
            fault_plan=_plan(nprocs, steps),
            checkpoint_every=CHECKPOINT_EVERY,
        )
        identical = bool(
            np.array_equal(
                clean.app.state_vector(clean.state),
                faulted.app.state_vector(faulted.state),
            )
        )
        recovery_s = float(faulted.ledger.totals().recovery_s.sum())
        out.append(
            ChaosCase(
                app=app,
                nprocs=nprocs,
                steps=steps,
                identical=identical,
                clean_elapsed=_elapsed(clean),
                faulted_elapsed=_elapsed(faulted),
                recovery_s=recovery_s,
                stats=faulted.recovery.as_dict(),
            )
        )
    return out


def render(quick: bool = False) -> str:
    cases = compute(quick=quick)
    lines = [
        "Chaos run — faults injected at the transport seam, recovered "
        "by retry + checkpoint/restart",
        f"machine={MACHINE}  checkpoint_every={CHECKPOINT_EVERY}  "
        f"plan: drops(rate=0.3) + bit-flip + latency spike + 1 rank death",
        "",
        f"{'app':8s} {'P':>3s} {'steps':>5s} {'drops':>5s} {'flips':>5s} "
        f"{'lates':>5s} {'resend':>6s} {'restarts':>8s} {'replayed':>8s} "
        f"{'recov ms':>9s} {'overhead':>8s} {'bitwise':>8s}",
    ]
    for c in cases:
        s = c.stats
        lines.append(
            f"{c.app:8s} {c.nprocs:3d} {c.steps:5d} "
            f"{int(s['drops_detected']):5d} "
            f"{int(s['corruptions_detected']):5d} "
            f"{int(s['delays_absorbed']):5d} "
            f"{int(s['resends']):6d} "
            f"{int(s['restarts']):8d} "
            f"{int(s['replayed_steps']):8d} "
            f"{c.recovery_s * 1e3:9.3f} "
            f"{c.overhead:8.3f} "
            f"{'yes' if c.identical else 'NO':>8s}"
        )
    lines.append("")
    ok = all(c.identical for c in cases)
    lines.append(
        "acceptance: every faulted run matches its fault-free twin "
        + ("bitwise — PASS" if ok else "bitwise — FAIL")
    )
    if not ok:
        # a failed property is a failed experiment: the runner reports
        # it on stderr and exits nonzero, so CI cannot miss it
        raise RuntimeError("\n".join(lines))
    lines.append("")
    lines.append("JSON:")
    lines.append(
        json.dumps({c.app: c.as_dict() for c in cases}, indent=2)
    )
    return "\n".join(lines)
