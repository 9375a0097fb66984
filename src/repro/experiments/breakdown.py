"""Phase-breakdown experiment: where the modeled time goes, per app.

Regenerates the paper's phase-level claims as a table: GTC is ~85%
particle work, PARATEC ~60% library kernels, FVCAM's communication
grows with concurrency, LBMHD is one big vector kernel.
"""

from __future__ import annotations

from ..perfmodel.breakdown import PhaseBreakdown, phase_breakdown
from .common import AT_256

MACHINES = ("ES", "Opteron")


def run() -> dict[tuple[str, str], PhaseBreakdown]:
    return {
        (app, machine): phase_breakdown(app, scenario, machine)
        for app, scenario in AT_256.items()
        for machine in MACHINES
    }


def render() -> str:
    data = run()
    parts = ["Phase breakdowns at 256 processors (model)", ""]
    for (app, machine), bd in data.items():
        parts.append(bd.render())
        parts.append("")
    gtc_es = data[("gtc", "ES")]
    particle_share = (
        gtc_es.fraction("charge deposition") + gtc_es.fraction("gather + push")
    )
    parts.append(
        f"GTC particle-work share on ES: {particle_share * 100:.0f}% "
        "(paper: 'almost 85% of the overhead')"
    )
    par_es = data[("paratec", "ES")]
    lib_share = par_es.fraction("BLAS3 (subspace)") + par_es.fraction("3D FFT")
    parts.append(
        f"PARATEC library-kernel share on ES: {lib_share * 100:.0f}% "
        "(paper: 'much of the computation time (typically 60%)')"
    )
    return "\n".join(parts)
