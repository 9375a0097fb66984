"""What-if studies the paper suggests but could not run.

Three counterfactuals, each tied to a paper statement:

* **SX-8 with FPLRAM** — "Faster FPLRAM memory is available for the
  SX-8 and would certainly increase GTC performance; however this
  memory technology is more expensive...": give the SX-8 the ES's
  per-flop gather bandwidth and re-evaluate Table 4.
* **X1 with ES-sized vector registers** — "Because the X1 has fewer
  vector registers than the ES/SX-8 (32 vs 72), vectorizing these
  complex loops will exhaust the hardware limits and force spilling to
  memory": give the X1 72 registers and re-evaluate LBMHD3D, whose
  collision loop is the spill victim.
* **Sensitivity profiles** — which machine parameter binds each
  application (elasticity of modeled rate per parameter).
"""

from __future__ import annotations

from ..machines.catalog import get_machine
from ..perfmodel.sensitivity import (
    app_rate_function,
    perturb,
    sensitivity_profile,
)
from .common import AT_256


def sx8_with_fplram() -> dict[str, float]:
    """GTC rate on the stock SX-8 vs an FPLRAM-equipped counterfactual.

    FPLRAM parity means matching the ES's gather bytes *per peak flop*:
    the SX-8's gather fraction rises until gather_bw / peak equals the
    ES's ratio.
    """
    es = get_machine("ES")
    sx8 = get_machine("SX-8")
    es_gather_per_flop = (
        es.vector.gather_bw_fraction * es.stream_bw_gbs / es.peak_gflops
    )
    target_fraction = (
        es_gather_per_flop * sx8.peak_gflops / sx8.stream_bw_gbs
    )
    upgraded = perturb(
        sx8,
        "vector.gather_bw_fraction",
        target_fraction / sx8.vector.gather_bw_fraction,
    )

    rate = app_rate_function("gtc", AT_256["gtc"])
    return {
        "stock": rate(sx8),
        "fplram": rate(upgraded),
        "speedup": rate(upgraded) / rate(sx8),
    }


def x1_with_es_registers() -> dict[str, float]:
    """LBMHD on the stock 32-register X1 vs a 72-register counterfactual.

    The spill-traffic model (repro.machines.vector) charges the memory
    system for the collision loop's excess live values; 72 registers
    eliminate the spills outright.
    """
    x1 = get_machine("X1")
    upgraded = perturb(x1, "vector.num_registers", 72.0 / 32.0)
    rate = app_rate_function("lbmhd", AT_256["lbmhd"])
    return {
        "stock": rate(x1),
        "more_registers": rate(upgraded),
        "speedup": rate(upgraded) / rate(x1),
    }


SENSITIVITY_PARAMS = (
    "peak_gflops",
    "stream_bw_gbs",
    "vector.gather_bw_fraction",
    "vector.scalar_ratio",
    "blas3_efficiency",
)


def sensitivity_profiles() -> dict[str, dict[str, float]]:
    """Per-parameter elasticity of the modeled ES rate, per application."""
    return {
        app: sensitivity_profile(
            app, scenario, get_machine("ES"), SENSITIVITY_PARAMS
        )
        for app, scenario in AT_256.items()
    }


#: Named counterfactuals, individually addressable — this is what the
#: service's ``GET /v1/whatif/<name>`` endpoint serves.
WHATIF_CASES = {
    "sx8_fplram": sx8_with_fplram,
    "x1_registers": x1_with_es_registers,
    "sensitivity": sensitivity_profiles,
}


def run() -> dict:
    return {
        "sx8_fplram": sx8_with_fplram(),
        "x1_registers": x1_with_es_registers(),
        "es_sensitivity": sensitivity_profiles(),
    }


def render() -> str:
    data = run()
    lines = ["What-if studies (model counterfactuals)", ""]
    s = data["sx8_fplram"]
    lines.append(
        f"SX-8 + FPLRAM, GTC @256: {s['stock']:.2f} -> {s['fplram']:.2f} "
        f"Gflop/P ({(s['speedup'] - 1) * 100:+.0f}%) — 'faster FPLRAM ... "
        "would certainly increase GTC performance'."
    )
    x = data["x1_registers"]
    lines.append(
        f"X1 with 72 vector registers, LBMHD3D @256: {x['stock']:.2f} -> "
        f"{x['more_registers']:.2f} Gflop/P "
        f"({(x['speedup'] - 1) * 100:+.0f}%) — tiny, matching the paper's "
        "own surprise: 'we see no performance penalty ... probably due to "
        "the spilled registers being effectively cached'."
    )
    lines += [
        "",
        "Elasticity of the modeled ES rate (1.0 = binds, 0.0 = slack):",
        f"{'parameter':<28}"
        + "".join(f" {a:>8}" for a in data["es_sensitivity"]),
    ]
    for param in SENSITIVITY_PARAMS:
        row = f"{param:<28}"
        for app in data["es_sensitivity"]:
            row += f" {data['es_sensitivity'][app].get(param, 0.0):8.2f}"
        lines.append(row)
    lines += [
        "",
        "Reading: LBMHD rides the vector pipes (peak binds), GTC the",
        "gather rate, PARATEC the BLAS3 efficiency + peak, and FVCAM a",
        "mix of peak and the scalar unit (its unvectorized remainder).",
    ]
    return "\n".join(lines)
