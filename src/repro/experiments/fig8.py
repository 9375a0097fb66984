"""Figure 8 — 256-processor overview of all four applications.

Left panel: percentage of theoretical peak per machine per application.
Right panel: absolute speed relative to the ES (ratio of Gflop/P, which
equals the inverse runtime ratio since the flop count is fixed).
"""

from __future__ import annotations

from ..perfmodel.predict import APPS, model_of
from .common import AT_256

MACHINES = ["Power3", "Itanium2", "Opteron", "X1", "ES", "SX-8"]
P = 256

#: FVCAM has no Opteron or SX-8 results in the paper.
_UNAVAILABLE = {("fvcam", "Opteron"), ("fvcam", "SX-8")}


def run() -> dict[str, dict[str, dict[str, float]]]:
    """{app: {machine: {"gflops", "pct_peak", "relative_to_es"}}}."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for app in APPS:
        predict, scenario = model_of(app).predict, AT_256[app]
        rows: dict[str, dict[str, float]] = {}
        es_rate = predict("ES", scenario).gflops_per_proc
        for machine in MACHINES:
            if (app, machine) in _UNAVAILABLE:
                continue
            r = predict(machine, scenario)
            rows[machine] = {
                "gflops": r.gflops_per_proc,
                "pct_peak": r.pct_peak,
                "relative_to_es": r.gflops_per_proc / es_rate,
            }
        out[app] = rows
    return out


def render() -> str:
    data = run()
    apps = list(data)
    lines = [
        "Figure 8: overview at 256 processors (model)",
        "",
        "(left) percentage of theoretical peak:",
        f"{'machine':<10}" + "".join(f" {a:>9}" for a in apps),
    ]
    for machine in MACHINES:
        row = f"{machine:<10}"
        for app in apps:
            cell = data[app].get(machine)
            row += f" {cell['pct_peak']:8.1f}%" if cell else f" {'--':>9}"
        lines.append(row)
    lines += [
        "",
        "(right) speed relative to the Earth Simulator (runtime ratio):",
        f"{'machine':<10}" + "".join(f" {a:>9}" for a in apps),
    ]
    for machine in MACHINES:
        row = f"{machine:<10}"
        for app in apps:
            cell = data[app].get(machine)
            row += (
                f" {cell['relative_to_es']:9.2f}" if cell else f" {'--':>9}"
            )
        lines.append(row)
    # headline check: ES leads %peak everywhere
    es_leads = all(
        data[app]["ES"]["pct_peak"]
        >= max(row["pct_peak"] for row in data[app].values()) - 1e-9
        for app in apps
    )
    lines += [
        "",
        f"ES achieves the highest %peak for every application: {es_leads}",
    ]
    return "\n".join(lines)
