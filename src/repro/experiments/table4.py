"""Table 4 — GTC at fixed 3.2M particles per processor."""

from __future__ import annotations

from ..apps.gtc import TABLE4_ROWS, predict
from . import paper_data
from .common import (
    Cell,
    mean_abs_deviation,
    model_vs_paper,
    render_comparison,
)

MACHINES = ["Power3", "Itanium2", "Opteron", "X1", "X1-SSP", "ES", "SX-8"]


def _label(s) -> str:
    return f"P={s.nprocs} ({s.particles_per_cell}/cell)"


def run() -> dict[tuple[str, str], Cell]:
    """All Table 4 cells: model prediction vs paper measurement."""
    return model_vs_paper(
        "gtc",
        TABLE4_ROWS,
        MACHINES,
        _label,
        lambda s: paper_data.TABLE4.get(s.nprocs, {}),
    )


def row_labels() -> list[str]:
    return [_label(s) for s in TABLE4_ROWS]


def render() -> str:
    cells = run()
    body = render_comparison(
        "Table 4: GTC Gflop/P, model vs paper (X1-SSP = 4-SSP aggregate)",
        row_labels(),
        MACHINES,
        cells,
    )
    dev = mean_abs_deviation(cells)
    # headline: 2048-way ES aggregate
    from ..apps.gtc import GTCScenario

    es = predict("ES", GTCScenario(2048, 3200))
    body += (
        f"\n\nmean |model/paper - 1| over published cells: {dev:.2f}"
        f"\nES @2048 aggregate: {es.aggregate_tflops:.1f} Tflop/s "
        f"(paper: {paper_data.HEADLINES['gtc_es_2048_tflops']} Tflop/s)"
    )
    return body
