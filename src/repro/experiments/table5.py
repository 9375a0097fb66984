"""Table 5 — LBMHD3D across grid sizes and concurrencies."""

from __future__ import annotations

from ..apps.lbmhd import ES_HEADLINE, TABLE5_ROWS, predict
from . import paper_data
from .common import (
    Cell,
    mean_abs_deviation,
    model_vs_paper,
    render_comparison,
)

MACHINES = ["Power3", "Itanium2", "Opteron", "X1", "X1-SSP", "ES", "SX-8"]


def _label(s) -> str:
    return f"{s.label} P={s.nprocs}"


def run() -> dict[tuple[str, str], Cell]:
    """All Table 5 cells: model prediction vs paper measurement."""
    return model_vs_paper(
        "lbmhd",
        TABLE5_ROWS,
        MACHINES,
        _label,
        lambda s: paper_data.TABLE5.get((s.grid, s.nprocs), {}),
    )


def row_labels() -> list[str]:
    return [_label(s) for s in TABLE5_ROWS]


def render() -> str:
    cells = run()
    body = render_comparison(
        "Table 5: LBMHD3D Gflop/P, model vs paper (X1-SSP = 4-SSP aggregate)",
        row_labels(),
        MACHINES,
        cells,
    )
    dev = mean_abs_deviation(cells)
    es = predict("ES", ES_HEADLINE)
    body += (
        f"\n\nmean |model/paper - 1| over published cells: {dev:.2f}"
        f"\nES @4800 aggregate: {es.aggregate_tflops:.1f} Tflop/s at "
        f"{es.pct_peak:.0f}% of peak (paper: >"
        f"{paper_data.HEADLINES['lbmhd_es_4800_tflops']:.0f} Tflop/s at "
        f"{paper_data.HEADLINES['lbmhd_es_pct_peak']:.0f}%)"
    )
    return body
