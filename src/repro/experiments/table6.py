"""Table 6 — PARATEC on the 488-atom CdSe quantum dot."""

from __future__ import annotations

from ..apps.paratec import TABLE6_ROWS, predict
from ..apps.paratec.workload import ParatecScenario
from . import paper_data
from .common import (
    Cell,
    mean_abs_deviation,
    model_vs_paper,
    render_comparison,
)

MACHINES = ["Power3", "Itanium2", "Opteron", "X1", "X1-SSP", "ES", "SX-8"]


def _label(s) -> str:
    return f"P={s.nprocs}"


def run() -> dict[tuple[str, str], Cell]:
    """All Table 6 cells: model prediction vs paper measurement."""
    return model_vs_paper(
        "paratec",
        TABLE6_ROWS,
        MACHINES,
        _label,
        lambda s: paper_data.TABLE6.get(s.nprocs, {}),
    )


def row_labels() -> list[str]:
    return [_label(s) for s in TABLE6_ROWS]


def render() -> str:
    cells = run()
    body = render_comparison(
        "Table 6: PARATEC (488-atom CdSe) Gflop/P, model vs paper",
        row_labels(),
        MACHINES,
        cells,
    )
    dev = mean_abs_deviation(cells)
    es = predict("ES", ParatecScenario(2048))
    body += (
        f"\n\nmean |model/paper - 1| over published cells: {dev:.2f}"
        f"\nES @2048 aggregate: {es.aggregate_tflops:.1f} Tflop/s "
        f"(paper: {paper_data.HEADLINES['paratec_es_2048_tflops']} Tflop/s)"
    )
    return body
