"""Table 3 — FVCAM on the 0.5 x 0.625 degree D mesh."""

from __future__ import annotations

from ..apps.fvcam import TABLE3_ROWS
from . import paper_data
from .common import (
    Cell,
    mean_abs_deviation,
    model_vs_paper,
    render_comparison,
)

MACHINES = ["Power3", "Itanium2", "X1", "X1E", "ES"]


def _label(s) -> str:
    return f"{s.label} P={s.nprocs}"


def run() -> dict[tuple[str, str], Cell]:
    """All Table 3 cells: model prediction vs paper measurement."""
    return model_vs_paper(
        "fvcam",
        TABLE3_ROWS,
        MACHINES,
        _label,
        lambda s: paper_data.TABLE3.get((s.label, s.nprocs), {}),
    )


def row_labels() -> list[str]:
    return [_label(s) for s in TABLE3_ROWS]


def render() -> str:
    cells = run()
    body = render_comparison(
        "Table 3: FVCAM Gflop/P, model vs paper (r = model/paper)",
        row_labels(),
        MACHINES,
        cells,
    )
    dev = mean_abs_deviation(cells)
    return body + f"\n\nmean |model/paper - 1| over published cells: {dev:.2f}"
