"""Shared rendering helpers for the experiment modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from ..apps.fvcam import FVCAMScenario
from ..apps.gtc import GTCScenario
from ..apps.lbmhd import LBMHDScenario
from ..apps.paratec import ParatecScenario
from ..perfmodel.predict import model_of

#: One 256-processor scenario per application: the cases of Figure 8
#: and of the breakdown, what-if and roofline views.
AT_256 = {
    "lbmhd": LBMHDScenario(512, 256),
    "gtc": GTCScenario(256, 400),
    "paratec": ParatecScenario(256),
    "fvcam": FVCAMScenario(256, 4),
}


@dataclass(frozen=True)
class Cell:
    """One model-vs-paper comparison cell."""

    machine: str
    model_gflops: float
    paper_gflops: float | None

    @property
    def ratio(self) -> float | None:
        if self.paper_gflops in (None, 0.0):
            return None
        return self.model_gflops / self.paper_gflops


def model_vs_paper(
    app: str,
    rows: Iterable,
    machines: list[str],
    label: Callable[[object], str],
    paper_row: Callable[[object], dict[str, float]],
) -> dict[tuple[str, str], Cell]:
    """Every (row, machine) cell of one table: prediction vs paper.

    The paper reports X1-SSP rates as 4-SSP aggregates (one MSP's
    worth), so the modeled per-SSP rate is multiplied by 4 and the cell
    is read against the X1's peak.
    """
    predict = model_of(app).predict
    cells: dict[tuple[str, str], Cell] = {}
    for scenario in rows:
        paper = paper_row(scenario)
        for machine in machines:
            gflops = predict(machine, scenario).gflops_per_proc
            if machine == "X1-SSP":
                gflops *= 4
            cells[(label(scenario), machine)] = Cell(
                machine="X1" if machine == "X1-SSP" else machine,
                model_gflops=gflops,
                paper_gflops=paper.get(machine),
            )
    return cells


def render_comparison(
    title: str,
    row_labels: list[str],
    machines: list[str],
    cells: dict[tuple[str, str], Cell],
) -> str:
    """Render a model|paper side-by-side table.

    ``cells[(row_label, machine)]`` supplies each entry; missing cells
    print as the paper's em-dash.
    """
    width = 17
    lines = [title, ""]
    header = f"{'row':<18}|"
    for m in machines:
        header += f" {m:^{width}} |"
    lines.append(header)
    sub = f"{'':<18}|"
    for _ in machines:
        sub += f" {'model  paper  r':^{width}} |"
    lines.append(sub)
    lines.append("-" * len(header))
    for label in row_labels:
        row = f"{label:<18}|"
        for m in machines:
            cell = cells.get((label, m))
            if cell is None:
                row += f" {'--':^{width}} |"
            elif cell.paper_gflops is None:
                row += f" {cell.model_gflops:5.2f} {'--':>6} {'':>4} |"
            else:
                row += (
                    f" {cell.model_gflops:5.2f} {cell.paper_gflops:6.2f}"
                    f" {cell.ratio:4.2f} |"
                )
        lines.append(row)
    return "\n".join(lines)


def mean_abs_deviation(cells: dict) -> float:
    """Mean |model/paper - 1| over the cells with paper values.

    An empty cell set has no defined deviation: returns ``nan`` (not
    0.0, which would read as a perfect score).
    """
    devs = [
        abs(c.ratio - 1.0)
        for c in cells.values()
        if c is not None and c.ratio is not None
    ]
    return sum(devs) / len(devs) if devs else float("nan")
