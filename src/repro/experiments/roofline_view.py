"""Roofline view: every application placed on every machine's roofline.

The paper's Table 1 column "Peak Stream (Bytes/Flop)" is the roofline
argument in embryo: a machine's attainable rate is
``min(peak, STREAM x intensity)``, and each code's computational
intensity decides which side of the ridge it lands on.  This experiment
draws the classic log-log roofline in ASCII for selected machines and
marks the four applications at their modeled intensities.
"""

from __future__ import annotations

import numpy as np

from ..machines.catalog import get_machine
from ..perfmodel.predict import model_of
from ..perfmodel.roofline import Roofline
from .common import AT_256

MACHINES = ("Opteron", "X1", "ES", "SX-8")
MARKS = {"lbmhd": "L", "gtc": "G", "paratec": "P", "fvcam": "F"}


def app_points(machine: str) -> dict[str, tuple[float, float]]:
    """(intensity flops/byte, modeled Gflop/P) per application."""
    spec = get_machine(machine)
    roof = Roofline(spec)
    out = {}
    for app in MARKS:
        work = model_of(app).rank_work(spec, AT_256[app])
        out[app] = (min(work.intensity, 64.0), roof.sustained(work))
    return out


def ascii_roofline(machine: str, width: int = 56, height: int = 12) -> str:
    """Log-log ASCII roofline with application markers."""
    spec = get_machine(machine)
    roof = Roofline(spec)
    x_lo, x_hi = -4.0, 6.0  # log2 intensity range
    y_hi = np.log2(spec.peak_gflops) + 0.5
    y_lo = y_hi - 9.0

    canvas = [[" "] * width for _ in range(height)]

    def to_col(log2_x: float) -> int:
        return int((log2_x - x_lo) / (x_hi - x_lo) * (width - 1))

    def to_row(log2_y: float) -> int:
        frac = (log2_y - y_lo) / (y_hi - y_lo)
        return int((1.0 - frac) * (height - 1))

    for col in range(width):
        log2_x = x_lo + col / (width - 1) * (x_hi - x_lo)
        attainable = roof.attainable(2.0**log2_x)
        row = to_row(np.log2(attainable))
        if 0 <= row < height:
            canvas[row][col] = "-" if attainable >= spec.peak_gflops else "/"

    for app, (intensity, rate) in app_points(machine).items():
        col = np.clip(to_col(np.log2(max(intensity, 2.0**x_lo))), 0, width - 1)
        row = np.clip(to_row(np.log2(max(rate, 2.0**y_lo))), 0, height - 1)
        canvas[row][col] = MARKS[app]

    lines = [
        f"{machine}: peak {spec.peak_gflops} GF/s, STREAM "
        f"{spec.stream_bw_gbs} GB/s, ridge at "
        f"{roof.ridge_intensity:.2f} flops/byte",
    ]
    for r, row in enumerate(canvas):
        label = (
            f"{2.0 ** (y_hi - r / (height - 1) * (y_hi - y_lo)):8.2f} |"
            if r % 3 == 0
            else f"{'':8} |"
        )
        lines.append(label + "".join(row))
    lines.append(f"{'':8} +" + "-" * width)
    lines.append(
        f"{'':10}2^{x_lo:.0f} ... 2^{x_hi:.0f} flops/byte   "
        "(L=LBMHD G=GTC P=PARATEC F=FVCAM)"
    )
    return "\n".join(lines)


def run() -> dict[str, dict[str, tuple[float, float]]]:
    return {m: app_points(m) for m in MACHINES}


def render() -> str:
    parts = ["Roofline view of the four applications (model)", ""]
    for m in MACHINES:
        parts.append(ascii_roofline(m))
        parts.append("")
    parts.append(
        "Reading: on the ES every code but GTC sits right of the ridge\n"
        "(0.30 flops/byte) — compute-limited, where vector pipes shine;\n"
        "GTC's gathers land it far below the unit-stride roof on every\n"
        "machine, deepest on the DDR2-equipped SX-8."
    )
    return "\n".join(parts)
