"""Golden values of every paper-scale prediction, compared exactly.

Each cell is (app, catalog machine, table row), with LBMHD's 4800-way
ES headline among the rows: 256 cells.  A refactor of the performance
model must leave every ``gflops_per_proc``, ``wall_seconds`` and
``total_flops`` bitwise unchanged; a deliberate model change rewrites
the file with ``PYTHONPATH=src python tests/test_predict_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.apps import fvcam, gtc, lbmhd, paratec
from repro.machines.catalog import MACHINES

GOLDEN = Path(__file__).with_name("predict_golden.json")
FIELDS = ("gflops_per_proc", "wall_seconds", "total_flops")

ROWS = {
    "fvcam": (fvcam.predict, fvcam.TABLE3_ROWS),
    "gtc": (gtc.predict, gtc.TABLE4_ROWS),
    "lbmhd": (lbmhd.predict, (*lbmhd.TABLE5_ROWS, lbmhd.ES_HEADLINE)),
    "paratec": (paratec.predict, paratec.TABLE6_ROWS),
}


def cells():
    for app, (predict, rows) in ROWS.items():
        for machine in MACHINES:
            for scenario in rows:
                yield f"{app}|{machine}|{scenario!r}", predict, machine, scenario


def current() -> dict[str, dict[str, float]]:
    return {
        key: {f: float(getattr(predict(m, s), f)) for f in FIELDS}
        for key, predict, m, s in cells()
    }


def test_every_cell_is_golden():
    golden = json.loads(GOLDEN.read_text())
    now = current()
    assert len(now) == 256
    assert sorted(now) == sorted(golden)
    changed = [k for k in now if now[k] != golden[k]]
    assert not changed, f"{len(changed)} cells changed, e.g. {changed[:3]}"


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in current().items()]
    GOLDEN.write_text("{\n" + ",\n".join(sorted(lines)) + "\n}\n")
