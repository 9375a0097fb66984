"""One pass in a fresh interpreter; ``run.py`` spawns it and reads --out.

``--workload NAME`` runs one pass of that workload; ``--layers`` runs
the per-layer probes instead.  The JSON written to ``--out`` is the only
channel back; a pass that cannot finish exits non-zero and writes none.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

import procs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload")
    what.add_argument("--layers", action="store_true")
    parser.add_argument("--parent", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    procs.die_with_parent(args.parent)
    # unwind through the context managers that own child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    t0 = time.perf_counter()
    import workloads  # pulls in repro, numpy, scipy

    import_s = time.perf_counter() - t0
    from spans import Spans

    spans = Spans(enabled=bool(args.trace) or args.layers)
    ctx = workloads.Ctx(args.seed, args.seconds, args.workdir, spans)
    if args.layers:
        import layers

        result = {"metrics": layers.measure(ctx)}
        tag = "layers"
    else:
        workload = workloads.WORKLOADS[args.workload](ctx)
        workload.run()
        result = workload.result()
        tag = args.workload
    result["import_s"] = import_s
    result["span_summary"] = spans.summary()
    spans.write(args.workdir / "spans.jsonl", source=tag)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
