"""The repo's one benchmark: ``python3 benchmarks/ladder/run.py``.

A thin orchestrator (standard library only).  Each workload runs as
``PASSES`` passes, each pass a fresh child interpreter
(``pass_main.py``); with several workloads the passes interleave
(``W1 W2 W3 W4 W1 ...``) so every workload samples separated time
windows.  Timing samples pool over the passes, ``setup_s`` is the
median of the passes' set-ups.  The metric names, units and bounds are
those of ``BENCHMARK.json`` and nothing else.

    run.py --workload NAME --seed N --seconds S --trace 0|1   (the driver)
    run.py [--seed N] [--quick] [--trace] [--out FILE]       (all four)
    run.py --selfcheck                                        (A/B noise)

The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics, or with
``--trace 1`` the per-layer metrics.  Exit code 0 only if every pass
finished and nothing was left behind (``leaked_procs == 0`` and
``leaked_shm == 0``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import procs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch and default output; listed in the root .gitignore.
STATE = ROOT / ".ladder"
PASSES = 3
#: Hard deadline of one pass, and of one whole invocation per workload
#: (the driver allows a run 180 s).
PASS_DEADLINE_S = 90.0
RUN_DEADLINE_S = 170.0
#: ``--quick``: one pass of this many measured seconds.
QUICK_SECONDS = 1.0
#: ``--selfcheck``: seeds per set, as many as the driver runs.
SELFCHECK_RUNS = 10
#: What every child runs under; recorded in the result.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class Interrupted(Exception):
    """SIGTERM/SIGINT arrived; unwind, clean up, exit."""


def _raise_interrupted(signum, _frame):
    raise Interrupted(signum)


def child_env(workdir: Path) -> dict[str, str]:
    """Pinned BLAS threads and hash seed, no ``REPRO_*`` knob, this
    checkout's ``src`` first on the path, temp files inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([inherited] if inherited else [])
    )
    env["TMPDIR"] = str(workdir)
    return env


# -- running passes ---------------------------------------------------------


def _wait(proc: subprocess.Popen, deadline: float):
    """Poll ``wait4`` until the child exits or ``deadline`` passes."""
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return rusage
        if time.monotonic() > deadline:
            return None
        time.sleep(0.01)


class Runner:
    """Runs passes, and accounts for every process and segment they made."""

    def __init__(self, workloads: int) -> None:
        self.workdir = STATE / f"work-{os.getpid()}"
        self.leaked_procs = 0
        self.leaked_shm = 0
        # the driver's 180 s cover one workload; each gets its share
        self.deadline = time.monotonic() + RUN_DEADLINE_S * workloads
        self.passes_run = 0

    def run_pass(self, what: list[str], seed: int, seconds: float,
                 trace: int) -> dict[str, Any] | None:
        """One ``pass_main.py`` child; its result, or None if it failed."""
        self.passes_run += 1
        workdir = self.workdir / f"pass-{self.passes_run}"
        workdir.mkdir(parents=True)
        out = workdir / "result.json"
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "pass_main.py"), *what,
             "--parent", str(os.getpid()), "--seed", str(seed),
             "--seconds", repr(seconds), "--trace", str(trace),
             "--workdir", str(workdir), "--out", str(out)],
            env=child_env(workdir),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=sys.stderr,  # our stdout carries only the report
        )
        deadline = min(self.deadline, time.monotonic() + PASS_DEADLINE_S)
        t0 = time.perf_counter()
        try:
            rusage = _wait(proc, deadline)
        except BaseException:
            self._abort(proc)
            raise
        if rusage is None:
            print(f"ladder: pass {what} exceeded its deadline",
                  file=sys.stderr)
            self._abort(proc)
            return None
        # the pass ended on its own: whatever still runs below us a moment
        # later is a leak
        found, _ = procs.sweep(settle_s=1.0)
        self.leaked_procs += found
        if proc.returncode != 0 or not out.exists():
            print(f"ladder: pass {what} exited {proc.returncode}",
                  file=sys.stderr)
            return None
        result = json.loads(out.read_text())
        result["pass_wall_s"] = time.perf_counter() - t0
        result["rss_kib"] = rusage.ru_maxrss
        result["spans"] = workdir / "spans.jsonl"
        return result

    def _abort(self, proc: subprocess.Popen) -> None:
        """Stop a pass we will not wait for: SIGTERM lets it unwind its
        own children, then everything below us is killed and reaped."""
        if proc.returncode is None:
            proc.terminate()
            _wait(proc, time.monotonic() + procs.GRACE_S)
        _, remaining = procs.sweep()
        if proc.returncode is None:
            proc.returncode = -signal.SIGKILL  # reaped by the sweep
        self.leaked_procs += remaining

    def finish(self) -> None:
        """Once more before exit: nothing alive, none of the segments the
        passes logged as theirs, no scratch."""
        found, _ = procs.sweep(settle_s=1.0)
        self.leaked_procs += found
        self.leaked_shm += procs.remove_shm(
            name
            for log in self.workdir.glob("pass-*/shm.log")
            for name in log.read_text().split()
        )
        shutil.rmtree(self.workdir, ignore_errors=True)
        print(f"leaked_procs={self.leaked_procs} "
              f"leaked_shm={self.leaked_shm}")

    @property
    def clean(self) -> bool:
        return self.leaked_procs == 0 and self.leaked_shm == 0


# -- metrics ----------------------------------------------------------------


def typical_ms(by_class: dict[str, list[float]]) -> float:
    """Geometric mean of the class medians: no class outweighs another
    because its ops are longer."""
    logs = [math.log(statistics.median(v)) for v in by_class.values()]
    return math.exp(sum(logs) / len(logs))


def tail_ms(by_class: dict[str, list[float]]) -> float:
    """The typical time, times the 90th percentile of every op's ratio
    to its own class median (pooled, so every class feeds the tail)."""
    ratios = [ms / statistics.median(v) for v in by_class.values() for ms in v]
    return typical_ms(by_class) * statistics.quantiles(
        ratios, n=10, method="inclusive")[8]


def summarize(passes: list[dict[str, Any]]) -> dict[str, Any]:
    """Pool the passes of one workload into its end-to-end metrics.

    Every time is taken *at reference host speed*: each op's raw time is
    divided by the host slowdown measured beside it (``workloads.
    calibrate``), each set-up stage likewise, CPU time by the window's
    overall ratio.  The raw figures ride along under ``raw`` and go
    into the perfdb records; they carry no bound (README: why).
    """
    ref: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    attempted = 0
    for p in passes:
        for cls, ms, ok, _traced, slow in p["ops"]:
            attempted += 1
            if ok:
                ref.setdefault(cls, []).append(ms / slow)
                raw.setdefault(cls, []).append(ms)
    done = sum(len(v) for v in ref.values())
    out: dict[str, Any] = {
        "attempted": attempted,
        "failed": attempted - done,
        "problems": [m for p in passes for m in p["problems"]],
        "bad_classes": {k: v for p in passes
                        for k, v in p["bad_classes"].items()},
        "classes": {
            cls: {"ops": len(v), "median_ms": statistics.median(v),
                  "raw_median_ms": statistics.median(raw[cls])}
            for cls, v in sorted(ref.items())
        },
        "pass_wall_s": [p["pass_wall_s"] for p in passes],
        "idle_cpu_frac": max(p["idle_cpu_frac"] for p in passes),
    }
    # one perfdb RunRecord dict per class, so that ``repro-perfdb ingest
    # <result.json>`` takes the file as it is: wall_s is the raw class
    # median, as every other source's is; the scaled one rides in extra
    templates = {k: v for p in passes for k, v in p["records"].items()}
    out["records"] = [
        {**templates[cls], "wall_s": row["raw_median_ms"] / 1e3,
         "repeats": row["ops"], "source": "benchmarks/ladder",
         "extra": {"ref_speed_wall_s": row["median_ms"] / 1e3}}
        for cls, row in out["classes"].items()
    ]
    if not done:
        return out

    def timings(by_class, setups, cpu_s) -> dict[str, float]:
        # seconds in which ops were running, per closed-loop caller
        busy_s = sum(map(sum, by_class.values())) / 1e3 / passes[0]["callers"]
        return {
            "op_ms_p50": typical_ms(by_class),
            "op_ms_p90": tail_ms(by_class),
            "ops_per_s": done / busy_s,
            "cpu_ms_per_op": 1e3 * cpu_s / done,
            "setup_s": statistics.median(setups),
        }

    cpu_s = sum(p["cpu_s"] for p in passes)
    scale = sum(map(sum, ref.values())) / sum(map(sum, raw.values()))
    out["samples"] = done
    out["metrics"] = {
        **timings(
            ref,
            [sum(wall / slow for wall, slow in p["stages"]) for p in passes],
            cpu_s * scale,
        ),
        "peak_rss_mb": max(p["rss_kib"] for p in passes) / 1024,
    }
    # the tail is reported, not gated: no bound the contract allows holds
    # it on this host (README), so it is not a BENCHMARK.json metric
    out["op_ms_p90"] = out["metrics"].pop("op_ms_p90")
    out["raw"] = {
        **timings(
            raw,
            [sum(wall for wall, _slow in p["stages"]) for p in passes],
            cpu_s,
        ),
        "calib_ms_p50": statistics.median(
            c for p in passes for c in p["calib_ms"]),
    }
    return out


def trace_overhead(ops: list) -> float:
    """Traced over untraced typical op time, minus one (same pass,
    alternating cycles)."""
    halves: dict[bool, dict[str, list[float]]] = {True: {}, False: {}}
    for cls, ms, ok, traced, slow in ops:
        if ok:
            halves[traced].setdefault(cls, []).append(ms / slow)
    if not halves[True] or not halves[False]:
        return 0.0  # window too short to hold a cycle of each kind
    return typical_ms(halves[True]) / typical_ms(halves[False]) - 1.0


# -- one set of runs ----------------------------------------------------------


def measure(runner: Runner, names: list[str], seed: int, seconds: float,
            passes: int) -> dict[str, dict[str, Any]] | None:
    """Untraced: ``passes`` interleaved passes of each named workload."""
    results: dict[str, list] = {name: [] for name in names}
    for _ in range(passes):
        for name in names:
            result = runner.run_pass(
                ["--workload", name], seed, seconds / passes, trace=0
            )
            if result is None:
                return None
            results[name].append(result)
    return {name: summarize(results[name]) for name in names}


def measure_traced(runner: Runner, names: list[str], seed: int,
                   seconds: float, passes: int, spans_out: Path):
    """Traced: one short traced pass per workload, then the layer probes."""
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text("")
    traced: dict[str, dict[str, Any]] = {}
    import_s = []
    for name in names:
        result = runner.run_pass(
            ["--workload", name], seed, seconds / passes, trace=1
        )
        if result is None:
            return None
        traced[name] = result
        import_s.append(result["import_s"])
    layers = runner.run_pass(["--layers"], seed, seconds, trace=1)
    if layers is None:
        return None
    import_s.append(layers["import_s"])
    with spans_out.open("a") as fh:
        for result in [*traced.values(), layers]:
            fh.write(result["spans"].read_text())
    metrics = dict(layers["metrics"])
    metrics["runtime.import_s"] = statistics.median(import_s)
    overheads = [trace_overhead(r["ops"]) for r in traced.values()]
    metrics["trace.overhead_frac"] = statistics.fmean(overheads)
    summaries = {name: summarize([r]) for name, r in traced.items()}
    for name, result in traced.items():
        summaries[name]["span_summary"] = result["span_summary"]
    return metrics, summaries, layers["span_summary"]


# -- reporting ----------------------------------------------------------------


def contract_metrics(contract: dict, key: str, values: dict[str, float]):
    """``values`` under exactly the names ``BENCHMARK.json`` lists."""
    missing = [m["name"] for m in contract[key] if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in contract[key]})
    if missing or extra:
        raise SystemExit(
            f"ladder: metrics differ from BENCHMARK.json {key}: "
            f"missing {missing}, unlisted {extra}"
        )
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in contract[key]
    }


def print_workload(name: str, summary: dict[str, Any], units: dict) -> None:
    n = summary.get("samples", 0)
    print(f"{name}: {summary['attempted']} ops attempted, "
          f"{summary['failed']} failed "
          f"(failed_frac {summary['failed'] / summary['attempted']:.4f})")
    for cls, row in summary["classes"].items():
        print(f"  class {cls:<22} {row['median_ms']:10.3f} ms  "
              f"(n={row['ops']}, raw {row['raw_median_ms']:.3f})")
    raw = summary.get("raw", {})
    for metric, value in summary.get("metrics", {}).items():
        note = f", raw {raw[metric]:.4f}" if metric in raw else ""
        print(f"  {metric:<16} {value:12.4f} {units[metric]:<5} "
              f"(n={n}{note})")
    if raw:
        print(f"  {'op_ms_p90':<16} {summary['op_ms_p90']:12.4f} ms    "
              f"(n={n}, raw {raw['op_ms_p90']:.4f}; reported, no bound)")
        print(f"  host calibration  {raw['calib_ms_p50']:10.4f} ms "
              f"(times above are at reference host speed)")
    for cls, reason in summary["bad_classes"].items():
        print(f"  BAD CLASS {cls}: {reason}")
    for message in summary["problems"]:
        print(f"  PROBLEM {message}")


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(names: list[str], seconds: float, passes: int,
              contract: dict, out: Path) -> int:
    """The full untraced set twice (A, B), ``SELFCHECK_RUNS`` seeds each:
    every spread and every A->B worsening must stay within the metric's
    bound.  The tail and the raw figures get the same table without a
    verdict, held against the widest bound of the contract."""
    sets: list[dict[tuple[str, str], list[float]]] = []
    for label in "AB":
        values: dict[tuple[str, str], list[float]] = {}
        for seed in range(SELFCHECK_RUNS):
            runner = Runner(len(names))
            try:
                results = measure(runner, names, seed, seconds, passes)
            finally:
                runner.finish()
            if results is None or not runner.clean:
                return 1
            for name, summary in results.items():
                series = {
                    **summary["metrics"],
                    "op_ms_p90": summary["op_ms_p90"],
                    **{f"raw.{k}": v for k, v in summary["raw"].items()},
                }
                for metric, value in series.items():
                    values.setdefault((name, metric), []).append(value)
            print(f"selfcheck: set {label} seed {seed} done", flush=True)
        sets.append(values)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.with_name("selfcheck.json").write_text(json.dumps(
        {label: {"/".join(k): v for k, v in values.items()}
         for label, values in zip("AB", sets)}, indent=1))
    print(f"{'workload':<15} {'metric':<18} {'A':>10} {'B':>10} "
          f"{'B/A worse':>10} {'spreadA':>8} {'spreadB':>8} {'bound':>6}")
    gated = {m["name"]: m for m in contract["end_to_end"]}
    widest = max(m["bound"] for m in gated.values())
    code = 0
    for metric in dict.fromkeys(metric for _name, metric in sets[0]):
        base = metric.removeprefix("raw.")
        higher = gated.get(base, {}).get("better") == "higher"
        bound = gated[metric]["bound"] if metric in gated else widest
        for name in names:
            a, b = (s[(name, metric)] for s in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = ma / mb - 1 if higher else mb / ma - 1
            spreads = [spread(a), spread(b)]
            noisy = base != "setup_s" and max(spreads) > bound
            bad = worse > bound or noisy
            code |= bad and metric in gated
            print(f"{name:<15} {metric:<18} {ma:>10.4f} {mb:>10.4f} "
                  f"{worse:>+10.4f} {spreads[0]:>8.4f} {spreads[1]:>8.4f} "
                  f"{bound:>6.2f}"
                  + ("" if not bad else
                     "  FAIL" if metric in gated else "  (would fail)"))
    return code


# -- entry ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="The ladder benchmark (see benchmarks/ladder/README.md)."
    )
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer metrics and spans.jsonl")
    parser.add_argument("--quick", action="store_true",
                        help=f"one pass of {QUICK_SECONDS:g} s (smoke)")
    parser.add_argument("--selfcheck", action="store_true",
                        help=f"run the untraced set twice over "
                        f"{SELFCHECK_RUNS} seeds and compare against the "
                        f"bounds")
    parser.add_argument("--out", type=Path,
                        help="result JSON (default: .ladder/out/result.json; "
                        "spans.jsonl is written beside it)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"ladder: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    names = [args.workload] if args.workload else known
    passes = 1 if args.quick else PASSES
    seconds = args.seconds or float(contract["run_seconds"])
    if args.quick:
        seconds = QUICK_SECONDS
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    out = args.out or STATE / "out" / "result.json"

    procs.become_subreaper()
    signal.signal(signal.SIGTERM, _raise_interrupted)
    signal.signal(signal.SIGINT, _raise_interrupted)

    if args.selfcheck:
        try:
            return selfcheck(names, seconds, passes, contract, out)
        except Interrupted as exc:
            return 128 + exc.args[0]

    runner = Runner(len(names))
    code = 0
    report: dict[str, Any] = {
        "benchmark": "ladder",
        "seed": args.seed,
        "seconds": seconds,
        "passes": passes,
        "trace": args.trace,
        "env": PINNED_ENV,
        "host": {"name": os.uname().nodename, "cpu_count": os.cpu_count()},
    }
    final: dict[str, Any] | None = None
    try:
        if args.trace:
            traced = measure_traced(
                runner, names, args.seed, seconds, passes,
                out.parent / "spans.jsonl",
            )
            if traced is None:
                return 1
            layer_values, results, layer_spans = traced
            for name in names:
                print_workload(name, results[name], units)
            final_metrics = contract_metrics(
                contract, "per_layer", layer_values
            )
            for name, m in final_metrics.items():
                print(f"  {name:<40} {m['value']:14.4f} {m['unit']}")
            report["layers"] = layer_values
            report["layer_spans"] = layer_spans
        else:
            results = measure(runner, names, args.seed, seconds, passes)
            if results is None:
                return 1
            for name in names:
                print_workload(name, results[name], units)
            if any("metrics" not in r for r in results.values()):
                return 1
            final_metrics = {
                name: contract_metrics(contract, "end_to_end", r["metrics"])
                for name, r in results.items()
            }
            if args.workload:  # the driver's shape: one workload, flat
                final_metrics = final_metrics[args.workload]
        report["workloads"] = results
        report["records"] = [
            rec for r in results.values() for rec in r.pop("records")
        ]
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        correct = failed == 0 and not any(
            r["problems"] or r["bad_classes"] for r in results.values()
        )
        final = {"correct": correct, "attempted": attempted,
                 "failed": failed, "metrics": final_metrics}
    except Interrupted as exc:
        code = 128 + exc.args[0]
    finally:
        runner.finish()
    if final is None:
        return code or 1
    if not runner.clean:
        final["correct"] = False
        code = 1
    report["leaked_procs"] = runner.leaked_procs
    report["leaked_shm"] = runner.leaked_shm
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))
    print(json.dumps(final, allow_nan=False))
    return code


if __name__ == "__main__":
    sys.exit(main())
