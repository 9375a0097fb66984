"""CLI entry point: regenerate any table or figure of the paper.

Usage::

    repro-experiments                # everything
    repro-experiments table5 fig8    # a selection
    repro-experiments --jobs 4       # batch across worker processes
    repro-experiments --list         # what's available
    repro-experiments --json table3  # machine-readable output
    python -m repro.experiments table3

Batch semantics: one failing experiment never aborts the rest — the
failure is reported on stderr, every other requested experiment still
runs, and the exit status is nonzero.  ``--json`` always emits one
complete, well-formed object for the experiments that succeeded.
"""

from __future__ import annotations

import argparse
import sys

from ..clitools import quiet_on_closed_stdout
from ..runtime.executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    segment_executor,
)
from ..runtime.resolve import UnusableError
from . import (
    chaos,
    fig2,
    fig3,
    fig4,
    fig8,
    ipm,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    whatif,
)
from . import breakdown, figviz, modelcard, roofline_view, validate

EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "table6": table6,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig8": fig8,
    "whatif": whatif,
    "breakdown": breakdown,
    "validate": validate,
    "figviz": figviz,
    "modelcard": modelcard,
    "roofline": roofline_view,
    "ipm": ipm,
    "chaos": chaos,
}


def _describe(module) -> str:
    """First line of an experiment module's docstring."""
    doc = (module.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else ""


#: Largest seed NumPy's legacy global RNG accepts.
_MAX_SEED = 2**32 - 1


def validate_args(args) -> list[str]:
    """Every CLI-argument problem, found *before* any experiment runs.

    Collected into one list so a bad ``--seed --executor`` combination
    reports both mistakes at once instead of raising mid-run.
    """
    errors: list[str] = []
    if args.executor is not None:
        try:
            segment_executor(args.executor)
        except UnusableError as exc:
            errors.append(
                f"--executor: {exc}; use 'serial' or 'threads[:N]', or "
                "--jobs N to batch experiments across processes"
            )
        except ValueError as exc:
            errors.append(f"--executor: {exc}")
    if args.seed is not None and not 0 <= args.seed <= _MAX_SEED:
        errors.append(
            f"--seed: must be in [0, 2**32 - 1], got {args.seed}"
        )
    if getattr(args, "jobs", 1) is not None and args.jobs < 1:
        errors.append(f"--jobs: must be >= 1, got {args.jobs}")
    return errors


def _render_one(job: tuple[str, bool, "str | None", "int | None"]) -> str:
    """Render one experiment (module-level so worker processes can run
    it): the executor/seed knobs are applied here, scoped to this one
    render — a spawned worker does not inherit the parent's
    process-wide defaults, and a pool worker outlives the render."""
    name, quick, executor, seed = job
    with EXECUTORS.scoped(executor):
        if seed is not None:
            import numpy as np

            np.random.seed(seed)
        import inspect

        module = EXPERIMENTS[name]
        render_params = inspect.signature(module.render).parameters
        if quick and "quick" in render_params:
            return module.render(quick=True)
        return module.render()


def list_experiments() -> str:
    """The ``--list`` text: one ``name — description`` line each."""
    width = max(len(name) for name in EXPERIMENTS)
    return "\n".join(
        f"{name:<{width}}  {_describe(module)}"
        for name, module in EXPERIMENTS.items()
    )


@quiet_on_closed_stdout
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Leading Computational "
            "Methods on Scalar and Vector HEC Platforms' (SC 2005)."
        ),
    )
    parser.add_argument(
        "names",
        nargs="*",
        metavar="name",
        default=["all"],
        help=(
            "which experiments to run (default: all; "
            "see --list for the choices)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_only",
        help="list the available experiments and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON object mapping each name to its rendered text",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        help="also write each experiment's output to DIR/<name>.txt",
    )
    parser.add_argument(
        "--executor",
        metavar="SPEC",
        help=(
            "executor for per-rank compute segments: 'serial', "
            "'threads[:N]', or 'processes[:N]' (results are identical "
            "either way — only wall-clock differs; processes needs fork "
            "+ POSIX shared memory)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        metavar="N",
        help=(
            "seed NumPy's legacy global RNG before running *each* "
            "experiment, so every experiment replays deterministically "
            "regardless of batch order or --jobs fan-out"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "reduced-size variant for experiments that support it "
            "(currently: chaos); others run at full size"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "render the requested experiments concurrently across N "
            "worker processes (campaign-style batch; default: 1, "
            "in-process)"
        ),
    )
    args = parser.parse_args(argv)

    if args.list_only:
        print(list_experiments())
        return 0

    errors = validate_args(args)
    if errors:
        for err in errors:
            print(f"repro-experiments: {err}", file=sys.stderr)
        return 2

    if args.seed is not None:
        import numpy as np

        np.random.seed(args.seed)

    requested = args.names or ["all"]
    unknown = [n for n in requested if n != "all" and n not in EXPERIMENTS]
    if unknown:
        print(
            f"repro-experiments: unknown experiment name(s): "
            f"{', '.join(unknown)}\n"
            f"available: {', '.join(EXPERIMENTS)}, all",
            file=sys.stderr,
        )
        return 2

    names = list(EXPERIMENTS) if "all" in requested else requested
    save_dir = None
    if args.save:
        import pathlib

        save_dir = pathlib.Path(args.save)
        save_dir.mkdir(parents=True, exist_ok=True)

    jobs = [
        (name, args.quick, args.executor, args.seed) for name in names
    ]
    outputs: dict[str, str] = {}
    failures: dict[str, str] = {}
    # campaign-style batch: fan the renders out across worker processes
    # when asked to; per-job error isolation comes with the seam
    executor = (
        ProcessExecutor(min(args.jobs, len(names)))
        if args.jobs > 1 and len(names) > 1
        else SerialExecutor()
    )
    for i, text, exc in executor.imap_unordered(_render_one, jobs):
        name = names[i]
        if exc is not None:
            failures[name] = f"{type(exc).__name__}: {exc}"
            print(
                f"repro-experiments: {name} failed: {failures[name]}",
                file=sys.stderr,
            )
        else:
            outputs[name] = text
            if save_dir is not None:
                (save_dir / f"{name}.txt").write_text(text + "\n")

    if args.json:
        import json

        # complete, well-formed JSON of the successes only — never a
        # partial object truncated by a mid-batch exception
        print(json.dumps(
            {name: outputs[name] for name in names if name in outputs},
            indent=2,
        ))
    else:
        print(
            ("\n\n" + "=" * 78 + "\n\n").join(
                outputs[name] for name in names if name in outputs
            )
        )
    if failures:
        print(
            f"repro-experiments: {len(failures)} of {len(names)} "
            f"experiment(s) failed: {', '.join(sorted(failures))}",
            file=sys.stderr,
        )
        return 1
    return 0
