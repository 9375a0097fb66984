"""``repro-distrib`` — run a campaign worker against a coordinator.

The coordinator side needs no CLI of its own: it is embedded in
whatever process runs the campaign (``repro-campaign run --scheduler
distrib:HOST:PORT``, or the service with the same scheduler spec).
This command is the other half — start it on each host that should
take work::

    repro-distrib worker 10.0.0.5:7713
    repro-distrib worker 10.0.0.5:7713 --name vector-node-3

The worker pulls configs one at a time (that *is* the work-stealing
scheduler), executes them through the standard campaign worker path,
ships results home, and exits when the coordinator shuts down or goes
away.  Exit status: 0 on a clean campaign end, 2 when the coordinator
rejects the worker (typically a package version mismatch), 1 on a
transport failure mid-session.
"""

from __future__ import annotations

import argparse
import socket
import sys

from .. import __version__
from ..clitools import quiet_on_closed_stdout
from .protocol import ProtocolError
from .worker import DistribWorker, WorkerError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-distrib",
        description="distributed campaign workers "
        "(coordinator lives in the campaign process)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser(
        "worker",
        help="connect to a coordinator and pull configs until the "
        "campaign ends",
    )
    worker.add_argument(
        "endpoint",
        help="coordinator address, HOST:PORT (distrib:HOST:PORT also "
        "accepted, so the campaign's --scheduler value pastes straight "
        "in)",
    )
    worker.add_argument(
        "--name",
        default=None,
        help="worker name for manifest provenance "
        "(default: hostname:pid)",
    )
    worker.add_argument(
        "--max-configs",
        type=int,
        default=None,
        metavar="N",
        help="disconnect after taking N configs (testing aid)",
    )
    worker.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-session summary line",
    )
    return parser


def cmd_worker(args: argparse.Namespace) -> int:
    worker = DistribWorker(
        args.endpoint,
        name=args.name,
    )
    try:
        stats = worker.run(max_configs=args.max_configs)
    except WorkerError as exc:
        print(f"repro-distrib: {exc}", file=sys.stderr)
        return 2
    except (ProtocolError, TimeoutError, OSError) as exc:
        print(
            f"repro-distrib: transport failure: {exc}", file=sys.stderr
        )
        return 1
    except KeyboardInterrupt:
        print("repro-distrib: interrupted", file=sys.stderr)
        return 130
    if not args.quiet:
        print(
            f"worker {worker.assigned_name or worker.name} on "
            f"{socket.gethostname()}: {stats.completed} completed, "
            f"{stats.failed} failed, {stats.waits} wait(s)"
        )
    return 0


@quiet_on_closed_stdout
def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "worker":
        return cmd_worker(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
