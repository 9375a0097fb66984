"""Distributed campaigns: socket-dispatched remote campaign workers.

``repro.distrib`` scales :mod:`repro.campaign` past one host.  A
coordinator (embedded in whichever process called
:func:`~repro.campaign.engine.run_campaign` with a
``scheduler="distrib:HOST:PORT"`` spec) listens on a TCP socket;
``repro-distrib worker`` processes — on this host or any other —
connect, pull one :class:`~repro.campaign.spec.RunConfig` at a time,
execute it through the existing campaign worker path, and ship the
result home.  Pull-based dispatch *is* work stealing: a slow host asks
less often and naturally takes fewer cells.

The coordinator hands every remote result back to the campaign engine
like any executor would; the engine publishes it into the same
content-addressed :class:`~repro.campaign.cache.ResultCache` a local
campaign uses and journals the standard manifest events (with
per-worker host/cpu_count/version provenance), so distributed results
flow into ``repro-perfdb`` unchanged.

Failure model: per-config timeouts, retry-on-another-worker with a
bounded attempt budget, dead-worker detection via heartbeats, and a
clean fallback to local execution when no workers connect.  See
``docs/distrib.md``.
"""

from .coordinator import Coordinator, RemoteRunError
from .dispatch import DistribExecutor, is_distrib_spec
from .faults import AttemptTracker, DistribStats
from .protocol import ProtocolError, parse_endpoint, recv_msg, send_msg
from .worker import DistribWorker, WorkerError, WorkerStats

__all__ = [
    "AttemptTracker",
    "Coordinator",
    "DistribExecutor",
    "DistribStats",
    "DistribWorker",
    "ProtocolError",
    "RemoteRunError",
    "WorkerError",
    "WorkerStats",
    "is_distrib_spec",
    "parse_endpoint",
    "recv_msg",
    "send_msg",
]
