"""Every charged second is booked once: clock, timeline and phase ledger.

Two contracts over the same set of runs (each app at its harness
default, each app under a message-fault plan, each app through a rank
failure and a checkpoint restart, all on ES with the trace on):

* **Pinned.**  The clocks, the communication trace, the phase ledger,
  the workload meter and the recovery counters hash to fixed sha256
  fingerprints, and the plain runs' timeline events do too.  Any change
  to how the communicator books time or traffic must leave them
  bitwise as they are.  Numbers are hashed as floats, so a counter that
  sums the same bytes as a float instead of an int does not count as a
  change.
* **Agreed.**  With the timeline on, every rank's timeline total of
  each kind (compute, comm, wait, recovery) equals its phase-ledger
  column, and turning the timeline on changes none of the pinned
  numbers.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro import harness
from repro.apps.fvcam.solver import FVCAMParams
from repro.resilience import (
    BitFlip,
    FaultPlan,
    LatencySpike,
    MessageDrop,
    RankFailure,
)
from repro.simmpi.phases import KINDS

MACHINE = "ES"
STEPS = 2
APPS = ("lbmhd", "gtc", "fvcam", "paratec")

#: FVCAM's harness default is one rank, which has no point-to-point
#: traffic to fault and no second rank to fail.
_RESILIENT_PARAMS = {"fvcam": FVCAMParams(py=2, pz=2)}

_MESSAGE_FAULTS = FaultPlan(
    faults=(
        MessageDrop(rate=0.2),
        BitFlip(rate=0.2, byte_index=5, bit=3),
        LatencySpike(rate=0.2, extra_s=2e-4),
    ),
    seed=7,
)
_RANK_FAILURE = FaultPlan(faults=(RankFailure(rank=1, step=1),))

#: case id -> (app, harness.run keywords)
CASES: dict[str, tuple[str, dict]] = {}
for _app in APPS:
    CASES[f"plain-{_app}"] = (_app, {})
    CASES[f"faults-{_app}"] = (
        _app,
        {"params": _RESILIENT_PARAMS.get(_app), "fault_plan": _MESSAGE_FAULTS},
    )
    CASES[f"restart-{_app}"] = (
        _app,
        {
            "params": _RESILIENT_PARAMS.get(_app),
            "fault_plan": _RANK_FAILURE,
            "checkpoint_every": 1,
        },
    )

#: sha256 of :func:`_fingerprint`, taken before the communicator's
#: bookkeeping was folded into one primitive.  Plain cases include the
#: timeline events; resilient cases were pinned without a timeline.
PINNED = {
    "plain-lbmhd": "fd85cc43d115e75b265b050c087da3f26cfb628f7a2b855e18965c40c22612be",
    "faults-lbmhd": "79a0b496811a10993ceece8677767321e58e0045e57fd20a53b86eb21ec8b543",
    "restart-lbmhd": "6848346953e2f079e2def6a0cb0809da82bef372a36412e9bcb30eb81206b065",
    "plain-gtc": "228854c13858e65793bcc9621a44dad939592f1eb1b482b1179756708358dccb",
    "faults-gtc": "2680795de4ae3bebac07332eeceee5a41fe4d3153df5e6d22ae13cb12ec7e443",
    "restart-gtc": "e93a79f1656de57e810a8321ebdf7254aba04f21cf1438bb4d05c9e93b22690b",
    "plain-fvcam": "c36deaf97a47f1f1425d22bb3153adfdf6c76e62db591a38fd5c2c9370a22b11",
    "faults-fvcam": "51fc0bf9cd22dd20274e11a949f55b8072e2cec91dff92826b2cb37155a6d123",
    "restart-fvcam": "4cabd10a81798057b9c828435a48de354f253485e59ba93eb3d826c84e4f075a",
    "plain-paratec": "09306bbdf4859490d8060b3ef283ea314533cae1da2c00f62347414ed82df39e",
    "faults-paratec": "73942f7c91fb36111409479e6c9b894585dc4113c3b0cec3616759503fe2a918",
    "restart-paratec": "66821ebd2fce1369c13543aa8d9a66215b518ae9ba5d5644fee5606c127141f1",
}


def _run(case: str, timeline: bool):
    app, kwargs = CASES[case]
    return harness.run(
        app,
        steps=STEPS,
        machine=MACHINE,
        trace=True,
        timeline=timeline,
        **kwargs,
    )


def _fingerprint(result, timeline: bool) -> str:
    """sha256 over everything a run's accounting produced."""
    comm = result.comm
    digest = hashlib.sha256()

    def put(*items) -> None:
        digest.update(repr(items).encode())

    put("times", comm.times.tobytes())
    trace = comm.trace
    put("volume", trace.volume.tobytes())
    for name in ("calls", "bytes_by_kind", "bytes_by_phase", "calls_by_phase"):
        counter = getattr(trace, name)
        put(name, sorted((k, float(v)) for k, v in counter.items()))
    ledger = result.ledger
    put("ledger", ledger.as_records())
    for phase in ledger.phases:
        bucket = ledger[phase]
        for column in (
            "compute_s", "comm_s", "wait_s", "recovery_s",
            "flops", "nbytes", "messages",
        ):
            put(phase, column, getattr(bucket, column).tobytes())
    meter = comm.meter
    put("meter", len(meter.records), meter.total())
    stats = comm.recovery_stats.as_dict()
    stats.pop("checkpoint_host_seconds")  # host wall time, not virtual
    put("recovery", sorted(stats.items()))
    if timeline:
        put(
            "timeline",
            [
                (e.rank, float(e.start), float(e.end), e.label, e.kind)
                for e in comm.timeline.events
            ],
        )
    return digest.hexdigest()


def _pins_timeline(case: str) -> bool:
    return case.startswith("plain-")


@pytest.mark.parametrize("case", list(CASES))
def test_accounting_matches_pin(case):
    timeline = _pins_timeline(case)
    result = _run(case, timeline=timeline)
    assert _fingerprint(result, timeline) == PINNED[case]


@pytest.mark.parametrize("case", list(CASES))
def test_timeline_agrees_with_ledger(case):
    result = _run(case, timeline=True)
    # the timeline observes; the pinned numbers stay as they were
    assert _fingerprint(result, _pins_timeline(case)) == PINNED[case]
    timeline = result.comm.timeline
    totals = result.ledger.totals()
    for kind in KINDS:
        column = getattr(totals, f"{kind}_s")
        for rank in range(result.comm.nprocs):
            assert math.isclose(
                timeline.total(kind, rank), column[rank], rel_tol=1e-9
            ), (kind, rank)
    if case.startswith("restart-"):
        # the checkpoint and the restart charge every rank
        for rank in range(result.comm.nprocs):
            assert timeline.events_for(rank, "recovery")


@pytest.mark.parametrize(
    "plan",
    [None, FaultPlan(faults=(MessageDrop(rate=0.5),))],
    ids=["checkpoint", "drop"],
)
def test_resilient_run_records_a_timeline(plan):
    result = harness.run(
        "lbmhd",
        steps=2,
        nprocs=4,
        machine=MACHINE,
        timeline=True,
        checkpoint_every=1,
        fault_plan=plan,
    )
    events = result.comm.timeline.events
    labels = {e.label for e in events if e.kind == "recovery"}
    assert "checkpoint" in labels
    if plan is not None:
        assert {"detect", "resend", "resend-wait"} <= labels
    assert "!" in result.comm.timeline.render_gantt()
