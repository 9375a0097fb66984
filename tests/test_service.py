"""repro.service — validation, coalescing, the HTTP API, perfdb flow.

The integration tests run a real :class:`ReproService` on a background
event-loop thread (ephemeral port) and speak actual HTTP/1.1 at it via
``http.client`` — the same path the CI service job and the ladder
benchmark's ``predict_warm`` workload exercise.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import CampaignSpec, ResultCache, run_campaign
from repro.campaign.cli import main as campaign_main
from repro.campaign.engine import start_event
from repro.campaign.manifest import Manifest, read_events
from repro.campaign.spec import RunConfig
from repro.perfdb import PerfDB
from repro.perfdb.ingest import ingest_path
from repro.runtime.executors import SerialExecutor
from repro.service import (
    ApiError,
    JobQueue,
    ReproService,
    ServiceThread,
    jobs,
    parse_predict,
)
from repro.service.cli import main as service_main
from repro.service.server import MAX_LINE_BYTES

#: A fast prediction request (~ms of real solver work).
SMALL = {
    "app": "lbmhd",
    "nprocs": 4,
    "steps": 1,
    "seed": 0,
    "params": {"shape": [8, 8, 8]},
}

#: A GTC request, for its parameter checks.
GTC = {"app": "gtc", "nprocs": 4, "steps": 1, "seed": 0}

#: A slower one, so concurrent identical requests overlap in flight.
SLOW = {
    "app": "lbmhd",
    "nprocs": 4,
    "steps": 4,
    "seed": 0,
    "params": {"shape": [16, 16, 16]},
}




@pytest.fixture(autouse=True)
def no_asyncio_errors():
    """Fail any test during which the ``asyncio`` logger recorded an
    ERROR (an unhandled exception in a connection callback, a task that
    died) or a "never retrieved" message: the service must answer every
    bad input itself, never leave it to the loop's last-resort
    handler."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()  # "never retrieved" is logged as a future dies
    finally:
        logger.removeHandler(handler)
    logged = [
        r.getMessage() for r in records
        if r.levelno >= logging.ERROR or "never retrieved" in r.getMessage()
    ]
    if logged:
        pytest.fail(f"asyncio logged: {logged}")


# -- request validation ----------------------------------------------------


class TestParsePredict:
    def test_minimal_body_becomes_a_runconfig(self):
        config, wait = parse_predict(SMALL)
        assert isinstance(config, RunConfig)
        assert wait is True
        assert config.app == "lbmhd" and config.nprocs == 4
        assert config.params_dict() == {"shape": [8, 8, 8]}

    def test_wait_flag_is_stripped_from_the_config(self):
        config, wait = parse_predict({**SMALL, "wait": False})
        assert wait is False
        # the content key must not depend on the transport knob
        assert config == parse_predict(SMALL)[0]

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("not a dict", "JSON object"),
            ({}, "'app' is required"),
            ({"app": "no-such-app"}, "unknown application"),
            ({**SMALL, "machine": "Cray-3"}, "unknown machine"),
            ({**SMALL, "executor": "fibers"}, "fibers"),
            # the knob left: naming it is an unknown field
            (
                {**SMALL, "kernel_backend": "numpy"},
                "unknown RunConfig field(s): kernel_backend",
            ),
            ({**SMALL, "nprocs": 0}, "nprocs"),
            ({**SMALL, "bogus_field": 1}, "bogus_field"),
            ({**SMALL, "wait": "yes"}, "'wait' must be a boolean"),
            ({"app": "lbmhd", "nprocs": "4"}, "'nprocs' must be an integer"),
            ({**SMALL, "nprocs": True}, "'nprocs' must be an integer"),
            ({**SMALL, "steps": 2.5}, "'steps' must be an integer"),
            ({**SMALL, "seed": "x"}, "'seed' must be an integer"),
            ({**SMALL, "trace": "yes"}, "'trace' must be a boolean"),
            # the params body is built before anything is queued
            (
                {**SMALL, "params": {"bogus": 1}},
                "unknown parameter(s) for 'lbmhd': bogus",
            ),
            (
                {**SMALL, "params": {"tau": 0.4}},
                "relaxation times must exceed 1/2",
            ),
            # GTC checks its parameters at construction too
            (
                {**GTC, "params": {"dt": -1}},
                "push parameters must be positive",
            ),
            (
                {
                    **GTC,
                    "params": {
                        "use_work_vector": True,
                        "work_vector_copies": 0,
                    },
                },
                "work_vector_copies must be >= 1",
            ),
            (
                {**GTC, "params": {"particles_per_cell": -3}},
                "particles_per_cell must be non-negative",
            ),
            (
                {**GTC, "params": {"ntoroidal": 0}},
                "need at least one toroidal domain",
            ),
            ({**GTC, "params": {"mpsi": 2}}, "grid must be at least 4x4"),
            # the dead knob left: naming it is an unknown parameter
            (
                {**GTC, "params": {"thermal_velocity": -1}},
                "unknown parameter(s) for 'gtc': thermal_velocity",
            ),
        ],
    )
    def test_bad_requests_are_400_with_the_reason(self, body, fragment):
        with pytest.raises(ApiError) as exc:
            parse_predict(body)
        assert exc.value.status == 400
        assert fragment in exc.value.message

    def test_error_lists_the_choices(self):
        with pytest.raises(ApiError) as exc:
            parse_predict({"app": "nope"})
        for app in ("lbmhd", "gtc", "fvcam", "paratec"):
            assert app in exc.value.message


# -- coalescing (deterministic, gated runner) ------------------------------


class StubScheduler(SerialExecutor):
    """A campaign scheduler for the job layer's pending half.

    It holds every computation until ``gate`` (a ``threading.Event``,
    or ``None`` for open) is set, then answers each pending
    :class:`RunConfig` with ``answer(config)`` — a result dict, or an
    exception — in place of ``execute_config``; ``answer=None`` runs
    the real worker.
    """

    def __init__(self, answer=None, gate=None):
        self.answer = answer
        self.gate = gate

    def imap_unordered(self, fn, items):
        if self.gate is not None and not self.gate.wait(timeout=30):
            raise TimeoutError("the test never opened the gate")
        return super().imap_unordered(self.answer or fn, items)


class TestCoalescer:
    """Coalescing lives in ``JobQueue.submit``'s one in-flight table:
    ``submit`` is synchronous, so nothing can interleave between the
    lookup of a key and the indexing of its new job."""

    def test_identical_in_flight_requests_share_one_job(self):
        gate = threading.Event()
        computed = []

        def answer(cfg):
            computed.append(cfg.key())
            return {"wall_s": 0.1, "gflops": 1.0}

        async def scenario():
            queue = JobQueue(
                cache=None, workers=1,
                scheduler=StubScheduler(answer, gate),
            )
            cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
            job1, c1 = queue.submit(cfg)
            await asyncio.sleep(0.05)  # let its task start computing
            assert job1.state == "running"
            job2, c2 = queue.submit(cfg)
            assert job2 is job1
            assert (c1, c2) == (False, True)
            assert job1.coalesced == 1
            assert queue.coalesced_total == 1 and queue.in_flight == 1
            gate.set()
            await job1.wait()
            assert job1.state == "done" and queue.in_flight == 0
            # after completion an identical request is a NEW job
            job3, c3 = queue.submit(cfg)
            assert job3 is not job1 and c3 is False
            await job3.wait()
            await queue.stop()
            return len(computed)

        assert asyncio.run(scenario()) == 2

    def test_distinct_configs_never_coalesce(self):
        async def scenario():
            queue = JobQueue(
                cache=None, workers=2,
                scheduler=StubScheduler(lambda cfg: {"wall_s": 0.0}),
            )
            a, ca = queue.submit(RunConfig(app="lbmhd", seed=0))
            b, cb = queue.submit(RunConfig(app="lbmhd", seed=1))
            assert a is not b and not ca and not cb
            assert queue.in_flight == 2
            await a.wait()
            await b.wait()
            await queue.stop()
            return queue.coalesced_total

        assert asyncio.run(scenario()) == 0

    def test_failed_jobs_release_their_key(self):
        def answer(cfg):
            raise RuntimeError("boom")

        async def scenario():
            queue = JobQueue(
                cache=None, workers=1, scheduler=StubScheduler(answer),
            )
            cfg = RunConfig(app="lbmhd")
            job, _ = queue.submit(cfg)
            await job.wait()
            assert job.state == "failed" and "boom" in job.error
            assert queue.in_flight == 0
            await queue.stop()

        asyncio.run(scenario())

    def test_interleaved_identical_submits_enqueue_once(self):
        """Two identical submits in a row, with no await between them,
        share one job and one computation: the second finds the first
        indexed before either has yielded to the loop."""
        gate = threading.Event()
        computed = []

        def answer(cfg):
            computed.append(cfg.key())
            return {"wall_s": 0.1}

        async def scenario():
            queue = JobQueue(
                cache=None, workers=2,
                scheduler=StubScheduler(answer, gate),
            )
            cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
            job1, c1 = queue.submit(cfg)
            job2, c2 = queue.submit(cfg)
            assert job2 is job1 and job1.state == "queued"
            assert (c1, c2) == (False, True)
            assert queue.coalesced_total == 1 and queue.in_flight == 1
            gate.set()
            await job1.wait()
            await queue.stop()
            assert job1.state == "done" and queue.in_flight == 0

        asyncio.run(scenario())
        assert len(computed) == 1

    def test_failed_enqueue_wakes_waiters_to_retry(self, tmp_path):
        """A submit whose journal write fails finishes its job failed
        and leaves no in-flight entry, so an identical later submit
        opens afresh instead of attaching to the failure."""
        path = tmp_path / "service.manifest.jsonl"
        path.mkdir()  # the journal cannot be written

        async def scenario():
            queue = JobQueue(
                cache=None, manifest=Manifest(path), workers=1,
                scheduler=StubScheduler(lambda cfg: {"wall_s": 0.0}),
            )
            cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
            failed, c1 = queue.submit(cfg)
            assert failed.state == "failed" and c1 is False
            assert "IsADirectoryError" in failed.error
            assert queue.in_flight == 0
            path.rmdir()  # the journal is writable again
            job, c2 = queue.submit(cfg)
            assert job is not failed and c2 is False
            await job.wait()
            await queue.stop()
            assert job.state == "done"
            assert (queue.completed, queue.failed) == (1, 1)
            assert queue.coalesced_total == 0

        asyncio.run(scenario())

    def test_job_finishing_during_submit_is_not_indexed(self, tmp_path):
        """A cache hit is finished before ``submit`` returns and never
        enters the in-flight table: an identical later request is a
        fresh hit, not an attachment to a finished job."""
        cache = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
        cache.put(cfg, {"wall_s": 0.5})

        async def scenario():
            queue = JobQueue(cache=cache, workers=1)
            job, coalesced = queue.submit(cfg)
            assert job.finished and job.cached and coalesced is False
            assert [e["event"] for e in job.events] == [
                "queued", "running", "done",
            ]
            assert queue.in_flight == 0 and queue.running == 0
            again, coalesced = queue.submit(cfg)
            assert again is not job and again.cached and not coalesced
            assert queue.coalesced_total == 0
            await queue.stop()

        asyncio.run(scenario())


class TestJobQueue:
    def test_finished_history_is_capped_oldest_first(
        self, tmp_path, monkeypatch
    ):
        """Finished jobs beyond the cap leave oldest first; a queued or
        running job is never dropped, however many finish around it."""
        monkeypatch.setattr(jobs, "MAX_FINISHED_JOBS", 3)
        cache = ResultCache(tmp_path)
        warm = [RunConfig(app="lbmhd", seed=s) for s in range(5)]
        for cfg in warm:
            cache.put(cfg, {"wall_s": 0.0})
        gate = threading.Event()

        async def scenario():
            queue = JobQueue(
                cache=cache, workers=1,
                scheduler=StubScheduler(lambda cfg: {"wall_s": 0.0}, gate),
            )
            running, _ = queue.submit(RunConfig(app="lbmhd", seed=100))
            await asyncio.sleep(0.05)  # let its task take the slot
            queued, _ = queue.submit(RunConfig(app="lbmhd", seed=101))
            hits = [queue.submit(cfg)[0] for cfg in warm]
            assert all(j.state == "done" and j.cached for j in hits)
            assert (running.state, queued.state) == ("running", "queued")
            assert (queue.running, queue.depth) == (1, 1)
            ids = [j.id for j in queue.jobs()]
            assert ids == [running.id, queued.id] + [
                j.id for j in hits[2:]
            ]
            gate.set()
            await running.wait()
            await queued.wait()
            ids = [j.id for j in queue.jobs()]
            assert ids == [running.id, queued.id, hits[4].id]
            assert queue.get(hits[3].id) is None
            await queue.stop()

        asyncio.run(scenario())

    def test_journal_failure_at_submit_is_a_failed_job(self, tmp_path):
        """Opening the campaign journals on the loop; when that write
        fails the request gets a failed job, not an exception."""
        (tmp_path / "service.manifest.jsonl").mkdir()
        manifest = Manifest(tmp_path / "service.manifest.jsonl")

        async def scenario():
            queue = JobQueue(cache=None, manifest=manifest, workers=1)
            job, _ = queue.submit(RunConfig(app="lbmhd"))
            assert job.state == "failed"
            assert "IsADirectoryError" in job.error
            assert (queue.completed, queue.failed) == (0, 1)
            await queue.stop()

        asyncio.run(scenario())

    def test_cancelled_worker_fails_its_job_and_exits(self):
        """Cancelling a miss's task mid-computation (loop shutdown)
        fails its job, so waiters wake, and ends the task instead of
        leaving the job running forever."""
        gate = threading.Event()

        async def scenario():
            queue = JobQueue(
                cache=None, workers=1,
                scheduler=StubScheduler(lambda cfg: {"wall_s": 0.0}, gate),
            )
            job, _ = queue.submit(RunConfig(app="lbmhd"))
            await asyncio.sleep(0.05)  # let its task start computing
            assert job.state == "running"
            (task,) = queue._tasks
            task.cancel()
            gate.set()  # lets the computing thread end
            done, _ = await asyncio.wait({task}, timeout=10)
            assert task in done and task.cancelled()
            assert job.state == "failed" and "CancelledError" in job.error
            assert (queue.in_flight, queue.running) == (0, 0)

        asyncio.run(scenario())

    def test_misses_start_in_submit_order(self):
        """With one slot, misses compute one at a time, first submitted
        first."""
        gate = threading.Event()
        order = []

        def answer(cfg):
            order.append(cfg.seed)
            return {"wall_s": 0.0}

        async def scenario():
            queue = JobQueue(
                cache=None, workers=1,
                scheduler=StubScheduler(answer, gate),
            )
            seeds = [5, 3, 8, 1, 4]
            submitted = [
                queue.submit(RunConfig(app="lbmhd", seed=s))[0]
                for s in seeds
            ]
            await asyncio.sleep(0.05)
            assert [j.state for j in submitted] == ["running"] + [
                "queued"
            ] * 4
            assert (queue.running, queue.depth) == (1, 4)
            gate.set()
            await queue.stop()
            assert all(j.state == "done" for j in submitted)
            return seeds

        assert order == asyncio.run(scenario())

    def test_stop_returns_after_every_accepted_miss(self):
        """``stop`` drains: it returns only once every miss accepted
        before it, running or still waiting for a slot, has finished."""
        gate = threading.Event()

        async def scenario():
            queue = JobQueue(
                cache=None, workers=1,
                scheduler=StubScheduler(lambda cfg: {"wall_s": 0.0}, gate),
            )
            accepted = [
                queue.submit(RunConfig(app="lbmhd", seed=s))[0]
                for s in range(3)
            ]
            stopping = asyncio.create_task(queue.stop())
            await asyncio.sleep(0.05)
            assert not stopping.done()
            gate.set()
            await asyncio.wait_for(stopping, timeout=30)
            assert all(j.state == "done" for j in accepted)
            assert (queue.in_flight, queue.depth, queue.running) == (0, 0, 0)
            assert not queue._tasks

        asyncio.run(scenario())


# -- the HTTP service ------------------------------------------------------


@pytest.fixture(scope="class")
def service(tmp_path_factory):
    """One live service per test class, serial scheduler, 2 job workers."""
    cache_dir = tmp_path_factory.mktemp("service-cache")
    svc = ReproService(cache_dir, workers=2, scheduler="serial")
    with ServiceThread(svc) as thread:
        yield svc, thread.port


def _request(port, method, path, body=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers=(
                {"Content-Type": "application/json"}
                if body is not None else {}
            ),
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _json(port, method, path, body=None):
    status, data = _request(port, method, path, body)
    return status, json.loads(data)


def _raw(port, pieces, pause):
    """Send ``pieces`` as separate writes ``pause`` s apart; read the
    reply to EOF as ``(status, body)``."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for piece in pieces:
            sock.sendall(piece)
            time.sleep(pause)
        reply = sock.makefile("rb").read()
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), body


class TestHttpApi:
    def test_healthz(self, service):
        _, port = service
        status, body = _json(port, "GET", "/v1/healthz")
        assert status == 200 and body["ok"] is True

    def test_machines_catalog_in_paper_order(self, service):
        _, port = service
        status, body = _json(port, "GET", "/v1/machines")
        assert status == 200
        names = [m["name"] for m in body["machines"]]
        assert names == [
            "Power3", "Itanium2", "Opteron", "X1", "X1-SSP", "X1E",
            "ES", "SX-8",
        ]
        es = next(m for m in body["machines"] if m["name"] == "ES")
        assert es["kind"] == "vector" and es["peak_gflops"] == 8.0

    def test_whatif_endpoints_match_the_experiment(self, service):
        _, port = service
        status, body = _json(port, "GET", "/v1/whatif/sx8_fplram")
        assert status == 200
        assert body["data"]["speedup"] == pytest.approx(1.2466, abs=1e-3)
        status, body = _json(port, "GET", "/v1/whatif/sensitivity")
        assert status == 200
        assert set(body["data"]) == {"lbmhd", "gtc", "fvcam", "paratec"}

    def test_unknown_whatif_404_lists_choices(self, service):
        _, port = service
        status, body = _json(port, "GET", "/v1/whatif/warp-drive")
        assert status == 404
        for name in ("sx8_fplram", "x1_registers", "sensitivity"):
            assert name in body["error"]

    def test_unknown_route_404(self, service):
        _, port = service
        status, body = _json(port, "GET", "/v1/nope")
        assert status == 404 and "/v1/predict" in body["error"]

    def test_malformed_json_body_is_400(self, service):
        _, port = service
        status, data = _request(port, "POST", "/v1/predict")
        body = json.loads(data)
        assert status == 400 and "'app' is required" in body["error"]

    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3"])
    def test_malformed_content_length_is_400(self, service, declared):
        _, port = service
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                "POST /v1/predict HTTP/1.1\r\n"
                f"Content-Length: {declared}\r\n\r\n".encode()
            )
            reply = sock.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"400", reply
        error = json.loads(body)["error"]
        assert "Content-Length" in error and repr(declared) in error
        status, _ = _json(port, "GET", "/v1/healthz")
        assert status == 200

    @pytest.mark.parametrize("where", ["request line", "header line"])
    def test_oversized_line_is_431_naming_the_limit(self, service, where):
        _, port = service
        long = "a" * (MAX_LINE_BYTES + 4096)
        request = (
            f"GET /v1/{long} HTTP/1.1\r\n\r\n"
            if where == "request line"
            else f"GET /v1/healthz HTTP/1.1\r\nX-Long: {long}\r\n\r\n"
        )
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(request.encode())
            reply = sock.makefile("rb").read()
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == b"431", reply[:200]
        error = json.loads(body)["error"]
        assert where in error and str(MAX_LINE_BYTES) in error
        status, _ = _json(port, "GET", "/v1/healthz")
        assert status == 200

    def test_predict_sent_in_pieces_gets_the_one_shot_reply(self, service):
        _, port = service
        body = json.dumps(SMALL).encode()
        for _ in range(2):  # the second is a warm hit
            status, whole = _json(port, "POST", "/v1/predict", SMALL)
        assert status == 200 and whole["cached"] is True
        pieces = [
            b"POST /v1/predict HTTP/1.1\r\n",
            f"Content-Length: {len(body)}\r\n\r\n".encode(),
            body[:len(body) // 2],
            body[len(body) // 2:],
        ]
        status, reply = _raw(port, pieces, pause=0.05)
        assert status == 200
        piecewise = json.loads(reply)
        assert piecewise.pop("job") != whole.pop("job")
        assert piecewise == whole

    def test_header_block_growing_past_the_limit_is_431(self, service):
        _, port = service
        third = MAX_LINE_BYTES // 3 + 1
        pieces = [b"GET /v1/healthz HTTP/1.1\r\nX-Long: "] + [b"a" * third] * 4
        status, reply = _raw(port, pieces, pause=0.02)
        assert status == 431
        error = json.loads(reply)["error"]
        assert "header line" in error and str(MAX_LINE_BYTES) in error
        status, _ = _json(port, "GET", "/v1/healthz")
        assert status == 200

    def test_client_closing_without_a_request_leaves_it_serving(
        self, service
    ):
        _, port = service
        for _ in range(3):
            socket.create_connection(("127.0.0.1", port), timeout=10).close()
        status, body = _json(port, "GET", "/v1/healthz")
        assert status == 200 and body["ok"] is True

    def test_invalid_config_is_400_not_a_job(self, service):
        svc, port = service
        before = svc.queue.completed + svc.queue.failed
        status, body = _json(
            port, "POST", "/v1/predict", {**SMALL, "machine": "Cray-3"}
        )
        assert status == 400 and "unknown machine" in body["error"]
        assert svc.queue.completed + svc.queue.failed == before

    def test_unknown_job_is_404(self, service):
        _, port = service
        status, _ = _json(port, "GET", "/v1/jobs/j999999")
        assert status == 404


class TestPredictFlow:
    """Cold miss -> warm hit -> stats -> stream -> manifest -> perfdb."""

    def test_full_prediction_lifecycle(self, service):
        svc, port = service

        # cold: computed, published, journaled
        status, cold = _json(port, "POST", "/v1/predict", SMALL)
        assert status == 200
        assert cold["state"] == "done" and cold["cached"] is False
        assert cold["result"]["wall_s"] > 0
        assert cold["result"]["nprocs"] == 4

        # identical second request: served from the shared warm cache
        status, warm = _json(port, "POST", "/v1/predict", SMALL)
        assert status == 200
        assert warm["state"] == "done" and warm["cached"] is True
        assert warm["key"] == cold["key"]
        assert warm["result"]["diagnostics"] == (
            cold["result"]["diagnostics"]
        )

        # stats observed it: one miss then one hit, one published entry
        status, stats = _json(port, "GET", "/v1/stats")
        assert status == 200
        assert stats["cache"]["hits"] >= 1
        assert stats["cache"]["misses"] >= 1
        assert stats["cache"]["entries"] >= 1
        assert stats["cache"]["lifetime"]["puts"] >= 1
        assert stats["requests"]["predict"] >= 2

    def test_async_predict_streams_ndjson_progress(self, service):
        svc, port = service
        body = {**SMALL, "seed": 42, "wait": False}
        status, accepted = _json(port, "POST", "/v1/predict", body)
        assert status == 202 and accepted["job"].startswith("j")

        status, data = _request(port, "GET", f"/v1/jobs/{accepted['job']}")
        assert status == 200
        events = [json.loads(line) for line in data.decode().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds == ["queued", "running", "done"]
        assert events[-1]["result"]["wall_s"] > 0

        # the jobs index lists it as done
        status, listing = _json(port, "GET", "/v1/jobs")
        states = {j["job"]: j["state"] for j in listing["jobs"]}
        assert states[accepted["job"]] == "done"

    def test_failing_config_is_a_failed_job_not_a_crash(self, service):
        svc, port = service
        # valid params the solver still refuses: 9 cells do not split
        # over the (2, 2, 1) processor grid of P=4 (a params body the
        # app itself rejects is a 400, test_bad_requests_are_400...)
        bad = {**SMALL, "params": {"shape": [9, 8, 8]}}
        status, body = _json(port, "POST", "/v1/predict", bad)
        assert status == 500
        assert body["state"] == "failed"
        assert "not divisible" in body["error"]
        # the service is still healthy afterwards
        status, _ = _json(port, "GET", "/v1/healthz")
        assert status == 200

    def test_service_manifest_round_trips_into_perfdb(self, service):
        svc, port = service
        _json(port, "POST", "/v1/predict", {**SMALL, "seed": 3})
        records = ingest_path(svc.manifest.path)
        assert records, "service manifest produced no perfdb records"
        assert all(r.bench == "campaign:service" for r in records)
        db = PerfDB()
        assert db.add(records) > 0
        apps = {r.app for r in db.query(app="lbmhd")}
        assert apps == {"lbmhd"}
        walls = [r.wall_s for r in db.query(app="lbmhd")]
        assert all(w > 0 for w in walls)

    def test_manifest_events_carry_configs(self, service):
        svc, _ = service
        done = [
            e for e in read_events(svc.manifest.path)
            if e.get("event") == "run-done"
        ]
        assert done
        assert all(isinstance(e.get("config"), dict) for e in done)

    def test_pre_change_journal_ingests_and_folds_the_same(self, tmp_path):
        """A service journal from before the service journaled once per
        process framed each request as its own campaign (start, run
        events, end).  It ingests to the same records, and folds to the
        same lifetime counts, as the one journal now written."""
        svc = ReproService(tmp_path / "new", workers=1, scheduler="serial")
        with ServiceThread(svc) as thread:
            for body in (SMALL, SMALL, {**SMALL, "seed": 1}, SMALL):
                _json(thread.port, "POST", "/v1/predict", body)
        events = list(read_events(svc.manifest.path))
        old = Manifest(tmp_path / "old" / "service.manifest.jsonl")
        for event in events:
            if event["event"] not in ("run-start", "run-done"):
                continue
            if event["event"] == "run-start" or event["cached"]:
                config = RunConfig.from_dict(event["config"])
                old.append(start_event(
                    CampaignSpec(
                        name="service", apps=(config.app,),
                        steps=config.steps,
                    ),
                    1, "serial",
                ))
            old.append(event)
            if event["event"] == "run-done":
                old.append({"event": "campaign-end", "wall_s": 0.0})
        assert [e["event"] for e in read_events(old.path)].count(
            "campaign-start"
        ) == 4
        assert ingest_path(old.path) == ingest_path(svc.manifest.path)
        assert len(ingest_path(old.path)) == 4
        life = ResultCache(tmp_path / "old").lifetime_stats()
        assert life == ResultCache(tmp_path / "new").lifetime_stats()
        assert life.as_dict() == {
            "hits": 2, "misses": 2, "puts": 2, "reruns": 0,
        }


class TestConcurrentCoalescing:
    """The acceptance criterion, over real HTTP: N identical concurrent
    requests perform exactly one engine computation."""

    def test_n_identical_concurrent_requests_one_computation(
        self, tmp_path
    ):
        svc = ReproService(tmp_path, workers=2, scheduler="serial")
        n = 6
        with ServiceThread(svc) as thread:
            port = thread.port
            barrier = threading.Barrier(n)

            def client(_):
                barrier.wait(timeout=30)
                return _json(port, "POST", "/v1/predict", SLOW)

            with ThreadPoolExecutor(max_workers=n) as pool:
                outcomes = list(pool.map(client, range(n)))

            assert all(status == 200 for status, _ in outcomes)
            bodies = [body for _, body in outcomes]
            assert all(b["state"] == "done" for b in bodies)
            # every client saw the same computation
            assert len({b["key"] for b in bodies}) == 1
            results = {
                json.dumps(b["result"]["diagnostics"], sort_keys=True)
                for b in bodies
            }
            assert len(results) == 1

            _, stats = _json(port, "GET", "/v1/stats")

        cache = stats["cache"]
        coalesce = stats["coalesce"]
        # exactly one engine computation: one miss, one published entry,
        # counted by the service's own cache as well as on disk
        assert cache["misses"] == cache["puts"] == 1, stats
        assert cache["lifetime"]["puts"] == 1, stats
        # everyone else piggybacked: attached in flight or a warm hit
        assert coalesce["coalesced_total"] + cache["hits"] == n - 1, stats
        assert coalesce["in_flight"] == 0


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _stream_events(port, job_id):
    """The whole NDJSON stream of a job (returns once it finishes)."""
    status, data = _request(port, "GET", f"/v1/jobs/{job_id}")
    assert status == 200
    return [json.loads(line) for line in data.decode().splitlines()]


class TestWarmPath:
    """Cache hits are answered on the event loop at submit; only a
    miss goes to a job worker's thread."""

    def test_unreadable_entry_is_computed_off_the_loop(self, tmp_path):
        gate = threading.Event()
        svc = ReproService(
            tmp_path, workers=1, scheduler=StubScheduler(gate=gate)
        )
        key = parse_predict(SMALL)[0].key()
        path = svc.cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x00\xff not json {")
        with ServiceThread(svc) as thread:
            port = thread.port
            status, accepted = _json(
                port, "POST", "/v1/predict", {**SMALL, "wait": False}
            )
            assert status == 202 and accepted["state"] != "done"
            # the computation is parked at the gate; the loop is free
            status, _ = _request(port, "GET", "/v1/healthz", timeout=5.0)
            assert status == 200
            gate.set()
            events = _stream_events(port, accepted["job"])
            _, stats = _json(port, "GET", "/v1/stats")
        assert [e["event"] for e in events] == ["queued", "running", "done"]
        assert events[-1]["cached"] is False
        assert events[-1]["result"]["wall_s"] > 0
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (0, 1)
        # the recomputation overwrote the garbage with a real entry
        assert json.loads(path.read_text())["key"] == key

    def test_warm_hit_does_not_wait_behind_a_computation(self, tmp_path):
        gate = threading.Event()
        gate.set()
        svc = ReproService(
            tmp_path, workers=1, scheduler=StubScheduler(gate=gate)
        )
        with ServiceThread(svc) as thread:
            port = thread.port
            status, body = _json(port, "POST", "/v1/predict", SMALL)
            assert status == 200 and body["cached"] is False
            gate.clear()
            status, cold = _json(
                port, "POST", "/v1/predict",
                {**SMALL, "seed": 7, "wait": False},
            )
            assert status == 202
            _wait_for(lambda: svc.queue.running == 1)
            # the only worker is held by the cold job; the hit is not
            status, data = _request(
                port, "POST", "/v1/predict", SMALL, timeout=10.0
            )
            warm = json.loads(data)
            assert status == 200 and warm["cached"] is True
            assert svc.queue.get(cold["job"]).state == "running"
            gate.set()
            events = _stream_events(port, cold["job"])
        assert events[-1]["event"] == "done"
        assert events[-1]["cached"] is False

    def test_warm_hit_journals_what_run_campaign_journals(self, tmp_path):
        svc = ReproService(tmp_path / "cache", workers=1, scheduler="serial")
        with ServiceThread(svc) as thread:
            _json(thread.port, "POST", "/v1/predict", SMALL)
            before = len(list(read_events(svc.manifest.path)))
            status, warm = _json(thread.port, "POST", "/v1/predict", SMALL)
            assert status == 200 and warm["cached"] is True
            served = list(read_events(svc.manifest.path))[before:]

        config = parse_predict(SMALL)[0]
        run_campaign(
            CampaignSpec(name="service", apps=(config.app,)),
            configs=[config],
            cache=tmp_path / "cache",
            manifest=tmp_path / "engine.jsonl",
            scheduler="serial",
        )
        engine = list(read_events(tmp_path / "engine.jsonl"))
        assert [e["event"] for e in served] == ["run-done"]
        assert [e["event"] for e in engine] == [
            "campaign-start", "run-done", "campaign-end",
        ]
        assert engine[1]["cached"] is True
        for event in (served[0], engine[1]):
            assert event.pop("wall_s") >= 0
        assert served[0] == engine[1]

    def test_warm_prediction_appends_one_line_and_nothing_else(
        self, tmp_path
    ):
        """A warm prediction's one write: its ``run-done``, appended to
        the service journal.  No other file under the cache root is
        created or grows."""

        def files():
            return {
                p: p.stat().st_size
                for p in tmp_path.rglob("*") if p.is_file()
            }

        svc = ReproService(tmp_path, workers=1, scheduler="serial")
        journal = tmp_path / "service.manifest.jsonl"
        with ServiceThread(svc) as thread:
            _json(thread.port, "POST", "/v1/predict", SMALL)
            before, lines = files(), journal.read_bytes().count(b"\n")
            status, warm = _json(thread.port, "POST", "/v1/predict", SMALL)
            assert status == 200 and warm["cached"] is True
            after = files()
            served = list(read_events(journal))[lines:]
        assert svc.manifest.path == journal
        assert [e["event"] for e in served] == ["run-done"]
        assert served[0]["cached"] is True
        grown = {p for p in after if after[p] != before.get(p)}
        assert grown == {journal}
        added = journal.read_bytes()[before[journal]:after[journal]]
        assert added.count(b"\n") == 1 and added.endswith(b"\n")
        # the service's one campaign ends in the journal as it stops
        kinds = [e["event"] for e in read_events(journal)]
        assert kinds == [
            "campaign-start", "run-start", "run-done", "run-done",
            "campaign-end",
        ]

    def test_warm_hit_moves_hits_by_one_and_misses_by_none(self, tmp_path):
        svc = ReproService(tmp_path, workers=1, scheduler="serial")
        with ServiceThread(svc) as thread:
            port = thread.port
            _json(port, "POST", "/v1/predict", SMALL)
            _, before = _json(port, "GET", "/v1/stats")
            status, warm = _json(port, "POST", "/v1/predict", SMALL)
            assert status == 200 and warm["cached"] is True
            _, after = _json(port, "GET", "/v1/stats")
        for scope in (lambda s: s["cache"], lambda s: s["cache"]["lifetime"]):
            assert scope(after)["hits"] - scope(before)["hits"] == 1
            assert scope(after)["misses"] == scope(before)["misses"]
        assert after["jobs"]["completed"] - before["jobs"]["completed"] == 1


class TestServiceLifecycle:
    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        svc = ReproService(tmp_path, workers=1, scheduler="serial")
        thread = ServiceThread(svc).start()
        port = thread.port
        status, body = _json(port, "POST", "/v1/shutdown")
        assert status == 200 and body["stopping"] is True
        thread._thread.join(timeout=30)
        assert not thread._thread.is_alive()
        with pytest.raises(OSError):
            _request(port, "GET", "/v1/healthz", timeout=2.0)

    def test_warm_cache_is_shared_across_service_restarts(self, tmp_path):
        svc1 = ReproService(tmp_path, workers=1, scheduler="serial")
        with ServiceThread(svc1) as thread:
            status, body = _json(
                thread.port, "POST", "/v1/predict", SMALL
            )
            assert status == 200 and body["cached"] is False

        svc2 = ReproService(tmp_path, workers=1, scheduler="serial")
        with ServiceThread(svc2) as thread:
            status, body = _json(
                thread.port, "POST", "/v1/predict", SMALL
            )
            assert status == 200 and body["cached"] is True

    def test_client_dropping_mid_stream_leaves_the_service_serving(
        self, tmp_path, caplog
    ):
        gate = threading.Event()
        svc = ReproService(
            tmp_path, workers=1, scheduler=StubScheduler(gate=gate)
        )
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            with ServiceThread(svc) as thread:
                port = thread.port
                _, accepted = _json(
                    port, "POST", "/v1/predict", {**SMALL, "wait": False}
                )
                job = accepted["job"]
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=10
                ) as sock:
                    sock.sendall(
                        f"GET /v1/jobs/{job} HTTP/1.1\r\n\r\n".encode()
                    )
                    stream = sock.makefile("rb")
                    assert b" 200 " in stream.readline()
                    while stream.readline() not in (b"\r\n", b""):
                        pass
                    first = json.loads(stream.readline())
                    assert first["event"] == "queued"
                    stream.close()
                # the client is gone mid-stream; now let the job finish
                gate.set()
                _wait_for(lambda: svc.queue.get(job).finished)
                assert svc.queue.get(job).state == "done"
                status, _ = _request(port, "GET", "/v1/healthz", timeout=5.0)
                assert status == 200
                status, warm = _json(port, "POST", "/v1/predict", SMALL)
                assert status == 200 and warm["cached"] is True
            gc.collect()
        unretrieved = [
            r.getMessage() for r in caplog.records
            if "never retrieved" in r.getMessage()
            or r.levelno >= logging.ERROR
        ]
        assert not unretrieved



#: A two-cell warm sweep; its seed-0 cell is ``SMALL``.
WARM_SPEC = {
    "name": "warm-smoke",
    "apps": ["lbmhd"],
    "nprocs": [4],
    "seeds": [0, 1],
    "steps": 1,
    "params": {"lbmhd": {"shape": [8, 8, 8]}},
}


class TestWarmCommand:
    """``repro-service warm --spec`` loads and checks its spec the way
    ``repro-campaign run`` does, and fills the cache the service reads."""

    @pytest.mark.parametrize(
        "prog, main, command",
        [
            ("repro-campaign", campaign_main, ["run"]),
            ("repro-service", service_main, ["warm", "--spec"]),
        ],
        ids=["campaign-run", "service-warm"],
    )
    def test_bad_params_spec_exits_2(
        self, tmp_path, capsys, prog, main, command
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(dict(WARM_SPEC, params={"lbmhd": {"bogus": 1}}))
        )
        code = main(
            [*command, str(bad), "--cache-dir", str(tmp_path / "cache"),
             "--scheduler", "serial"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{prog}: bad spec" in err
        assert "unknown parameter(s) for 'lbmhd': bogus" in err
        assert not (tmp_path / "cache").exists()  # nothing ran

    def test_warmed_cell_is_a_hit_for_the_first_predict(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "warm.json"
        spec.write_text(json.dumps(WARM_SPEC))
        cache_dir = tmp_path / "cache"
        assert service_main(
            ["warm", "--spec", str(spec), "--cache-dir", str(cache_dir),
             "--scheduler", "serial"]
        ) == 0
        assert "[2/2]" in capsys.readouterr().err  # the progress lines

        svc = ReproService(cache_dir, workers=1, scheduler="serial")
        with ServiceThread(svc) as thread:
            status, body = _json(thread.port, "POST", "/v1/predict", SMALL)
            _, stats = _json(thread.port, "GET", "/v1/stats")
        assert status == 200 and body["cached"] is True
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (1, 0)
