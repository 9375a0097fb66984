"""repro.service — validation, coalescing, the HTTP API, perfdb flow.

The integration tests run a real :class:`ReproService` on a background
event-loop thread (ephemeral port) and speak actual HTTP/1.1 at it via
``http.client`` — the same path the CI service job and the ladder
benchmark's ``predict_warm`` workload exercise.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign.manifest import read_events
from repro.campaign.report import ConfigResult
from repro.campaign.spec import RunConfig
from repro.perfdb import PerfDB
from repro.perfdb.ingest import ingest_path
from repro.service import (
    ApiError,
    Coalescer,
    JobQueue,
    ReproService,
    ServiceThread,
    parse_predict,
)

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


class TestCoalescer:
    def test_identical_in_flight_requests_share_one_job(self):
        gate = threading.Event()
        computed = []

        def runner(cfg):
            gate.wait(timeout=10)
            computed.append(cfg.key())
            return ConfigResult(
                config=cfg, key=cfg.key(), cached=False,
                wall_s=0.1, gflops=1.0, result={"wall_s": 0.1},
            )

        async def scenario():
            coal = Coalescer()
            queue = JobQueue(
                cache=None, scheduler="serial", workers=1,
                runner=runner, on_finish=coal.release,
            )
            await queue.start()
            cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
            job1, c1 = await coal.submit(cfg, queue)
            await asyncio.sleep(0.05)  # let the worker pick it up
            job2, c2 = await coal.submit(cfg, queue)
            assert job2 is job1
            assert (c1, c2) == (False, True)
            assert job1.coalesced == 1
            assert coal.coalesced_total == 1 and coal.in_flight == 1
            gate.set()
            await job1.wait()
            assert job1.state == "done" and coal.in_flight == 0
            # after completion an identical request is a NEW job
            job3, c3 = await coal.submit(cfg, queue)
            assert job3 is not job1 and c3 is False
            await job3.wait()
            await queue.stop()
            return len(computed)

        assert asyncio.run(scenario()) == 2

    def test_distinct_configs_never_coalesce(self):
        async def scenario():
            coal = Coalescer()
            queue = JobQueue(
                cache=None, scheduler="serial", workers=2,
                runner=lambda cfg: ConfigResult(
                    config=cfg, key=cfg.key(), wall_s=0.0, result={},
                ),
                on_finish=coal.release,
            )
            await queue.start()
            a, ca = await coal.submit(
                RunConfig(app="lbmhd", seed=0), queue
            )
            b, cb = await coal.submit(
                RunConfig(app="lbmhd", seed=1), queue
            )
            assert a is not b and not ca and not cb
            await a.wait()
            await b.wait()
            await queue.stop()
            return coal.coalesced_total

        assert asyncio.run(scenario()) == 0

    def test_failed_jobs_release_their_key(self):
        def runner(cfg):
            raise RuntimeError("boom")

        async def scenario():
            coal = Coalescer()
            queue = JobQueue(
                cache=None, scheduler="serial", workers=1,
                runner=runner, on_finish=coal.release,
            )
            await queue.start()
            cfg = RunConfig(app="lbmhd")
            job, _ = await coal.submit(cfg, queue)
            await job.wait()
            assert job.state == "failed" and "boom" in job.error
            assert coal.in_flight == 0
            await queue.stop()

        asyncio.run(scenario())

    def test_interleaved_identical_submits_enqueue_once(self):
        """Regression: two identical requests that both reach submit
        before either's ``queue.submit`` await resolves must still
        share one computation.  The gated fake queue parks every
        submit on an event, forcing exactly the interleaving window
        the old in-flight check missed."""
        from repro.service.jobs import Job

        class GatedQueue:
            def __init__(self):
                self.gate = asyncio.Event()
                self.submissions: list[Job] = []

            async def submit(self, config):
                await self.gate.wait()  # the hole: submit yields here
                job = Job(
                    id=f"g{len(self.submissions) + 1:03d}",
                    config=config,
                    key=config.key(),
                )
                self.submissions.append(job)
                return job

        async def scenario():
            coal = Coalescer()
            queue = GatedQueue()
            cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
            t1 = asyncio.create_task(coal.submit(cfg, queue))
            t2 = asyncio.create_task(coal.submit(cfg, queue))
            await asyncio.sleep(0.05)  # both tasks are parked in-flight
            queue.gate.set()
            (job1, c1), (job2, c2) = await asyncio.gather(t1, t2)
            assert job2 is job1
            assert (c1, c2) == (False, True)
            assert len(queue.submissions) == 1
            assert coal.coalesced_total == 1
            assert coal.in_flight == 1  # the job, no leftover placeholder

        asyncio.run(scenario())

    def test_failed_enqueue_wakes_waiters_to_retry(self):
        """A waiter parked on another request's placeholder must not
        hang (or crash) when that request's enqueue raises — it retries
        and performs its own submission."""
        from repro.service.jobs import Job

        class FailFirstQueue:
            def __init__(self):
                self.gate = asyncio.Event()
                self.calls = 0

            async def submit(self, config):
                self.calls += 1
                call = self.calls
                await self.gate.wait()
                if call == 1:
                    raise RuntimeError("backend down")
                return Job(id=f"g{call}", config=config, key=config.key())

        async def scenario():
            coal = Coalescer()
            queue = FailFirstQueue()
            cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
            t1 = asyncio.create_task(coal.submit(cfg, queue))
            t2 = asyncio.create_task(coal.submit(cfg, queue))
            await asyncio.sleep(0.05)
            queue.gate.set()
            results = await asyncio.gather(t1, t2, return_exceptions=True)
            errors = [r for r in results if isinstance(r, Exception)]
            jobs = [r for r in results if not isinstance(r, Exception)]
            assert len(errors) == 1 and "backend down" in str(errors[0])
            assert len(jobs) == 1 and jobs[0][1] is False
            assert queue.calls == 2

        asyncio.run(scenario())

    def test_job_finishing_during_submit_is_not_indexed(self):
        """If the enqueued job reaches a terminal state before submit
        can index it, the in-flight table must stay clean — a later
        identical request starts fresh instead of attaching to a
        corpse."""
        from repro.service.jobs import Job

        class InstantQueue:
            async def submit(self, config):
                job = Job(id="g1", config=config, key=config.key())
                job.state = "done"  # finished before submit returns
                return job

        async def scenario():
            coal = Coalescer()
            cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
            job, coalesced = await coal.submit(cfg, InstantQueue())
            assert job.finished and coalesced is False
            assert coal.in_flight == 0

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
        # exactly one engine computation: one miss, one published entry
        assert cache["misses"] == 1, stats
        assert cache["lifetime"]["puts"] == 1, stats
        # everyone else piggybacked: attached in flight or a warm hit
        assert coalesce["coalesced_total"] + cache["hits"] == n - 1, stats
        assert coalesce["in_flight"] == 0


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
