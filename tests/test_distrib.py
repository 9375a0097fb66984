"""repro.distrib — wire protocol, fault handling, and the scheduler seam.

Fast tests use stub runners and hand-rolled protocol exchanges over
real sockets (loopback, ephemeral ports); the end-to-end class runs
genuine solver configs through ``run_campaign`` with a distrib
executor and compares against a serial sweep bit for bit.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.campaign.cache import ResultCache
from repro.campaign.engine import resolve_scheduler, run_campaign
from repro.campaign.spec import CampaignSpec, RunConfig
from repro.distrib import (
    Coordinator,
    DistribExecutor,
    DistribWorker,
    ProtocolError,
    RemoteRunError,
    WorkerError,
    is_distrib_spec,
    parse_endpoint,
    recv_msg,
    send_msg,
)
from repro.distrib import coordinator as coord_mod
from repro.distrib import protocol as proto
from repro.perfdb.ingest import records_from_manifest

#: A fast fake result shaped like a worker result dict.
def _stub_result(config, host="stub-host", **over):
    out = {
        "label": str(config.get("app", "?")),
        "wall_s": 0.01,
        "gflops": 1.0,
        "diagnostics": {"x": 1.0},
        "host": host,
        "cpu_count": 2,
        "version": __version__,
    }
    out.update(over)
    return out


def _jobs(n):
    return [
        RunConfig(app="lbmhd", nprocs=2, steps=1, seed=i) for i in range(n)
    ]


def _consume(coord, configs, local_fn=None):
    """Drive coord.dispatch on a thread; returns (results, thread)."""
    results = []

    def run():
        results.extend(coord.dispatch(configs, local_fn))

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return results, t


def _fake_hello(coord, *, name="fake", version=__version__):
    """A raw protocol client: connect + hello; returns (sock, reply)."""
    sock = socket.create_connection(("127.0.0.1", coord.port), timeout=5)
    sock.settimeout(5)
    send_msg(
        sock,
        {
            "type": "hello",
            "name": name,
            "host": "fakehost",
            "cpu_count": 1,
            "version": version,
        },
    )
    return sock, recv_msg(sock)


def _pull_one(sock):
    """Raw client asks for work until a ``run`` arrives."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        send_msg(sock, {"type": "next"})
        reply = recv_msg(sock)
        if reply is None:
            raise AssertionError("coordinator hung up while pulling")
        if reply["type"] == "run":
            return reply
        time.sleep(0.05)
    raise AssertionError("never got a run message")


def _wait_for(predicate, what, timeout=10):
    """Block until ``predicate()`` holds (a rendezvous, not a timing
    assertion: the deadline only turns a hang into a failure)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


def _start_worker(coord, name, runner=_stub_result, **kwargs):
    """A DistribWorker session on a thread; ``box`` gets what ``run``
    returned or raised."""
    worker = DistribWorker(
        coord.endpoint, name=name, runner=runner, **kwargs
    )
    box = {}

    def run():
        try:
            box["stats"] = worker.run()
        except BaseException as exc:  # noqa: BLE001 - asserted on by tests
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    _wait_for(
        lambda: name in {w.name for w in coord.workers()},
        f"worker {name!r} to register",
    )
    return worker, thread, box


def _worker_names(results):
    return [r["worker"] for _, r, exc in results if exc is None]


@pytest.fixture
def coord():
    c = Coordinator(
        timeout_s=30,
        max_attempts=3,
        grace_s=60,  # effectively never fall back locally
        heartbeat_timeout_s=10,
        local_fallback=False,
    )
    c.ensure_started()
    yield c
    c.stop()


# -- the wire format -------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        a, b = socket.socketpair()
        try:
            msg = {"type": "run", "config": {"app": "lbmhd", "n": [1, 2]}}
            send_msg(a, msg)
            assert recv_msg(b) == msg
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_msg(b) is None
        finally:
            b.close()

    def test_torn_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(proto.HEADER.pack(100) + b"only ten b")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_msg(b)
        finally:
            b.close()

    def test_missing_payload_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(proto.HEADER.pack(10))  # header, then silence
            a.close()
            with pytest.raises(ProtocolError, match="between header"):
                recv_msg(b)
        finally:
            b.close()

    def test_oversized_length_raises(self, monkeypatch):
        monkeypatch.setattr(proto, "MAX_FRAME", 64)
        a, b = socket.socketpair()
        try:
            a.sendall(proto.HEADER.pack(65) + b"x" * 65)
            with pytest.raises(ProtocolError, match="exceeds MAX_FRAME"):
                recv_msg(b)
            with pytest.raises(ProtocolError, match="refusing to send"):
                send_msg(a, {"blob": "y" * 100})
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize(
        "payload, fragment",
        [(b"not json at all", "undecodable"), (b"[1, 2]", "JSON object")],
    )
    def test_bad_payloads_raise(self, payload, fragment):
        a, b = socket.socketpair()
        try:
            a.sendall(proto.HEADER.pack(len(payload)) + payload)
            with pytest.raises(ProtocolError, match=fragment):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    def test_parse_endpoint(self):
        assert parse_endpoint("10.0.0.5:7713") == ("10.0.0.5", 7713)
        assert parse_endpoint("distrib:10.0.0.5:7713") == (
            "10.0.0.5",
            7713,
        )
        assert parse_endpoint(" DISTRIB:localhost:80 ") == (
            "localhost",
            80,
        )

    @pytest.mark.parametrize(
        "bad", ["no-port", "host:", ":123", "host:abc", "host:70000"]
    )
    def test_bad_endpoints_raise(self, bad):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
_json_objects = st.dictionaries(st.text(max_size=6), _json_values, max_size=5)


def _wire_bytes(messages):
    """The exact bytes ``send_msg`` puts on the wire for ``messages``."""
    a, b = socket.socketpair()
    try:
        chunks = []
        for msg in messages:
            send_msg(a, msg)
            frame = b.recv(1 << 20)  # small frames: one piece each
            chunks.append(frame)
        return chunks
    finally:
        a.close()
        b.close()


class TestFramingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        messages=st.lists(_json_objects, min_size=1, max_size=4),
        cuts=st.lists(st.integers(min_value=1, max_value=64), min_size=1),
    )
    def test_any_chunking_round_trips(self, messages, cuts):
        data = b"".join(_wire_bytes(messages))
        a, b = socket.socketpair()

        def dribble():
            sent = 0
            for size in itertools.cycle(cuts):
                if sent >= len(data):
                    break
                a.sendall(data[sent:sent + size])
                sent += size
            a.close()

        writer = threading.Thread(target=dribble, daemon=True)
        writer.start()
        try:
            b.settimeout(10)
            assert [recv_msg(b) for _ in messages] == messages
            assert recv_msg(b) is None  # then a clean EOF
        finally:
            writer.join(timeout=10)
            b.close()
        assert not writer.is_alive()

    @settings(max_examples=15, deadline=None)
    @given(messages=st.lists(_json_objects, min_size=1, max_size=3))
    def test_a_cut_stream_is_none_only_at_a_frame_boundary(self, messages):
        frames = _wire_bytes(messages)
        data = b"".join(frames)
        boundaries = {0, *itertools.accumulate(map(len, frames))}
        for cut in range(len(data) + 1):
            a, b = socket.socketpair()
            try:
                a.sendall(data[:cut])
                a.close()
                whole = sum(1 for end in boundaries if 0 < end <= cut)
                assert [recv_msg(b) for _ in range(whole)] == messages[:whole]
                if cut in boundaries:
                    assert recv_msg(b) is None
                else:
                    with pytest.raises(ProtocolError):
                        recv_msg(b)
            finally:
                b.close()


# -- the scheduler seam ----------------------------------------------------


class TestSchedulerSeam:
    def test_is_distrib_spec(self):
        assert is_distrib_spec("distrib:127.0.0.1:0")
        assert is_distrib_spec("  DISTRIB:host:1 ")
        assert not is_distrib_spec("processes:4")
        assert not is_distrib_spec(None)

    def test_resolve_scheduler_builds_distrib_executor(self):
        ex = resolve_scheduler("distrib:127.0.0.1:0")
        assert isinstance(ex, DistribExecutor)
        assert not ex.coordinator.started  # lazy: no socket yet
        assert not ex.segment_support().ok
        ex.close()

    def test_plain_specs_still_resolve(self):
        assert resolve_scheduler("serial").name == "serial"

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTRIB_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_DISTRIB_ATTEMPTS", "7")
        monkeypatch.setenv("REPRO_DISTRIB_GRACE", "0.5")
        monkeypatch.setenv("REPRO_DISTRIB_LOCAL", "0")
        ex = DistribExecutor.from_spec("distrib:127.0.0.1:0")
        c = ex.coordinator
        assert c.timeout_s == 12.5
        assert c.attempts.max_attempts == 7
        assert c.grace_s == 0.5
        assert c.local_fallback is False
        ex.close()

    def test_bad_env_knob_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISTRIB_ATTEMPTS", "many")
        with pytest.raises(ValueError, match="REPRO_DISTRIB_ATTEMPTS"):
            DistribExecutor.from_spec("distrib:127.0.0.1:0")


# -- dispatch and fault handling (stub runners) ----------------------------


class TestDispatchFaults:
    def test_two_workers_split_the_sweep(self, coord):
        barrier = threading.Barrier(2)
        gate_timeout = 10

        def runner(config):
            barrier.wait(timeout=gate_timeout)
            return _stub_result(config)

        workers = [
            DistribWorker(coord.endpoint, name=f"w{i}", runner=runner)
            for i in range(2)
        ]
        threads = [
            threading.Thread(target=w.run, daemon=True) for w in workers
        ]
        for t in threads:
            t.start()
        results, consumer = _consume(coord, _jobs(2))
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert len(results) == 2
        names = {r["worker"] for _, r, exc in results if r}
        assert names == {"w0", "w1"}  # the barrier forces real mixing
        assert coord.stats.completed == 2

    def test_worker_death_mid_config_is_retried_elsewhere(self, coord):
        results, consumer = _consume(coord, _jobs(1))
        sock, welcome = _fake_hello(coord, name="doomed")
        assert welcome["type"] == "welcome"
        run = _pull_one(sock)
        assert run["config"]["app"] == "lbmhd"
        sock.close()  # SIGKILL equivalent: vanish mid-config

        rescue = DistribWorker(
            coord.endpoint, name="rescue", runner=_stub_result
        )
        threading.Thread(target=rescue.run, daemon=True).start()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        (index, result, exc) = results[0]
        assert exc is None and result["worker"] == "rescue"
        assert coord.stats.dead_workers == 1
        assert coord.stats.retried == 1

    def test_heartbeat_silence_declares_the_worker_dead(self):
        c = Coordinator(
            timeout_s=60,
            heartbeat_timeout_s=0.4,
            grace_s=60,
            local_fallback=False,
        )
        c.ensure_started()
        try:
            results, consumer = _consume(c, _jobs(1))
            sock, _ = _fake_hello(c, name="silent")
            _pull_one(sock)  # take the config, then never heartbeat
            rescue = DistribWorker(
                c.endpoint, name="rescue", runner=_stub_result
            )
            threading.Thread(target=rescue.run, daemon=True).start()
            consumer.join(timeout=30)
            assert not consumer.is_alive()
            assert results[0][2] is None
            assert c.stats.dead_workers >= 1
            sock.close()
        finally:
            c.stop()

    def test_per_config_timeout_reassigns(self):
        """The deadline is absolute: heartbeats prove liveness but do
        not buy a stalled worker more time."""
        c = Coordinator(
            timeout_s=0.4,
            heartbeat_timeout_s=60,
            grace_s=60,
            local_fallback=False,
        )
        c.ensure_started()
        try:
            results, consumer = _consume(c, _jobs(1))
            sock, _ = _fake_hello(c, name="stalled")
            run = _pull_one(sock)
            stop_beat = threading.Event()

            def beat():
                while not stop_beat.is_set():
                    try:
                        send_msg(
                            sock,
                            {"type": "heartbeat", "tid": run["tid"]},
                        )
                    except OSError:
                        return
                    time.sleep(0.1)

            threading.Thread(target=beat, daemon=True).start()
            rescue = DistribWorker(
                c.endpoint, name="rescue", runner=_stub_result
            )
            threading.Thread(target=rescue.run, daemon=True).start()
            consumer.join(timeout=30)
            assert not consumer.is_alive()
            stop_beat.set()
            sock.close()
            assert results[0][2] is None
            assert results[0][1]["worker"] == "rescue"
            assert c.stats.timeouts >= 1
            assert c.stats.retried >= 1
        finally:
            c.stop()

    def test_attempt_budget_exhaustion_carries_the_history(self):
        c = Coordinator(
            timeout_s=30,
            max_attempts=2,
            grace_s=60,
            local_fallback=False,
        )
        c.ensure_started()
        try:

            def always_broken(config):
                raise ValueError("kaboom")

            w = DistribWorker(
                c.endpoint, name="broken", runner=always_broken
            )
            threading.Thread(target=w.run, daemon=True).start()
            results, consumer = _consume(c, _jobs(1))
            consumer.join(timeout=30)
            assert not consumer.is_alive()
            index, result, exc = results[0]
            assert result is None
            assert isinstance(exc, RemoteRunError)
            assert "2/2 attempt(s) failed" in str(exc)
            assert "kaboom" in str(exc)
            assert c.stats.failed == 1 and c.stats.retried == 1
        finally:
            c.stop()

    def test_local_fallback_when_no_workers_connect(self):
        c = Coordinator(
            timeout_s=30, grace_s=0.1, local_fallback=True
        )
        c.ensure_started()
        try:
            done = []

            def local_fn(config):
                done.append(config.seed)
                return _stub_result(config.to_dict())

            results = list(c.dispatch(_jobs(3), local_fn))
            assert len(results) == 3 and all(
                e is None for _, _, e in results
            )
            assert sorted(done) == [0, 1, 2]
            assert c.stats.local_runs == 3
            assert c.stats.dispatched == 0  # nothing went remote
        finally:
            c.stop()

    def test_version_mismatch_is_rejected_at_hello(self, coord):
        sock, reply = _fake_hello(coord, version="0.0.1")
        try:
            assert reply["type"] == "reject"
            assert "version mismatch" in reply["reason"]
            assert coord.stats.rejected_workers == 1
        finally:
            sock.close()

    def test_rejected_distribworker_raises_workererror(
        self, coord, monkeypatch
    ):
        monkeypatch.setattr("repro.distrib.worker.__version__", "9.9.9")
        w = DistribWorker(coord.endpoint, name="old")
        with pytest.raises(WorkerError, match="version mismatch"):
            w.run()

    def test_duplicate_names_are_deduplicated(self, coord):
        s1, r1 = _fake_hello(coord, name="twin")
        s2, r2 = _fake_hello(coord, name="twin")
        try:
            assert r1["name"] == "twin"
            assert r2["name"] == "twin#2"
            assert len(coord.workers()) == 2
        finally:
            s1.close()
            s2.close()

    def test_coordinator_publishes_into_the_cache(self, tmp_path):
        """Remote results reach the cache through the campaign engine,
        the one writer: the caller's cache counts every put."""
        ex = DistribExecutor(
            "127.0.0.1", 0, grace_s=60, local_fallback=False
        )
        ex.coordinator.ensure_started()
        w = DistribWorker(
            ex.coordinator.endpoint, name="w", runner=_stub_result
        )
        threading.Thread(target=w.run, daemon=True).start()
        configs = _jobs(2)
        cache = ResultCache(tmp_path)
        try:
            report = run_campaign(
                CampaignSpec(name="remote", apps=("lbmhd",)),
                configs=configs,
                cache=cache,
                scheduler=ex,
            )
        finally:
            ex.close()
        assert report.ok and report.misses == 2
        assert len(cache) == 2
        for config in configs:
            entry = ResultCache(tmp_path).get(config)
            assert entry is not None and entry["worker"] == "w"
        assert cache.stats.puts == cache.lifetime_stats().puts == 2


# -- the parked state: ``next`` is a long-poll -------------------------------


class TestParkedDispatch:
    def test_connected_worker_never_waits(self, coord):
        worker, thread, box = _start_worker(coord, "w")
        for _ in range(3):  # each dispatch finds the worker parked again
            results = list(coord.dispatch(_jobs(2)))
            assert _worker_names(results) == ["w", "w"]
        coord.stop()
        thread.join(timeout=10)
        assert not thread.is_alive() and "error" not in box
        assert worker.stats.completed == 6
        assert worker.stats.waits == 0

    def test_worker_lost_while_parked_costs_nothing(self, coord):
        _start_worker(coord, "survivor")
        sock, welcome = _fake_hello(coord, name="doomed")
        assert welcome["type"] == "welcome"
        send_msg(sock, {"type": "next"})  # parks: nothing is pending
        sock.close()  # SIGKILL equivalent, while idle
        _wait_for(
            lambda: [w.name for w in coord.workers()] == ["survivor"],
            "the parked worker's EOF to be noticed",
        )
        results = list(coord.dispatch(_jobs(2)))
        assert _worker_names(results) == ["survivor", "survivor"]
        assert coord.stats.dispatched == 2  # nothing went to the dead one
        assert coord.stats.dead_workers == 0
        assert coord.stats.retried == 0

    def test_a_long_park_does_not_count_as_silence(self):
        """Heartbeat silence is counted from the assignment: a worker
        handed work after a park longer than the heartbeat timeout is
        alive, not overdue."""
        c = Coordinator(
            timeout_s=30,
            heartbeat_timeout_s=1.0,
            grace_s=60,
            local_fallback=False,
        )
        c.ensure_started()
        try:
            def slow(config):
                time.sleep(0.5)  # several monitor ticks, two heartbeats
                return _stub_result(config)

            worker, _, _ = _start_worker(
                c, "parked", runner=slow, heartbeat_s=0.25
            )
            (health,) = c.workers()
            _wait_for(
                lambda: health.silent_for() > c.heartbeat_timeout_s,
                "the worker to sit parked past the heartbeat timeout",
            )
            results, consumer = _consume(c, _jobs(1))
            consumer.join(timeout=10)
            assert c.stats.dead_workers == 0  # else nobody is left to run it
            assert not consumer.is_alive()
            assert _worker_names(results) == ["parked"]
            assert worker.stats.heartbeats >= 1
            assert c.stats.dead_workers == 0
            assert c.stats.retried == 0
        finally:
            c.stop()

    def test_stop_releases_parked_workers(self, coord, monkeypatch):
        from repro.distrib.cli import main

        # were stop() to leave them parked, the join below would time out
        monkeypatch.setattr(coord_mod, "PARK_S", 3600.0)
        codes = {}

        def run_cli(name):
            codes[name] = main(
                ["worker", coord.endpoint, "--name", name, "--quiet"]
            )

        threads = [
            threading.Thread(target=run_cli, args=(name,), daemon=True)
            for name in ("p0", "p1")
        ]
        for t in threads:
            t.start()
        _wait_for(lambda: len(coord.workers()) == 2, "two workers")
        coord.stop()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert codes == {"p0": 0, "p1": 0}
        assert coord.workers() == []

    @pytest.mark.parametrize("fault", ["death", "timeout"])
    def test_requeue_goes_to_a_parked_worker(self, fault):
        c = Coordinator(
            timeout_s=0.5 if fault == "timeout" else 30,
            heartbeat_timeout_s=60,
            grace_s=60,
            local_fallback=False,
        )
        c.ensure_started()
        try:
            results, consumer = _consume(c, _jobs(1))
            sock, _ = _fake_hello(c, name="first")
            _pull_one(sock)  # the only worker: it holds the ticket
            rescue, thread, box = _start_worker(c, "rescue")  # parks
            if fault == "death":
                sock.close()
            consumer.join(timeout=30)
            assert not consumer.is_alive()
            sock.close()
            assert _worker_names(results) == ["rescue"]
            assert c.stats.retried == 1
            if fault == "death":
                assert c.stats.dead_workers == 1
            else:
                assert c.stats.timeouts == 1
            assert rescue.stats.waits == 0  # the requeue woke it
        finally:
            c.stop()

    def test_idle_worker_outlives_many_parks(self, coord, monkeypatch):
        monkeypatch.setattr(coord_mod, "PARK_S", 0.02)
        worker, thread, box = _start_worker(coord, "idle", reply_timeout_s=5)
        _wait_for(lambda: worker.stats.waits >= 5, "five keepalive waits")
        assert thread.is_alive() and "error" not in box
        assert [w.name for w in coord.workers()] == ["idle"]
        results = list(coord.dispatch(_jobs(1)))
        assert _worker_names(results) == ["idle"]

    def test_concurrent_dispatches_each_get_a_worker(self, coord):
        barrier = threading.Barrier(2)

        def runner(config):
            barrier.wait(timeout=10)  # passes only if both run at once
            return _stub_result(config)

        for name in ("w0", "w1"):
            _start_worker(coord, name, runner=runner)
        consumers = [_consume(coord, _jobs(1)) for _ in range(2)]
        for results, consumer in consumers:
            consumer.join(timeout=30)
            assert not consumer.is_alive()
        names = [_worker_names(results) for results, _ in consumers]
        assert sorted(names) == [["w0"], ["w1"]]

    def test_max_configs_worker_leaves_the_rest(self, coord):
        results, consumer = _consume(coord, _jobs(3))
        first = DistribWorker(coord.endpoint, name="one", runner=_stub_result)
        assert first.run(max_configs=1).completed == 1  # returns by itself
        _wait_for(lambda: coord.workers() == [], "the bye to land")
        _start_worker(coord, "rest")
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert sorted(_worker_names(results)) == ["one", "rest", "rest"]
        assert coord.stats.retried == 0

    def test_retired_tickets_leave_the_attempt_tracker_empty(self, coord):
        calls = []

        def flaky(config):
            calls.append(config["seed"])
            if len(calls) == 1:
                raise ValueError("first attempt fails")
            return _stub_result(config)

        _start_worker(coord, "flaky", runner=flaky)
        results = list(coord.dispatch(_jobs(2)))
        assert all(exc is None for _, _, exc in results)
        assert coord.stats.retried == 1
        assert coord.attempts._attempts == {} and coord.attempts._errors == {}

    def test_closed_socket_is_a_dead_connection_not_a_crash(self):
        a, b = socket.socketpair()
        a.close()
        b.close()
        with pytest.raises(OSError, match="closed under its handler"):
            coord_mod._readable(a, 0)


# -- end to end through run_campaign ---------------------------------------


SPEC = CampaignSpec(
    name="distrib-e2e",
    apps=("lbmhd",),
    nprocs=(2,),
    seeds=(0, 1),
    steps=1,
    params={"lbmhd": {"shape": [8, 8, 8]}},
)


class TestEndToEnd:
    def test_two_worker_campaign_matches_serial_bitwise(self, tmp_path):
        serial = run_campaign(
            SPEC, cache=tmp_path / "serial", scheduler="serial"
        )
        assert serial.ok

        ex = resolve_scheduler("distrib:127.0.0.1:0")
        ex.coordinator.grace_s = 60  # force the remote path
        ex.coordinator.local_fallback = False
        ex.coordinator.ensure_started()
        workers = [
            DistribWorker(ex.coordinator.endpoint, name=f"w{i}")
            for i in range(2)
        ]
        for w in workers:
            threading.Thread(target=w.run, daemon=True).start()
        try:
            remote = run_campaign(
                SPEC,
                cache=tmp_path / "remote",
                manifest=tmp_path / "remote.jsonl",
                scheduler=ex,
            )
        finally:
            ex.close()
        assert remote.ok
        assert ex.stats.completed == 2 and ex.stats.local_runs == 0

        serial_cache = ResultCache(tmp_path / "serial")
        remote_cache = ResultCache(tmp_path / "remote")
        assert len(serial_cache) == len(remote_cache) == 2
        for cfg in SPEC.expand():
            a = serial_cache.get(cfg)
            b = remote_cache.get(cfg)
            assert a is not None and b is not None
            # bitwise: every numerical outcome identical; only wall
            # clock and provenance may differ between the two sweeps
            assert a["diagnostics"] == b["diagnostics"]
            assert a["flops_per_step"] == b["flops_per_step"]
            assert a["virtual_elapsed_s"] == b["virtual_elapsed_s"]

    def test_manifest_provenance_flows_into_perfdb(self, tmp_path):
        barrier = threading.Barrier(2)

        def runner(config):
            barrier.wait(timeout=10)
            return _stub_result(
                config, host=f"node-{threading.get_ident() % 7}"
            )

        ex = resolve_scheduler("distrib:127.0.0.1:0")
        ex.coordinator.grace_s = 60
        ex.coordinator.ensure_started()
        for i in range(2):
            w = DistribWorker(
                ex.coordinator.endpoint, name=f"prov{i}", runner=runner
            )
            threading.Thread(target=w.run, daemon=True).start()
        try:
            report = run_campaign(
                SPEC,
                cache=tmp_path / "cache",
                manifest=tmp_path / "m.jsonl",
                scheduler=ex,
            )
        finally:
            ex.close()
        assert report.ok
        records = records_from_manifest(tmp_path / "m.jsonl")
        assert len(records) == 2
        workers_seen = {
            r.extra_dict().get("worker") for r in records
        }
        assert workers_seen == {"prov0", "prov1"}
        for r in records:
            assert r.host and r.host.startswith("node-")
            assert r.cpu_count == 2
            assert r.version == __version__


# -- the CLI ---------------------------------------------------------------


class TestCli:
    def test_worker_exits_zero_when_coordinator_goes_away(self, coord):
        from repro.distrib.cli import main

        rc = {}

        def run_cli():
            rc["code"] = main(
                ["worker", coord.endpoint, "--quiet"]
            )

        t = threading.Thread(target=run_cli, daemon=True)
        t.start()
        _wait_for(coord.workers, "the worker to register")
        coord.stop()
        t.join(timeout=10)
        assert not t.is_alive()
        assert rc["code"] == 0

    def test_rejected_worker_exits_two(self, coord, monkeypatch, capsys):
        from repro.distrib.cli import main

        monkeypatch.setattr("repro.distrib.worker.__version__", "9.9.9")
        assert main(["worker", coord.endpoint]) == 2
        assert "version mismatch" in capsys.readouterr().err

    def test_bad_endpoint_is_a_usage_error(self):
        from repro.distrib.cli import main

        with pytest.raises(ValueError):
            main(["worker", "no-port-here"])

    def test_scheduler_spec_pastes_into_the_worker_cli(self, coord):
        # the exact --scheduler string works as the worker endpoint
        w = DistribWorker(f"distrib:{coord.endpoint}", name="paste")
        assert (w.host, w.port) == ("127.0.0.1", coord.port)
