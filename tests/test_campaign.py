"""Campaign engine: expansion, hashing, caching, journaling, resume."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    ResultCache,
    RunConfig,
    run_campaign,
    summarize,
)
from repro.campaign import worker
from repro.campaign.cache import CacheStats
from repro.campaign.engine import default_manifest_path, start_event
from repro.campaign.manifest import Manifest, NullManifest, read_events
from repro.runtime.executors import ProcessExecutor, get_executor

TINY = CampaignSpec(
    name="tiny",
    apps=("lbmhd", "fvcam"),
    nprocs=(4,),
    seeds=(0, 1),
    steps=2,
    params={
        "lbmhd": {"shape": [8, 8, 8]},
        "fvcam": {"py": 2, "pz": 2},
    },
)


class TestSpec:
    def test_expand_crosses_the_axes(self):
        spec = CampaignSpec(
            name="x",
            apps=("lbmhd", "gtc"),
            machines=(None, "ES"),
            nprocs=(4, 8),
            seeds=(0,),
        )
        configs = spec.expand()
        assert len(configs) == 2 * 2 * 2
        assert len({c.key() for c in configs}) == len(configs)
        assert len(set(configs)) == len(configs)  # hashable + distinct

    def test_key_is_stable_and_version_scoped(self):
        a = RunConfig(app="lbmhd", nprocs=4, steps=2,
                      params={"shape": [8, 8, 8]})
        b = RunConfig(app="lbmhd", nprocs=4, steps=2,
                      params={"shape": (8, 8, 8)})
        assert a == b
        assert a.key() == b.key()
        assert a.key(version="other") != a.key()
        c = RunConfig(app="lbmhd", nprocs=4, steps=3,
                      params={"shape": [8, 8, 8]})
        assert c.key() != a.key()

    def test_key_memo_is_invisible(self):
        a = RunConfig(app="lbmhd", nprocs=4, seed=1)
        b = RunConfig(app="lbmhd", nprocs=4, seed=1)
        key = a.key()
        assert a.key() == key == b.key()
        # the memo takes no part in equality, hashing or the dict form
        assert a == b and hash(a) == hash(b)
        assert "_key" not in a.to_dict() and repr(a) == repr(b)
        # ... and does not travel: a pickle carries the fields only
        c = pickle.loads(pickle.dumps(a))
        assert "_key" not in vars(c)
        assert c == a and c.key() == key
        # another version hashes afresh and leaves the memo alone
        other = a.key(version="other")
        assert other != key and a.key() == key
        assert RunConfig(app="lbmhd", nprocs=4, seed=1).key(
            version="other"
        ) == other

    def test_band_by_band_paratec_results_are_not_served(self):
        """PARATEC's eigensolver changed to all-band CG in 1.2.0: a
        cell cached by an earlier version must miss, not be served."""
        cfg = RunConfig(app="paratec", nprocs=4, steps=2,
                        params={"grid_shape": [16, 16, 16], "nbands": 8})
        assert cfg.key(version="1.1.0") != cfg.key()

    def test_json_round_trip(self):
        spec = CampaignSpec.from_json(json.dumps(TINY.to_dict()))
        assert spec == TINY
        assert [c.key() for c in spec.expand()] == [
            c.key() for c in TINY.expand()
        ]

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec"):
            CampaignSpec.from_dict({"name": "x", "apps": ["lbmhd"],
                                    "stepz": 3})
        with pytest.raises(ValueError, match="unknown RunConfig"):
            RunConfig.from_dict({"app": "lbmhd", "color": "red"})

    def test_non_json_param_values_rejected(self):
        with pytest.raises(TypeError, match="JSON-plain"):
            RunConfig(app="lbmhd", params={"shape": np.zeros(3)})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nprocs", "4"),
            ("nprocs", True),
            ("nprocs", 4.0),
            ("steps", 2.5),
            ("seed", "x"),
            ("repeats", None),
            ("trace", "yes"),
            ("trace", 1),
        ],
    )
    def test_wrongly_typed_fields_are_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"'{field}' must be"):
            RunConfig(app="lbmhd", **{field: value})
        with pytest.raises(TypeError, match=f"'{field}' must be"):
            RunConfig.from_dict({"app": "lbmhd", field: value})

    def test_numpy_integers_are_plain_ints(self):
        """A numpy integer is an integer: it is stored as ``int``, so the
        config, its key and its JSON form are those of the plain value."""
        cfg = RunConfig(app="lbmhd", nprocs=np.int64(4), steps=np.int32(2),
                        seed=np.uint8(7), repeats=np.int16(1))
        plain = RunConfig(app="lbmhd", nprocs=4, steps=2, seed=7)
        assert cfg == plain and cfg.key() == plain.key()
        assert all(type(v) is int for v in (cfg.nprocs, cfg.steps,
                                             cfg.seed, cfg.repeats))
        json.dumps(cfg.to_dict())


class TestWorker:
    def test_execute_config_returns_plain_dict(self):
        cfg = RunConfig(
            app="lbmhd", nprocs=4, steps=2, seed=0,
            params={"shape": [8, 8, 8]},
        )
        result = worker.execute_config(cfg)
        assert json.dumps(result)  # marshallable as-is
        assert result["wall_s"] > 0
        assert result["gflops"] > 0
        assert result["nprocs"] == 4
        assert "mass" in result["diagnostics"]
        assert {p["phase"] for p in result["phases"]} >= {
            "collision", "stream",
        }

    def test_params_coercion_handles_nested_dataclasses(self):
        params = worker.build_params(
            "fvcam",
            {"py": 2, "pz": 2, "grid": {"im": 24, "jm": 18, "km": 4}},
        )
        assert params.py == 2 and params.pz == 2
        assert (params.grid.im, params.grid.jm, params.grid.km) == (
            24, 18, 4,
        )
        lb = worker.build_params("lbmhd", {"shape": [8, 8, 8]})
        assert lb.shape == (8, 8, 8)

    def test_unknown_param_named_in_error(self):
        with pytest.raises(ValueError, match="bogus"):
            worker.build_params("lbmhd", {"bogus": 1})

    def test_seeded_config_is_deterministic(self):
        cfg = RunConfig(app="gtc", nprocs=4, steps=1, seed=3,
                        params={"particles_per_cell": 4})
        a = worker.execute_config(cfg)
        b = worker.execute_config(cfg)
        assert a["diagnostics"] == b["diagnostics"]


class TestCacheAndResume:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        manifest = tmp_path / "tiny.manifest.jsonl"
        cold = run_campaign(
            TINY, cache=cache, manifest=manifest, scheduler="serial"
        )
        assert (cold.hits, cold.misses, cold.failures) == (0, 4, 0)
        warm = run_campaign(
            TINY, cache=cache, manifest=manifest, scheduler="serial"
        )
        assert (warm.hits, warm.misses, warm.failures) == (4, 0, 0)
        # warm rows carry the cached measurements
        assert all(r.wall_s > 0 for r in warm.rows)
        status = summarize(manifest)
        assert status["complete"] and status["hits"] == 4

    @pytest.mark.parametrize(
        "junk",
        [b"\x00\xff not utf-8", b"{torn", b"[1, 2]", b'{"key": "k"}'],
        ids=["binary", "torn-json", "not-a-dict", "no-result"],
    )
    def test_unreadable_entry_is_a_miss(self, tmp_path, junk):
        cache = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", seed=0)
        path = cache._path(cfg.key())
        path.parent.mkdir(parents=True)
        path.write_bytes(junk)
        assert cache.get(cfg) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.put(cfg, {"wall_s": 1.0})
        assert cache.get(cfg) == {"wall_s": 1.0}

    def test_rerun_ignores_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_campaign(TINY, cache=cache, scheduler="serial")
        again = run_campaign(
            TINY, cache=cache, scheduler="serial", rerun=True
        )
        assert again.misses == 4 and again.hits == 0

    def test_rerun_counters_keep_gets_equal_hits_plus_misses(
        self, tmp_path
    ):
        """Regression: a forced rerun bypasses cache.get, so its puts
        used to persist with zero matching lookups — lifetime counters
        violated ``gets == hits + misses`` and status rendered a bogus
        hit rate.  Forced executions now count as misses and as a
        distinct ``reruns`` counter."""
        cache = ResultCache(tmp_path)
        run_campaign(TINY, cache=cache, scheduler="serial")
        run_campaign(TINY, cache=cache, scheduler="serial", rerun=True)
        life = ResultCache(tmp_path).lifetime_stats()
        assert life.as_dict() == {
            "hits": 0, "misses": 8, "puts": 8, "reruns": 4,
        }
        assert life.gets == life.hits + life.misses
        # and an uncached campaign books nothing extra
        run_campaign(TINY, cache=None, scheduler="serial", rerun=True)
        assert ResultCache(tmp_path).lifetime_stats().reruns == 4

    def test_lifetime_stats_read_only_appended_lines(self, tmp_path):
        """Each instance keeps a running fold per journal and parses
        only the lines appended since its last call; a torn tail waits
        for its newline, and ``clear()`` from any instance starts it
        over."""
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        journal = default_manifest_path(tmp_path, "j")
        manifest = Manifest(journal)
        key = RunConfig(app="lbmhd", seed=0).key()
        miss = {"event": "run-start", "key": key}
        put = {"event": "run-done", "key": key, "cached": False}
        hit = {"event": "run-done", "key": key, "cached": True}
        spec = CampaignSpec(name="j", apps=("lbmhd",))

        manifest.append(start_event(spec, 1, "serial"))
        manifest.append(miss)
        assert b.lifetime_stats() == CacheStats(misses=1)
        manifest.append(put)
        assert a.lifetime_stats() == CacheStats(misses=1, puts=1)

        # an event caught mid-append counts once its newline lands
        line = json.dumps(hit, sort_keys=True) + "\n"
        with journal.open("a") as fh:
            fh.write(line[:12])
        assert b.lifetime_stats() == CacheStats(misses=1, puts=1)
        with journal.open("a") as fh:
            fh.write(line[12:])
        assert b.lifetime_stats() == CacheStats(hits=1, misses=1, puts=1)

        # lines already counted are not parsed again: junk written over
        # the miss changes nothing for a reader past it, while a fresh
        # reader skips the junk line
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[1] = b"x" * (len(lines[1]) - 1) + b"\n"
        journal.write_bytes(b"".join(lines))
        assert b.lifetime_stats() == CacheStats(hits=1, misses=1, puts=1)
        assert ResultCache(tmp_path).lifetime_stats() == CacheStats(
            hits=1, puts=1
        )

        # clear() from another instance takes the journals with the
        # entries: what is gone reads as zero
        a.clear()
        assert not journal.exists()
        assert b.lifetime_stats() == CacheStats()
        # a journal re-created behind a reader's back, longer than what
        # it had read and perhaps on the same inode, is read from the
        # start: its campaign-start is not the one the reader saw
        manifest.append(start_event(spec, 1, "serial"))
        for _ in range(2):
            manifest.append(miss)
        assert b.lifetime_stats() == CacheStats(misses=2)
        read = journal.stat().st_size
        a.clear()
        manifest.append(start_event(spec, 1, "serial"))
        n = 0
        while journal.stat().st_size <= read:
            manifest.append(put)
            n += 1
        fresh = ResultCache(tmp_path).lifetime_stats()
        assert fresh.puts == n and fresh.misses == 0
        assert b.lifetime_stats() == fresh

    def test_lifetime_counts_only_journals_in_the_root(self, tmp_path):
        """A journal outside the cache root, or none, is the caller's
        choice: its traffic stays out of the root's lifetime counters,
        while the default journal in the root is folded."""
        root = tmp_path / "cache"
        outside = tmp_path / "elsewhere.manifest.jsonl"
        run_campaign(TINY, cache=root, manifest=outside, scheduler="serial")
        run_campaign(
            TINY, cache=root, manifest=NullManifest(), scheduler="serial",
            rerun=True,
        )
        cache = ResultCache(root)
        assert len(cache) == 4 and cache.journals() == []
        assert cache.lifetime_stats() == CacheStats()
        assert summarize(outside)["done"] == 4

        report = run_campaign(TINY, cache=root, scheduler="serial")
        assert report.hits == 4
        assert cache.journals() == [default_manifest_path(root, TINY.name)]
        assert cache.lifetime_stats() == CacheStats(hits=4)

    def test_rerun_is_booked_by_the_run_start_flag(self, tmp_path):
        """``rerun=True`` marks each ``run-start`` it journals; the
        fold books those as reruns (and misses), nothing else does."""
        run_campaign(TINY, cache=tmp_path, scheduler="serial")
        run_campaign(TINY, cache=tmp_path, scheduler="serial", rerun=True)
        starts = [
            e for e in read_events(default_manifest_path(tmp_path, "tiny"))
            if e["event"] == "run-start"
        ]
        assert [e.get("rerun", False) for e in starts] == [False] * 4 + [
            True
        ] * 4
        assert ResultCache(tmp_path).lifetime_stats().reruns == 4

    def test_two_processes_journaling_into_one_root_fold_to_the_sum(
        self, tmp_path
    ):
        """Two processes appending to one root's journals at once (one
        shared journal, one each of their own) fold to the sum of what
        each did."""
        import os
        import subprocess
        import sys

        import repro

        script = (
            "import json, sys\n"
            "from repro.campaign import CampaignSpec, ResultCache, "
            "run_campaign\n"
            "seeds, name = json.loads(sys.argv[1]), sys.argv[2]\n"
            "spec = CampaignSpec(name=name, apps=('lbmhd',), nprocs=(4,),"
            " seeds=tuple(seeds), params={'lbmhd': {'shape': [8, 8, 8]}})\n"
            "cache = ResultCache(sys.argv[3])\n"
            "for campaign in (spec, CampaignSpec.from_dict("
            "{**spec.to_dict(), 'name': 'shared'})):\n"
            "    run_campaign(campaign, cache=cache, scheduler='serial')\n"
            "print(json.dumps(cache.stats.as_dict()))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, json.dumps(seeds), name,
                 str(tmp_path)],
                stdout=subprocess.PIPE, env=env, text=True,
            )
            for seeds, name in (([0, 1], "first"), ([2, 3, 4], "second"))
        ]
        sessions = [json.loads(p.communicate(timeout=300)[0]) for p in procs]
        assert all(p.returncode == 0 for p in procs)
        total = {
            k: sum(s[k] for s in sessions) for k in sessions[0]
        }
        # each process: its seeds missed once, then hit in 'shared'
        assert total == {"hits": 5, "misses": 5, "puts": 5, "reruns": 0}
        cache = ResultCache(tmp_path)
        assert len(cache.journals()) == 3
        assert cache.lifetime_stats().as_dict() == total

    def test_result_the_cache_cannot_keep_fails_its_config(
        self, tmp_path, monkeypatch
    ):
        """The engine publishes every result; a publish that fails
        (disk full, read-only root) fails that config alone."""
        cache = ResultCache(tmp_path / "cache")

        def disk_full(config, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "put", disk_full)
        manifest = tmp_path / "m.jsonl"
        report = run_campaign(
            TINY, cache=cache, manifest=manifest, scheduler="serial"
        )
        assert report.failures == 4
        assert all("No space left" in r.error for r in report.rows)
        kinds = [e["event"] for e in read_events(manifest)]
        assert kinds.count("run-failed") == 4 and "run-done" not in kinds

    def test_failed_config_is_isolated(self, tmp_path):
        spec = CampaignSpec(
            name="mixed",
            apps=("lbmhd", "no-such-app"),
            nprocs=(4,),
            steps=1,
            params={"lbmhd": {"shape": [8, 8, 8]}},
        )
        report = run_campaign(spec, cache=tmp_path, scheduler="serial")
        assert report.failures == 1 and report.misses == 1
        assert not report.ok
        failed = [r for r in report.rows if not r.ok]
        assert "no-such-app" in (failed[0].error or "")
        # the good config is cached; the bad one is retried next time
        again = run_campaign(spec, cache=tmp_path, scheduler="serial")
        assert again.hits == 1 and again.failures == 1

    def test_killed_campaign_resumes_without_reexecution(
        self, tmp_path, monkeypatch
    ):
        """Acceptance: kill mid-flight, re-invoke, completed configs are
        served from the cache and never re-executed."""
        from repro.campaign import engine

        real = worker.execute_config
        executed: list[str] = []

        def dies_after_two(config):
            if len(executed) >= 2:
                raise KeyboardInterrupt  # the operator's Ctrl-C
            executed.append(config.app + str(config.seed))
            return real(config)

        monkeypatch.setattr(engine.worker, "execute_config", dies_after_two)
        # under the cache root, where its lifetime counters are folded
        manifest = tmp_path / "cache" / "killed.manifest.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                TINY, cache=tmp_path / "cache", manifest=manifest,
                scheduler="serial",
            )
        assert len(executed) == 2
        # both completions were published, and their run-done
        # journaled, before the kill
        assert ResultCache(tmp_path / "cache").lifetime_stats().puts == 2
        # the journal recorded the completions that happened
        partial = summarize(manifest)
        assert partial["done"] == 2 and not partial["complete"]

        monkeypatch.setattr(engine.worker, "execute_config", real)
        resumed = run_campaign(
            TINY, cache=tmp_path / "cache", manifest=manifest,
            scheduler="serial",
        )
        assert (resumed.hits, resumed.misses) == (2, 2)
        assert resumed.failures == 0
        final = summarize(manifest)
        assert final["complete"] and final["done"] == 4

    def test_cached_result_matches_fresh_execution(self, tmp_path):
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=2, seed=0,
                        params={"shape": [8, 8, 8]})
        spec = CampaignSpec(
            name="one", apps=("lbmhd",), nprocs=(4,), seeds=(0,),
            steps=2, params={"lbmhd": {"shape": [8, 8, 8]}},
        )
        run_campaign(spec, cache=tmp_path, scheduler="serial")
        cached = ResultCache(tmp_path).get(cfg)
        fresh = worker.execute_config(cfg)
        assert cached is not None
        assert cached["diagnostics"] == fresh["diagnostics"]

    def test_version_bump_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1,
                        params={"shape": [8, 8, 8]})
        cache.put(cfg, {"wall_s": 1.0})
        assert cache.get(cfg) is not None
        # a different version hashes to a different key -> miss
        other_key = cfg.key(version="999.0.0")
        assert other_key != cfg.key()
        assert not (cache.root / other_key[:2] / f"{other_key}.json").exists()

    def test_torn_cache_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
        path = cache.put(cfg, {"wall_s": 1.0})
        path.write_text('{"key": "truncat')  # torn write
        assert cache.get(cfg) is None

    def test_reput_result_replaces_the_one_an_instance_read(self, tmp_path):
        reader = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
        ResultCache(tmp_path).put(cfg, {"wall_s": 1.0})
        assert reader.get(cfg) == {"wall_s": 1.0}
        ResultCache(tmp_path).put(cfg, {"wall_s": 2.0})
        assert reader.get(cfg) == {"wall_s": 2.0}
        # a forced rerun through the engine, on the reading instance
        run_campaign(TINY, cache=reader, scheduler="serial")
        configs = TINY.expand()
        before = [reader.get(c) for c in configs]
        run_campaign(TINY, cache=reader, scheduler="serial", rerun=True)
        after = [reader.get(c) for c in configs]
        on_disk = [
            json.loads(reader._path(c.key()).read_text())["result"]
            for c in configs
        ]
        assert after == on_disk and after != before

    def test_clear_by_another_instance_is_a_miss(self, tmp_path):
        reader = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
        reader.put(cfg, {"wall_s": 1.0})
        assert reader.get(cfg) == {"wall_s": 1.0}
        assert ResultCache(tmp_path).clear() == 1
        assert reader.get(cfg) is None
        assert (reader.stats.hits, reader.stats.misses) == (1, 1)

    def test_entry_overwritten_in_place_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
        path = cache.put(cfg, {"wall_s": 1.0})
        assert cache.get(cfg) == {"wall_s": 1.0}
        size = path.stat().st_size
        with open(path, "r+b") as fh:  # same inode, new bytes and size
            fh.write(b"garbage")
            fh.truncate()
        assert path.stat().st_size != size
        assert cache.get(cfg) is None
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        cache.put(cfg, {"wall_s": 3.0})
        assert cache.get(cfg) == {"wall_s": 3.0}
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)

    def test_stale_tmp_files_are_invisible_and_swept(self, tmp_path):
        """Regression: a worker killed between ``mkstemp`` and
        ``os.replace`` leaves ``.{key[:8]}-*.tmp`` behind; those must
        never count as entries, and ``clear()`` must sweep them so
        shard dirs actually empty out."""
        cache = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)
        cache.put(cfg, {"wall_s": 1.0})
        shard = cache._path(cfg.key()).parent
        leaked = shard / f".{cfg.key()[:8]}-leak1.tmp"
        leaked.write_text('{"half": "writ')  # SIGKILL mid-write
        assert len(cache) == 1
        assert len(list(cache.entries())) == 1
        assert cache.sweep_tmp() == 1
        assert not leaked.exists()
        # clear() sweeps any new leak itself, and the shard dir goes
        leaked.write_text("x")
        assert cache.clear() == 1
        assert not leaked.exists()
        assert not shard.exists()
        assert len(cache) == 0

    def test_killed_put_leak_is_cleared(self, tmp_path, monkeypatch):
        """Simulate the kill window with injected exceptions: the
        rename never happens, the in-``put`` cleanup is also denied
        (as with SIGKILL there is no cleanup at all), and ``clear()``
        still leaves an empty cache root behind."""
        import os as _os

        cache = ResultCache(tmp_path)
        cfg = RunConfig(app="lbmhd", nprocs=4, steps=1)

        def killed_replace(src, dst):
            raise OSError("killed between mkstemp and replace")

        monkeypatch.setattr(_os, "replace", killed_replace)
        monkeypatch.setattr(
            _os, "unlink", lambda p: (_ for _ in ()).throw(OSError("dead"))
        )
        with pytest.raises(OSError):
            cache.put(cfg, {"wall_s": 1.0})
        monkeypatch.undo()
        shard = cache._path(cfg.key()).parent
        assert list(shard.glob("*.tmp"))  # the leak exists
        assert len(cache) == 0  # but is not an entry
        cache.clear()
        assert not shard.exists()


class TestManifest:
    def test_journal_records_every_event(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        run_campaign(
            TINY, cache=tmp_path / "c", manifest=manifest,
            scheduler="serial",
        )
        kinds = [e["event"] for e in read_events(manifest)]
        assert kinds[0] == "campaign-start"
        assert kinds[-1] == "campaign-end"
        assert kinds.count("run-done") == 4
        assert kinds.count("run-start") == 4

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(
            '{"event": "campaign-start", "name": "x", "total": 2}\n'
            '{"event": "run-done", "key": "k1", "cached": false}\n'
            '{"event": "run-sta'  # killed mid-append
        )
        s = summarize(manifest)
        assert s["done"] == 1 and s["total"] == 2
        assert not s["complete"]


class TestProcessScheduler:
    def test_processes_match_serial_results(self, tmp_path):
        serial = run_campaign(TINY, cache=None, scheduler="serial")
        procs = run_campaign(
            TINY, cache=None, scheduler=ProcessExecutor(2)
        )
        assert procs.failures == 0
        by_key_s = {r.key: r for r in serial.rows}
        by_key_p = {r.key: r for r in procs.rows}
        assert set(by_key_s) == set(by_key_p)
        for key, row in by_key_s.items():
            assert (
                row.result["diagnostics"]
                == by_key_p[key].result["diagnostics"]
            )

    def test_process_workers_publish_to_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = run_campaign(
            TINY, cache=cache, scheduler="processes:2"
        )
        assert report.misses == 4
        assert len(cache) == 4
        # the engine publishes through the caller's cache: its session
        # counters see every put the lifetime counters do
        assert cache.stats.puts == cache.lifetime_stats().puts == 4

    def test_communicator_accepts_capable_process_executor(self):
        """Since the shared-memory transport landed, a process executor
        is a first-class rank scheduler wherever the host supports it;
        only an incapable host still rejects the explicit spec."""
        from repro.runtime.executors import ProcessExecutor
        from repro.simmpi.comm import Communicator

        if ProcessExecutor(2).segment_support().ok:
            comm = Communicator(4, executor="processes:2")
            assert comm.executor.name == "processes"
        else:
            with pytest.raises(ValueError, match="cannot be used here"):
                Communicator(4, executor="processes:2")

    def test_communicator_rejects_process_executor_without_shm(
        self, monkeypatch
    ):
        from repro.simmpi.comm import Communicator

        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        with pytest.raises(ValueError, match="REPRO_SHM_DISABLE"):
            Communicator(4, executor="processes:2")

    def test_get_executor_parses_process_specs(self):
        assert get_executor("processes").name == "processes"
        assert get_executor("processes:3").workers == 3
        with pytest.raises(ValueError):
            get_executor("processes:zero")


class TestEveryAxisThroughTheEngine:
    """One spec axis each — machines, executors, kernel backends, and
    traced decompositions as explicit configs — swept by the engine:
    the axis changes what it should and never the physics."""

    def test_table3_machine_axis_as_campaign(self):
        """The machine models change the *virtual* elapsed time of one
        FVCAM step and leave the physics identical."""
        spec = CampaignSpec(
            name="table3-machines",
            apps=("fvcam",),
            machines=("ES", "Power3", None),
            nprocs=(8,),
            steps=1,
            params={
                "fvcam": {
                    "grid": {"im": 24, "jm": 18, "km": 4},
                    "py": 4,
                    "pz": 2,
                    "dt": 30.0,
                }
            },
        )
        report = run_campaign(spec, cache=None, scheduler="serial")
        assert report.ok, [r.error for r in report.rows if not r.ok]
        by_machine = {r.config.machine: r.result for r in report.rows}
        assert set(by_machine) == {"ES", "Power3", None}
        masses = {
            r["diagnostics"]["total_mass"] for r in by_machine.values()
        }
        assert len(masses) == 1  # machines never rewrite physics
        # modeled machines accrue virtual time; the ideal platform
        # runs free
        assert by_machine["ES"]["virtual_elapsed_s"] > 0
        assert by_machine["Power3"]["virtual_elapsed_s"] > 0
        assert by_machine[None]["virtual_elapsed_s"] >= 0

    def test_fig2_campaign_port_preserves_the_structure(self):
        """Figure 2's two traced decompositions as two cells: pure
        nearest-neighbor diagonals in 1-D, a lower total volume and
        more distinct partners (the transpose grid) in 2-D."""
        from repro.experiments.fig2 import Fig2Result

        ranks = 16
        configs = [
            RunConfig(
                app="fvcam",
                nprocs=ranks,
                steps=4,
                trace=True,
                params={
                    "grid": {"im": 24, "jm": 48, "km": 8},
                    "py": py,
                    "pz": pz,
                    "dt": 30.0,
                    "remap_interval": 4,
                },
            )
            for py, pz in ((ranks, 1), (ranks // 4, 4))
        ]
        report = run_campaign(
            CampaignSpec(name="fig2-decompositions", apps=("fvcam",)),
            configs=configs,
            cache=None,
            scheduler="serial",
        )
        assert report.ok, [r.error for r in report.rows if not r.ok]
        by_key = {r.key: r.result["trace_volume"] for r in report.rows}
        one_d, two_d = (np.asarray(by_key[c.key()]) for c in configs)
        result = Fig2Result(volume_1d=one_d, volume_2d=two_d)
        assert result.volume_1d.shape == (ranks, ranks)
        assert result.offdiagonal_offsets("1d") == [1]
        assert result.reduction > 1.0
        assert result.nonzero_pairs("2d") > result.nonzero_pairs("1d")

    def test_executor_axis_campaign_produces_all_cells(self):
        """Every executor cell completes, ``repeats`` produces that many
        samples, and diagnostics agree bitwise across executors (on a
        host without shared memory the processes cell degrades to
        serial and must still agree)."""
        spec = CampaignSpec(
            name="executor-axis",
            apps=("lbmhd",),
            nprocs=(8,),
            executors=("serial", "threads:4", "processes:2"),
            steps=2,
            repeats=2,
            params={"lbmhd": {"shape": [8, 8, 8]}},
        )
        report = run_campaign(spec, cache=None, scheduler="serial")
        assert report.ok, [r.error for r in report.rows if not r.ok]
        assert [r.config.executor for r in report.rows] == list(
            spec.executors
        )
        first = report.rows[0].result
        for row in report.rows:
            assert len(row.result["wall_samples_s"]) == 2
            assert row.result["diagnostics"] == first["diagnostics"]
