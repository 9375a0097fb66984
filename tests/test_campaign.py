"""Campaign engine: expansion, hashing, caching, journaling, resume."""

from __future__ import annotations

import json

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
from repro.campaign.manifest import read_events
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

        real = worker.run_and_cache
        executed: list[str] = []

        def dies_after_two(job):
            if len(executed) >= 2:
                raise KeyboardInterrupt  # the operator's Ctrl-C
            executed.append(job[0]["app"] + str(job[0]["seed"]))
            return real(job)

        monkeypatch.setattr(engine.worker, "run_and_cache", dies_after_two)
        manifest = tmp_path / "killed.manifest.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                TINY, cache=tmp_path / "cache", manifest=manifest,
                scheduler="serial",
            )
        assert len(executed) == 2
        # the journal recorded the completions that happened
        partial = summarize(manifest)
        assert partial["done"] == 2 and not partial["complete"]

        monkeypatch.setattr(engine.worker, "run_and_cache", real)
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

    def test_kernel_backend_axis_campaign_produces_all_cells(self):
        """apps x every registered kernel backend: each cell completes
        and a backend never changes an app's diagnostics."""
        from repro.kernels import (
            NumPyBackend,
            backend_names,
            register_backend,
            unregister_backend,
        )

        class _Reference(NumPyBackend):
            """The numpy kernels under a second name."""

            name = "reference"

        apps = ("lbmhd", "gtc", "paratec")
        register_backend("reference", _Reference)
        try:
            backends = tuple(backend_names())
            assert len(backends) >= 2
            spec = CampaignSpec(
                name="backend-axis",
                apps=apps,
                kernel_backends=backends,
                steps=1,
                seeds=(0,),
                params={"lbmhd": {"shape": [16, 16, 16]}},
            )
            report = run_campaign(spec, cache=None, scheduler="serial")
        finally:
            unregister_backend("reference")
        assert report.ok, [r.error for r in report.rows if not r.ok]
        cells = {
            (r.config.app, r.config.kernel_backend): r.result
            for r in report.rows
        }
        assert set(cells) == {
            (app, backend) for app in apps for backend in backends
        }
        for (app, _), result in cells.items():
            assert result["wall_s"] > 0
            assert result["diagnostics"] == cells[app, "numpy"]["diagnostics"]
