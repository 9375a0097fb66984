"""The ``repro-campaign`` command: run / status / clean round trips."""

from __future__ import annotations

import json

import pytest

from repro.campaign.cli import main

SPEC = {
    "name": "cli-smoke",
    "apps": ["lbmhd", "gtc"],
    "nprocs": [4],
    "seeds": [0, 1],
    "steps": 1,
    "params": {
        "lbmhd": {"shape": [8, 8, 8]},
        "gtc": {"particles_per_cell": 4},
    },
}


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SPEC))
    return path


def _run(spec_file, tmp_path, *extra):
    return main(
        ["run", str(spec_file), "--cache-dir", str(tmp_path / "cache"),
         "--scheduler", "serial", *extra]
    )


class TestRun:
    def test_cold_then_warm_round_trip(
        self, spec_file, tmp_path, capsys
    ):
        assert _run(spec_file, tmp_path, "--json") == 0
        captured = capsys.readouterr()
        cold = json.loads(captured.out)
        assert cold["misses"] == 4 and cold["hits"] == 0
        # live progress went to stderr, one line per config
        assert captured.err.count("miss") == 4

        assert _run(spec_file, tmp_path, "--json") == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["hits"] == 4 and warm["misses"] == 0

    def test_table_output_lists_every_config(
        self, spec_file, tmp_path, capsys
    ):
        assert _run(spec_file, tmp_path, "--quiet") == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-smoke': 4 config(s)" in out
        rows = [line for line in out.splitlines() if "seed=" in line]
        assert len(rows) == 4
        assert all("miss" in line for line in rows)
        assert "4 miss(es), 0 failure(s)" in out
        assert "Gflop/s" in out

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert _run(tmp_path / "nope.json", tmp_path) == 2
        assert "no such spec file" in capsys.readouterr().err

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "apps": ["lbmhd"], "stepz": 3}')
        assert _run(bad, tmp_path) == 2
        assert "bad spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("nprocs", ["4"]), ("steps", 2.5), ("trace", "yes")]
    )
    def test_wrongly_typed_spec_exits_2(
        self, tmp_path, capsys, field, value
    ):
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(dict(SPEC, **{field: value})))
        assert _run(bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert "bad spec" in err and f"'{field}' must be" in err
        assert not (tmp_path / "cache").exists()  # nothing ran

    def test_bad_scheduler_exits_2(self, spec_file, tmp_path, capsys):
        assert main(
            ["run", str(spec_file), "--cache-dir", str(tmp_path),
             "--scheduler", "fibers"]
        ) == 2
        assert "fibers" in capsys.readouterr().err

    def test_failing_config_exits_1_but_runs_the_rest(
        self, tmp_path, capsys
    ):
        spec = dict(SPEC, name="mixed", apps=["lbmhd", "no-such-app"])
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(spec))
        assert _run(path, tmp_path, "--json") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failures"] == 2  # two seeds of the bad app
        assert report["misses"] == 2  # the good app still ran

    def test_rerun_ignores_cache(self, spec_file, tmp_path, capsys):
        assert _run(spec_file, tmp_path) == 0
        capsys.readouterr()
        assert _run(spec_file, tmp_path, "--rerun", "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["misses"] == 4 and report["hits"] == 0


class TestStatusAndClean:
    def test_status_reads_the_journal(self, spec_file, tmp_path, capsys):
        assert _run(spec_file, tmp_path, "--quiet") == 0
        capsys.readouterr()
        assert main(
            ["status", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-smoke' [complete]" in out
        assert "4/4 done" in out

    def test_status_json(self, spec_file, tmp_path, capsys):
        assert _run(spec_file, tmp_path, "--quiet") == 0
        capsys.readouterr()
        assert main(
            ["status", "--cache-dir", str(tmp_path / "cache"), "--json"]
        ) == 0
        s = json.loads(capsys.readouterr().out)
        assert s["complete"] and s["done"] == 4

    def test_status_without_journal_exits_2(self, tmp_path, capsys):
        assert main(["status", "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no manifest found" in err
        assert f"{tmp_path}/*.manifest.jsonl" in err

    def test_status_with_missing_explicit_manifest_exits_2(
        self, tmp_path, capsys
    ):
        gone = tmp_path / "gone.manifest.jsonl"
        assert main(["status", str(gone)]) == 2
        err = capsys.readouterr().err
        assert "no manifest found" in err and str(gone) in err

    def test_status_with_empty_manifest_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.manifest.jsonl"
        empty.write_text("")
        assert main(["status", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "empty manifest" in err and str(empty) in err

    def test_status_surfaces_cache_counters(
        self, spec_file, tmp_path, capsys
    ):
        # cold run then warm run: 4 misses + 4 puts, then 4 hits
        assert _run(spec_file, tmp_path, "--quiet") == 0
        assert _run(spec_file, tmp_path, "--quiet") == 0
        capsys.readouterr()
        cache_dir = str(tmp_path / "cache")
        assert main(["status", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert f"cache {cache_dir}: 4 entries" in out
        assert "lifetime 4 hit(s), 4 miss(es), 4 put(s)" in out

        assert main(["status", "--cache-dir", cache_dir, "--json"]) == 0
        s = json.loads(capsys.readouterr().out)
        assert s["cache"]["entries"] == 4
        assert s["cache"]["lifetime"] == {
            "hits": 4, "misses": 4, "puts": 4, "reruns": 0,
        }

    def test_clean_empties_cache_and_journals(
        self, spec_file, tmp_path, capsys
    ):
        assert _run(spec_file, tmp_path, "--quiet") == 0
        capsys.readouterr()
        assert main(
            ["clean", "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        out = capsys.readouterr().out
        assert "removed 4 cached result(s) and 1 manifest(s)" in out
        # everything really is gone: the next run is cold again
        assert _run(spec_file, tmp_path, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["misses"] == 4
