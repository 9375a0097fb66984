"""The ``repro-perfdb`` command: ingest / query / check / report / export."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.perfdb.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY = REPO_ROOT / "perf_history.jsonl"


@pytest.fixture
def db_path(tmp_path):
    return tmp_path / "perf.db"


@pytest.fixture
def loaded_db(db_path):
    rc = main(["ingest", str(db_path), "--quiet", str(HISTORY)])
    assert rc == 0
    return db_path


@pytest.fixture
def manifest(tmp_path):
    path = tmp_path / "smoke.manifest.jsonl"
    spec = CampaignSpec(
        name="perfdb-cli-smoke",
        apps=("lbmhd",),
        nprocs=(4,),
        seeds=(0,),
        steps=2,
        params={"lbmhd": {"shape": [8, 8, 8]}},
    )
    report = run_campaign(
        spec, cache=None, manifest=path, scheduler="serial"
    )
    assert report.ok
    return path


def test_ingest_reports_per_source_counts(db_path, capsys):
    rc = main(["ingest", str(db_path), str(HISTORY)])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"{HISTORY}: 42 new record(s)" in out
    assert "(42 new, 9 source(s))" in out
    # a re-ingest is idempotent: same sources, zero new records
    rc = main(["ingest", str(db_path), str(HISTORY)])
    assert rc == 0
    assert "0 new record(s) (42 already present)" in capsys.readouterr().out


def test_ingest_manifest_and_missing_source(db_path, manifest, capsys):
    assert main(["ingest", str(db_path), str(manifest)]) == 0
    assert "1 new record(s)" in capsys.readouterr().out
    assert main(["ingest", str(db_path), "no-such-file.json"]) == 2


@pytest.mark.parametrize(
    "text,complaint",
    [
        ("[1, 2]", "top level is a list"),
        # the shape of every pre-ladder result file: sections, no records
        ('{"config": {}, "lbmhd_step_loop": {}}',
         "no 'records' list among top-level keys config, lbmhd_step_loop"),
        ('{"records": [{"app": "lbmhd", "bench": "b"}, {"app": 3}]}',
         "records[1] is not a RunRecord"),
        ('{"records": [7]}', "records[0] is not a RunRecord"),
        ('{"records": [{"app": "a", "bench": "b", "walls": 1}]}',
         "unknown RunRecord field(s): walls"),
        ('{"records": ', "bad source"),
    ],
    ids=["not-an-object", "no-records", "missing-field", "not-a-dict",
         "unknown-field", "torn-json"],
)
def test_ingest_names_what_is_wrong_with_a_bad_json_source(
    db_path, tmp_path, capsys, text, complaint
):
    bad = tmp_path / "x.json"
    bad.write_text(text)
    assert main(["ingest", str(db_path), str(bad)]) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()  # one line, not a traceback
    assert line.startswith(f"repro-perfdb: bad source {bad}: ")
    assert complaint in line
    assert "x.json" in line
    assert "0 new" in out  # nothing from the file reached the store


def test_ingest_reads_a_payload_by_content_not_name(db_path, tmp_path,
                                                   capsys):
    records = [json.loads(line) for line in HISTORY.read_text().splitlines()]
    payload = tmp_path / "r.out"
    payload.write_text(json.dumps({"records": records}, indent=1))
    assert main(["ingest", str(db_path), str(payload)]) == 0
    assert "42 new record(s)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "data,complaint",
    [
        (b"garbage\nmore garbage\n", "line 1 is not a perfdb record"),
        (b'{"records": ', "no record, records payload or campaign event"),
        (b"SQLite format 3\0\xdf\x00", "re-ingest its sources"),
    ],
    ids=["text", "torn-payload", "sqlite"],
)
def test_ingest_refuses_a_bad_source_whatever_its_name(
    db_path, tmp_path, capsys, data, complaint
):
    bad = tmp_path / "x.txt"
    bad.write_bytes(data)
    assert main(["ingest", str(db_path), str(bad)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"repro-perfdb: bad source {bad}: ")
    assert complaint in line


def test_ingest_into_a_source_by_mistake_writes_nothing(tmp_path, capsys):
    """Leaving out the db argument names a payload as the store: the
    command fails and the payload keeps every byte."""
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"records": []}, indent=1))
    before = result.read_bytes()
    assert main(["ingest", str(result), str(HISTORY)]) == 2
    assert "not a perfdb record" in capsys.readouterr().err
    assert result.read_bytes() == before


def test_query_renders_the_acceptance_pivot(loaded_db, capsys):
    rc = main([
        "query", str(loaded_db),
        "--rows", "app", "--cols", "executor,kernel_backend",
        "--value", "gflops", "--agg", "best",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lbmhd" in out and "serial" in out


def test_query_where_filter_and_json(loaded_db, capsys):
    rc = main([
        "query", str(loaded_db), "--where", "app=lbmhd",
        "--rows", "bench,variant", "--value", "wall_per_step",
        "--agg", "min", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "wall_per_step"
    assert payload["cells"]
    assert main(
        ["query", str(loaded_db), "--where", "malformed"]
    ) == 2
    assert main(
        ["query", str(loaded_db), "--rows", "not_a_field"]
    ) == 2


def test_check_passes_real_trajectory(loaded_db, capsys):
    assert main(["check", str(loaded_db)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_check_flags_injected_slowdown(loaded_db, manifest, capsys):
    # the fresh manifest point carries host identity, so its injected
    # 2x copy forms a same-host pair and must trip the check
    assert main(["ingest", str(loaded_db), str(manifest), "--quiet"]) == 0
    rc = main(["check", str(loaded_db), "--inject-slowdown", "2.0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "2.00x slower" in out

    rc = main([
        "check", str(loaded_db), "--inject-slowdown", "2.0", "--json",
    ])
    assert rc == 1
    findings = json.loads(capsys.readouterr().out)
    assert findings["regressions"]
    assert all(f["same_host"] for f in findings["regressions"])


def test_check_threshold_overrides(loaded_db):
    # the real trajectory's worst cross-host step is ~1.85x; tightening
    # the cross-host bar below that must turn the check red
    assert main(
        ["check", str(loaded_db), "--cross-host-ratio", "1.5", "--quiet"]
    ) == 1
    assert main(
        ["check", str(loaded_db), "--cross-host-ratio", "5.0"]
    ) == 0


def test_report_renders_all_views(loaded_db, capsys):
    assert main(["report", str(loaded_db)]) == 0
    out = capsys.readouterr().out
    for heading in ("trend", "shootout", "phases", "roofline"):
        assert f"== {heading} ==" in out, f"missing {heading} view"
    assert main(["report", str(loaded_db), "--kind", "trend"]) == 0
    assert "trajectory" in capsys.readouterr().out


def test_export_round_trips(loaded_db, tmp_path, capsys):
    out = tmp_path / "dump.jsonl"
    assert main(["export", str(loaded_db), str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert lines
    db2 = tmp_path / "again.db"
    assert main(["ingest", str(db2), str(out), "--quiet"]) == 0
    assert main(["check", str(db2)]) == 0
    # identical record count after the round trip
    first = json.loads(lines[0])
    assert "app" in first and "wall_s" in first


def test_console_script_is_registered():
    import tomllib

    meta = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert (
        meta["project"]["scripts"]["repro-perfdb"]
        == "repro.perfdb.cli:main"
    )
