"""The unified measurement stack: RunRecord + perfdb store/ingest/trend.

Covers the ISSUE-mandated contracts:

* the tracked ``perf_history.jsonl`` (the measurements of PR 1–10,
  one ``BENCH_PRn.json`` source tag per PR) ingests into 42 canonical
  records, pinned per source against a frozen table;
* the two accepted record shapes (``{"records": [...]}`` JSON and
  record JSONL) yield equal records;
* torn / empty campaign manifests are tolerated;
* regression detection flags a synthetic 2x slowdown while passing the
  repository's real performance trajectory;
* the store deduplicates and round-trips through JSONL.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.perfdb import (
    PerfDB,
    RunRecord,
    TrendPolicy,
    detect_regressions,
    filter_records,
    ingest_path,
    inject_slowdown,
    pivot,
    records_from_cache,
    records_from_manifest,
    records_from_report,
    series_trends,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
HISTORY = REPO_ROOT / "perf_history.jsonl"

#: source tag -> (pr, records, sum(wall_s), host, cpu_count), taken when
#: the history was frozen; the file must keep saying exactly this
FROZEN = {
    "BENCH_PR1.json": (1, 6, 0.489592465, None, None),
    "BENCH_PR2.json": (2, 8, 0.570105156, None, None),
    "BENCH_PR3.json": (3, 2, 0.28617359, None, 1),
    "BENCH_PR4.json": (4, 2, 1.750096776, None, 1),
    "BENCH_PR5.json": (5, 3, 2.479405529, None, 1),
    "BENCH_PR6.json": (6, 3, 1.565558086, None, 1),
    "BENCH_PR7.json": (7, 12, 0.229060273, "vm", 1),
    "BENCH_PR9.json": (9, 4, 2.540217713, "vm", 1),
    "BENCH_PR10.json": (10, 2, 4.005025548, "vm", 1),
}
#: the sources whose file recorded a speedup target it could not enforce
#: on its 1-core host, and the key that said so
UNENFORCED = {
    "BENCH_PR3.json": "enforced",
    "BENCH_PR5.json": "speedup_enforced",
    "BENCH_PR6.json": "enforced",
    "BENCH_PR10.json": "enforced",
}
SOURCES = sorted(FROZEN)

SMOKE_SPEC = CampaignSpec(
    name="perfdb-smoke",
    apps=("lbmhd",),
    nprocs=(4,),
    seeds=(0,),
    steps=2,
    params={"lbmhd": {"shape": [8, 8, 8]}},
)


def _record(**kw) -> RunRecord:
    base = dict(
        app="lbmhd", bench="unit", variant="fast", nprocs=4,
        steps=2, wall_s=1.0, gflops=2.0, source="BENCH_PR1.json", pr=1,
    )
    base.update(kw)
    return RunRecord(**base)


# -- the frozen history (the real tracked file) ----------------------------


def _trajectory() -> list[RunRecord]:
    return ingest_path(HISTORY)


def _from_source(source: str) -> list[RunRecord]:
    return [r for r in _trajectory() if r.source == source]


def test_all_tracked_bench_files_present():
    records = _trajectory()
    assert len(records) == 42
    assert {r.source for r in records} == set(FROZEN)


@pytest.mark.parametrize("source", SOURCES)
def test_every_legacy_bench_schema_adapts(source):
    # what each era's adapter produced, now pinned as data: record
    # count, total wall-clock and the host facts the file carried
    pr, count, wall_sum, host, cpu_count = FROZEN[source]
    records = _from_source(source)
    assert len(records) == count
    assert sum(r.wall_s for r in records) == pytest.approx(
        wall_sum, rel=0, abs=1e-9
    )
    for r in records:
        assert (r.pr, r.host, r.cpu_count) == (pr, host, cpu_count)
        if source in UNENFORCED:
            target = r.extra_dict()["target"]
            assert target[UNENFORCED[source]] is False
            assert target["min_cores"] == 4


@pytest.mark.parametrize("source", SOURCES)
def test_every_tracked_bench_file_ingests(source):
    records = _from_source(source)
    assert records, f"{source} produced no records"
    for r in records:
        assert isinstance(r, RunRecord)
        assert r.pr == FROZEN[source][0]
        assert r.wall_s >= 0.0
        assert r.bench and r.app
        # round trip through the canonical dict form
        assert RunRecord.from_dict(r.to_dict()) == r


def test_schema_sniffing_distinguishes_all_eras(tmp_path):
    # no sniffing left: the two accepted record shapes, a
    # {"records": [...]} JSON payload and record JSONL, are one format
    records = _trajectory()
    payload = tmp_path / "history.json"
    payload.write_text(
        json.dumps({"records": [r.to_dict() for r in records]})
    )
    assert ingest_path(payload) == records
    lines = tmp_path / "history.jsonl"
    lines.write_text(
        "".join(json.dumps(r.to_dict()) + "\n" for r in records)
    )
    assert ingest_path(lines) == records


def test_records_payloads_bypass_sniffing(tmp_path):
    # a payload's other top-level keys are ignored, and records that
    # carry no provenance take source and PR tag from the file name
    bare = [
        {**r.to_dict(), "source": "", "pr": None}
        for r in _from_source("BENCH_PR1.json")
    ]
    path = tmp_path / "BENCH_PR1.json"
    path.write_text(json.dumps({"config": {"ranks": 32}, "records": bare}))
    assert ingest_path(path) == _from_source("BENCH_PR1.json")


def test_full_trajectory_spans_eras_and_pivots():
    db = PerfDB()
    total = db.add(_trajectory())
    assert total == len(db.all()) == 42
    assert set(db.distinct("pr")) == {1, 2, 3, 4, 5, 6, 7, 9, 10}
    # the ISSUE acceptance pivot: gflops by app x executor x backend
    view = pivot(
        db.all(), rows=("app",), cols=("executor", "kernel_backend"),
        value="gflops", agg="best",
    )
    assert view.cells
    assert "lbmhd" in {row[0] for row, _ in view.cells}
    rendered = view.render()
    assert "lbmhd" in rendered


# -- store semantics -------------------------------------------------------


def test_store_deduplicates_on_content(tmp_path):
    db = PerfDB(tmp_path / "perf.db")
    records = _from_source("BENCH_PR1.json")
    assert db.add(records) == len(records)
    assert db.add(records) == 0  # identical content: no new rows
    assert len(db.all()) == len(records)
    db.close()


def test_store_persists_and_queries(tmp_path):
    path = tmp_path / "perf.db"
    with PerfDB(path) as db:
        db.add([_record(pr=1), _record(pr=2, wall_s=1.1),
                _record(app="gtc", pr=2)])
    with PerfDB(path) as db:
        assert len(db.all()) == 3
        assert [r.pr for r in db.all()] == [1, 2, 2]  # trajectory order
        assert len(db.query(app="lbmhd")) == 2
        assert len(db.query(app=["lbmhd", "gtc"], pr=2)) == 2
        assert db.sources() == {"BENCH_PR1.json": 3}


def test_jsonl_round_trip(tmp_path):
    db = PerfDB()
    db.add(_trajectory())
    out = tmp_path / "records.jsonl"
    n = db.export_jsonl(out)
    assert n == len(db.all()) == 42

    db2 = PerfDB()
    assert db2.import_jsonl(out) == n
    assert db2.all() == db.all()

    # a torn trailing line (writer died mid-append) is skipped
    torn = tmp_path / "torn.jsonl"
    torn.write_text(out.read_text() + '{"app": "lb')
    db3 = PerfDB()
    assert db3.import_jsonl(torn) == n


def test_query_is_filter_records_over_all():
    """One filter: ``query`` matches a ``None`` in an IN-list, as
    ``repro-perfdb query --where pr=none,1`` does."""
    db = PerfDB()
    db.add([_record(pr=None), _record(pr=1, wall_s=1.1),
            _record(pr=2, wall_s=1.2)])
    both = db.query(pr=[None, 1])
    assert both == filter_records(db.all(), pr=[None, 1])
    assert [r.pr for r in both] == [1, None]
    assert db.distinct("pr") == [None, 1, 2]


def test_store_drops_a_torn_last_line_and_appends_after_it(tmp_path):
    path = tmp_path / "perf.db"
    records = [_record(pr=pr, wall_s=1.0 + pr) for pr in (1, 2, 3)]
    with PerfDB(path) as db:
        db.add(records)
    data = path.read_bytes()
    path.write_bytes(data[:-20])  # the writer died mid-line
    with PerfDB(path) as db:
        assert db.all() == records[:2]
        assert db.add(records + [_record(pr=4)]) == 2
    with PerfDB(path) as db:
        assert db.all() == records + [_record(pr=4)]
    lines = path.read_text().splitlines()
    assert [RunRecord.from_dict(json.loads(line)) for line in lines] == (
        records + [_record(pr=4)]
    )


def test_store_refuses_an_sqlite_perfdb(tmp_path, capsys):
    """A ``perf.db`` written by the SQLite-backed store is refused, left
    as it is, and named with the way forward."""
    import sqlite3

    from repro.perfdb.cli import main

    path = tmp_path / "perf.db"
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("CREATE TABLE records (uid TEXT PRIMARY KEY)")
    conn.close()
    data = path.read_bytes()
    assert data.startswith(b"SQLite format 3\0")
    with pytest.raises(ValueError, match="re-ingest its sources"):
        PerfDB(path)
    assert main(["check", str(path)]) == 2
    assert "re-ingest its sources" in capsys.readouterr().err
    assert path.read_bytes() == data


def test_store_keeps_a_last_record_without_its_newline(tmp_path):
    path = tmp_path / "perf.db"
    records = [_record(pr=pr, wall_s=1.0 + pr) for pr in (1, 2)]
    path.write_text(
        "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in records)
    )
    with PerfDB(path) as db:
        assert db.all() == records
        assert db.add(_record(pr=3)) == 1
    with PerfDB(path) as db:
        assert db.all() == records + [_record(pr=3)]


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"records": [_record().to_dict()]}, indent=1),
        json.dumps({"records": [_record().to_dict()]}),
        '{"event": "campaign-start", "name": "c"}\n',
        "notes, not records",
    ],
    ids=["pretty-payload", "one-line-payload", "manifest", "text"],
)
def test_store_refuses_a_file_that_is_not_record_jsonl(tmp_path, text):
    """Naming a source where the store belongs leaves the source as it is."""
    path = tmp_path / "result.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="not a perfdb record"):
        PerfDB(path)
    assert path.read_text() == text


def test_store_file_is_an_ingest_source(tmp_path):
    path = tmp_path / "perf.db"
    with PerfDB(path) as db:
        db.add(_trajectory())
    assert ingest_path(path) == _trajectory()


# -- campaign manifests ----------------------------------------------------


def test_fresh_manifest_ingests_with_host_provenance(tmp_path):
    manifest = tmp_path / "smoke.manifest.jsonl"
    report = run_campaign(
        SMOKE_SPEC, cache=None, manifest=manifest, scheduler="serial"
    )
    assert report.ok
    records = records_from_manifest(manifest)
    assert len(records) == len(SMOKE_SPEC.expand())
    for r in records:
        assert r.app == "lbmhd"
        assert r.nprocs == 4
        assert r.host, "fresh journals must carry the hostname"
        assert r.cpu_count
        assert r.version
        assert r.key
    # the report-side emission agrees on identity
    direct = records_from_report(report, source=manifest.name)
    assert {r.series_key() for r in direct} == {
        r.series_key() for r in records
    }


@pytest.mark.filterwarnings("ignore:executor 'processes':RuntimeWarning")
def test_degraded_cell_is_filed_under_the_executor_that_ran(
    tmp_path, monkeypatch
):
    """Without shared memory a ``processes:2`` cell runs serial
    (``harness.run`` degrades it), so every source files it as serial;
    a cell that ran as asked keeps its spec."""
    monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
    spec = CampaignSpec(
        name="degraded",
        apps=("lbmhd",),
        executors=("processes:2", "threads:2"),
        steps=1,
        params={"lbmhd": {"shape": [8, 8, 8]}},
    )
    manifest = tmp_path / "degraded.manifest.jsonl"
    cache = tmp_path / "cache"
    report = run_campaign(
        spec, cache=cache, manifest=manifest, scheduler="serial"
    )
    assert report.ok
    ran = {"processes:2": "serial", "threads:2": "threads:2"}
    for records in (
        records_from_manifest(manifest),
        records_from_report(report),
        records_from_cache(cache),
    ):
        by_label = {r.variant: r.executor for r in records}
        assert by_label == {
            row.config.label: ran[row.config.executor] for row in report.rows
        }


def _with_kernel_backend(event: dict) -> dict:
    """An event as a journal written before the kernel-backend knob
    left would hold it: every embedded config names ``numpy``, and the
    campaign's spec sweeps ``kernel_backends``."""
    event = dict(event)
    if isinstance(event.get("config"), dict):
        event["config"] = {**event["config"], "kernel_backend": "numpy"}
    if isinstance(event.get("spec"), dict):
        event["spec"] = {**event["spec"], "kernel_backends": ["numpy"]}
    return event


def test_journals_and_caches_naming_a_kernel_backend_still_ingest(tmp_path):
    """Manifests and cache entries that carry ``kernel_backend`` (and a
    ``campaign-start`` spec with ``kernel_backends``) ingest into the
    very records today's do."""
    manifest = tmp_path / "now" / "smoke.manifest.jsonl"
    cache = tmp_path / "now" / "cache"
    manifest.parent.mkdir()
    report = run_campaign(
        SMOKE_SPEC, cache=cache, manifest=manifest, scheduler="serial"
    )
    assert report.ok

    old_manifest = tmp_path / "old" / manifest.name
    old_manifest.parent.mkdir()
    lines = manifest.read_text().splitlines()
    old_manifest.write_text("".join(
        json.dumps(_with_kernel_backend(json.loads(line))) + "\n"
        for line in lines
    ))
    assert '"kernel_backends": ["numpy"]' in old_manifest.read_text()
    old_cache = tmp_path / "old" / "cache"
    for entry in sorted(cache.glob("*/*.json")):
        target = old_cache / entry.relative_to(cache)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(_with_kernel_backend(json.loads(entry.read_text())))
        )

    now = records_from_manifest(manifest)
    assert len(now) == len(SMOKE_SPEC.expand())
    assert records_from_manifest(old_manifest) == now
    cached = records_from_cache(cache)
    assert len(cached) == len(SMOKE_SPEC.expand())
    assert records_from_cache(old_cache) == cached
    assert {r.kernel_backend for r in now + cached} == {"numpy"}


def test_empty_and_torn_manifests_tolerated(tmp_path):
    empty = tmp_path / "empty.manifest.jsonl"
    empty.write_text("")
    assert records_from_manifest(empty) == []

    manifest = tmp_path / "torn.manifest.jsonl"
    run_campaign(
        SMOKE_SPEC, cache=None, manifest=manifest, scheduler="serial"
    )
    text = manifest.read_text()
    # chop mid-way through the final line
    manifest.write_text(text[: len(text) - 25])
    records = records_from_manifest(manifest)  # must not raise
    assert isinstance(records, list)


# -- regression detection --------------------------------------------------


def test_real_trajectory_is_regression_free():
    findings = detect_regressions(_trajectory())
    assert findings == [], [f.describe() for f in findings]


def test_synthetic_2x_slowdown_is_flagged():
    # the CI shape: legacy trajectory plus a freshly measured point
    # that carries host provenance (as every new emission does)
    fresh = _record(bench="fresh", pr=8, host="ci-runner", cpu_count=8)
    records = _trajectory() + [fresh]
    poisoned = inject_slowdown(records, factor=2.0)
    assert len(poisoned) > len(records)
    findings = detect_regressions(poisoned)
    assert findings, "a 2x same-host slowdown must be flagged"
    for f in findings:
        assert f.ratio == pytest.approx(2.0, rel=1e-6)
        assert f.same_host
        assert f.ratio >= f.threshold
        assert f.after.source == "synthetic-slowdown"


def test_injection_needs_host_identity_to_use_tight_threshold():
    # hostless records (every pre-perfdb measurement) only get the
    # loose cross-host bar — absolute wall-clock across unknown
    # machines is not a regression signal at 2x...
    legacy = [_record(host=None, cpu_count=None)]
    assert detect_regressions(inject_slowdown(legacy, factor=2.0)) == []
    # ...but a big enough cross-host jump still trips
    assert detect_regressions(inject_slowdown(legacy, factor=4.0))


def test_same_host_pairs_use_the_tight_threshold():
    a = _record(pr=1, host="ci", cpu_count=8)
    b = replace(a, pr=2, wall_s=a.wall_s * 1.9)  # 1.9x, same host
    assert detect_regressions([a, b])  # 1.9 > 1.8 same-host ratio
    # identical slowdown across hosts stays under the loose 3.0x bar
    c = replace(b, host="other")
    assert detect_regressions([a, c]) == []
    # unknown hosts (legacy records) also get the loose bar
    d = replace(b, host=None, cpu_count=None)
    assert detect_regressions([replace(a, host=None, cpu_count=None), d]) \
        == []


def test_noise_floor_suppresses_micro_timings():
    a = _record(wall_s=2e-4, pr=1, host="ci", cpu_count=8)
    b = replace(a, pr=2, wall_s=8e-4)  # 4x but both under 1 ms
    policy = TrendPolicy()
    assert detect_regressions([a, b], policy) == []


def test_series_trends_orders_by_pr():
    records = [
        _record(pr=3, wall_s=3.0), _record(pr=1, wall_s=1.0),
        _record(pr=2, wall_s=2.0),
    ]
    (t,) = series_trends(records)
    assert len(t["points"]) == 3
    assert [p["wall_per_step"] for p in t["points"]] == [0.5, 1.0, 1.5]
    assert t["net_ratio"] == pytest.approx(3.0)


# -- query layer -----------------------------------------------------------


def test_pivot_aggregations():
    rows = [
        _record(gflops=1.0), _record(gflops=3.0, pr=2),
        _record(app="gtc", gflops=2.0),
    ]
    best = pivot(rows, rows=("app",), value="gflops", agg="best")
    assert best.cells[(("lbmhd",), ())] == 3.0  # best = max for rates
    worst = pivot(rows, rows=("app",), value="wall_s", agg="best")
    assert worst.cells[(("lbmhd",), ())] == 1.0  # best = min for times
    count = pivot(rows, rows=("app",), value="gflops", agg="count")
    assert count.cells[(("gtc",), ())] == 1

    with pytest.raises(ValueError):
        pivot(rows, rows=("nope",))
    with pytest.raises(ValueError):
        pivot(rows, value="nope")


def test_record_identity_and_uid():
    a, b = _record(), _record()
    assert a == b and a.uid() == b.uid()
    assert a.series_key() == b.series_key()
    c = _record(wall_s=9.9)
    assert c.uid() != a.uid()
    assert c.series_key() == a.series_key()  # same series, new point
    assert _record(executor="threads:4").series_key() != a.series_key()


def test_with_provenance_fills_only_unset_fields():
    r = _record(host=None, cpu_count=None, version=None)
    filled = r.with_provenance(host="ci", cpu_count=4, version="1.1.0")
    assert (filled.host, filled.cpu_count, filled.version) == \
        ("ci", 4, "1.1.0")
    kept = filled.with_provenance(host="other", version="9.9.9")
    assert kept.host == "ci" and kept.version == "1.1.0"
