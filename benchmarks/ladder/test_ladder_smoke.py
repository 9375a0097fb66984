"""Smoke test of the ladder benchmark: ``pytest benchmarks/ladder -q``.

One ``--quick`` run of all four workloads (one short pass each) feeds
most assertions; the traced run is exercised by hand (README) because
its layer probes alone take about twenty seconds.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("ladder") / "result.json"
    proc = subprocess.run(
        [*RUN, "--quick", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines(), json.loads(out.read_text()), out


def test_every_workload_emits_the_contract_metrics(quick):
    lines, _report, _out = quick
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= len(WORKLOADS)
    assert list(final["metrics"]) == WORKLOADS
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for name, metrics in final["metrics"].items():
        assert {k: v["unit"] for k, v in metrics.items()} == wanted, name
        assert all(v["value"] > 0 for v in metrics.values()), name


def test_names_are_well_formed_and_setup_is_listed():
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads")
             for m in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert "setup_s" in names
    assert CONTRACT["paths"] == ["benchmarks/ladder"]


def test_nothing_is_left_behind(quick):
    lines, report, _out = quick
    assert "leaked_procs=0 leaked_shm=0" in lines
    assert report["leaked_procs"] == 0 and report["leaked_shm"] == 0
    assert not list((ROOT / ".ladder").glob("work-*"))


def test_result_ingests_into_perfdb_as_it_is(quick):
    from repro.perfdb.ingest import ingest_path

    _lines, report, out = quick
    records = ingest_path(out)
    assert len(records) == len(report["records"]) > len(WORKLOADS)
    assert {r.bench for r in records} == set(WORKLOADS)
    assert all(r.wall_s > 0 and r.host and r.version for r in records)


def test_sigterm_mid_pass_leaves_no_process():
    proc = subprocess.Popen(
        [*RUN, "--workload", "predict_warm", "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    time.sleep(3.0)  # the service is up and being filled or queried
    proc.send_signal(signal.SIGTERM)
    stdout, _ = proc.communicate(timeout=60)
    assert proc.returncode == 128 + signal.SIGTERM
    assert "leaked_procs=0 leaked_shm=0" in stdout
    mark = f"work-{proc.pid}"
    survivors = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            if mark.encode() in cmdline:
                survivors.append(entry)
    assert not survivors
    assert not (ROOT / ".ladder" / mark).exists()


def test_corrupted_reference_fails_that_class_only(tmp_path, monkeypatch):
    import workloads

    workload = workloads.SolverSerial(
        workloads.Ctx(seed=0, seconds=0.3, workdir=tmp_path)
    )
    reference = workload.reference

    def corrupted(cls, steps):
        good = reference(cls, steps)
        return ("0" * 64, *good[1:]) if cls == "lbmhd" else good

    monkeypatch.setattr(workload, "reference", corrupted)
    workload.run()
    result = workload.result()
    assert list(result["bad_classes"]) == ["lbmhd"]
    by_class: dict[str, set] = {}
    for cls, _ms, ok, _traced, _slow in result["ops"]:
        by_class.setdefault(cls, set()).add(ok)
    assert by_class.pop("lbmhd") == {False}  # failed_frac == 1
    assert by_class and all(oks == {True} for oks in by_class.values())


def test_busy_idle_tree_fails_the_pass(tmp_path):
    import threading

    import workloads

    workload = workloads.SolverSerial(
        workloads.Ctx(seed=0, seconds=0.3, workdir=tmp_path)
    )
    workload.check_idle()
    assert not workload.problems
    stop = threading.Event()

    def spin() -> None:
        while not stop.is_set():
            pass

    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        workload.check_idle()
    finally:
        stop.set()
        spinner.join(timeout=10)
    assert not spinner.is_alive()
    assert workload.idle_cpu_frac > workloads.IDLE_CPU_MAX
    assert any("idle process tree" in m for m in workload.problems)


def test_only_logged_segments_are_counted_and_removed(tmp_path):
    from multiprocessing import shared_memory

    import procs
    import workloads

    with workloads.LoggedPool(tmp_path) as pool:
        pool.allocate(16)
        logged = (tmp_path / "shm.log").read_text().split()
        assert logged == list(pool.handles().segments)
    stranger = shared_memory.SharedMemory(create=True, size=64)
    try:
        # the pool unlinked its slab on close: nothing of ours is left,
        # and a segment nobody logged is not ours to count or remove
        assert procs.remove_shm(logged) == 0
        assert Path("/dev/shm", stranger.name).exists()
        assert procs.remove_shm([stranger.name]) == 1
        assert not Path("/dev/shm", stranger.name).exists()
    finally:
        stranger.close()
        procs.remove_shm([stranger.name])
