"""Tests for the experiment modules that regenerate tables and figures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    fig3,
    fig4,
    fig8,
    paper_data,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)
from repro.experiments.common import mean_abs_deviation


class TestTable1:
    def test_seven_platforms(self):
        rows = table1.run()
        assert len(rows) == 7
        assert [r["Platform"] for r in rows] == [
            "Power3", "Itanium2", "Opteron", "X1", "X1E", "ES", "SX-8",
        ]

    def test_render_contains_key_numbers(self):
        text = table1.render()
        assert "26.3" in text  # ES stream bandwidth
        assert "4d-hypercube" in text


class TestTable2:
    def test_four_applications(self):
        rows = table2.run()
        assert [r["Name"] for r in rows] == [
            "FVCAM", "LBMHD3D", "PARATEC", "GTC",
        ]

    def test_render(self):
        assert "gyrophase-averaged Vlasov-Poisson" in table2.render()


@pytest.mark.parametrize(
    "module,threshold",
    [(table3, 0.30), (table4, 0.15), (table5, 0.15), (table6, 0.25)],
)
def test_tables_reproduce_paper_within_band(module, threshold):
    """The mean relative deviation from the published cells is small."""
    cells = module.run()
    assert mean_abs_deviation(cells) < threshold


@pytest.mark.parametrize("module", [table3, table4, table5, table6])
def test_tables_cover_all_published_cells(module):
    cells = module.run()
    published = [c for c in cells.values() if c.paper_gflops is not None]
    assert len(published) >= 20


class TestFig3:
    def test_series_decline(self):
        data = fig3.run()
        for machine, series in data.items():
            assert series[0][1] > series[-1][1]

    def test_es_leads(self):
        data = fig3.run()
        for k in range(len(fig3.SERIES)):
            best = max(data, key=lambda m: data[m][k][1])
            assert best == "ES"

    def test_render(self):
        assert "ES" in fig3.render()


class TestFig4:
    def test_rates_positive_and_x1e_peaks(self):
        data = fig4.run()
        best = max(
            (rate, m) for m, series in data.items() for _, _, rate in series
        )
        assert best[1] == "X1E"
        assert best[0] == pytest.approx(
            paper_data.HEADLINES["fvcam_x1e_672_simdays"], rel=0.25
        )

    def test_only_published_cells_evaluated(self):
        data = fig4.run()
        n_points = sum(len(s) for s in data.values())
        n_published = sum(len(v) for v in paper_data.TABLE3.values())
        assert n_points == n_published


class TestFig8:
    def test_structure(self):
        data = fig8.run()
        assert set(data) == {"fvcam", "gtc", "lbmhd", "paratec"}
        assert "Opteron" not in data["fvcam"]  # unavailable in the paper
        assert "Opteron" in data["gtc"]

    def test_es_normalization(self):
        data = fig8.run()
        for app in data:
            assert data[app]["ES"]["relative_to_es"] == pytest.approx(1.0)

    def test_es_highest_pct_everywhere(self):
        data = fig8.run()
        for app, rows in data.items():
            best = max(rows, key=lambda m: rows[m]["pct_peak"])
            assert best == "ES", app

    def test_sx8_fastest_absolute_on_three_apps(self):
        # "The SX-8 does achieve the highest per-processor performance
        # for LBMHD3D, GTC, and PARATEC"
        data = fig8.run()
        for app in ("gtc", "lbmhd", "paratec"):
            rows = data[app]
            best = max(rows, key=lambda m: rows[m]["gflops"])
            assert best == "SX-8", app


class TestRunnerRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "fig2", "fig3", "fig4", "fig8", "whatif", "breakdown", "validate",
            "figviz", "modelcard", "roofline", "ipm", "chaos",
        }

    @pytest.mark.parametrize(
        "name", ["table1", "table2", "table3", "table4", "table5", "table6",
                 "fig3", "fig4", "fig8"]
    )
    def test_render_produces_text(self, name):
        text = EXPERIMENTS[name].render()
        assert isinstance(text, str) and len(text) > 100

    def test_cli_main(self, capsys):
        from repro.experiments.runner import main

        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "LBMHD3D" in out

    def test_cli_list(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_module_entry_point_runs_without_a_runpy_warning(self):
        """``python -m repro.experiments`` is the module form of the
        CLI: the package does not import it first, so runpy has nothing
        to warn about (``-m repro.experiments.runner`` did)."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.experiments", "--list"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert set(proc.stdout.split()) >= set(EXPERIMENTS)

    def test_cli_json(self, capsys):
        import json

        from repro.experiments.runner import main

        assert main(["--json", "table2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"table2"}
        assert "LBMHD3D" in out["table2"]

    def test_cli_unknown_name_exits_nonzero(self, capsys):
        from repro.experiments.runner import main

        assert main(["no-such-experiment"]) != 0
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "no-such-experiment" in err

    def test_cli_failing_experiment_does_not_abort_batch(
        self, capsys, monkeypatch
    ):
        """One raising experiment: the rest still run, the failure goes
        to stderr, and the exit status is nonzero."""
        import types

        from repro.experiments import runner

        def boom():
            raise RuntimeError("synthetic mid-batch failure")

        broken = types.SimpleNamespace(render=boom, __doc__="broken stub")
        monkeypatch.setitem(runner.EXPERIMENTS, "broken", broken)

        assert runner.main(["table2", "broken", "table1"]) == 1
        captured = capsys.readouterr()
        assert "LBMHD3D" in captured.out          # table2 ran
        assert "Power3" in captured.out           # table1 ran after it
        assert "broken failed" in captured.err
        assert "synthetic mid-batch failure" in captured.err
        assert "1 of 3 experiment(s) failed" in captured.err

    def test_cli_json_failure_emits_complete_object(
        self, capsys, monkeypatch
    ):
        """--json with a mid-batch failure still prints one well-formed
        object containing every successful experiment."""
        import json
        import types

        from repro.experiments import runner

        def boom():
            raise ValueError("nope")

        broken = types.SimpleNamespace(render=boom, __doc__="broken stub")
        monkeypatch.setitem(runner.EXPERIMENTS, "broken", broken)

        assert runner.main(["--json", "table2", "broken", "table1"]) == 1
        captured = capsys.readouterr()
        out = json.loads(captured.out)  # parses: complete, not partial
        assert set(out) == {"table2", "table1"}
        assert "nope" in captured.err

    def test_chaos_fail_exits_nonzero(self, capsys, monkeypatch):
        """A faulted run that does not match its fault-free twin is a
        failed experiment, not a FAIL line in a zero-exit report."""
        from repro.experiments import chaos, runner
        from repro.resilience import RecoveryStats

        def case(app, identical):
            return chaos.ChaosCase(
                app=app, nprocs=4, steps=6, identical=identical,
                clean_elapsed=1.0, faulted_elapsed=1.5, recovery_s=0.5,
                stats=RecoveryStats().as_dict(),
            )

        monkeypatch.setattr(
            chaos, "compute",
            lambda quick=False: [case("lbmhd", True), case("gtc", False)],
        )
        assert runner.main(["chaos", "--quick"]) == 1
        captured = capsys.readouterr()
        assert "chaos failed" in captured.err
        assert "bitwise — FAIL" in captured.err
        assert "gtc" in captured.err and "NO" in captured.err

    def test_cli_accepts_capable_process_executor(self, capsys):
        """Process executors schedule rank segments wherever the host
        supports fork + POSIX shared memory; a host (or env toggle)
        without them gets a clear error pointing at the alternatives."""
        from repro.experiments.runner import main
        from repro.runtime.executors import ProcessExecutor

        if ProcessExecutor(2).segment_support().ok:
            assert main(["--executor", "processes", "table2"]) == 0
            assert "LBMHD3D" in capsys.readouterr().out
        else:
            assert main(["--executor", "processes", "table2"]) == 2
            assert "--jobs" in capsys.readouterr().err

    def test_cli_rejects_process_executor_without_shm(
        self, capsys, monkeypatch
    ):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
        assert main(["--executor", "processes", "table2"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_SHM_DISABLE" in err and "--jobs" in err

    def test_cli_puts_back_the_defaults_it_found(self, capsys):
        """--executor/--backend scope to the invocation: whatever default
        was installed before is installed again after."""
        from repro.experiments.runner import main
        from repro.kernels import (
            BACKENDS,
            NumPyBackend,
            register_backend,
            unregister_backend,
        )
        from repro.runtime import EXECUTORS

        class _Outer(NumPyBackend):
            name = "outer"

        assert main(["--executor", "threads:2", "table2"]) == 0
        assert EXECUTORS.default() is None
        register_backend("outer", _Outer)
        try:
            with EXECUTORS.scoped("threads:3"), BACKENDS.scoped("outer"):
                args = [
                    "--executor", "serial", "--backend", "numpy", "table2"
                ]
                assert main(args) == 0
                # validating a name installs nothing, so a rejected
                # --backend cannot disturb the outer scoped default
                assert main(["--backend", "fortran", "table2"]) == 2
                assert "'fortran'" in capsys.readouterr().err
                assert EXECUTORS.default() == "threads:3"
                assert BACKENDS.default() == "outer"
        finally:
            unregister_backend("outer")
        assert EXECUTORS.default() is None
        assert BACKENDS.default() is None

    def test_cli_jobs_batches_across_processes(self, capsys):
        from repro.experiments.runner import main

        assert main(["--jobs", "2", "--json", "table2", "table1"]) == 0
        import json

        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"table1", "table2"}
        assert "LBMHD3D" in out["table2"]


class TestMeanAbsDeviation:
    def test_empty_cells_is_nan(self):
        import math

        assert math.isnan(mean_abs_deviation({}))

    def test_cells_without_ratios_is_nan(self):
        import math

        class Cell:
            ratio = None

        assert math.isnan(mean_abs_deviation({"a": Cell(), "b": None}))

    def test_nonempty_mean(self):
        class Cell:
            def __init__(self, ratio):
                self.ratio = ratio

        cells = {"a": Cell(1.1), "b": Cell(0.9)}
        assert mean_abs_deviation(cells) == pytest.approx(0.1)
