"""Tests for the per-phase time breakdown layer."""

from __future__ import annotations

import pytest

from repro.apps.fvcam import FVCAMScenario
from repro.apps.gtc import GTCScenario
from repro.apps.lbmhd import LBMHDScenario
from repro.apps.paratec import ParatecScenario
from repro.experiments.common import AT_256
from repro.machines.catalog import MACHINES
from repro.perfmodel import model_of, phase_breakdown


class TestPhaseBreakdown:
    def test_unknown_app(self):
        with pytest.raises(KeyError):
            phase_breakdown("hpl", None, "ES")

    def test_totals_are_sums(self):
        bd = phase_breakdown("gtc", GTCScenario(256, 400), "ES")
        assert bd.total_seconds == pytest.approx(
            sum(bd.compute.values()) + sum(bd.comm.values())
        )

    def test_fractions_sum_to_one(self):
        bd = phase_breakdown("fvcam", FVCAMScenario(256, 4), "ES")
        total = sum(
            bd.fraction(p) for p in (*bd.compute, *bd.comm)
        )
        assert total == pytest.approx(1.0)

    def test_unknown_phase(self):
        bd = phase_breakdown("lbmhd", LBMHDScenario(512, 256), "ES")
        with pytest.raises(KeyError):
            bd.fraction("warp drive")

    def test_render_mentions_phases(self):
        bd = phase_breakdown("paratec", ParatecScenario(256), "ES")
        text = bd.render()
        assert "BLAS3" in text and "FFT transposes" in text


@pytest.mark.parametrize("machine", sorted(MACHINES))
@pytest.mark.parametrize("app", sorted(AT_256))
def test_breakdown_is_the_prediction_split_by_phase(app, machine):
    # the compute phases share out the predictor's compute time —
    # register demand and FVCAM's OpenMP/imbalance adjustment included
    scenario = AT_256[app]
    t_comp, t_comm = model_of(app).step_time(MACHINES[machine], scenario)
    bd = phase_breakdown(app, scenario, machine)
    assert bd.compute_seconds == pytest.approx(t_comp, rel=1e-12)
    assert bd.comm_seconds == t_comm


class TestPaperPhaseClaims:
    def test_gtc_is_particle_dominated(self):
        # "the computational work directly involving the particles
        # accounts for almost 85% of the overhead"
        bd = phase_breakdown("gtc", GTCScenario(64, 100), "ES")
        particle = bd.fraction("charge deposition") + bd.fraction(
            "gather + push"
        )
        assert particle > 0.80

    def test_paratec_is_library_dominated(self):
        # "Much of the computation time (typically 60%) involves FFTs
        # and BLAS3 routines"
        bd = phase_breakdown("paratec", ParatecScenario(128), "Power3")
        lib = bd.fraction("BLAS3 (subspace)") + bd.fraction("3D FFT")
        assert lib > 0.55

    def test_paratec_comm_is_transposes_and_grows(self):
        # "The global data transposes within these FFT operations
        # account for the bulk of PARATEC's communication overhead, and
        # can quickly become the bottleneck at high concurrencies."
        small = phase_breakdown("paratec", ParatecScenario(128), "ES")
        large = phase_breakdown("paratec", ParatecScenario(2048), "ES")
        assert large.comm_fraction > 2 * small.comm_fraction

    def test_fvcam_polar_filter_hurts_vector_machines_more(self):
        es = phase_breakdown("fvcam", FVCAMScenario(256, 4), "ES")
        opteron_like = phase_breakdown(
            "fvcam", FVCAMScenario(256, 4), "Power3"
        )
        assert es.fraction("polar filter") > opteron_like.fraction(
            "polar filter"
        )

    def test_lbmhd_single_kernel(self):
        bd = phase_breakdown("lbmhd", LBMHDScenario(512, 256), "ES")
        assert bd.fraction("collide+stream") > 0.8

    def test_gtc_allreduce_grows_with_particle_decomposition(self):
        # "As the number of processors involved in this decomposition
        # increases, the overhead due to these reduction operations
        # increases as well."
        small = phase_breakdown("gtc", GTCScenario(64, 100), "ES")
        large = phase_breakdown("gtc", GTCScenario(2048, 3200), "ES")
        assert (
            large.comm["charge Allreduce"]
            > small.comm["charge Allreduce"]
        )
