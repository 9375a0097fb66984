"""Sustained-performance estimation: roofline, Amdahl, calibration, reports."""

from .breakdown import PhaseBreakdown, phase_breakdown
from .amdahl import effective_rate, required_vector_fraction, speedup_limit
from .efficiency import (
    RESIDUAL_BAND,
    all_calibrations,
    get_calibration,
    set_calibration,
)
from .predict import APPS, AppModel, model_of
from .report import PerfResult, ResultTable, relative_to
from .roofline import Bound, Roofline, vector_length_roof
from .sensitivity import (
    SUPPORTED_PARAMS,
    app_rate_function,
    elasticity,
    perturb,
    sensitivity_profile,
)

__all__ = [
    "APPS",
    "AppModel",
    "Bound",
    "PerfResult",
    "PhaseBreakdown",
    "RESIDUAL_BAND",
    "SUPPORTED_PARAMS",
    "ResultTable",
    "Roofline",
    "all_calibrations",
    "app_rate_function",
    "effective_rate",
    "elasticity",
    "get_calibration",
    "model_of",
    "perturb",
    "phase_breakdown",
    "relative_to",
    "required_vector_fraction",
    "sensitivity_profile",
    "set_calibration",
    "speedup_limit",
    "vector_length_roof",
]
