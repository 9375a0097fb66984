"""Parameter sensitivity of the modeled application rates.

The paper's analysis is a chain of such claims — "this is due to the
memory access speed", "due in part to superior scalar processor
performance and memory bandwidth", "would certainly increase GTC
performance" — and this module lets us make them quantitative: the
*elasticity* of an application's modeled rate with respect to any
machine parameter,

    elasticity = (d rate / rate) / (d param / param)

evaluated by central differences on perturbed :class:`MachineSpec`
records.  An elasticity near 1 means the resource binds the code; near
0 means it is slack.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from ..machines.spec import MachineSpec
from .predict import model_of

#: Parameter paths supported by :func:`perturb`: either a MachineSpec
#: field or a dotted path into a nested spec ("vector.gather_bw_fraction").
SUPPORTED_PARAMS = (
    "peak_gflops",
    "stream_bw_gbs",
    "mpi_latency_us",
    "mpi_bw_gbs",
    "blas3_efficiency",
    "vector.gather_bw_fraction",
    "vector.scalar_ratio",
    "vector.register_length",
    "scalar.gather_bw_fraction",
    "scalar.issue_efficiency",
)


def perturb(spec: MachineSpec, param: str, factor: float) -> MachineSpec:
    """A copy of ``spec`` with one parameter scaled by ``factor``."""
    if factor <= 0:
        raise ValueError("perturbation factor must be positive")
    if "." in param:
        group_name, field = param.split(".", 1)
        group = getattr(spec, group_name)
        if group is None:
            raise ValueError(f"{spec.name} has no {group_name!r} block")
        value = getattr(group, field)
        new_group = replace(group, **{field: type(value)(value * factor)})
        return replace(spec, **{group_name: new_group})
    value = getattr(spec, param)
    return replace(spec, **{param: value * factor})


def elasticity(
    rate_of: Callable[[MachineSpec], float],
    spec: MachineSpec,
    param: str,
    delta: float = 0.05,
) -> float:
    """Log-log derivative of ``rate_of`` w.r.t. one machine parameter.

    ``rate_of`` maps a (possibly perturbed) spec to a modeled rate;
    central differences at ``1 +- delta``.
    """
    if not 0 < delta < 0.5:
        raise ValueError("delta must be in (0, 0.5)")
    up = rate_of(perturb(spec, param, 1.0 + delta))
    down = rate_of(perturb(spec, param, 1.0 - delta))
    base = rate_of(spec)
    if base <= 0:
        raise ValueError("base rate must be positive")
    return (up - down) / (2.0 * delta * base)


def app_rate_function(app: str, scenario) -> Callable[[MachineSpec], float]:
    """Rate(spec) for one application scenario (Gflop/P, uncalibrated).

    Calibration residuals are intentionally excluded: sensitivities
    describe the first-principles model.
    """
    model = model_of(app)
    return lambda spec: model.rate(spec, scenario)


def sensitivity_profile(
    app: str, scenario, spec: MachineSpec, params: tuple[str, ...] | None = None
) -> dict[str, float]:
    """Elasticities of one app/machine/scenario over a parameter set.

    Parameters inapplicable to the machine family are skipped.
    """
    rate = app_rate_function(app, scenario)
    out: dict[str, float] = {}
    for param in params or SUPPORTED_PARAMS:
        group = param.split(".", 1)[0] if "." in param else None
        if group and getattr(spec, group) is None:
            continue
        out[param] = elasticity(rate, spec, param)
    return out
