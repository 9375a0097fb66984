"""Request validation: JSON bodies in, typed configs (or errors) out.

The service's wire format is deliberately thin: a ``POST /v1/predict``
body is exactly the JSON form of a
:class:`~repro.campaign.spec.RunConfig` (app x machine x P x executor
x seed x params ...) plus one transport knob,
``wait`` — so a request *is* a campaign cell, shares the campaign's
SHA-256 content key, and therefore shares its cache entries and its
in-flight coalescing identity for free.

Validation happens here, before anything is queued: an unknown app,
machine or executor, an unknown field, a field of the wrong type
(``"nprocs": "4"``, ``"steps": 2.5``), or a ``params`` body the app
rejects (an unknown parameter, ``"tau": 0.4``) is a client error (HTTP
400 naming it, with the choices listed where there are choices), never
a failed job discovered minutes later in a worker process.
"""

from __future__ import annotations

from typing import Any

from ..campaign.spec import RunConfig
from ..campaign.worker import build_params
from ..harness.apps import APPLICATIONS
from ..machines.catalog import MACHINES, get_machine
from ..runtime.executors import get_executor


class ApiError(Exception):
    """A client-visible request error with its HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def parse_predict(body: Any) -> tuple[RunConfig, bool]:
    """Validate a ``/v1/predict`` body into ``(config, wait)``.

    ``wait`` (default ``True``) keeps the HTTP request open until the
    prediction resolves; ``False`` returns ``202`` with a job id to
    poll/stream via ``GET /v1/jobs/<id>``.
    """
    if not isinstance(body, dict):
        raise ApiError(400, "request body must be a JSON object")
    body = dict(body)
    wait = body.pop("wait", True)
    if not isinstance(wait, bool):
        raise ApiError(400, "'wait' must be a boolean")
    if not body.get("app"):
        raise ApiError(
            400,
            "'app' is required; available: "
            + ", ".join(sorted(APPLICATIONS)),
        )
    try:
        config = RunConfig.from_dict(body)
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"bad predict request: {exc}") from None
    _validate_config(config)
    return config, wait


def _validate_config(config: RunConfig) -> None:
    """Reject axis values the campaign worker would choke on."""
    if config.app not in APPLICATIONS:
        raise ApiError(
            400,
            f"unknown application {config.app!r}; available: "
            + ", ".join(sorted(APPLICATIONS)),
        )
    if config.machine is not None:
        try:
            get_machine(config.machine)
        except KeyError:
            raise ApiError(
                400,
                f"unknown machine {config.machine!r}; available: "
                + ", ".join(sorted(MACHINES)),
            ) from None
    try:
        get_executor(config.executor)
    except (TypeError, ValueError) as exc:
        raise ApiError(400, str(exc)) from None
    if config.nprocs is not None and config.nprocs < 1:
        raise ApiError(400, "'nprocs' must be >= 1")
    # the worker builds the same params: an unknown or invalid one
    # (an unstable relaxation time, say) fails here, not in the job
    try:
        build_params(config.app, config.params_dict())
    except (TypeError, ValueError) as exc:
        raise ApiError(400, f"bad params for {config.app!r}: {exc}") from None
