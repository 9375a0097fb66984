"""Campaign specs and the hashable run configurations they expand into.

A :class:`CampaignSpec` names the sweep axes (apps x machines x P x
executor x seeds), plus shared knobs (steps, repeats, trace, per-app
parameter overrides).  :meth:`CampaignSpec.expand` takes the cross
product and returns one :class:`RunConfig` per cell.

``RunConfig`` is frozen and hashable; :meth:`RunConfig.key` is the
cache identity — a SHA-256 over the canonical JSON form of the config
*plus the package version*, so results computed by one version of the
solvers are never served to another.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass, field, fields
from itertools import product
from typing import Any, Iterable, Mapping

from .. import __version__


def _freeze(value: Any) -> Any:
    """Recursively convert JSON-plain values to hashable equivalents."""
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"campaign parameter values must be JSON-plain "
        f"(str/int/float/bool/None/list/dict), got {type(value).__name__}"
    )


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze`: back to JSON-plain dicts/lists."""
    if isinstance(value, tuple):
        if all(
            isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str)
            for v in value
        ):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


def freeze_params(params: Mapping[str, Any] | None) -> tuple:
    """Normalize a parameter-override mapping to its frozen form."""
    if not params:
        return ()
    return _freeze(dict(params))


@dataclass(frozen=True)
class RunConfig:
    """One cell of a campaign: everything one ``harness.run`` needs.

    ``params`` is the frozen form of a JSON-plain override mapping
    applied on top of the application's ``default_params()`` (see
    ``repro.campaign.worker``); use :meth:`params_dict` to read it.
    ``executor`` is the *rank-level* executor used inside the run —
    campaign-level scheduling across configs is the engine's business,
    not the config's.
    """

    app: str
    nprocs: int | None = None
    steps: int = 1
    machine: str | None = None
    executor: str = "serial"
    seed: int | None = None
    params: tuple = ()
    trace: bool = False
    repeats: int = 1

    def __post_init__(self) -> None:
        for name in ("nprocs", "steps", "seed", "repeats"):
            value = getattr(self, name)
            if value is None and name in ("nprocs", "seed"):
                continue
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise TypeError(
                    f"{name!r} must be an integer, got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        if not isinstance(self.trace, bool):
            raise TypeError(f"'trace' must be a boolean, got {self.trace!r}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        object.__setattr__(self, "params", _freeze(self.params_dict()))

    def params_dict(self) -> dict[str, Any]:
        thawed = _thaw(self.params) if self.params else {}
        return thawed if isinstance(thawed, dict) else dict(self.params)

    def to_dict(self) -> dict[str, Any]:
        return {
            "app": self.app,
            "nprocs": self.nprocs,
            "steps": self.steps,
            "machine": self.machine,
            "executor": self.executor,
            "seed": self.seed,
            "params": self.params_dict(),
            "trace": self.trace,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"unknown RunConfig field(s): {', '.join(unknown)}"
            )
        kwargs = dict(d)
        kwargs["params"] = freeze_params(kwargs.get("params"))
        return cls(**kwargs)

    def key(self, version: str = __version__) -> str:
        """Content hash identifying this config's cached result.

        The key for the running package version is computed once per
        instance and memoized outside the dataclass fields, so it
        takes no part in equality, hashing, :meth:`to_dict` or
        pickling; any other ``version`` is hashed afresh.
        """
        memo = version == __version__
        if memo and "_key" in self.__dict__:
            return self.__dict__["_key"]
        canon = json.dumps(
            {"config": self.to_dict(), "version": version},
            sort_keys=True,
            separators=(",", ":"),
        )
        key = hashlib.sha256(canon.encode()).hexdigest()
        if memo:
            object.__setattr__(self, "_key", key)
        return key

    def __getstate__(self) -> dict[str, Any]:
        # the key memo stays behind: a receiver on another package
        # version must hash for itself
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        bits = [self.app]
        if self.machine:
            bits.append(f"@{self.machine}")
        if self.nprocs is not None:
            bits.append(f" P={self.nprocs}")
        bits.append(f" x{self.steps}")
        if self.executor != "serial":
            bits.append(f" {self.executor}")
        if self.seed is not None:
            bits.append(f" seed={self.seed}")
        if self.repeats > 1:
            bits.append(f" r{self.repeats}")
        return "".join(bits)


@dataclass(frozen=True)
class CampaignSpec:
    """The declarative sweep: axes crossed by :meth:`expand`.

    ``params`` maps an app key to its override mapping (applied to every
    config of that app); apps absent from it run on defaults.  A
    ``None`` entry in ``machines`` is the ideal (cost-free) platform; a
    ``None`` in ``nprocs`` is the app's default concurrency.
    """

    name: str
    apps: tuple[str, ...]
    machines: tuple[str | None, ...] = (None,)
    nprocs: tuple[int | None, ...] = (None,)
    executors: tuple[str, ...] = ("serial",)
    seeds: tuple[int | None, ...] = (None,)
    steps: int = 1
    repeats: int = 1
    trace: bool = False
    params: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("a campaign needs at least one app")
        for axis in (
            "apps", "machines", "nprocs", "executors", "seeds",
        ):
            object.__setattr__(self, axis, tuple(getattr(self, axis)))
        object.__setattr__(self, "params", _freeze(self.params_mapping()))

    def params_mapping(self) -> dict[str, dict[str, Any]]:
        thawed = _thaw(self.params) if self.params else {}
        return thawed if isinstance(thawed, dict) else {}

    def expand(self) -> list[RunConfig]:
        """Cross the axes into one :class:`RunConfig` per cell."""
        overrides = self.params_mapping()
        return [
            RunConfig(
                app=app,
                nprocs=p,
                steps=self.steps,
                machine=machine,
                executor=executor,
                seed=seed,
                params=freeze_params(overrides.get(app)),
                trace=self.trace,
                repeats=self.repeats,
            )
            for app, machine, p, executor, seed in product(
                self.apps, self.machines, self.nprocs,
                self.executors, self.seeds,
            )
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "apps": list(self.apps),
            "machines": list(self.machines),
            "nprocs": list(self.nprocs),
            "executors": list(self.executors),
            "seeds": list(self.seeds),
            "steps": self.steps,
            "repeats": self.repeats,
            "trace": self.trace,
            "params": self.params_mapping(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "CampaignSpec":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ValueError(
                f"unknown CampaignSpec field(s): {', '.join(unknown)}"
            )
        kwargs = dict(d)
        for axis in (
            "apps", "machines", "nprocs", "executors", "seeds",
        ):
            if axis in kwargs:
                value = kwargs[axis]
                if isinstance(value, (str, int)) or value is None:
                    value = [value]
                kwargs[axis] = tuple(value)
        kwargs["params"] = freeze_params(kwargs.get("params"))
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))


def unique_configs(configs: Iterable[RunConfig]) -> list[RunConfig]:
    """Drop exact duplicates, preserving first-seen order."""
    seen: set[RunConfig] = set()
    out: list[RunConfig] = []
    for cfg in configs:
        if cfg not in seen:
            seen.add(cfg)
            out.append(cfg)
    return out
