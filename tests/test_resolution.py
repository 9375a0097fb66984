"""The one resolution contract, run against two resolvers.

``repro.runtime.resolve.Resolver`` holds the precedence chain (explicit
argument > scoped process default > environment variable > fallback)
and the capability policy (unknown always raises; unusable-and-explicit
raises naming the reason; unusable-and-ambient warns once and degrades;
harness-style callers degrade always).  The executor seam is the one
instance the package has; a test-local resolver over toy kernel
backends is the second, so the rule is checked on something other than
the executors' own quirks and every case below runs once per seam.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Callable, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import KernelBackend, NumPyBackend
from repro.runtime.executors import (
    EXECUTORS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    segment_executor,
)
from repro.runtime.resolve import Resolver, Support, UnusableError
from repro.simmpi import Communicator


class Seam(NamedTuple):
    resolver: Resolver
    #: the seam's public one-argument entry point
    get: Callable[..., Any]
    #: resolution "for what I'm about to do" (the capability check on)
    for_use: Callable[..., Any]
    fallback_type: type
    #: two valid specs naming different things
    a: str
    b: str
    make_instance: Callable[[], Any]
    unknown: str
    #: substrings the unknown-name error must list
    choices: tuple[str, ...]
    #: a known spec that ``disable_env=1`` makes unusable
    unusable: str
    disable_env: str


class _Alpha(NumPyBackend):
    name = "alpha"


class _Beta(NumPyBackend):
    name = "beta"


class _Gamma(NumPyBackend):
    name = "gamma"


_TOYS = {
    cls.name: cls() for cls in (NumPyBackend, _Alpha, _Beta, _Gamma)
}


def _parse_toy(spec: str) -> NumPyBackend:
    toy = _TOYS.get(spec.strip().lower())
    if toy is None:
        choices = ", ".join(repr(name) for name in _TOYS)
        raise ValueError(
            f"unknown kernel backend {spec!r}; valid choices: {choices}"
        )
    return toy


#: The backend seam: the resolution rule over the toy backends.
TOY_BACKENDS: Resolver[KernelBackend] = Resolver(
    kind="kernel backend",
    base=KernelBackend,
    env_var="REPRO_TEST_KERNEL_BACKEND",
    fallback="numpy",
    parse=_parse_toy,
)

#: A capability check for the backend seam: ``gamma`` is unusable
#: while the variable is set, so the policy runs on both seams.
_GAMMA_DISABLE = "REPRO_TEST_GAMMA_DISABLE"


def _gamma_usable(backend: NumPyBackend) -> Support:
    if backend.name == "gamma" and os.environ.get(_GAMMA_DISABLE):
        return Support(False, f"disabled by {_GAMMA_DISABLE}")
    return Support(True, "registered")


def _backend_for_use(spec: Any = None, **kwargs: Any) -> NumPyBackend:
    return TOY_BACKENDS.resolve(spec, usable=_gamma_usable, **kwargs)


SEAMS = {
    "executor": Seam(
        resolver=EXECUTORS,
        get=get_executor,
        for_use=segment_executor,
        fallback_type=SerialExecutor,
        a="threads:2",
        b="processes:3",
        make_instance=lambda: ThreadExecutor(2),
        unknown="fibers",
        choices=("'serial'", "'processes:N'"),
        unusable="processes:2",
        disable_env="REPRO_SHM_DISABLE",
    ),
    "backend": Seam(
        resolver=TOY_BACKENDS,
        get=TOY_BACKENDS.resolve,
        for_use=_backend_for_use,
        fallback_type=NumPyBackend,
        a="alpha",
        b="beta",
        make_instance=NumPyBackend,
        unknown="fortran",
        choices=("'numpy'", "'gamma'"),
        unusable="gamma",
        disable_env=_GAMMA_DISABLE,
    ),
}


def _name(spec: str) -> str:
    return spec.partition(":")[0]


@pytest.fixture(autouse=True)
def _pristine_chain(monkeypatch):
    """No env spec (the CI executor jobs run this module with an ambient
    ``REPRO_EXECUTOR``), fresh warn-once memory; the conftest guard
    watches only the package's executor seam, so the toy seam's default
    is checked here."""
    for s in SEAMS.values():
        monkeypatch.delenv(s.resolver.env_var, raising=False)
        monkeypatch.setattr(s.resolver, "_warned", set())
    yield
    leaked, TOY_BACKENDS._default = TOY_BACKENDS._default, None
    assert leaked is None, f"test left default kernel backend {leaked!r}"


@pytest.fixture(params=list(SEAMS))
def seam(request) -> Seam:
    return SEAMS[request.param]


# -- precedence ------------------------------------------------------------


def test_fallback_when_nothing_is_specified(seam):
    chosen = seam.get()
    assert chosen.name == seam.resolver.fallback
    assert isinstance(chosen, seam.fallback_type)


def test_explicit_name_and_instance(seam):
    assert seam.get(seam.a).name == _name(seam.a)
    inst = seam.make_instance()
    assert seam.get(inst) is inst


def test_scoped_default_outranks_env(seam, monkeypatch):
    monkeypatch.setenv(seam.resolver.env_var, seam.unknown)
    with seam.resolver.scoped(seam.a):
        assert seam.get().name == _name(seam.a)  # env never consulted
        assert seam.resolver.default() == seam.a
    assert seam.resolver.default() is None


def test_explicit_outranks_scoped_default(seam):
    with seam.resolver.scoped(seam.a):
        assert seam.get().name == _name(seam.a)
        assert seam.get(seam.b).name == _name(seam.b)


def test_env_var_resolves(seam, monkeypatch):
    monkeypatch.setenv(seam.resolver.env_var, seam.a)
    assert seam.get().name == _name(seam.a)
    assert seam.get(seam.b).name == _name(seam.b)  # explicit beats env


_PRESENCE = st.sampled_from([None, "a", "b"])


@pytest.mark.parametrize("seam_id", list(SEAMS))
@settings(max_examples=27, deadline=None)
@given(explicit=_PRESENCE, default=_PRESENCE, env=_PRESENCE)
def test_first_present_in_precedence_order_wins(
    seam_id, explicit, default, env
):
    seam = SEAMS[seam_id]
    spec = {None: None, "a": seam.a, "b": seam.b}
    environ = {k: v for k, v in os.environ.items()
               if k != seam.resolver.env_var}
    if env is not None:
        environ[seam.resolver.env_var] = spec[env]
    with mock.patch.dict(os.environ, environ, clear=True):
        with seam.resolver.scoped(spec[default]):
            chosen = seam.get(spec[explicit])
    first = next(
        (s for s in (explicit, default, env) if s is not None), None
    )
    expected = seam.resolver.fallback if first is None else _name(spec[first])
    assert chosen.name == expected


# -- the scoped default ----------------------------------------------------


def test_scoped_default_validates_eagerly(seam):
    with pytest.raises(ValueError):
        with seam.resolver.scoped(seam.unknown):
            pytest.fail("a bad default must not be entered")
    assert seam.resolver.default() is None  # nothing was installed


def test_scoped_default_is_put_back_on_exception(seam):
    with seam.resolver.scoped(seam.a):
        with pytest.raises(KeyError):
            with seam.resolver.scoped(seam.b):
                assert seam.resolver.default() == seam.b
                raise KeyError("boom")
        assert seam.resolver.default() == seam.a
    assert seam.resolver.default() is None


def test_scoping_none_installs_nothing(seam):
    with seam.resolver.scoped(seam.a):
        with seam.resolver.scoped(None):
            assert seam.resolver.default() == seam.a


def test_leak_guard_names_a_default_left_installed(seam, leaked_defaults):
    seams = (seam.resolver,)
    scope = seam.resolver.scoped(seam.a)
    scope.__enter__()  # what a test that never leaves the block does
    try:
        assert leaked_defaults(seams) == [
            f"default {seam.resolver.kind} {seam.a!r}"
        ]
    finally:
        scope.__exit__(None, None, None)
    assert leaked_defaults(seams) == []


# -- unknown names / bad specs ---------------------------------------------


def test_unknown_name_lists_choices(seam):
    with pytest.raises(ValueError) as exc:
        seam.get(seam.unknown)
    msg = str(exc.value)
    assert f"unknown {seam.resolver.kind} {seam.unknown!r}" in msg
    assert all(choice in msg for choice in seam.choices)
    assert seam.resolver.env_var not in msg  # not env-sourced


def test_unknown_env_name_names_the_variable(seam, monkeypatch):
    monkeypatch.setenv(seam.resolver.env_var, seam.unknown)
    with pytest.raises(ValueError) as exc:
        seam.get()
    msg = str(exc.value)
    assert f"(from {seam.resolver.env_var})" in msg
    assert all(choice in msg for choice in seam.choices)


@pytest.mark.parametrize("bad", [42, 3.5, ["serial"], object()])
def test_non_string_spec_is_type_error(seam, bad):
    with pytest.raises(TypeError):
        seam.get(bad)


# -- capability policy -----------------------------------------------------


def test_explicit_unusable_raises_naming_reason(seam, monkeypatch):
    monkeypatch.setenv(seam.disable_env, "1")
    with pytest.raises(UnusableError) as exc:
        seam.for_use(seam.unusable)
    assert "cannot be used here" in str(exc.value)
    assert seam.disable_env in str(exc.value)


@pytest.mark.parametrize("via", ["env", "default"])
def test_ambient_unusable_warns_once_and_degrades(seam, monkeypatch, via):
    monkeypatch.setenv(seam.disable_env, "1")
    if via == "env":
        monkeypatch.setenv(seam.resolver.env_var, seam.unusable)
        default = None
    else:
        default = seam.unusable
    with seam.resolver.scoped(default):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert seam.for_use().name == seam.resolver.fallback
            assert seam.for_use().name == seam.resolver.fallback
    relevant = [
        w for w in caught
        if f"{seam.resolver.kind} {_name(seam.unusable)!r}" in str(w.message)
    ]
    assert len(relevant) == 1  # once per process, not per call
    assert issubclass(relevant[0].category, RuntimeWarning)
    assert seam.disable_env in str(relevant[0].message)


def test_degrade_always_for_harness_style_callers(seam, monkeypatch):
    monkeypatch.setenv(seam.disable_env, "1")
    with pytest.warns(RuntimeWarning, match=seam.disable_env):
        chosen = seam.for_use(seam.unusable, degrade_explicit=True)
    assert chosen.name == seam.resolver.fallback


def test_unknown_names_still_raise_under_degrade(seam):
    with pytest.raises(ValueError, match=f"unknown {seam.resolver.kind}"):
        seam.for_use(seam.unknown, degrade_explicit=True)


# -- the one asymmetry: campaign scheduling needs neither fork nor shm -----


def test_get_executor_skips_the_segment_check(monkeypatch):
    monkeypatch.setenv("REPRO_SHM_DISABLE", "1")
    assert isinstance(get_executor("processes:2"), ProcessExecutor)
    with pytest.raises(UnusableError, match="REPRO_SHM_DISABLE"):
        Communicator(4, executor="processes:2")
