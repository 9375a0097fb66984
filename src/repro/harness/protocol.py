"""The SPMD application protocol every harness-runnable app satisfies.

The paper studies four codes with one methodology: run the same SPMD
program on each platform, instrument its phases IPM-style, and compare
the per-phase breakdowns.  This module is the code-side statement of
that methodology — a small structural protocol that LBMHD3D, GTC,
FVCAM, and PARATEC all satisfy through thin adapters
(:mod:`repro.harness.apps`), so one driver (:func:`repro.harness.run`)
can execute any of them on any machine model and decomposition.

The protocol is *structural* (``typing.Protocol``): the adapters are
plain classes, no registration with a base class required, and
``isinstance`` checks work at runtime (``runtime_checkable``).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from ..simmpi.comm import Communicator


@runtime_checkable
class SPMDApplication(Protocol):
    """Structural interface of a harness-runnable application.

    Attributes
    ----------
    key:
        Short registry name (``"lbmhd"``, ``"gtc"``, ``"fvcam"``,
        ``"paratec"``).
    name:
        Human-readable application name for tables and logs.
    phases:
        Ordered IPM phase labels one step passes through; every
        compute/communication operation inside :meth:`step` is
        attributed to one of these (or ``simmpi.UNPHASED``).
    """

    key: str
    name: str
    phases: tuple[str, ...]

    def default_params(self) -> Any:
        """A laptop-scale parameter set that runs in seconds."""
        ...

    def default_nprocs(self, params: Any) -> int:
        """The natural simulated-rank count for a parameter set."""
        ...

    def setup(
        self,
        comm: Communicator,
        params: Any,
        arena: Any | None = None,
        kernels: Any | None = None,
    ) -> Any:
        """Build the solver state on a communicator; returns the state.

        ``arena`` is an injected resource, not a mode: forward it to
        the solver's constructor, which with ``None`` takes its own
        from ``comm.executor``.

        ``kernels`` is a :class:`~repro.kernels.KernelBackend`
        instance to substitute for the numpy one (a test's toy
        backend, a benchmark's timing backend); forward it to the
        solver's constructor, which with ``None`` takes the numpy
        backend.
        """
        ...

    def step(self, state: Any) -> Any:
        """Advance one application step; returns the (mutated) state."""
        ...

    def flops_per_step(self, state: Any) -> float:
        """Useful flops of one step summed over all ranks."""
        ...

    def diagnostics(self, state: Any) -> dict[str, float]:
        """Physics health numbers (conserved quantities, energies...)."""
        ...

    def state_vector(self, state: Any) -> np.ndarray:
        """The full physics state flattened to one array.

        Used for bitwise run-to-run comparison (executor equivalence,
        fault-recovery identity): two runs agree iff their state
        vectors are ``np.array_equal``.
        """
        ...
