"""Turbulence diagnostics and checkpointing for LBMHD3D.

The paper uses LBMHD3D "to study the onset evolution of plasma
turbulence"; the standard observables for that are the shell-averaged
kinetic and magnetic energy spectra (whose high-k tails fill in as the
tube-like vorticity structures of Figure 6 break up) and the
cross-field transfer between flow and field.  Production runs at 4800
processors also need checkpoint/restart, provided here as exact
(bit-preserving) state serialization.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from ...simmpi.comm import Communicator
from .fields import moments
from .solver import LBMHD3D, LBMHDParams


def shell_spectrum(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shell-averaged energy spectrum of a (3, nx, ny, nz) vector field.

    Returns ``(k, E_k)`` with integer shells ``|k| in [1, k_max]``;
    Parseval holds: ``sum(E_k) + E_0 == 0.5 * mean(|field|^2)`` in the
    grid-average normalization (tests verify).
    """
    if field.ndim != 4 or field.shape[0] != 3:
        raise ValueError("expected a (3, nx, ny, nz) vector field")
    shape = field.shape[1:]
    n = np.prod(shape)
    f_hat = np.fft.fftn(field, axes=(1, 2, 3)) / n
    energy = 0.5 * (np.abs(f_hat) ** 2).sum(axis=0)

    freqs = [np.fft.fftfreq(m, d=1.0 / m) for m in shape]
    kx, ky, kz = np.meshgrid(*freqs, indexing="ij")
    k_mag = np.sqrt(kx**2 + ky**2 + kz**2)
    k_shell = np.rint(k_mag).astype(int)

    k_max = int(k_shell.max())
    spectrum = np.bincount(
        k_shell.ravel(), weights=energy.ravel(), minlength=k_max + 1
    )
    k = np.arange(1, k_max + 1)
    return k, spectrum[1:]


@dataclass(frozen=True)
class TurbulenceReport:
    """Spectral summary of one snapshot."""

    step: int
    kinetic_spectrum: np.ndarray
    magnetic_spectrum: np.ndarray
    shells: np.ndarray

    @property
    def kinetic_centroid(self) -> float:
        """Energy-weighted mean wavenumber of the flow (rises as
        turbulence develops and energy cascades to small scales)."""
        total = self.kinetic_spectrum.sum()
        if total == 0:
            return 0.0
        return float((self.shells * self.kinetic_spectrum).sum() / total)


def turbulence_report(sim: LBMHD3D) -> TurbulenceReport:
    """Spectra of the current global state."""
    state = sim.global_state()
    rho, u, B = moments(state)
    k, ek = shell_spectrum(u * np.sqrt(rho)[None])
    _, eb = shell_spectrum(B)
    return TurbulenceReport(
        step=sim.step_count,
        kinetic_spectrum=ek,
        magnetic_spectrum=eb,
        shells=k,
    )


def save_checkpoint(sim: LBMHD3D) -> bytes:
    """Serialize the full simulation state (exact, compressed).

    The parameters go in whole, every :class:`LBMHDParams` field as
    JSON (floats round-trip exactly), so a field added there survives
    a restart without being listed here.
    """
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        step=np.array(sim.step_count),
        params=np.array(json.dumps(asdict(sim.params))),
        state=sim.global_state(),
    )
    return buffer.getvalue()


def load_checkpoint(blob: bytes, comm: Communicator) -> LBMHD3D:
    """Restore a simulation onto a (possibly different-size) communicator.

    Restart across a different processor count is exact because the
    physics is decomposition independent (tests assert bit equality of
    subsequent steps).
    """
    with np.load(io.BytesIO(blob)) as data:
        fields = json.loads(str(data["params"]))
        # JSON has no tuples: the lattice shape comes back as a list
        params = LBMHDParams(**{**fields, "shape": tuple(fields["shape"])})
        sim = LBMHD3D(params, comm)
        sim.restore_state(
            {
                "states": sim.decomp.scatter(data["state"]),
                "step_count": int(data["step"]),
            }
        )
    return sim
