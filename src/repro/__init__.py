"""repro — reproduction of "Leading Computational Methods on Scalar and
Vector HEC Platforms" (Oliker et al., SC 2005).

The package provides:

* :mod:`repro.machines` — specs and timing models of the seven evaluated
  platforms (Power3, Itanium2, Opteron, Cray X1/X1E, Earth Simulator,
  NEC SX-8);
* :mod:`repro.network` — interconnect topologies and collective costs;
* :mod:`repro.simmpi` — an in-process simulated MPI runtime with per-rank
  virtual clocks and IPM-style communication tracing;
* :mod:`repro.apps` — working NumPy implementations of the paper's four
  applications: FVCAM (finite-volume atmospheric dynamics), GTC
  (gyrokinetic particle-in-cell), LBMHD3D (lattice Boltzmann
  magneto-hydrodynamics), PARATEC (plane-wave DFT);
* :mod:`repro.perfmodel` — roofline/Amdahl sustained-rate estimation and
  paper-style reporting;
* :mod:`repro.experiments` — one module per table/figure of the paper's
  evaluation, regenerating each from the models.

Quickstart::

    from repro import get_machine, Communicator
    from repro.apps.lbmhd import LBMHD3D, LBMHDParams

    sim = LBMHD3D(LBMHDParams(shape=(32, 32, 32)), Communicator(8))
    sim.run(steps=10)
"""

from .machines import MachineSpec, get_machine, list_machines
from .perfmodel import PerfResult, ResultTable
from .simmpi import Communicator, Message
from .workload import Work, WorkloadMeter

__version__ = "1.2.0"

__all__ = [
    "Communicator",
    "MachineSpec",
    "Message",
    "PerfResult",
    "ResultTable",
    "Work",
    "WorkloadMeter",
    "__version__",
    "get_machine",
    "list_machines",
]
