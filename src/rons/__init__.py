"""Invariant-preserving Galerkin and finite-volume solvers.

Semi-discretizations of time-dependent PDEs generally stop conserving the
first integrals the PDE itself conserves.  This package adds a
Lagrange-multiplier correction to the semi-discrete right-hand side so that
user-declared conserved quantities stay exactly constant along the
continuous-time discretized dynamics:

* G-RONS -- constrained Galerkin projection (``rons.core``), used here by the
  POD reduced models of the nonlinear Schrodinger equation (``rons.nls``);
* FV-RONS -- the finite-volume specialization with a diagonal cell-volume
  metric (``rons.fv``), used by the shallow-water solver (``rons.swe``).

``rons.integrators`` supplies the explicit steppers, ``rons.runner`` and
``rons.cli`` the declarative experiment front end.
"""

__version__ = "0.1.0"

from .core import (
    ConservedQuantity,
    ConstraintSet,
    LinearFunctional,
    MetricTensor,
    ParameterLayout,
    ParameterState,
    assemble_block_metric,
    assemble_metric,
    assemble_rhs,
    complexify_metric,
    grons_rhs,
    solve_lagrange,
)
from .fv import FluxScheme, FvGrid, build_grid, fv_rhs, fvrons_rhs
from .integrators import StepSchedule, Trajectory, integrate, step_rk4, step_ssprk3
from .swe import SweConfig, central_upwind_scheme, gaussian_pulse_ic
from .nls import PodBasis, SnapshotSeries, SpectralField, compute_pod, dns_run, rom_run

__all__ = [
    "ConservedQuantity",
    "ConstraintSet",
    "LinearFunctional",
    "MetricTensor",
    "ParameterLayout",
    "ParameterState",
    "assemble_block_metric",
    "assemble_metric",
    "assemble_rhs",
    "complexify_metric",
    "grons_rhs",
    "solve_lagrange",
    "FluxScheme",
    "FvGrid",
    "build_grid",
    "fv_rhs",
    "fvrons_rhs",
    "StepSchedule",
    "Trajectory",
    "integrate",
    "step_rk4",
    "step_ssprk3",
    "SweConfig",
    "central_upwind_scheme",
    "gaussian_pulse_ic",
    "PodBasis",
    "SnapshotSeries",
    "SpectralField",
    "compute_pod",
    "dns_run",
    "rom_run",
    "__version__",
]
