"""1-D periodic finite-volume scaffolding and the invariant-constrained RHS.

Cell states are plain arrays of shape ``(p, n_cells)`` holding cell averages,
one row per field.  Flattened vectors (row-major, fields concatenated) are
the parameter vectors seen by the constraint machinery; the metric there is
diagonal with the cell widths on the diagonal, repeated per field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import core
from .errors import DivergenceError, ValidationError


@dataclass(frozen=True)
class FvGrid:
    """Disjoint control volumes covering ``[0, length]`` with periodic wrap;
    read-only copies of ``centers`` and ``widths`` keep its metrics valid."""

    length: float
    n_cells: int
    centers: np.ndarray
    widths: np.ndarray
    _metrics: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("centers", "widths"):
            values = np.array(getattr(self, name), dtype=float)
            if values.shape != (self.n_cells,):
                raise ValidationError(
                    f"cell {name} have shape {values.shape}, expected ({self.n_cells},)"
                )
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if np.any(self.widths <= 0):
            raise ValidationError("cell widths must be positive")
        if abs(self.widths.sum() - self.length) > 1e-12 * self.length:
            raise ValidationError("cell widths must tile the domain")
        if np.any(np.diff(self.centers) <= 0):
            raise ValidationError("cell centers must be strictly increasing")

    @property
    def dx(self) -> float:
        """Uniform cell width; raises if the grid is nonuniform."""
        w0 = float(self.widths[0])
        if np.any(np.abs(self.widths - w0) > 1e-14 * w0):
            raise ValidationError("grid is not uniform")
        return w0


def build_grid(length: float, n_cells: int) -> FvGrid:
    """Uniform periodic grid: ``|cell_i| = length / n``, centers at midpoints."""
    if length <= 0:
        raise ValidationError("domain length must be positive")
    if not isinstance(n_cells, (int, np.integer)) or n_cells < 2:
        raise ValidationError("need an integer cell count of at least 2")
    dx = length / n_cells
    centers = (np.arange(n_cells) + 0.5) * dx
    widths = np.full(n_cells, dx)
    return FvGrid(length=float(length), n_cells=int(n_cells), centers=centers, widths=widths)


@dataclass(frozen=True)
class FluxScheme:
    """A semi-discretization: cell-average time derivatives plus a CFL rule.

    ``rhs(U, grid)`` returns the flux divergence F(U) with the same shape as
    ``U``; for periodic boundaries the width-weighted sum of each field's
    derivative telescopes to zero.  ``cfl_dt(U, grid)`` returns the stable
    step size at the current state.
    """

    rhs: Callable[[np.ndarray, FvGrid], np.ndarray]
    cfl_dt: Callable[[np.ndarray, FvGrid], float]


def fv_rhs(U: np.ndarray, scheme: FluxScheme, grid: FvGrid) -> np.ndarray:
    """Classical finite-volume time derivative ``dU_i/dt = F_i(U)``."""
    out = np.asarray(scheme.rhs(U, grid))
    if not np.all(np.isfinite(out)):
        raise DivergenceError("non-finite flux divergence")
    return out


def fv_metric(grid: FvGrid, n_fields: int) -> core.MetricTensor:
    """Diagonal metric ``M_ii = |cell_i|`` on the flattened state, built once
    per grid and field count and kept on the grid."""
    metric = grid._metrics.get(n_fields)
    if metric is None:
        metric = core.MetricTensor.from_diagonal(np.tile(grid.widths, n_fields))
        grid._metrics[n_fields] = metric
    return metric


def fvrons_rhs(
    U: np.ndarray,
    scheme: FluxScheme,
    grid: FvGrid,
    constraints: Sequence[core.ConservedQuantity] = (),
) -> np.ndarray:
    """Finite-volume derivative corrected to conserve the given invariants.

    ``dU/dt = F(U) - sum_k lambda_k M^{-1} grad I_k`` with the grid's
    diagonal cell metric (:func:`fv_metric`).  ``constraints`` is a
    :class:`~rons.core.ConstraintSet` prepared against that metric once per
    run, or a plain sequence of quantities, prepared per call.
    Batch-transparent: ``U`` is ``(..., p, n)`` and each member gets its own
    multipliers, with degenerate gradients masked member by member.  The
    constraint gradients receive the flattened ``(..., p * n)`` states.  With
    an empty (or fully degenerate) constraint list the result is the plain
    :func:`fv_rhs` output, bit for bit.  The flux comes from ``scheme.rhs`` unchecked: the
    steppers check each new state once.
    """
    flux = np.asarray(scheme.rhs(U, grid))
    if not constraints:
        return flux
    U = np.asarray(U, dtype=float)
    flat_shape = U.shape[:-2] + (-1,)
    constraints = core.ConstraintSet.of(fv_metric(grid, U.shape[-2]), constraints)
    return constraints.correct(flux.reshape(flat_shape), U.reshape(flat_shape)).reshape(U.shape)


def state_integral_quantity(
    grid: FvGrid, n_fields: int, fld: int, name: str | None = None
) -> core.ConservedQuantity:
    """The field integral as a batch-transparent linear constraint, declared
    by its coefficients ``|cell_i|`` on the field's cells."""
    if not 0 <= fld < n_fields:
        raise ValidationError("field index out of range")
    n = grid.n_cells
    coefficients = np.zeros(n_fields * n)
    coefficients[fld * n : (fld + 1) * n] = grid.widths
    integral = core.LinearFunctional(coefficients)
    return core.ConservedQuantity(
        name=name or f"field{fld}_integral", value=integral, gradient=integral.gradient
    )
