"""1-D shallow-water physics in nondimensional variables.

State fields are the surface elevation ``eta`` (away from rest) and the
depth-averaged velocity ``v``; both evolve in conservative form

    eta_t + ((eta + H) v)_x = 0
    v_t + (v^2 / 2 + g eta)_x = 0

with undisturbed depth ``H(x) = D - B(x)`` above the bottom topography ``B``.
Lengths are scaled by a characteristic wavelength, velocities by a
characteristic wave speed, chosen so the rest-state wave speed is ~1.

The semi-discretization is a second-order central-upwind scheme with
slope-limited linear reconstruction and a CFL-driven step rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .errors import DryStateError, ValidationError
from .fv import FluxScheme, FvGrid, state_integral_quantity

#: Characteristic wavelength (m) and wave speed (m/s) of an open-ocean
#: tsunami at 4000 m depth; they set the nondimensionalization.
WAVELENGTH_M = 2.13e6
WAVE_SPEED_M_S = 198.0
MEAN_DEPTH_M = 4000.0
GRAVITY_M_S2 = 9.8


@dataclass(frozen=True)
class SweConfig:
    """Physical constants, topography and scheme parameters.

    ``gravity`` and ``mean_depth`` are dimensionless; when omitted they are
    derived from the characteristic scales as ``9.8 * wavelength / speed^2``
    and ``4000 m / wavelength``.  ``limiter_theta`` controls how aggressive
    the slope limiter is (1 = most dissipative, 2 = least).  ``cfl_factor``
    is the denominator factor in ``dt = dx / (cfl_factor * max wave speed)``.
    """

    wavelength_m: float = WAVELENGTH_M
    wave_speed_m_s: float = WAVE_SPEED_M_S
    gravity: float | None = None
    mean_depth: float | None = None
    bottom: Callable[[np.ndarray], np.ndarray] | None = None
    limiter_theta: float = 1.2
    cfl_factor: float = 2.0
    fallback_dt: float = 1e-3

    def __post_init__(self):
        if self.gravity is None:
            object.__setattr__(
                self, "gravity", GRAVITY_M_S2 * self.wavelength_m / self.wave_speed_m_s**2
            )
        if self.mean_depth is None:
            object.__setattr__(self, "mean_depth", MEAN_DEPTH_M / self.wavelength_m)
        if self.gravity <= 0:
            raise ValidationError("gravity must be positive")
        if not 1.0 <= self.limiter_theta <= 2.0:
            raise ValidationError("limiter parameter must lie in [1, 2]")
        if self.cfl_factor <= 0:
            raise ValidationError("cfl_factor must be positive")

    def depth_at(self, x: np.ndarray) -> np.ndarray:
        """Undisturbed depth ``H(x) = D - B(x)``; must stay positive."""
        x = np.asarray(x, dtype=float)
        if self.bottom is None:
            return np.full_like(x, self.mean_depth)
        depth = self.mean_depth - np.asarray(self.bottom(x), dtype=float)
        if np.any(depth <= 0):
            raise ValidationError("bottom topography exceeds the mean depth")
        return depth


def _require_wet(*totals: np.ndarray) -> None:
    """Raise :class:`DryStateError` unless every total depth is positive.

    A negative depth anywhere is reported before a zero one.  The minimum is
    the fast test; ``np.any`` decides only when it is not positive (or NaN).
    """
    if all(t.min() > 0 for t in totals):
        return
    if any(np.any(t < 0) for t in totals):
        raise DryStateError("negative total depth")
    if any(np.any(t <= 0) for t in totals):
        raise DryStateError("total depth eta + H must be positive")


def _flux_workspace(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The temporaries of one flux evaluation of ``(..., 2, n)`` states: four
    flat buffers of ``2 M (n + 2)`` values, field-major rows of ``n + 2``
    lanes (the padded state, the one-sided slopes, the central and limiter
    buffers), and four per-interface ``(M, n)`` arrays, where ``M`` is the
    product of the leading axes."""
    members, n = math.prod(shape[:-2]), shape[-1]
    return (*(np.empty(2 * members * (n + 2)) for _ in range(4)),
            *(np.empty((members, n)) for _ in range(4)))


def _central_upwind_rhs(U: np.ndarray, dx: float, config: SweConfig,
                        depth_if: np.ndarray,
                        workspace: tuple[np.ndarray, ...]) -> np.ndarray:
    """Flux divergence of the stacked state; batch-transparent over leading axes.

    One pass over a copy of ``U`` padded with one periodic ghost cell per
    side, so every neighbour is a slice.  Per cell, minmod slopes
    ``minmod(theta backward, central, theta forward)`` give the interface
    states ``U_i +- slope_i dx / 2``; per interface ``i+1/2`` (left state
    from cell ``i``, right state from cell ``i+1``) the one-sided speeds
    ``a+ = max(v + c, 0)``, ``a- = min(v - c, 0)`` over both sides, with
    ``c = sqrt(g (eta + H))``, weight the central-upwind flux

        H = (a+ F(U-) - a- F(U+)) / (a+ - a-) + (a+ a- / (a+ - a-)) (U+ - U-)

    of the physical flux ``F = ((eta + H) v, v^2 / 2 + g eta)``; where the
    spread ``a+ - a-`` is below 1e-14 the flux is the mean of the two sides.

    The padded copy is field-major: one row of ``n + 2`` lanes per field and
    member, all rows in one flat buffer, so each reconstruction stage is one
    contiguous 1-D call over every member and field.  The stages that reach
    across a row's end fill its last lanes with values nothing reads.  The
    interface states and fluxes are ``(2, M, n)`` blocks, so each field of
    each side is one contiguous ``(M, n)`` array.  Every temporary is written
    into ``workspace`` (from :func:`_flux_workspace` for ``U.shape``), each
    buffer before it is read, so a call that raised leaves nothing behind;
    the result is the one fresh array.
    """
    padded, sided, central, lo, total_l, total_r, work, a_plus = workspace
    g = config.gravity
    members, n = total_l.shape
    rows, width = 2 * members, n + 2
    fields = U.reshape(members, 2, n).transpose(1, 0, 2)
    cells = padded.reshape(2, members, width)
    cells[..., 1:-1] = fields
    cells[..., 0] = fields[..., -1]
    cells[..., -1] = fields[..., 0]

    # Limited slopes; one-sided differences theta (u_{j+1} - u_j) / dx for
    # j = -1..n-1 serve as both the backward and the forward argument.
    one_sided = np.subtract(padded[1:], padded[:-1], out=sided[:-1])
    one_sided *= config.limiter_theta
    one_sided /= dx
    centred = np.subtract(padded[2:], padded[:-2], out=central[:-2])
    centred /= 2.0 * dx
    low = np.minimum(one_sided[:-1], centred, out=lo[:-2])
    np.minimum(low, one_sided[1:], out=low)
    high = np.maximum(one_sided[:-1], centred, out=centred)
    np.maximum(high, one_sided[1:], out=high)
    # The slope is low where low > 0, high where high < 0 and +0.0 elsewhere
    # (NaN included); low > 0 implies high > 0, so at most one term is nonzero.
    # ``sided`` then holds the half-cell offsets ``slope dx / 2``, with cell
    # 0's repeated after cell n-1 in every row.
    slope = np.fmax(low, 0.0, out=one_sided[:-1])
    slope += np.fmin(high, 0.0, out=high)
    slope += 0.0
    slope *= 0.5 * dx
    offset = sided.reshape(rows, width)
    offset[:, n] = offset[:, 0]
    # The interface states go where the limiter buffers were.
    padded_rows = padded.reshape(rows, width)
    left = np.add(padded_rows[:, 1:-1], offset[:, :n],
                  out=lo[:rows * n].reshape(rows, n)).reshape(2, members, n)
    right = np.subtract(padded_rows[:, 2:], offset[:, 1:-1],
                        out=central[:rows * n].reshape(rows, n)).reshape(2, members, n)

    # Physical fluxes go where the padded copy and the offsets were.
    flux_l = padded[:rows * n].reshape(2, members, n)
    flux_r = sided[:rows * n].reshape(2, members, n)
    eta_l, v_l = left[0], left[1]
    eta_r, v_r = right[0], right[1]
    # The depths, repeated once per member, keep both adds contiguous.
    np.copyto(a_plus, depth_if)
    np.add(eta_l, a_plus, out=total_l)
    np.add(eta_r, a_plus, out=total_r)
    _require_wet(total_l, total_r)
    for flux, total, eta, v in ((flux_l, total_l, eta_l, v_l),
                                (flux_r, total_r, eta_r, v_r)):
        np.multiply(total, v, out=flux[0])
        np.multiply(0.5, v, out=flux[1])
        flux[1] *= v
        np.multiply(g, eta, out=work)
        flux[1] += work
        total *= g
        np.sqrt(total, out=total)
    c_l, c_r = total_l, total_r

    np.add(v_l, c_l, out=a_plus)
    np.add(v_r, c_r, out=work)
    np.maximum(a_plus, work, out=a_plus)
    np.maximum(a_plus, 0.0, out=a_plus)
    a_minus = np.subtract(v_l, c_l, out=c_l)
    np.subtract(v_r, c_r, out=c_r)
    np.minimum(a_minus, c_r, out=a_minus)
    np.minimum(a_minus, 0.0, out=a_minus)

    spread = np.subtract(a_plus, a_minus, out=work)
    degenerate = None if spread.min() >= 1e-14 else spread < 1e-14
    if degenerate is not None:
        np.copyto(spread, 1.0, where=degenerate)
        mean = np.add(flux_l, flux_r)
        mean *= 0.5
    diffusion = np.multiply(a_plus, a_minus, out=c_r)
    diffusion /= spread
    flux_l *= a_plus
    flux_r *= a_minus
    flux_l -= flux_r
    flux_l /= spread
    jump = np.subtract(right, left, out=right)
    jump *= diffusion
    flux_l += jump
    if degenerate is not None:
        np.copyto(flux_l, mean, where=degenerate)

    # The result is never a view of the workspace: the steppers hold several
    # at once.  It is written field-major through a transposed view.
    out = np.empty(U.shape)
    divergence = out.reshape(members, 2, n).transpose(1, 0, 2)
    np.subtract(flux_l[..., :-1], flux_l[..., 1:], out=divergence[..., 1:])
    np.subtract(flux_l[..., -1], flux_l[..., 0], out=divergence[..., 0])
    out /= dx
    return out


def central_upwind_scheme(config: SweConfig) -> FluxScheme:
    """Bundle the semi-discretization with its CFL rule.

    The cell width and the undisturbed depths of the last grid seen are kept
    together with that grid (not its ``id()``, which a new grid may reuse),
    so repeated evaluations on one grid skip topography lookups.  The flux
    temporaries live in a workspace kept beside them and rebuilt only when
    the state's shape changes, so a warm ``rhs`` allocates just its result
    and a warm ``cfl_dt`` nothing.  Neither is therefore reentrant: every
    run builds its own scheme, and one scheme must not be called from two
    threads at once.
    """
    cached: list = [None, None, None, None]

    def geometry(grid: FvGrid) -> tuple[float, np.ndarray, np.ndarray]:
        """``dx``, depths at the cell centres and depths at the interfaces."""
        if cached[0] is not grid:
            dx = grid.dx
            cached[:] = (
                grid,
                dx,
                config.depth_at(grid.centers),
                config.depth_at(grid.centers + 0.5 * dx),
            )
        return cached[1], cached[2], cached[3]

    flux_work: list = [None, None]

    def workspace(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        if flux_work[0] != shape:
            flux_work[:] = shape, _flux_workspace(shape)
        return flux_work[1]

    def rhs(U, grid):
        dx, _, depth_if = geometry(grid)
        U = np.asarray(U, dtype=float)
        return _central_upwind_rhs(U, dx, config, depth_if, workspace(U.shape))

    def cfl_dt(U, grid):
        """``dx / (cfl_factor * max(|v| + sqrt(g (eta + H))))``, or
        ``config.fallback_dt`` when every wave speed vanishes.

        The speeds are formed in the flux workspace, from a field-major copy
        of ``U`` and the depths repeated once per member, so every call runs
        over contiguous memory and a warm call allocates nothing."""
        U = np.asarray(U, dtype=float)
        dx, depth, _ = geometry(grid)
        padded, _, _, _, depths, _, speed, _ = workspace(U.shape)
        members, n = speed.shape
        fields = padded[:2 * members * n].reshape(2, members, n)
        np.copyto(fields, U.reshape(members, 2, n).transpose(1, 0, 2))
        eta, v = fields[0], fields[1]
        np.copyto(depths, depth)
        np.add(eta, depths, out=speed)
        if not speed.min() >= 0 and np.any(speed < 0):
            raise DryStateError("negative total depth")
        speed *= config.gravity
        np.sqrt(speed, out=speed)
        speed += np.abs(v, out=v)
        top = float(speed.max())
        if top < 1e-14:
            return config.fallback_dt
        return dx / (config.cfl_factor * top)

    return FluxScheme(rhs=rhs, cfl_dt=cfl_dt)


# ---------------------------------------------------------------------------
# Conserved functionals

def swe_quantities(grid: FvGrid, config: SweConfig) -> tuple[core.ConservedQuantity, ...]:
    """Total elevation, total velocity and total energy on the flat state.

    The flat state is ``[eta_0..eta_{n-1}, v_0..v_{n-1}]``.  Energy is
    ``0.5 * sum_i dx [(eta_i + H_i) v_i^2 + g eta_i^2]`` with analytic
    gradient components ``dx (v^2 / 2 + g eta)`` and ``dx (eta + H) v``.
    Values and gradients are batch-transparent over leading axes; the two
    state integrals are :func:`~rons.fv.state_integral_quantity`'s, with
    constant ``(2n,)`` gradients.
    """
    n = grid.n_cells
    w = grid.widths
    depth = config.depth_at(grid.centers)
    g = config.gravity

    def energy_value(a):
        eta, v = a[..., :n], a[..., n:]
        return 0.5 * (((eta + depth) * v * v + g * eta * eta) @ w)

    def energy_gradient(a):
        # w * (0.5 * v * v + g * eta) and w * (eta + depth) * v, written into
        # the two halves of one array in that arithmetic order
        eta, v = a[..., :n], a[..., n:]
        out = np.empty(np.shape(a))
        lo, hi = out[..., :n], out[..., n:]
        np.multiply(g, eta, out=hi)
        np.multiply(0.5, v, out=lo)
        lo *= v
        lo += hi
        lo *= w
        np.add(eta, depth, out=hi)
        hi *= w
        hi *= v
        return out

    return (
        state_integral_quantity(grid, 2, 0, "total_elevation"),
        state_integral_quantity(grid, 2, 1, "total_velocity"),
        core.ConservedQuantity("total_energy", energy_value, energy_gradient),
    )


# ---------------------------------------------------------------------------
# Benchmark initial conditions

def lake_at_rest_ic(grid: FvGrid) -> np.ndarray:
    """The steady state ``eta = 0, v = 0``."""
    return np.zeros((2, grid.n_cells))


def gaussian_pulse_ic(grid: FvGrid, config: SweConfig) -> np.ndarray:
    """Gaussian elevation pulse of dimensional height 0.1 m, fluid at rest.

    ``eta_0(x) = (0.1 / wavelength) exp(-(5 (x - 5))^2)``, ``v_0 = 0``,
    sampled at cell centers (second-order consistent with the scheme).
    """
    x = grid.centers
    amplitude = 0.1 / config.wavelength_m
    eta = amplitude * np.exp(-((5.0 * (x - 5.0)) ** 2))
    return np.stack((eta, np.zeros_like(eta)))


def random_oscillatory_ic(seed: int, grid: FvGrid, config: SweConfig) -> np.ndarray:
    """Seeded random oscillatory elevation, rescaled to tsunami amplitude.

    ``eta(x) = cos(2 pi x) * sum_{j=2}^{5} alpha_j cos(2 pi j x + phi_j)``
    with standard-normal amplitudes and uniform phases, then divided by
    ``2 * wavelength * max_x eta`` so the grid maximum is ``1 / (2 wavelength)``.
    Draws whose maximum is not positive are resampled with an incremented
    seed by :func:`rons.core.positive_profile` (warned, so runs can log it).
    """
    x = grid.centers

    def draw(rng):
        alpha = rng.standard_normal(4)
        phi = rng.uniform(0.0, 2.0 * np.pi, 4)
        profile = np.zeros_like(x)
        for j, (amp, phase) in enumerate(zip(alpha, phi), start=2):
            profile += amp * np.cos(2.0 * np.pi * j * x + phase)
        profile *= np.cos(2.0 * np.pi * x)
        return profile

    profile, peak = core.positive_profile(draw, seed)
    eta = profile / (2.0 * config.wavelength_m * peak)
    return np.stack((eta, np.zeros_like(eta)))
