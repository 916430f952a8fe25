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
    """The temporaries of one flux evaluation of ``(..., p, n)`` states: the
    padded state, the one-sided slopes, the central and limiter buffers and
    four per-interface ``(..., n)`` arrays."""
    lead, n = shape[:-1], shape[-1]
    return (np.empty(lead + (n + 2,)), np.empty(lead + (n + 1,)),
            np.empty(shape), np.empty(shape),
            *(np.empty(shape[:-2] + (n,)) for _ in range(4)))


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
    Every temporary is written into ``workspace`` (from
    :func:`_flux_workspace` for ``U.shape``), each buffer in full before it is
    read, so a call that raised leaves nothing behind; the result is the one
    fresh array.
    """
    padded, sided, central, lo, total_l, total_r, work, a_plus = workspace
    g = config.gravity

    padded[..., 1:-1] = U
    padded[..., 0] = U[..., -1]
    padded[..., -1] = U[..., 0]
    u = padded[..., 1:-1]

    # Limited slopes; one-sided differences theta (u_{j+1} - u_j) / dx for
    # j = -1..n-1 serve as both the backward and the forward argument.
    np.subtract(padded[..., 1:], padded[..., :-1], out=sided)
    sided *= config.limiter_theta
    sided /= dx
    np.subtract(padded[..., 2:], padded[..., :-2], out=central)
    central /= 2.0 * dx
    np.minimum(sided[..., :-1], central, out=lo)
    np.minimum(lo, sided[..., 1:], out=lo)
    hi = np.maximum(sided[..., :-1], central, out=central)
    np.maximum(hi, sided[..., 1:], out=hi)
    # The slope is lo where lo > 0, hi where hi < 0 and +0.0 elsewhere (NaN
    # included); lo > 0 implies hi > 0, so at most one term is nonzero.
    # ``sided`` then holds the half-cell offsets ``slope dx / 2``, with cell
    # 0's repeated after cell n-1.
    offset = sided
    slope = np.fmax(lo, 0.0, out=offset[..., :-1])
    slope += np.fmin(hi, 0.0, out=hi)
    slope += 0.0
    slope *= 0.5 * dx
    offset[..., -1] = offset[..., 0]
    left = np.add(u, offset[..., :-1], out=lo)
    right = np.subtract(padded[..., 2:], offset[..., 1:], out=hi)

    # Physical fluxes go where the offsets and the padded copy were.  The
    # left flux keeps a leading ghost interface that later holds the last
    # interface's flux for the divergence.
    flux_lp = offset
    flux_l = flux_lp[..., 1:]
    flux_r = padded[..., 1:-1]
    eta_l, v_l = left[..., 0, :], left[..., 1, :]
    eta_r, v_r = right[..., 0, :], right[..., 1, :]
    np.add(eta_l, depth_if, out=total_l)
    np.add(eta_r, depth_if, out=total_r)
    _require_wet(total_l, total_r)
    for flux, total, eta, v in ((flux_l, total_l, eta_l, v_l),
                                (flux_r, total_r, eta_r, v_r)):
        np.multiply(total, v, out=flux[..., 0, :])
        np.multiply(0.5, v, out=flux[..., 1, :])
        flux[..., 1, :] *= v
        np.multiply(g, eta, out=work)
        flux[..., 1, :] += work
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
    flux_l *= a_plus[..., None, :]
    flux_r *= a_minus[..., None, :]
    flux_l -= flux_r
    flux_l /= spread[..., None, :]
    jump = np.subtract(right, left, out=right)
    jump *= diffusion[..., None, :]
    flux_l += jump
    if degenerate is not None:
        np.copyto(flux_l, mean, where=degenerate[..., None, :])

    # The result is never a view of the workspace: the steppers hold several
    # at once.
    flux_lp[..., 0] = flux_lp[..., -1]
    out = np.subtract(flux_lp[..., :-1], flux_l)
    out /= dx
    return out


def central_upwind_scheme(config: SweConfig) -> FluxScheme:
    """Bundle the semi-discretization with its CFL rule.

    The cell width and the undisturbed depths of the last grid seen are kept
    together with that grid (not its ``id()``, which a new grid may reuse),
    so repeated evaluations on one grid skip topography lookups.  The flux
    temporaries live in a workspace kept beside them and rebuilt only when
    the state's shape changes, so a warm ``rhs`` allocates just its result.
    ``rhs`` is therefore not reentrant: every run builds its own scheme, and
    one scheme must not be called from two threads at once.
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

    def rhs(U, grid):
        dx, _, depth_if = geometry(grid)
        U = np.asarray(U, dtype=float)
        if flux_work[0] != U.shape:
            flux_work[:] = U.shape, _flux_workspace(U.shape)
        return _central_upwind_rhs(U, dx, config, depth_if, flux_work[1])

    def cfl_dt(U, grid):
        """``dx / (cfl_factor * max(|v| + sqrt(g (eta + H))))``, or
        ``config.fallback_dt`` when every wave speed vanishes."""
        U = np.asarray(U, dtype=float)
        dx, depth, _ = geometry(grid)
        speed = np.add(U[..., 0, :], depth)
        if not speed.min() >= 0 and np.any(speed < 0):
            raise DryStateError("negative total depth")
        speed *= config.gravity
        np.sqrt(speed, out=speed)
        speed += np.abs(U[..., 1, :])
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
