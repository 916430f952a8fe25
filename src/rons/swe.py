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

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import core
from .errors import DryStateError, ResampledInitialConditionWarning, ValidationError
from .fv import FluxScheme, FvGrid

#: Characteristic wavelength (m) and wave speed (m/s) of an open-ocean
#: tsunami at 4000 m depth; they set the nondimensionalization.
WAVELENGTH_M = 2.13e6
WAVE_SPEED_M_S = 198.0
MEAN_DEPTH_M = 4000.0
GRAVITY_M_S2 = 9.8

#: Default domain and resolution for the benchmark experiments.
DOMAIN_LENGTH = 10.0
DEFAULT_CELLS = 1024


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


def swe_physical_flux(eta, v, depth, gravity):
    """Flux pair ``((eta + H) v, v^2 / 2 + g eta)``."""
    eta = np.asarray(eta, dtype=float)
    v = np.asarray(v, dtype=float)
    total = eta + depth
    if np.any(total <= 0):
        raise DryStateError("total depth eta + H must be positive")
    return total * v, 0.5 * v * v + gravity * eta


def swe_eigenvalues(eta, v, depth, gravity):
    """Characteristic speeds ``v +- sqrt(g (eta + H))``; first >= second."""
    eta = np.asarray(eta, dtype=float)
    v = np.asarray(v, dtype=float)
    total = eta + depth
    if np.any(total < 0):
        raise DryStateError("negative total depth")
    c = np.sqrt(gravity * total)
    return v + c, v - c


def swe_cfl_dt(U: np.ndarray, grid: FvGrid, config: SweConfig) -> float:
    """Step size ``dx / (cfl_factor * max{max lam1, max(-lam2)})``.

    Falls back to ``config.fallback_dt`` when all wave speeds vanish.
    """
    depth = config.depth_at(grid.centers)
    lam1, lam2 = swe_eigenvalues(U[0], U[1], depth, config.gravity)
    speed = max(float(np.max(lam1)), float(np.max(-lam2)))
    if speed < 1e-14:
        return config.fallback_dt
    return grid.dx / (config.cfl_factor * speed)


def minmod_reconstruct(cellvals: np.ndarray, theta: float, dx: float) -> np.ndarray:
    """Limited slopes for a linear in-cell reconstruction (periodic wrap).

    ``minmod(theta backward, central, theta forward)`` per cell: the smallest
    argument when all are positive, the largest when all are negative, zero
    otherwise.  Interface values ``U_i +- slope_i dx / 2`` then never leave
    the range of the three-cell stencil.
    """
    u = np.asarray(cellvals, dtype=float)
    up = np.roll(u, -1, axis=-1)
    um = np.roll(u, 1, axis=-1)
    a = theta * (u - um) / dx
    b = (up - um) / (2.0 * dx)
    c = theta * (up - u) / dx
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    slopes = np.where(hi < 0, hi, 0.0)
    return np.where(lo > 0, lo, slopes)


def central_upwind_interface_flux(flux_left, flux_right, state_left, state_right,
                                  a_plus, a_minus):
    """Central-upwind numerical flux from one-sided wave speeds.

    ``H = (a+ F(U-) - a- F(U+)) / (a+ - a-) + (a+ a- / (a+ - a-)) (U+ - U-)``
    per component, degrading to the arithmetic mean of the two fluxes when
    the speed spread vanishes.  Consistent: equal states give the exact flux.
    """
    spread = a_plus - a_minus
    degenerate = spread < 1e-14
    safe = np.where(degenerate, 1.0, spread)
    upwind = (a_plus * flux_left - a_minus * flux_right) / safe
    diffusion = (a_plus * a_minus / safe) * (state_right - state_left)
    mean = 0.5 * (flux_left + flux_right)
    return np.where(degenerate, mean, upwind + diffusion)


def _central_upwind_rhs(
    U: np.ndarray, grid: FvGrid, config: SweConfig, depth_if: np.ndarray | None = None
) -> np.ndarray:
    """Flux divergence of the stacked state; batch-transparent over leading axes."""
    U = np.asarray(U, dtype=float)
    dx = grid.dx
    g = config.gravity
    if depth_if is None:
        depth_if = config.depth_at(grid.centers + 0.5 * dx)
    slopes = minmod_reconstruct(U, config.limiter_theta, dx)

    # Interface i+1/2: left state from cell i, right state from cell i+1.
    left = U + (0.5 * dx) * slopes
    right = np.roll(U - (0.5 * dx) * slopes, -1, axis=-1)

    lam1_l, lam2_l = swe_eigenvalues(left[..., 0, :], left[..., 1, :], depth_if, g)
    lam1_r, lam2_r = swe_eigenvalues(right[..., 0, :], right[..., 1, :], depth_if, g)
    a_plus = np.maximum(np.maximum(lam1_l, lam1_r), 0.0)
    a_minus = np.minimum(np.minimum(lam2_l, lam2_r), 0.0)

    flux_left = np.stack(
        swe_physical_flux(left[..., 0, :], left[..., 1, :], depth_if, g), axis=-2
    )
    flux_right = np.stack(
        swe_physical_flux(right[..., 0, :], right[..., 1, :], depth_if, g), axis=-2
    )
    interface = central_upwind_interface_flux(
        flux_left, flux_right, left, right,
        a_plus[..., None, :], a_minus[..., None, :],
    )
    return (np.roll(interface, 1, axis=-1) - interface) / dx


def central_upwind_scheme(config: SweConfig) -> FluxScheme:
    """Bundle the semi-discretization with its CFL rule.

    Undisturbed depths are cached per grid so repeated right-hand-side
    evaluations skip topography lookups.
    """
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def depths(grid: FvGrid) -> tuple[np.ndarray, np.ndarray]:
        key = id(grid)
        if key not in cache:
            cache[key] = (
                config.depth_at(grid.centers),
                config.depth_at(grid.centers + 0.5 * grid.dx),
            )
        return cache[key]

    def rhs(U, grid):
        return _central_upwind_rhs(U, grid, config, depth_if=depths(grid)[1])

    def cfl_dt(U, grid):
        depth_c = depths(grid)[0]
        lam1, lam2 = swe_eigenvalues(U[..., 0, :], U[..., 1, :], depth_c, config.gravity)
        speed = max(float(np.max(lam1)), float(np.max(-lam2)))
        if speed < 1e-14:
            return config.fallback_dt
        return grid.dx / (config.cfl_factor * speed)

    return FluxScheme(rhs=rhs, cfl_dt=cfl_dt)


# ---------------------------------------------------------------------------
# Conserved functionals

def swe_quantities(grid: FvGrid, config: SweConfig) -> tuple[core.ConservedQuantity, ...]:
    """Total elevation, total velocity and total energy on the flat state.

    The flat state is ``[eta_0..eta_{n-1}, v_0..v_{n-1}]``.  Energy is
    ``0.5 * sum_i dx [(eta_i + H_i) v_i^2 + g eta_i^2]`` with analytic
    gradient components ``dx (v^2 / 2 + g eta)`` and ``dx (eta + H) v``.
    Values and gradients are batch-transparent over leading axes; the two
    state integrals have constant ``(2n,)`` gradients.
    """
    n = grid.n_cells
    w = grid.widths
    depth = config.depth_at(grid.centers)
    g = config.gravity

    grad_elev = np.concatenate([w, np.zeros(n)])
    grad_elev.setflags(write=False)
    grad_vel = np.concatenate([np.zeros(n), w])
    grad_vel.setflags(write=False)

    def energy_value(a):
        eta, v = a[..., :n], a[..., n:]
        return 0.5 * (((eta + depth) * v * v + g * eta * eta) @ w)

    def energy_gradient(a):
        eta, v = a[..., :n], a[..., n:]
        return np.concatenate([w * (0.5 * v * v + g * eta), w * (eta + depth) * v], axis=-1)

    return (
        core.ConservedQuantity(
            "total_elevation",
            value=lambda a: a @ grad_elev,
            gradient=lambda a: grad_elev,
        ),
        core.ConservedQuantity(
            "total_velocity",
            value=lambda a: a @ grad_vel,
            gradient=lambda a: grad_vel,
        ),
        core.ConservedQuantity("total_energy", energy_value, energy_gradient),
    )


def swe_invariants(U: np.ndarray, grid: FvGrid, config: SweConfig):
    """Values and gradients of the three conserved functionals at ``U``."""
    flat = np.asarray(U, dtype=float).reshape(-1)
    quantities = swe_quantities(grid, config)
    values = np.array([q.value(flat) for q in quantities])
    gradients = [np.asarray(q.gradient(flat)) for q in quantities]
    return values, gradients


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


def random_oscillatory_ic(seed: int, grid: FvGrid, config: SweConfig,
                          max_resamples: int = 16) -> np.ndarray:
    """Seeded random oscillatory elevation, rescaled to tsunami amplitude.

    ``eta(x) = cos(2 pi x) * sum_{j=2}^{5} alpha_j cos(2 pi j x + phi_j)``
    with standard-normal amplitudes and uniform phases, then divided by
    ``2 * wavelength * max_x eta`` so the grid maximum is ``1 / (2 wavelength)``.
    Draws whose maximum is non-positive are resampled with an incremented
    seed (warned, so runs can log it).
    """
    x = grid.centers
    for attempt in range(max_resamples):
        rng = np.random.default_rng(seed + attempt)
        alpha = rng.standard_normal(4)
        phi = rng.uniform(0.0, 2.0 * np.pi, 4)
        profile = np.zeros_like(x)
        for j, (amp, phase) in enumerate(zip(alpha, phi), start=2):
            profile += amp * np.cos(2.0 * np.pi * j * x + phase)
        profile *= np.cos(2.0 * np.pi * x)
        peak = float(np.max(profile))
        if peak > 1e-12:
            if attempt:
                warnings.warn(
                    f"initial condition resampled {attempt} time(s) from seed {seed}",
                    ResampledInitialConditionWarning,
                    stacklevel=2,
                )
            eta = profile / (2.0 * config.wavelength_m * peak)
            return np.stack((eta, np.zeros_like(eta)))
    raise ValidationError(
        f"could not draw a usable initial condition from seed {seed}"
    )
