"""Nonlinear Schrodinger solvers: pseudo-spectral DNS, POD bases, and
reduced models in plain-Galerkin and invariant-constrained variants.

The envelope equation in nondimensional variables is

    u_t = -1/2 u_x - i/8 u_xx - i/2 |u|^2 u

on a periodic domain ``[0, L]``.  Discrete mass ``dx sum |u|^2`` and energy
``dx (sum |u_x|^2 / 8 - sum |u|^4 / 4)`` are the enforced invariants; the
discrete (quadrature-level) functionals are what the constrained model keeps
constant, so the tangency identity is exact at the level the code can test.

Reduced states are real vectors stacking the complex mode amplitudes as
``[Re z, -Im z]`` (see :mod:`rons.core`); with orthonormal modes the stacked
metric is the identity and the plain-Galerkin path is a straight projection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from . import core
from .errors import (
    AlignmentError,
    DimensionError,
    RankError,
    ResampledInitialConditionWarning,
    ValidationError,
)
from .integrators import StepSchedule, integrate, step_rk4

#: Desk-scale defaults; production-scale values go in run configs.
DEFAULT_LENGTH = 32.0 * np.pi
DEFAULT_MODES = 256
DEFAULT_ROM_MODES = 9

#: RK4 step bound dt <= DT_SAFETY / k_max^2 for the stiffest dispersive mode.
DT_SAFETY = 0.5

#: Random initial states: the grid maximum of an envelope and the seeds tried
#: for one (:func:`nls_random_ic`); the leading modes given a reduced
#: amplitude (:func:`random_rom_ic`).
IC_AMPLITUDE = 0.13
IC_MAX_RESAMPLES = 16
ROM_IC_MODES = 5

#: Magnitude below which :func:`relative_drift` stops dividing.
DRIFT_FLOOR = 1e-300


def wavenumbers(n: int, length: float) -> np.ndarray:
    """Spectral wavenumbers in FFT order for an ``n``-point grid on ``[0, L]``."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def stable_dt(n: int, length: float) -> float:
    """Fixed RK4 step from the stability bound ``DT_SAFETY / k_max^2``."""
    k_max = np.pi * n / length
    return DT_SAFETY / k_max**2


@dataclass(frozen=True)
class SpectralField:
    """A periodic complex field stored by its Fourier coefficients.

    Coefficients follow the unnormalized numpy FFT convention; the grid view
    is computed on demand.  Parseval ties the two representations:
    ``dx * sum |u|^2 == (L / n^2) * sum |coeff|^2``.
    """

    coefficients: np.ndarray
    length: float

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", np.asarray(self.coefficients, dtype=complex)
        )
        if self.length <= 0:
            raise ValidationError("domain length must be positive")

    @classmethod
    def from_values(cls, values, length: float) -> "SpectralField":
        return cls(np.fft.fft(np.asarray(values, dtype=complex)), length)

    @property
    def n_modes(self) -> int:
        return self.coefficients.shape[0]

    def values(self) -> np.ndarray:
        return np.fft.ifft(self.coefficients)


def _padded_spectrum(spec: np.ndarray) -> np.ndarray:
    """Spectra zero-padded onto the 3/2 grid's spectrum, last axis.

    The Nyquist coefficient stays in the positive half.  The inverse FFT of
    the result, times ``3/2``, interpolates the field onto the padded grid.
    """
    n = spec.shape[-1]
    if n % 2:
        raise ValidationError("pseudo-spectral grids must have an even size")
    half = n // 2
    padded = np.zeros(spec.shape[:-1] + (3 * half,), dtype=complex)
    padded[..., : half + 1] = spec[..., : half + 1]
    padded[..., 2 * half + 1:] = spec[..., half + 1:]
    return padded


def _derivative_multiplier(n: int, length: float) -> np.ndarray:
    """Spectral first-derivative multiplier ``ik`` with the Nyquist mode zeroed."""
    ik = 1j * wavenumbers(n, length)
    if n % 2 == 0:
        ik[n // 2] = 0.0  # Nyquist mode has no well-defined odd derivative
    return ik


@lru_cache(maxsize=8)
def _linear_multiplier(n: int, length: float) -> np.ndarray:
    """Spectral multiplier ``-ik/2 + ik^2/8`` with the Nyquist ``ik`` zeroed.

    Built once per grid and shared, so the array is read-only.
    """
    k = wavenumbers(n, length)
    multiplier = -0.5 * _derivative_multiplier(n, length) + 0.125j * k * k
    multiplier.setflags(write=False)
    return multiplier


def _dns_rhs(shape: tuple, length: float):
    """The envelope derivative of :func:`_rhs_spectrum` for spectra of one
    ``(..., n)`` shape, as a closure that owns its buffers.

    The closure holds the 3/2 grid's spectrum, whose zero middle is written
    once, and one complex work array that both FFTs write into.  Each
    evaluation copies the two retained halves into the padded spectrum,
    cubes in place and returns a new array, with the per-element arithmetic
    of the out-of-place evaluation, so the result is bitwise the same.
    """
    padded = _padded_spectrum(np.zeros(shape, dtype=complex))
    work = np.empty_like(padded)
    n = shape[-1]
    half = n // 2
    multiplier = _linear_multiplier(n, length)

    def rhs(spec: np.ndarray) -> np.ndarray:
        padded[..., : half + 1] = spec[..., : half + 1]
        padded[..., 2 * half + 1:] = spec[..., half + 1:]
        np.fft.ifft(padded, axis=-1, out=work)
        np.multiply(work, work.real * work.real + work.imag * work.imag, out=work)
        np.fft.fft(work, axis=-1, out=work)
        np.multiply(1.125j, work, out=work)
        out = multiplier * spec
        out[..., : half + 1] -= work[..., : half + 1]
        out[..., half + 1:] -= work[..., 2 * half + 1:]
        return out

    return rhs


def _rhs_spectrum(spec: np.ndarray, length: float) -> np.ndarray:
    """Spectral-space envelope derivative; batch-transparent over leading axes.

    Two FFTs: the spectrum is padded onto the 3/2 grid, ``|u|^2 u`` is formed
    there from one inverse FFT, and one forward FFT brings it back to be
    truncated to the ``n`` retained modes.  The interpolation factor ``3/2``
    enters the cubic three times and the truncation ``2/3`` once, so they
    fold with ``-i/2`` into the one scalar ``-i/2 (3/2)^2``.  A run holds one
    :func:`_dns_rhs` closure instead, which reuses its buffers.
    """
    return _dns_rhs(spec.shape, length)(spec)


def nls_rhs_values(values: np.ndarray, length: float) -> np.ndarray:
    """Grid-space envelope derivative; batch-transparent over leading axes.

    The spectral evaluation of :func:`_rhs_spectrum` between one forward and
    one inverse FFT.
    """
    spec = np.fft.fft(np.asarray(values, dtype=complex), axis=-1)
    return np.fft.ifft(_rhs_spectrum(spec, length), axis=-1)


def spectral_derivative(values: np.ndarray, length: float) -> np.ndarray:
    """Exact spectral first derivative on the periodic grid, last axis."""
    n = values.shape[-1]
    return np.fft.ifft(_derivative_multiplier(n, length) * np.fft.fft(values, axis=-1), axis=-1)


def field_invariants(values: np.ndarray, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Discrete mass and energy of grid fields (rectangle rule) along the
    last axis; one value each per field of a ``(..., n)`` stack."""
    values = np.asarray(values, dtype=complex)
    dx = length / values.shape[-1]
    ux = spectral_derivative(values, length)
    mass = dx * np.sum(np.abs(values) ** 2, axis=-1)
    energy = dx * (
        np.sum(np.abs(ux) ** 2, axis=-1) / 8.0 - np.sum(np.abs(values) ** 4, axis=-1) / 4.0
    )
    return mass, energy


def nls_random_ic(seed: int, length: float = DEFAULT_LENGTH,
                  n_modes: int = DEFAULT_MODES) -> SpectralField:
    """Random-phase multi-cosine envelope rescaled to realistic steepness.

    ``sum_{j=3}^{8} exp(-j^2/10) cos(2 pi j x / L + phi_j)`` with uniform
    phases, rescaled so the grid maximum equals :data:`IC_AMPLITUDE`.
    """
    x = np.arange(n_modes) * (length / n_modes)
    for attempt in range(IC_MAX_RESAMPLES):
        rng = np.random.default_rng(seed + attempt)
        phases = rng.uniform(0.0, 2.0 * np.pi, 6)
        profile = np.zeros_like(x)
        for j, phase in zip(range(3, 9), phases):
            profile += np.exp(-j * j / 10.0) * np.cos(2.0 * np.pi * j * x / length + phase)
        peak = float(np.max(profile))
        if peak > 1e-12:
            if attempt:
                warnings.warn(
                    f"initial condition resampled {attempt} time(s) from seed {seed}",
                    ResampledInitialConditionWarning,
                    stacklevel=2,
                )
            return SpectralField.from_values(IC_AMPLITUDE * profile / peak, length)
    raise ValidationError(f"could not draw a usable initial condition from seed {seed}")


@dataclass
class SnapshotSeries:
    """Fields sampled along one run: times plus a (n_times, n_grid) matrix."""

    times: np.ndarray
    snapshots: np.ndarray
    length: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.snapshots = np.asarray(self.snapshots, dtype=complex)
        if self.snapshots.shape[0] != self.times.shape[0]:
            raise DimensionError("one snapshot per sample time required")

    def window(self, t_start: float, t_end: float) -> "SnapshotSeries":
        mask = (self.times >= t_start - 1e-9) & (self.times <= t_end + 1e-9)
        return SnapshotSeries(self.times[mask], self.snapshots[mask], self.length)


def dns_run(
    ic: SpectralField,
    t_final: float,
    snapshot_cadence: float,
    dt: float | None = None,
) -> tuple[SnapshotSeries, dict]:
    """Integrate the envelope with fixed-step RK4, sampling snapshots.

    A batch of one (:func:`dns_run_batch`).  Returns the snapshot series and
    a diagnostics dict with the mass/energy histories and their relative
    drifts.
    """
    (series,), diag = dns_run_batch([ic], t_final, snapshot_cadence, dt)
    return series, {
        **diag,
        "mass": diag["mass"][:, 0],
        "energy": diag["energy"][:, 0],
        "mass_drift": float(diag["mass_drift"][0]),
        "energy_drift": float(diag["energy_drift"][0]),
    }


def dns_run_batch(
    ics: Sequence[SpectralField],
    t_final: float,
    snapshot_cadence: float,
    dt: float | None = None,
) -> tuple[list[SnapshotSeries], dict]:
    """Advance many DNS runs together as one stacked spectrum; returns one
    series per member and per-member diagnostics (see :func:`_run_output`)."""
    if not ics:
        raise ValidationError("need at least one initial condition")
    length = ics[0].length
    n = ics[0].n_modes
    for ic in ics:
        if ic.length != length or ic.n_modes != n:
            raise DimensionError("batched runs need identical domains")
    if dt is None:
        dt = stable_dt(n, length)
    spec = np.stack([ic.coefficients for ic in ics])
    traj = integrate(
        _dns_rhs(spec.shape, length),
        spec,
        StepSchedule(t_final=t_final, dt=dt),
        stepper=step_rk4,
        observe_every=snapshot_cadence,
    )
    return _run_output(traj, np.fft.ifft(np.stack(traj.states), axis=-1), length, dt)


def _run_output(traj, fields: np.ndarray, length: float, dt: float) -> tuple:
    """Snapshot series and diagnostics of a run's sampled grid fields.

    ``(T, n)`` fields give one series, ``(T,)`` mass and energy histories and
    float drifts; ``(T, B, n)`` fields give one series per member, ``(T, B)``
    histories and one drift per member.
    """
    if fields.ndim == 2:
        series = SnapshotSeries(traj.times, fields, length)
    else:
        series = [SnapshotSeries(traj.times, fields[:, b], length)
                  for b in range(fields.shape[1])]
    mass, energy = field_invariants(fields, length)
    return series, {
        "mass": mass,
        "energy": energy,
        "mass_drift": relative_drift(mass),
        "energy_drift": relative_drift(energy),
        "dt": dt,
        "n_steps": len(traj.dt_history),
    }


def relative_drift(series: np.ndarray):
    """Max departure from the initial value, relative to the largest magnitude.

    A float for a ``(T,)`` history; one value per column of a ``(T, B)`` one.
    """
    series = np.asarray(series, dtype=float)
    departure = np.max(np.abs(series - series[0]), axis=0)
    drift = departure / np.maximum(np.max(np.abs(series), axis=0), DRIFT_FLOOR)
    return float(drift) if drift.ndim == 0 else drift


# ---------------------------------------------------------------------------
# POD basis and reduced models


def _real_form(matrix: np.ndarray) -> np.ndarray:
    """The real matrix acting on stacked vectors as ``matrix`` acts on complex
    row vectors: ``stack_amplitudes(z @ M) == stack_amplitudes(z) @ _real_form(M)``."""
    return np.block([[matrix.real, -matrix.imag], [matrix.imag, matrix.real]])


@dataclass(frozen=True)
class CubicForm:
    """An affine-plus-cubic map of stacked amplitudes, precomputed per basis.

    ``a -> stack(c + z @ A + sum_x |u(x)|^2 u(x) psi(x))`` with the field
    ``u = u_0 + sum_i z_i phi_i`` sampled on some grid and test functions
    ``psi`` (one column per mode) on the same grid.  The arrays are stored in
    stacked real form (:func:`_real_form`), so one evaluation is three small
    real matrix products and elementwise work on the grid, with no FFT.
    """

    constant: np.ndarray      # (2 N,)
    linear: np.ndarray        # (2 N, 2 N)
    field_offset: np.ndarray  # (2 g,): stacked u_0
    field: np.ndarray         # (2 N, 2 g): stacked phi_i
    test: np.ndarray          # (2 g, 2 N)

    @classmethod
    def build(cls, constant, linear, fields, test) -> "CubicForm":
        """From complex ``c`` (N,), ``A`` (N, N), ``[u_0; phi]`` (N + 1, g)
        and ``psi`` (g, N)."""
        return cls(stack_amplitudes(constant), _real_form(linear),
                   stack_amplitudes(fields[0]), _real_form(fields[1:]), _real_form(test))

    def __call__(self, a: np.ndarray) -> np.ndarray:
        v = a @ self.field
        v += self.field_offset
        u = v.reshape(v.shape[:-1] + (2, -1))             # [Re u, -Im u]
        modulus2 = u[..., 0, :] * u[..., 0, :]
        modulus2 += u[..., 1, :] * u[..., 1, :]
        u *= modulus2[..., None, :]                        # v is now stacked |u|^2 u
        out = a @ self.linear
        out += self.constant
        out += v @ self.test
        return out


@dataclass
class PodBasis:
    """Mean plus orthonormal modes extracted from snapshots.

    ``modes`` has one mode per row, orthonormal under the discrete inner
    product ``<f, g> = dx * sum conj(f) g``.  The spectral derivatives of
    the mean and the modes (so reduced-state energy gradients are exact),
    the projector and the reduced operator are built on first use, so the
    arrays of a basis must not be modified afterwards.
    """

    mean: np.ndarray
    modes: np.ndarray
    length: float
    singular_values: np.ndarray

    def __post_init__(self):
        # one memory layout whatever the source (an SVD, a file), so a
        # reloaded basis gives bitwise-identical matrix products
        for name in ("mean", "modes"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=complex))
        if self.modes.ndim != 2 or self.modes.shape[1] != self.mean.shape[0]:
            raise DimensionError("modes and mean must share the grid")
        gram = self.dx * (self.modes.conj() @ self.modes.T)
        if np.max(np.abs(gram - np.eye(self.n_modes))) > 1e-8:
            raise ValidationError("basis modes are not orthonormal")

    @property
    def n_modes(self) -> int:
        return self.modes.shape[0]

    @property
    def n_grid(self) -> int:
        return self.mean.shape[0]

    @property
    def dx(self) -> float:
        return self.length / self.n_grid

    @property
    def layout(self) -> core.ParameterLayout:
        return core.ParameterLayout.single_complex(self.n_modes)

    @cached_property
    def mode_derivatives(self) -> np.ndarray:
        return spectral_derivative(self.modes, self.length)

    @cached_property
    def mean_derivative(self) -> np.ndarray:
        return spectral_derivative(self.mean, self.length)

    @cached_property
    def _projector(self) -> np.ndarray:
        return self.dx * self.modes.conj().T

    @cached_property
    def reduced_operator(self) -> CubicForm:
        """The Galerkin projection of :func:`nls_rhs_values`, offline part.

        Row 0 of the projected linear term is the mean's offset.  The mean
        and the modes are interpolated onto the ``m = 3n/2`` padded grid by
        the same spectrum padding as the DNS (:func:`_padded_spectrum`), and
        the cubic term's test functions are ``-i/2 * dx * (n/m) * conj(fine
        modes)`` there.  Every mode is band-limited to the ``n``-point grid
        and the dealiased cubic is trilinear in ``(u, conj u, u)``, so by
        Parseval this quadrature equals the projection of the pseudo-spectral
        right-hand side exactly.
        """
        n = self.n_grid
        spec = np.fft.fft(np.vstack([self.mean, self.modes]), axis=-1)
        fine = np.fft.ifft(_padded_spectrum(spec), axis=-1) * 1.5
        linear = self.project(np.fft.ifft(_linear_multiplier(n, self.length) * spec, axis=-1))
        test = (-0.5j * self.dx * n / fine.shape[-1]) * fine[1:].conj().T
        return CubicForm.build(linear[0], linear[1:], fine, test)

    @cached_property
    def metric(self) -> core.MetricTensor:
        """The identity metric of the stacked amplitudes (orthonormal modes)."""
        return core.MetricTensor.identity(2 * self.n_modes)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Complex mode coefficients ``<phi_i, values>`` along the last axis
        (no mean handling)."""
        values = np.asarray(values, dtype=complex)
        if values.shape[-1] != self.n_grid:
            raise DimensionError("field lives on a different grid than the basis")
        return values @ self._projector

    def state_values(self, a) -> np.ndarray:
        """Values of stacked real states ``(..., 2 N)``, width-checked."""
        values = core.state_values(a)
        if values.shape[-1] != 2 * self.n_modes:
            raise DimensionError(
                f"state has width {values.shape[-1]}, expected {2 * self.n_modes}"
            )
        return values

    def amplitudes(self, a) -> np.ndarray:
        """Complex amplitudes ``z = a_re - i a_im`` of stacked real states
        ``(..., 2 N)``; the inverse of :func:`stack_amplitudes`."""
        values = self.state_values(a)
        return values[..., : self.n_modes] - 1j * values[..., self.n_modes :]

    def reconstruct(self, amplitudes: np.ndarray) -> np.ndarray:
        """Grid field ``mean + sum_i z_i phi_i``."""
        return self.mean + np.asarray(amplitudes, dtype=complex) @ self.modes

    def reconstruct_state(self, a) -> np.ndarray:
        """Grid field from a stacked real parameter vector."""
        return self.reconstruct(self.amplitudes(a))


def stack_amplitudes(z: np.ndarray) -> np.ndarray:
    """Stacked real storage ``[Re z, -Im z]`` of complex amplitudes, last axis."""
    return np.concatenate([z.real, -z.imag], axis=-1)


def compute_pod(snapshots: np.ndarray, n_modes: int, length: float) -> PodBasis:
    """Temporal-mean-centered snapshot SVD, keeping the leading modes.

    ``snapshots`` is (n_times, n_grid).  Modes are scaled to unit discrete
    norm; singular values are returned for energy-capture diagnostics.
    Fewer than one mode raises :class:`ValidationError`; more modes than the
    numerical rank raises :class:`RankError` naming the usable count.
    """
    snaps = np.asarray(snapshots, dtype=complex)
    if snaps.ndim != 2:
        raise DimensionError("snapshot matrix must be 2-d (n_times, n_grid)")
    n_times, n_grid = snaps.shape
    if n_modes < 1:
        raise ValidationError(f"need at least one POD mode, got {n_modes}")
    if n_times < n_modes:
        raise RankError(f"{n_times} snapshots cannot support {n_modes} modes")
    dx = length / n_grid
    mean = snaps.mean(axis=0)
    centered = (snaps - mean) * np.sqrt(dx)
    u, s, _ = np.linalg.svd(centered.T, full_matrices=False)
    # numerical rank relative to the uncentered data scale, so snapshot sets
    # that are constant up to round-off register as rank zero
    data_scale = max(float(s[0]) if s.size else 0.0,
                     float(np.linalg.norm(snaps * np.sqrt(dx))) / np.sqrt(n_times))
    rank = int(np.sum(s > max(n_times, n_grid) * np.finfo(float).eps * data_scale))
    if n_modes > rank:
        raise RankError(
            f"requested {n_modes} modes but snapshots have numerical rank {rank}"
        )
    modes = (u[:, :n_modes] / np.sqrt(dx)).T
    return PodBasis(
        mean=mean,
        modes=modes,
        length=length,
        singular_values=s.copy(),
    )


def project_ic(u0, basis: PodBasis) -> core.ParameterState:
    """Stacked real amplitudes of ``u0 - mean`` in the basis."""
    values = u0.values() if isinstance(u0, SpectralField) else np.asarray(u0, dtype=complex)
    z = basis.project(values - basis.mean)
    return core.ParameterState(basis.layout.pack([z]), basis.layout)


def random_rom_ic(seed: int, basis: PodBasis) -> core.ParameterState:
    """Uniform [0, 1] amplitudes on the :data:`ROM_IC_MODES` leading modes,
    zero elsewhere."""
    rng = np.random.default_rng(seed)
    z = np.zeros(basis.n_modes, dtype=complex)
    k = min(ROM_IC_MODES, basis.n_modes)
    z[:k] = rng.uniform(0.0, 1.0, k)
    return core.ParameterState(basis.layout.pack([z]), basis.layout)


class ReducedFunctional:
    """The value of a reduced-model invariant, declaring its gradient.

    Calling it calls ``value``.  ``gradient_form`` is the :class:`CubicForm`
    whose evaluation on stacked amplitudes is the invariant's gradient; an
    affine gradient has a form on an empty grid.  The declaration rides on
    the value, as :class:`~rons.core.LinearFunctional`'s does, so a quantity
    rebuilt from its name, value and gradient keeps it, and a single run of
    :func:`rom_run` evaluates the declared forms together with the reduced
    operator instead of calling ``gradient``.
    """

    __slots__ = ("value", "gradient_form")

    def __init__(self, value, gradient_form: CubicForm):
        self.value = value
        self.gradient_form = gradient_form

    def __call__(self, a):
        return self.value(a)


def rom_quantities(basis: PodBasis) -> tuple[core.ConservedQuantity, core.ConservedQuantity]:
    """Discrete mass and energy as functions of the stacked amplitudes.

    Values are :func:`field_invariants` of the reconstructed field, each a
    :class:`ReducedFunctional` declaring its gradient's form.
    Gradients come from the chain rule through ``u(a) = mean + sum z_i phi_i``
    with ``z = a_re - i a_im``: for a functional with first variation
    ``dI = Re <w, du>`` the stacked gradient is ``[Re r, Im r]`` with
    ``r_i = <w, phi_i>``, which is ``stack_amplitudes`` of the projection
    ``conj(r_i) = <phi_i, w>``.  The mass variation ``w = 2 u`` and the
    kinetic part ``w = -u_xx / 4`` are affine in ``z``, so their projections
    are precomputed Gram matrices; only the quartic part ``w = -|u|^2 u``
    needs the grid field, which a :class:`CubicForm` samples from the modes
    without rebuilding them.  Gradients are batch-transparent over leading
    axes.
    """
    dx = basis.dx
    mode_dx_h = basis.mode_derivatives.conj().T
    no_grid = np.zeros((basis.n_modes + 1, 0))
    mass_form = CubicForm.build(2.0 * basis.project(basis.mean), 2.0 * basis.project(basis.modes),
                                no_grid, no_grid[1:].T)
    stiffness_offset = dx * (basis.mean_derivative @ mode_dx_h)
    stiffness = dx * (basis.mode_derivatives @ mode_dx_h)
    energy_form = CubicForm.build(0.25 * stiffness_offset, 0.25 * stiffness,
                                  np.vstack([basis.mean, basis.modes]), -basis._projector)

    def mass_gradient(a):
        return mass_form.constant + basis.state_values(a) @ mass_form.linear

    def energy_gradient(a):
        return energy_form(basis.state_values(a))

    def value(index, form):
        return ReducedFunctional(
            lambda a: field_invariants(basis.reconstruct_state(a), basis.length)[index], form)

    return (
        core.ConservedQuantity("mass", value(0, mass_form), mass_gradient),
        core.ConservedQuantity("energy", value(1, energy_form), energy_gradient),
    )


def rom_rhs(a, basis: PodBasis, constraints: core.ConstraintSet | tuple = ()) -> np.ndarray:
    """Reduced time derivative; constrained when a constraint set is given.

    The plain-Galerkin path is the projection of the pseudo-spectral
    right-hand side onto the modes (identity metric, orthonormal modes),
    evaluated without any FFT by the basis's precomputed
    :attr:`PodBasis.reduced_operator`.  With constraints the Lagrange
    correction enforces their conservation exactly in continuous time -- the
    invariant-constrained reduced model.  ``constraints`` is ``()`` or a
    :class:`~rons.core.ConstraintSet` prepared against :attr:`PodBasis.metric`,
    as :func:`rom_run` builds one per run; anything else raises
    :class:`ValidationError`.  Batch-transparent: ``a`` is ``(..., 2 N)``
    and each member gets its own multipliers.
    """
    values = basis.state_values(a)
    f = basis.reduced_operator(values)
    if not core.prepared(constraints, basis.metric, "basis.metric"):
        return f
    return constraints.correct(f, values)


def _grons_single_rhs(basis: PodBasis, quantities: Sequence[core.ConservedQuantity]):
    """The constrained derivative of one ``(2 N,)`` state in one pass, as a
    closure that owns its matrices; ``None`` unless the basis's reduced
    operator is a :class:`CubicForm` and every quantity's value is a
    :class:`ReducedFunctional`.

    The operator and the ``m`` declared gradient forms are stacked into one
    joint form once: their ``linear`` matrices side by side ``(w, (m+1) w)``,
    their fields ordered ``[Re, Re, ..., Im, Im, ...]`` over all grids (the
    operator's 3/2 grid, the energy gradient's ``n``-point grid, none for an
    affine gradient) and their tests as one block matrix, whose columns stop
    at the last form with a grid (such gradients come first in ``G``).  One
    evaluation is three GEMMs and one modulus pass, giving ``[f; G]``.  The
    unit metric of the orthonormal modes makes the correction straight-line:
    one GEMM gives ``b = G f`` and ``C = G G^T``, a row whose ``C`` diagonal
    is at most ``DEGENERACY_TOL^2`` is dropped (the kernel's mask), the
    active system goes to :func:`core._solve_small`, and whatever that
    declines to :func:`core.solve_lagrange`.  The result is ``f - lambda G``,
    or ``f`` itself when no row is active.  It agrees with :func:`rom_rhs` to
    round-off, not bitwise: the products are summed in another order.
    """
    operator = basis.reduced_operator
    gradients = [getattr(q.value, "gradient_form", None) for q in quantities]
    if not gradients or not isinstance(operator, CubicForm) or any(f is None for f in gradients):
        return None
    forms = [operator, *sorted(gradients, key=lambda f: not f.field_offset.size)]
    width = operator.linear.shape[0]
    grids = [f.field_offset.shape[0] // 2 for f in forms]
    grid = sum(grids)
    field = np.hstack([f.field[:, :g] for f, g in zip(forms, grids)]
                      + [f.field[:, g:] for f, g in zip(forms, grids)])
    offset = np.concatenate([f.field_offset[:g] for f, g in zip(forms, grids)]
                            + [f.field_offset[g:] for f, g in zip(forms, grids)])
    linear = np.hstack([f.linear for f in forms])
    constant = np.concatenate([f.constant for f in forms])
    spanned = max((k + 1 for k, g in enumerate(grids) if g), default=0)
    test = np.zeros((2 * grid, spanned * width))
    start = 0
    for k, (f, g) in enumerate(zip(forms, grids)):
        if g:
            columns = slice(k * width, (k + 1) * width)
            test[start:start + g, columns] = f.test[:g]
            test[grid + start:grid + start + g, columns] = f.test[g:]
        start += g
    rows = range(len(forms) - 1)
    floor = core.DEGENERACY_TOL * core.DEGENERACY_TOL

    def rhs(a: np.ndarray) -> np.ndarray:
        if a.shape != (width,):
            raise DimensionError(f"state has shape {a.shape}, expected ({width},)")
        v = a @ field
        v += offset
        u = v.reshape(2, grid)                             # [Re u, -Im u]
        modulus2 = u[0] * u[0]
        modulus2 += u[1] * u[1]
        u *= modulus2
        out = a @ linear
        out += constant
        out[:spanned * width] += v @ test
        out = out.reshape(-1, width)                       # [f; G]
        f, g = out[0], out[1:]
        products = (g @ out.T).tolist()                    # row k: [G_k f, C_k]
        active = [k for k in rows if products[k][k + 1] > floor]
        if not active:
            return f
        c = [[products[i][j + 1] for j in active] for i in active]
        b = [products[i][0] for i in active]
        lam = core._solve_small(c, b) if len(b) <= 3 else None
        if lam is None:
            lam = core.solve_lagrange(np.array(c), np.array(b))
        if len(active) < len(rows):
            g = g[active]
        return f - np.dot(lam, g)

    return rhs


def rom_run(
    a0,
    basis: PodBasis,
    t_final: float,
    snapshot_cadence: float,
    dt: float,
    quantities: Sequence[core.ConservedQuantity] = (),
) -> tuple[SnapshotSeries | list[SnapshotSeries], dict]:
    """Integrate a reduced model, recording reconstructed snapshots.

    Batch-transparent: a ``(2 N,)`` state is one run and a ``(B, 2 N)`` stack
    advances ``B`` runs together, with the outputs of :func:`_run_output`.
    The quantities are prepared as one :class:`~rons.core.ConstraintSet` for
    the run.  A single constrained run whose quantities all declare their
    gradient forms (those of :func:`rom_quantities`) evaluates the operator
    and every gradient in one pass of :func:`_grons_single_rhs`, which
    agrees with :func:`rom_rhs` to round-off; a batch, a plain run and any
    other quantities go through :func:`rom_rhs`.  A single run carries no
    batch axis because a leading axis of one is slower: the correction would
    treat its gradients as per-member ones and skip the Python-float solve
    of one small system.
    """
    a0 = core.state_values(a0)
    constraints = core.ConstraintSet(basis.metric, quantities)
    rhs = _grons_single_rhs(basis, constraints) if a0.ndim == 1 else None
    traj = integrate(
        rhs or (lambda a: rom_rhs(a, basis, constraints)),
        a0,
        StepSchedule(t_final=t_final, dt=dt),
        stepper=step_rk4,
        observe_every=snapshot_cadence,
    )
    fields = basis.reconstruct_state(np.stack(traj.states))
    return _run_output(traj, fields, basis.length, dt)


def rom_run_batch(
    a0_batch: np.ndarray,
    basis: PodBasis,
    t_final: float,
    snapshot_cadence: float,
    dt: float,
    enforce: bool = False,
) -> tuple[list[SnapshotSeries], dict]:
    """:func:`rom_run` on ``(n_runs, 2 N)`` stacked real amplitudes, plain or,
    with ``enforce``, keeping the mass and energy of :func:`rom_quantities`."""
    return rom_run(np.atleast_2d(np.asarray(a0_batch, dtype=float)), basis, t_final,
                   snapshot_cadence, dt, quantities=rom_quantities(basis) if enforce else ())


# ---------------------------------------------------------------------------
# Error metrics and envelope statistics


def relative_errors(
    truth: SnapshotSeries,
    reduced: SnapshotSeries,
    t_start: float,
    t_end: float,
) -> tuple[np.ndarray, float]:
    """Instantaneous and total relative errors over ``[t_start, t_end]``.

    ``eps_I(t) = int |u - u_hat|^2 dx / int |u|^2 dx`` by the rectangle rule;
    the total error integrates numerator and denominator in time with the
    trapezoid rule before taking the ratio.  Series on different grids
    (grid size or domain length) raise :class:`AlignmentError`.
    """
    if truth.snapshots.shape[1:] != reduced.snapshots.shape[1:] or truth.length != reduced.length:
        raise AlignmentError("truth and reduced series live on different grids")
    tw = truth.window(t_start, t_end)
    rw = reduced.window(t_start, t_end)
    if tw.times.shape != rw.times.shape or not np.allclose(
        tw.times, rw.times, rtol=0.0, atol=1e-9
    ):
        raise AlignmentError("truth and reduced series are sampled at different times")
    if tw.times.size < 2:
        raise AlignmentError("need at least two samples inside the error window")
    num = np.sum(np.abs(tw.snapshots - rw.snapshots) ** 2, axis=1)
    den = np.sum(np.abs(tw.snapshots) ** 2, axis=1)
    if np.any(den <= 0):
        raise ValidationError("truth field vanishes inside the error window")
    instantaneous = num / den
    total = float(np.trapezoid(num, tw.times) / np.trapezoid(den, tw.times))
    return instantaneous, total


def max_envelope(series: SnapshotSeries) -> np.ndarray:
    """Per-snapshot maximum of ``|u|`` over the grid."""
    return np.max(np.abs(series.snapshots), axis=1)


def max_envelope_pdf(samples: np.ndarray, bins) -> tuple[np.ndarray, np.ndarray]:
    """Normalized histogram (integral one) of max-envelope samples."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValidationError("cannot histogram an empty sample set")
    density, edges = np.histogram(samples, bins=bins, density=True)
    return edges, density
