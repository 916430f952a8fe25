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
from typing import Sequence

import numpy as np

from . import core
from .errors import (
    AlignmentError,
    DimensionError,
    DivergenceError,
    RankError,
    ResampledInitialConditionWarning,
    ValidationError,
)
from .integrators import StepSchedule, integrate, step_rk4

#: Desk-scale defaults; production-scale values go in run configs.
DEFAULT_LENGTH = 32.0 * np.pi
DEFAULT_MODES = 256
DEFAULT_ROM_MODES = 9

#: RK4 step bound dt <= safety / k_max^2 for the stiffest dispersive mode.
DT_SAFETY = 0.5


def wavenumbers(n: int, length: float) -> np.ndarray:
    """Spectral wavenumbers in FFT order for an ``n``-point grid on ``[0, L]``."""
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def stable_dt(n: int, length: float, safety: float = DT_SAFETY) -> float:
    """Fixed RK4 step from the stability bound ``safety / k_max^2``."""
    k_max = np.pi * n / length
    return safety / k_max**2


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

    @property
    def grid(self) -> np.ndarray:
        n = self.n_modes
        return np.arange(n) * (self.length / n)

    def values(self) -> np.ndarray:
        return np.fft.ifft(self.coefficients)


def _dealiased_cubic(values: np.ndarray) -> np.ndarray:
    """``|u|^2 u`` evaluated on a 3/2-padded grid, truncated back.

    Works on the last axis, so batches of fields go through in one call.
    """
    n = values.shape[-1]
    if n % 2:
        raise ValidationError("pseudo-spectral grids must have an even size")
    m = 3 * n // 2
    spec = np.fft.fft(values, axis=-1)
    half = n // 2
    padded = np.zeros(values.shape[:-1] + (m,), dtype=complex)
    padded[..., : half + 1] = spec[..., : half + 1]
    padded[..., m - (n - half - 1):] = spec[..., half + 1:]
    fine = np.fft.ifft(padded, axis=-1) * (m / n)
    cubic = np.fft.fft(np.abs(fine) ** 2 * fine, axis=-1) * (n / m)
    out = np.empty(values.shape, dtype=complex)
    out[..., : half + 1] = cubic[..., : half + 1]
    out[..., half + 1:] = cubic[..., m - (n - half - 1):]
    return np.fft.ifft(out, axis=-1)


def _linear_multiplier(n: int, length: float) -> np.ndarray:
    """Spectral multiplier ``-ik/2 + ik^2/8`` with the Nyquist ``ik`` zeroed."""
    k = wavenumbers(n, length)
    ik = 1j * k
    if n % 2 == 0:
        ik = ik.copy()
        ik[n // 2] = 0.0  # Nyquist mode has no well-defined odd derivative
    return -0.5 * ik + 0.125j * k * k


def _rhs_spectrum(spec: np.ndarray, length: float) -> np.ndarray:
    """Spectral-space envelope derivative; batch-transparent over leading axes."""
    n = spec.shape[-1]
    linear = _linear_multiplier(n, length) * spec
    cubic = -0.5j * _dealiased_cubic(np.fft.ifft(spec, axis=-1))
    return linear + np.fft.fft(cubic, axis=-1)


def nls_rhs(field: SpectralField) -> SpectralField:
    """Time derivative of the envelope, as a spectral field.

    Linear terms act in spectral space with multiplier ``-ik/2 + ik^2/8``;
    the cubic term is evaluated pseudo-spectrally with 3/2-rule padding.
    """
    spec = field.coefficients
    if not np.all(np.isfinite(spec)):
        raise DivergenceError("non-finite spectral coefficients")
    return SpectralField(_rhs_spectrum(spec, field.length), field.length)


def nls_rhs_values(values: np.ndarray, length: float) -> np.ndarray:
    """Grid-space envelope derivative; batch-transparent over leading axes."""
    values = np.asarray(values, dtype=complex)
    n = values.shape[-1]
    spec = np.fft.fft(values, axis=-1)
    linear = np.fft.ifft(_linear_multiplier(n, length) * spec, axis=-1)
    return linear - 0.5j * _dealiased_cubic(values)


def spectral_derivative(values: np.ndarray, length: float) -> np.ndarray:
    """Exact spectral first derivative on the periodic grid."""
    n = values.shape[0]
    k = wavenumbers(n, length)
    ik = 1j * k
    if n % 2 == 0:
        ik = ik.copy()
        ik[n // 2] = 0.0
    return np.fft.ifft(ik * np.fft.fft(values))


def field_invariants(values: np.ndarray, length: float) -> tuple[float, float]:
    """Discrete mass and energy of a grid field (rectangle rule)."""
    values = np.asarray(values, dtype=complex)
    n = values.shape[0]
    dx = length / n
    ux = spectral_derivative(values, length)
    mass = dx * float(np.sum(np.abs(values) ** 2))
    energy = dx * float(
        np.sum(np.abs(ux) ** 2) / 8.0 - np.sum(np.abs(values) ** 4) / 4.0
    )
    return mass, energy


def nls_random_ic(
    seed: int, length: float = DEFAULT_LENGTH, n_modes: int = DEFAULT_MODES,
    target_amplitude: float = 0.13, max_resamples: int = 16,
) -> SpectralField:
    """Random-phase multi-cosine envelope rescaled to realistic steepness.

    ``sum_{j=3}^{8} exp(-j^2/10) cos(2 pi j x / L + phi_j)`` with uniform
    phases, rescaled so the grid maximum equals ``target_amplitude``.
    """
    x = np.arange(n_modes) * (length / n_modes)
    for attempt in range(max_resamples):
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
            return SpectralField.from_values(target_amplitude * profile / peak, length)
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

    Returns the snapshot series and a diagnostics dict with the mass/energy
    histories and their relative drifts.
    """
    if dt is None:
        dt = stable_dt(ic.n_modes, ic.length)
    length = ic.length

    def rhs(spec):
        return nls_rhs(SpectralField(spec, length)).coefficients

    def invariant_observer(t, spec):
        mass, energy = field_invariants(np.fft.ifft(spec), length)
        return {"mass": mass, "energy": energy}

    schedule = StepSchedule(t_final=t_final, dt=dt)
    traj = integrate(
        rhs,
        ic.coefficients,
        schedule,
        stepper=step_rk4,
        observers=(invariant_observer,),
        observe_every=snapshot_cadence,
    )
    snapshots = np.stack([np.fft.ifft(s) for s in traj.states])
    series = SnapshotSeries(traj.times, snapshots, length)
    mass = np.array([d["mass"] for d in traj.diagnostics])
    energy = np.array([d["energy"] for d in traj.diagnostics])
    diagnostics = {
        "mass": mass,
        "energy": energy,
        "mass_drift": relative_drift(mass),
        "energy_drift": relative_drift(energy),
        "dt": dt,
        "n_steps": len(traj.dt_history),
    }
    return series, diagnostics


def relative_drift(series: np.ndarray, floor: float = 1e-300) -> float:
    """Max departure from the initial value, relative to its magnitude."""
    series = np.asarray(series, dtype=float)
    scale = max(abs(series[0]), np.max(np.abs(series)), floor)
    return float(np.max(np.abs(series - series[0])) / scale)


# ---------------------------------------------------------------------------
# POD basis and reduced models


@dataclass
class PodBasis:
    """Mean plus orthonormal modes extracted from snapshots.

    ``modes`` has one mode per row, orthonormal under the discrete inner
    product ``<f, g> = dx * sum conj(f) g``.  Mode derivatives are
    precomputed spectrally so reduced-state energy gradients are exact.
    """

    mean: np.ndarray
    modes: np.ndarray
    mode_derivatives: np.ndarray
    mean_derivative: np.ndarray
    length: float
    singular_values: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=complex)
        self.modes = np.asarray(self.modes, dtype=complex)
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

    def project(self, values: np.ndarray) -> np.ndarray:
        """Complex mode coefficients ``<phi_i, values>`` along the last axis
        (no mean handling)."""
        values = np.asarray(values, dtype=complex)
        if values.shape[-1] != self.n_grid:
            raise DimensionError("field lives on a different grid than the basis")
        return self.dx * (values @ self.modes.conj().T)

    def amplitudes(self, a) -> np.ndarray:
        """Complex amplitudes ``z = a_re - i a_im`` of stacked real states
        ``(..., 2 N)``; the inverse of :func:`stack_amplitudes`."""
        values = core.state_values(a)
        if values.shape[-1] != 2 * self.n_modes:
            raise DimensionError(
                f"state has width {values.shape[-1]}, expected {2 * self.n_modes}"
            )
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
    Requesting more modes than the numerical rank raises :class:`RankError`
    naming the usable count.
    """
    snaps = np.asarray(snapshots, dtype=complex)
    if snaps.ndim != 2:
        raise DimensionError("snapshot matrix must be 2-d (n_times, n_grid)")
    n_times, n_grid = snaps.shape
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
    mode_dx = np.stack([spectral_derivative(m, length) for m in modes])
    return PodBasis(
        mean=mean,
        modes=modes,
        mode_derivatives=mode_dx,
        mean_derivative=spectral_derivative(mean, length),
        length=length,
        singular_values=s.copy(),
    )


def project_ic(u0, basis: PodBasis) -> core.ParameterState:
    """Stacked real amplitudes of ``u0 - mean`` in the basis."""
    values = u0.values() if isinstance(u0, SpectralField) else np.asarray(u0, dtype=complex)
    z = basis.project(values - basis.mean)
    return core.ParameterState(basis.layout.pack([z]), basis.layout)


def random_rom_ic(seed: int, basis: PodBasis, n_active: int = 5) -> core.ParameterState:
    """Uniform [0, 1] amplitudes on the leading modes, zero elsewhere."""
    rng = np.random.default_rng(seed)
    z = np.zeros(basis.n_modes, dtype=complex)
    k = min(n_active, basis.n_modes)
    z[:k] = rng.uniform(0.0, 1.0, k)
    return core.ParameterState(basis.layout.pack([z]), basis.layout)


def rom_quantities(basis: PodBasis) -> tuple[core.ConservedQuantity, core.ConservedQuantity]:
    """Discrete mass and energy as functions of the stacked amplitudes.

    Gradients come from the chain rule through ``u(a) = mean + sum z_i phi_i``
    with ``z = a_re - i a_im``: for a functional with first variation
    ``dI = Re <w, du>`` the stacked gradient is ``[Re r, Im r]`` with
    ``r_i = <w, phi_i>``, which is ``stack_amplitudes`` of the projection
    ``conj(r_i) = <phi_i, w>``.  The mass variation ``w = 2 u`` and the
    kinetic part ``w = -u_xx / 4`` are affine in ``z``, so their projections
    are precomputed Gram matrices; only the quartic part ``w = -|u|^2 u``
    needs the grid field.  Gradients are batch-transparent over leading axes.
    """
    dx = basis.dx
    mode_dx_h = basis.mode_derivatives.conj().T
    mass_offset = basis.project(basis.mean)
    mass_gram = basis.project(basis.modes)
    stiffness_offset = dx * (basis.mean_derivative @ mode_dx_h)
    stiffness = dx * (basis.mode_derivatives @ mode_dx_h)

    def mass_value(a):
        u = basis.reconstruct_state(a)
        return dx * float(np.sum(np.abs(u) ** 2))

    def mass_gradient(a):
        return stack_amplitudes(2.0 * (mass_offset + basis.amplitudes(a) @ mass_gram))

    def energy_value(a):
        z = basis.amplitudes(a)
        u = basis.reconstruct(z)
        ux = basis.mean_derivative + z @ basis.mode_derivatives
        return dx * float(np.sum(np.abs(ux) ** 2) / 8.0 - np.sum(np.abs(u) ** 4) / 4.0)

    def energy_gradient(a):
        z = basis.amplitudes(a)
        u = basis.reconstruct(z)
        kinetic = 0.25 * (stiffness_offset + z @ stiffness)
        return stack_amplitudes(kinetic - basis.project((u * u.conj()).real * u))

    return (
        core.ConservedQuantity("mass", mass_value, mass_gradient),
        core.ConservedQuantity("energy", energy_value, energy_gradient),
    )


def nls_invariants(a, basis: PodBasis):
    """Mass/energy values and stacked-state gradients at reduced state ``a``."""
    quantities = rom_quantities(basis)
    values = np.array([q.value(a) for q in quantities])
    gradients = [q.gradient(a) for q in quantities]
    return values, gradients


def rom_rhs(a, basis: PodBasis, quantities: Sequence[core.ConservedQuantity] = (),
            degeneracy_tol: float = core.DEGENERACY_TOL) -> np.ndarray:
    """Reduced time derivative; constrained when quantities are given.

    The plain-Galerkin path projects the pseudo-spectral right-hand side onto
    the modes (identity metric, orthonormal modes).  With quantities the
    Lagrange correction enforces their conservation exactly in continuous
    time -- the invariant-constrained reduced model.  Batch-transparent:
    ``a`` is ``(..., 2 N)`` and each member gets its own multipliers.
    """
    values = core.state_values(a)
    u = basis.reconstruct_state(values)
    f = stack_amplitudes(basis.project(nls_rhs_values(u, basis.length)))
    if not quantities:
        return f
    return core.apply_invariant_correction(
        core.MetricTensor.identity(f.shape[-1]),
        f,
        [q.gradient(values) for q in quantities],
        degeneracy_tol,
    )


def rom_run(
    a0,
    basis: PodBasis,
    t_final: float,
    snapshot_cadence: float,
    dt: float,
    quantities: Sequence[core.ConservedQuantity] = (),
) -> tuple[SnapshotSeries, dict]:
    """Integrate a reduced model, recording reconstructed snapshots."""
    values0 = core.state_values(a0)

    def rhs(a):
        return rom_rhs(a, basis, quantities)

    invariant_fns = rom_quantities(basis)

    def invariant_observer(t, a):
        return {q.name: q.value(a) for q in invariant_fns}

    schedule = StepSchedule(t_final=t_final, dt=dt)
    traj = integrate(
        rhs,
        values0,
        schedule,
        stepper=step_rk4,
        observers=(invariant_observer,),
        observe_every=snapshot_cadence,
    )
    snapshots = np.stack([basis.reconstruct_state(s) for s in traj.states])
    series = SnapshotSeries(traj.times, snapshots, basis.length)
    mass = np.array([d["mass"] for d in traj.diagnostics])
    energy = np.array([d["energy"] for d in traj.diagnostics])
    diagnostics = {
        "mass": mass,
        "energy": energy,
        "mass_drift": relative_drift(mass),
        "energy_drift": relative_drift(energy),
        "states": traj.states,
        "dt": dt,
        "n_steps": len(traj.dt_history),
    }
    return series, diagnostics


# ---------------------------------------------------------------------------
# Batched engines: many seeds advanced as one stacked state.
#
# On a single core these replace process fan-out for ensembles; they evaluate
# the same batch-transparent operators as the per-run functions (last-axis
# layout, the same constraint kernel with member-wise degeneracy masking and
# least-squares fallback), so results match those functions to round-off.


def dns_run_batch(
    ics: Sequence[SpectralField],
    t_final: float,
    snapshot_cadence: float,
    dt: float | None = None,
) -> tuple[list[SnapshotSeries], dict]:
    """Advance many DNS runs together; returns one series per member."""
    if not ics:
        raise ValidationError("need at least one initial condition")
    length = ics[0].length
    n = ics[0].n_modes
    for ic in ics:
        if ic.length != length or ic.n_modes != n:
            raise DimensionError("batched runs need identical domains")
    if dt is None:
        dt = stable_dt(n, length)
    specs = np.stack([ic.coefficients for ic in ics])

    schedule = StepSchedule(t_final=t_final, dt=dt)
    traj = integrate(
        lambda s: _rhs_spectrum(s, length),
        specs,
        schedule,
        stepper=step_rk4,
        observe_every=snapshot_cadence,
    )
    stacked = np.stack(traj.states)                      # (T, B, n)
    fields = np.fft.ifft(stacked, axis=-1)
    series = [
        SnapshotSeries(traj.times, fields[:, b], length) for b in range(len(ics))
    ]
    mass, energy = _batch_invariants(fields, length)
    diagnostics = {
        "mass": mass,
        "energy": energy,
        "mass_drift": np.array([relative_drift(m) for m in mass.T]),
        "energy_drift": np.array([relative_drift(e) for e in energy.T]),
        "dt": dt,
        "n_steps": len(traj.dt_history),
    }
    return series, diagnostics


def _batch_invariants(fields: np.ndarray, length: float):
    """Mass/energy for a (..., n) stack of grid fields."""
    n = fields.shape[-1]
    dx = length / n
    k = wavenumbers(n, length)
    ik = 1j * k
    if n % 2 == 0:
        ik = ik.copy()
        ik[n // 2] = 0.0
    ux = np.fft.ifft(ik * np.fft.fft(fields, axis=-1), axis=-1)
    mass = dx * np.sum(np.abs(fields) ** 2, axis=-1)
    energy = dx * (
        np.sum(np.abs(ux) ** 2, axis=-1) / 8.0 - np.sum(np.abs(fields) ** 4, axis=-1) / 4.0
    )
    return mass, energy


def rom_run_batch(
    a0_batch: np.ndarray,
    basis: PodBasis,
    t_final: float,
    snapshot_cadence: float,
    dt: float,
    enforce: bool = False,
) -> tuple[list[SnapshotSeries], dict]:
    """Advance many reduced models together (plain or invariant-constrained).

    ``a0_batch`` is (n_runs, 2 N) stacked real amplitudes.  Each step
    evaluates :func:`rom_rhs` on the whole batch; with ``enforce`` that is
    the mass- and energy-constrained model of :func:`rom_quantities`, with
    one Lagrange solve per member.
    """
    a0_batch = np.atleast_2d(np.asarray(a0_batch, dtype=float))
    length = basis.length
    quantities = rom_quantities(basis) if enforce else ()

    def rhs(A):
        return rom_rhs(A, basis, quantities)

    schedule = StepSchedule(t_final=t_final, dt=dt)
    traj = integrate(rhs, a0_batch, schedule, stepper=step_rk4,
                     observe_every=snapshot_cadence)
    fields = basis.reconstruct_state(np.stack(traj.states))   # (T, B, n)
    series = [
        SnapshotSeries(traj.times, fields[:, b], length)
        for b in range(a0_batch.shape[0])
    ]
    mass, energy = _batch_invariants(fields, length)
    diagnostics = {
        "mass": mass,
        "energy": energy,
        "mass_drift": np.array([relative_drift(m) for m in mass.T]),
        "energy_drift": np.array([relative_drift(e) for e in energy.T]),
        "dt": dt,
        "n_steps": len(traj.dt_history),
    }
    return series, diagnostics


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
    trapezoid rule before taking the ratio.
    """
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
