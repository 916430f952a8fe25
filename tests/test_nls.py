import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from rons import core, io, nls
from rons.errors import (
    AlignmentError,
    DivergenceError,
    IllConditionedConstraintWarning,
    RankError,
    ResampledInitialConditionWarning,
    ValidationError,
)

from conftest import failing_draws

LENGTH = 16.0 * np.pi
N_GRID = 64


def plane_wave(amplitude, wavenumber_index, n=N_GRID, length=LENGTH):
    x = np.arange(n) * (length / n)
    k = 2.0 * np.pi * wavenumber_index / length
    return amplitude * np.exp(1j * k * x), k


def fourier_basis(n_modes, n=N_GRID, length=LENGTH):
    """Orthonormal Fourier modes as a basis container (zero mean)."""
    x = np.arange(n) * (length / n)
    ks = [2.0 * np.pi * m / length for m in range(-(n_modes // 2), n_modes - n_modes // 2)]
    modes = np.stack([np.exp(1j * k * x) / np.sqrt(length) for k in ks])
    return nls.PodBasis(
        mean=np.zeros(n, dtype=complex),
        modes=modes,
        length=length,
        singular_values=np.ones(n_modes),
    )


def pod_basis_with_mean(n_modes=6, n=N_GRID, seed=11):
    """POD basis of noisy snapshots around a plane wave, so the mean is nonzero."""
    rng = np.random.default_rng(seed)
    x = np.arange(n) * (LENGTH / n)
    carrier = 0.3 * np.exp(2j * np.pi * 3 * x / LENGTH)
    noise = rng.standard_normal((30, n)) + 1j * rng.standard_normal((30, n))
    return nls.compute_pod(carrier + 0.1 * noise, n_modes, LENGTH)


def prepared(basis, quantities):
    """``quantities`` prepared once against the basis's metric."""
    return core.ConstraintSet(basis.metric, quantities)


def reference_rhs_spectrum(spec, length):
    """Oracle: the right-hand side composed the long way, six FFTs.

    Back to grid values; interpolate them onto the 3/2 grid through their
    own spectrum (Nyquist coefficient in the positive half); cube there;
    truncate the cube's spectrum; back to grid values, times ``-i/2``; and
    forward again beside the linear term ``(-ik/2 + ik^2/8) u_k`` with the
    Nyquist ``ik`` zeroed.
    """
    n = spec.shape[-1]
    m, half = 3 * n // 2, n // 2
    values_spec = np.fft.fft(np.fft.ifft(spec, axis=-1), axis=-1)
    padded = np.zeros(spec.shape[:-1] + (m,), dtype=complex)
    padded[..., : half + 1] = values_spec[..., : half + 1]
    padded[..., m - (n - half - 1):] = values_spec[..., half + 1:]
    fine = np.fft.ifft(padded, axis=-1) * (m / n)
    fine_cubic = np.fft.fft(np.abs(fine) ** 2 * fine, axis=-1) * (n / m)
    truncated = np.empty(spec.shape, dtype=complex)
    truncated[..., : half + 1] = fine_cubic[..., : half + 1]
    truncated[..., half + 1:] = fine_cubic[..., m - (n - half - 1):]
    cubic = -0.5j * np.fft.ifft(truncated, axis=-1)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    ik = 1j * k
    ik[half] = 0.0
    return (-0.5 * ik + 0.125j * k * k) * spec + np.fft.fft(cubic, axis=-1)


def pseudo_spectral_rom_rhs(a, basis):
    """Oracle: the full dealiased right-hand side of the reconstructed field,
    projected back onto the modes."""
    u = basis.reconstruct_state(a)
    return core.stack_complex(basis.project(nls.nls_rhs_values(u, basis.length)))


def grid_gradients(a, basis):
    """Oracle: mass and energy gradients from their first variations on the grid."""
    u = basis.reconstruct_state(a)
    ux = nls.spectral_derivative(u, basis.length)
    dx = basis.dx
    mass = 2.0 * dx * (u @ basis.modes.conj().T)
    kinetic = 0.25 * dx * (ux @ basis.mode_derivatives.conj().T)
    quartic = dx * ((np.abs(u) ** 2 * u) @ basis.modes.conj().T)
    return [core.stack_complex(mass), core.stack_complex(kinetic - quartic)]


def assert_relative_close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestSpectralField:
    def test_parseval(self, rng):
        u = rng.standard_normal(N_GRID) + 1j * rng.standard_normal(N_GRID)
        field = nls.SpectralField.from_values(u, LENGTH)
        dx = LENGTH / N_GRID
        grid_side = dx * np.sum(np.abs(u) ** 2)
        spectral_side = (LENGTH / N_GRID**2) * np.sum(np.abs(field.coefficients) ** 2)
        assert grid_side == pytest.approx(spectral_side, rel=1e-10)

    def test_roundtrip(self, rng):
        u = rng.standard_normal(N_GRID) + 1j * rng.standard_normal(N_GRID)
        assert np.allclose(nls.SpectralField.from_values(u, LENGTH).values(), u)


class TestRhs:
    def test_zero_field(self):
        assert not nls.nls_rhs_values(np.zeros(N_GRID), LENGTH).any()

    def test_linear_multiplier_shared_and_read_only(self):
        # built once per grid; callers must not be able to corrupt the copy
        multiplier = nls._linear_multiplier(N_GRID, LENGTH)
        assert nls._linear_multiplier(N_GRID, LENGTH) is multiplier
        assert not multiplier.flags.writeable

    def test_plane_wave_exact_nonlinear_mode(self):
        # oracle: substituting A e^{ikx} into the PDE gives the multiplier
        # -ik/2 + i k^2 / 8 - i |A|^2 / 2
        u, k = plane_wave(0.3, 5)
        rhs = nls.nls_rhs_values(u, LENGTH)
        expected = (-0.5j * k + 0.125j * k * k - 0.5j * 0.3**2) * u
        assert np.max(np.abs(rhs - expected)) < 1e-14

    def test_mass_rate_vanishes(self, rng):
        # d/dt of the discrete mass is 2 Re <u, u_t>, zero for this operator
        u = 0.1 * (rng.standard_normal(N_GRID) + 1j * rng.standard_normal(N_GRID))
        rhs = nls.nls_rhs_values(u, LENGTH)
        dx = LENGTH / N_GRID
        rate = 2.0 * dx * np.sum(np.real(np.conj(u) * rhs))
        assert abs(rate) < 1e-10 * max(1.0, dx * np.sum(np.abs(u) ** 2))

    def test_grid_and_spectral_paths_agree(self, rng):
        u = 0.2 * (rng.standard_normal(N_GRID) + 1j * rng.standard_normal(N_GRID))
        via_values = nls.nls_rhs_values(u, LENGTH)
        # the grid-space entry point against the six-FFT spectral oracle
        via_spectrum = np.fft.ifft(reference_rhs_spectrum(np.fft.fft(u), LENGTH))
        assert np.max(np.abs(via_values - via_spectrum)) < 1e-13


@st.composite
def spectra(draw):
    """Spectra of random fields: batch shape, even grid size, amplitude."""
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    n = 2 * draw(st.integers(2, 64))
    amplitude = draw(st.floats(1e-3, 1.0))
    parts = hnp.arrays(float, (2,) + batch + (n,), elements=st.floats(-1.0, 1.0))
    re, im = draw(parts)
    return np.fft.fft(amplitude * (re + 1j * im), axis=-1)


class TestTwoFftRhs:
    """The two-FFT spectral evaluation against the six-FFT composition."""

    @given(spectra(), st.sampled_from([2.0 * np.pi, LENGTH]))
    def test_matches_six_fft_composition(self, spec, length):
        assert_relative_close(
            nls._dns_rhs(spec.shape, length)(spec), reference_rhs_spectrum(spec, length), 1e-13
        )

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_one_forward_and_one_inverse_fft(self, batch, rng, monkeypatch):
        u = rng.standard_normal(batch + (N_GRID,)) + 1j * rng.standard_normal(batch + (N_GRID,))
        spec = np.fft.fft(0.2 * u, axis=-1)
        calls = []
        for name in ("fft", "ifft"):
            def counted(*args, _name=name, _original=getattr(np.fft, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        nls._dns_rhs(spec.shape, LENGTH)(spec)
        assert sorted(calls) == ["fft", "ifft"]
        calls.clear()
        nls.nls_rhs_values(u, LENGTH)
        assert sorted(calls) == ["fft", "fft", "ifft", "ifft"]

    def test_zero_spectrum_gives_exact_zero(self):
        zero = np.zeros((2, N_GRID), dtype=complex)
        rhs = nls._dns_rhs(zero.shape, LENGTH)(zero)
        assert rhs.shape == (2, N_GRID) and not rhs.any()

    def test_odd_grid_rejected(self):
        field = nls.SpectralField.from_values(np.full(N_GRID - 1, 0.1), LENGTH)
        with pytest.raises(ValidationError):
            nls.nls_rhs_values(field.values(), LENGTH)
        with pytest.raises(ValidationError):
            nls.dns_run(field, 0.5, 0.25)


class TestRandomIc:
    def test_component_amplitudes(self):
        # six cosine components j = 3..8 with amplitudes exp(-j^2/10)
        field = nls.nls_random_ic(3, LENGTH, 256)
        spec = np.abs(np.fft.fft(field.values())) / 256
        present = {j for j in range(1, 12) if spec[j] > 1e-12}
        assert present == {3, 4, 5, 6, 7, 8}

    def test_peak_amplitude(self):
        field = nls.nls_random_ic(4, LENGTH, 256)
        assert np.max(field.values().real) == pytest.approx(0.13, rel=1e-12)

    def test_deterministic(self):
        a = nls.nls_random_ic(9, LENGTH, 128).values()
        b = nls.nls_random_ic(9, LENGTH, 128).values()
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("failures", [1, 3])
    def test_resampled_after_failed_draws(self, monkeypatch, failures):
        # the draw from seed 9 + failures, warned once at the caller's line
        want = nls.nls_random_ic(9 + failures, LENGTH, 128).coefficients
        seeds = failing_draws(monkeypatch, failures)
        with pytest.warns(ResampledInitialConditionWarning,
                          match=rf"^initial condition resampled {failures} time\(s\) "
                                r"from seed 9$") as caught:
            got = nls.nls_random_ic(9, LENGTH, 128).coefficients
        assert seeds == list(range(9, 10 + failures))
        assert np.array_equal(got, want)
        assert len(caught) == 1 and caught[0].filename == __file__

    def test_every_draw_failing(self, monkeypatch):
        seeds = failing_draws(monkeypatch, core.IC_MAX_RESAMPLES)
        with pytest.raises(ValidationError,
                           match="^could not draw a usable initial condition from seed 9$"):
            nls.nls_random_ic(9, LENGTH, 128)
        assert seeds == list(range(9, 9 + core.IC_MAX_RESAMPLES))


class TestDnsRun:
    def test_zero_ic_stays_zero(self):
        ic = nls.SpectralField.from_values(np.zeros(N_GRID), LENGTH)
        series, diag = nls.dns_run(ic, 1.0, 0.5)
        assert not series.snapshots.any()

    def test_plane_wave_modulus_constant(self):
        u, _ = plane_wave(0.1, 3)
        series, _ = nls.dns_run(nls.SpectralField.from_values(u, LENGTH), 2.0, 0.5)
        mods = np.abs(series.snapshots)
        assert np.max(np.abs(mods - 0.1)) < 1e-10

    def test_invariant_drift_small(self):
        ic = nls.nls_random_ic(2, LENGTH, N_GRID)
        _, diag = nls.dns_run(ic, 5.0, 1.0)
        assert diag["mass_drift"] < 1e-8
        assert diag["energy_drift"] < 1e-8


class TestPod:
    def test_rank_zero_after_centering(self):
        snaps = np.tile(np.exp(1j * np.arange(N_GRID)), (6, 1))
        with pytest.raises(RankError):
            nls.compute_pod(snaps, 1, LENGTH)

    def test_two_field_span_recovery(self, rng):
        # oracle: synthetic snapshots built from two orthogonal fields must be
        # reproduced by a rank-2 basis with negligible projection residual
        x = np.arange(N_GRID) * (LENGTH / N_GRID)
        f1 = np.exp(2j * np.pi * x / LENGTH)
        f2 = np.exp(-4j * np.pi * x / LENGTH)
        coeffs = rng.standard_normal((12, 2))
        snaps = coeffs[:, :1] * f1 + coeffs[:, 1:] * f2
        basis = nls.compute_pod(snaps, 2, LENGTH)
        for snap in snaps:
            recon = basis.reconstruct(basis.project(snap - basis.mean))
            assert np.max(np.abs(recon - snap)) < 1e-10

    def test_modes_orthonormal(self, rng):
        snaps = 0.1 * (rng.standard_normal((30, N_GRID)) + 1j * rng.standard_normal((30, N_GRID)))
        basis = nls.compute_pod(snaps, 5, LENGTH)
        gram = basis.dx * (basis.modes.conj() @ basis.modes.T)
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8

    def test_too_few_snapshots(self):
        with pytest.raises(RankError):
            nls.compute_pod(np.zeros((3, N_GRID), dtype=complex), 5, LENGTH)

    @pytest.mark.parametrize("n_modes", [0, -2])
    def test_fewer_than_one_mode_rejected(self, rng, n_modes):
        snaps = 0.1 * (rng.standard_normal((30, N_GRID)) + 1j * rng.standard_normal((30, N_GRID)))
        with pytest.raises(ValidationError):
            nls.compute_pod(snaps, n_modes, LENGTH)


class TestProjectIc:
    def test_mean_projects_to_zero(self, rng):
        snaps = 0.1 * (rng.standard_normal((20, N_GRID)) + 1j * rng.standard_normal((20, N_GRID)))
        basis = nls.compute_pod(snaps, 3, LENGTH)
        state = nls.project_ic(basis.mean.copy(), basis)
        assert np.max(np.abs(state.values)) < 1e-12

    def test_single_mode_recovered(self, rng):
        snaps = 0.1 * (rng.standard_normal((20, N_GRID)) + 1j * rng.standard_normal((20, N_GRID)))
        basis = nls.compute_pod(snaps, 3, LENGTH)
        state = nls.project_ic(basis.mean + basis.modes[0], basis)
        z = basis.layout.unpack(state.values)[0]
        assert np.allclose(z, [1.0, 0.0, 0.0], atol=1e-10)

    def test_reconstruction_error_is_orthogonal_complement(self, rng):
        # Pythagoras under the discrete inner product
        snaps = 0.1 * (rng.standard_normal((20, N_GRID)) + 1j * rng.standard_normal((20, N_GRID)))
        basis = nls.compute_pod(snaps, 4, LENGTH)
        u0 = 0.1 * (rng.standard_normal(N_GRID) + 1j * rng.standard_normal(N_GRID))
        state = nls.project_ic(u0, basis)
        recon = basis.reconstruct_state(state)
        dx = basis.dx
        total = dx * np.sum(np.abs(u0 - basis.mean) ** 2)
        # projection coefficients already carry the dx weight
        captured = np.sum(np.abs(basis.project(u0 - basis.mean)) ** 2)
        residual = dx * np.sum(np.abs(u0 - recon) ** 2)
        assert residual == pytest.approx(total - captured, rel=1e-9)


class TestRomInvariants:
    def test_constant_field_closed_form(self):
        # u = c: mass |c|^2 L, energy -|c|^4 L / 4
        basis = fourier_basis(3)
        c = 0.2 - 0.1j
        # constant field is the k=0 mode scaled by sqrt(L)
        z = np.zeros(3, dtype=complex)
        z[1] = c * np.sqrt(LENGTH)  # ks = [-1, 0, 1] ordering puts k=0 second
        a = basis.layout.pack([z])
        values = [q.value(a) for q in nls.rom_quantities(basis)]
        assert values[0] == pytest.approx(abs(c) ** 2 * LENGTH, rel=1e-12)
        assert values[1] == pytest.approx(-0.25 * abs(c) ** 4 * LENGTH, rel=1e-12)

    def test_plane_wave_closed_form(self):
        basis = fourier_basis(5)
        amplitude = 0.3
        k = 2.0 * np.pi * 2 / LENGTH  # ks = [-2,-1,0,1,2]; index 4 is k=+2
        z = np.zeros(5, dtype=complex)
        z[4] = amplitude * np.sqrt(LENGTH)
        a = basis.layout.pack([z])
        values = [q.value(a) for q in nls.rom_quantities(basis)]
        assert values[0] == pytest.approx(amplitude**2 * LENGTH, rel=1e-12)
        assert values[1] == pytest.approx(
            (k**2 * amplitude**2 / 8.0 - amplitude**4 / 4.0) * LENGTH, rel=1e-12
        )

    def test_gradients_match_finite_differences(self, rng):
        snaps = 0.1 * (rng.standard_normal((20, N_GRID)) + 1j * rng.standard_normal((20, N_GRID)))
        basis = nls.compute_pod(snaps, 4, LENGTH)
        for q in nls.rom_quantities(basis):
            for _ in range(5):
                a = 0.5 * rng.standard_normal(8)
                fd = core.finite_difference_gradient(q.value, a)
                g = q.gradient(a)
                assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


class TestRomRhs:
    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
    def test_other_constraints_rejected_naming_the_fix(self, rng, batch):
        basis = pod_basis_with_mean()
        quantities = nls.rom_quantities(basis)
        a = 0.4 * rng.standard_normal(batch + (2 * basis.n_modes,))
        for constraints in (quantities, list(quantities), quantities[:1],
                            core.ConstraintSet(core.MetricTensor.identity(a.shape[-1]),
                                               quantities),
                            prepared(pod_basis_with_mean(), quantities)):
            with pytest.raises(ValidationError,
                               match=r"core\.ConstraintSet\(basis\.metric, quantities\)"):
                nls.rom_rhs(a, basis, constraints)

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
    def test_nothing_or_an_empty_set_is_the_plain_derivative_bitwise(self, rng, batch):
        basis = pod_basis_with_mean()
        a = 0.4 * rng.standard_normal(batch + (2 * basis.n_modes,))
        want = basis.reduced_operator(a).tobytes()
        assert nls.rom_rhs(a, basis).tobytes() == want
        assert nls.rom_rhs(a, basis, ()).tobytes() == want
        assert nls.rom_rhs(a, basis, prepared(basis, ())).tobytes() == want

    def test_unconstrained_equals_degenerate_constraint_state(self):
        basis = fourier_basis(3)
        zero_q = core.ConservedQuantity("null", lambda a: 0.0, lambda a: np.zeros_like(a))
        a = np.zeros(6)
        a[0] = 0.4
        assert np.array_equal(
            nls.rom_rhs(a, basis), nls.rom_rhs(a, basis, prepared(basis, (zero_q,)))
        )

    def test_constrained_tangency(self, rng):
        snaps = 0.1 * (rng.standard_normal((30, N_GRID)) + 1j * rng.standard_normal((30, N_GRID)))
        basis = nls.compute_pod(snaps, 4, LENGTH)
        quantities = prepared(basis, nls.rom_quantities(basis))
        for _ in range(5):
            a = 0.5 * rng.standard_normal(8)
            a_dot = nls.rom_rhs(a, basis, quantities)
            for q in quantities:
                g = q.gradient(a)
                bound = 1e-10 * np.linalg.norm(g) * max(np.linalg.norm(a_dot), 1.0)
                assert abs(g @ a_dot) <= bound

    @pytest.mark.parametrize("batch", [(), (4,)])
    def test_metric_built_once_per_basis(self, rng, batch):
        basis = pod_basis_with_mean()
        quantities = prepared(basis, nls.rom_quantities(basis))
        assert basis.metric is basis.metric
        assert np.array_equal(basis.metric.toarray(), np.eye(2 * basis.n_modes))
        a = 0.4 * rng.standard_normal(batch + (2 * basis.n_modes,))
        fresh = core.apply_invariant_correction(
            core.MetricTensor.identity(2 * basis.n_modes),
            basis.reduced_operator(a),
            [q.gradient(a) for q in quantities],
        )
        assert np.array_equal(nls.rom_rhs(a, basis, quantities), fresh)

    def test_full_fourier_rank_reproduces_dns(self):
        # plain projection on the complete Fourier basis is the
        # pseudo-spectral method itself; short trajectories must agree
        basis = fourier_basis(N_GRID)
        ic = nls.nls_random_ic(6, LENGTH, N_GRID)
        a0 = nls.project_ic(ic, basis)
        dt = nls.stable_dt(N_GRID, LENGTH)
        rom_series, _ = nls.rom_run(a0, basis, 2.0, 0.5, dt)
        dns_series, _ = nls.dns_run(ic, 2.0, 0.5, dt=dt)
        scale = np.max(np.abs(dns_series.snapshots))
        diff = np.max(np.abs(rom_series.snapshots - dns_series.snapshots))
        assert diff <= 1e-8 * scale


BASES = {
    "pod-with-mean": pod_basis_with_mean,
    "full-fourier": lambda: fourier_basis(N_GRID),
}


class TestReducedOperator:
    """The precomputed reduced operator against its definition, the projection
    of the pseudo-spectral right-hand side."""

    @pytest.mark.parametrize("name", sorted(BASES))
    @pytest.mark.parametrize("batch", [(), (1,), (20,)])
    def test_matches_pseudo_spectral_projection(self, name, batch, rng):
        basis = BASES[name]()
        a = 0.4 * rng.standard_normal(batch + (2 * basis.n_modes,))
        want = pseudo_spectral_rom_rhs(a, basis)
        assert_relative_close(nls.rom_rhs(a, basis), want, 1e-12)
        corrected = core.apply_invariant_correction(
            core.MetricTensor.identity(want.shape[-1]), want, grid_gradients(a, basis)
        )
        got = nls.rom_rhs(a, basis, prepared(basis, nls.rom_quantities(basis)))
        assert_relative_close(got, corrected, 1e-12)

    @pytest.mark.parametrize("name", sorted(BASES))
    def test_gradients_match_grid_formula(self, name, rng):
        basis = BASES[name]()
        a = 0.4 * rng.standard_normal((5, 2 * basis.n_modes))
        for q, want in zip(nls.rom_quantities(basis), grid_gradients(a, basis)):
            assert_relative_close(q.gradient(a), want, 1e-12)

    def test_online_evaluation_runs_no_fft(self, rng, monkeypatch):
        basis = pod_basis_with_mean()
        quantities = prepared(basis, nls.rom_quantities(basis))
        a = 0.4 * rng.standard_normal((3, 2 * basis.n_modes))
        expected = nls.rom_rhs(a, basis, quantities)

        def forbidden(*args, **kwargs):
            raise AssertionError("FFT called while evaluating the reduced model")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        monkeypatch.setattr(nls, "nls_rhs_values", forbidden)
        assert np.array_equal(nls.rom_rhs(a, basis, quantities), expected)

    @pytest.mark.parametrize("suffix", [".npz", ".json"])
    def test_reloaded_basis_gives_identical_rhs(self, suffix, tmp_path, rng):
        basis = pod_basis_with_mean()
        path = tmp_path / f"basis{suffix}"
        io.save_pod_basis(path, basis)
        reloaded = io.load_pod_basis(path)
        a = 0.4 * rng.standard_normal((4, 2 * basis.n_modes))
        assert np.array_equal(nls.rom_rhs(a, basis), nls.rom_rhs(a, reloaded))
        assert np.array_equal(
            nls.rom_rhs(a, basis, prepared(basis, nls.rom_quantities(basis))),
            nls.rom_rhs(a, reloaded, prepared(reloaded, nls.rom_quantities(reloaded))),
        )

    def test_odd_grid_rejected(self, rng):
        n = N_GRID - 1
        snaps = rng.standard_normal((20, n)) + 1j * rng.standard_normal((20, n))
        basis = nls.compute_pod(snaps, 3, LENGTH)
        with pytest.raises(ValidationError):
            nls.rom_rhs(np.zeros(6), basis)


PROPERTY_BASIS = pod_basis_with_mean()
_WIDTH = 2 * PROPERTY_BASIS.n_modes


@st.composite
def reduced_states(draw):
    batch = draw(st.sampled_from([(), (1,), (3,), (8,)]))
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 3.0]))
    unit = hnp.arrays(float, batch + (_WIDTH,), elements=st.floats(-1.0, 1.0))
    return scale * draw(unit)


class TestReducedOperatorProperties:
    @given(reduced_states())
    def test_matches_pseudo_spectral_projection(self, a):
        basis = PROPERTY_BASIS
        want = pseudo_spectral_rom_rhs(a, basis)
        assert_relative_close(nls.rom_rhs(a, basis), want, 1e-12)
        for q, g in zip(nls.rom_quantities(basis), grid_gradients(a, basis)):
            assert_relative_close(q.gradient(a), g, 1e-12)


def reference_cubic_form(form, a):
    """Oracle: the cubic form composed out of place, one temporary per step."""
    v = form.field_offset + a @ form.field
    u = v.reshape(v.shape[:-1] + (2, -1))
    square = u * u
    cubic = u * (square[..., :1, :] + square[..., 1:, :])
    return form.constant + a @ form.linear + cubic.reshape(v.shape) @ form.test


def random_cubic_form(rng, n_modes=5, n_grid=12):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return nls.CubicForm.build(cplx(n_modes), cplx(n_modes, n_modes),
                               cplx(n_modes + 1, n_grid), cplx(n_grid, n_modes))


class TestCubicForm:
    @pytest.mark.parametrize("which", ["reduced operator", "random"])
    @pytest.mark.parametrize("batch", [(), (1,), (20,)])
    def test_matches_reference_bitwise_and_reads_only(self, which, batch, rng):
        if which == "random":
            form = random_cubic_form(rng)
        else:
            form = pod_basis_with_mean().reduced_operator
        a = 0.4 * rng.standard_normal(batch + (form.linear.shape[0],))
        before = a.copy()
        a.setflags(write=False)
        got = form(a)
        assert np.array_equal(got, reference_cubic_form(form, a))
        assert np.array_equal(a, before)

    def test_energy_gradient_matches_reference_bitwise(self, rng):
        # the energy gradient is a cubic form of the same basis arrays
        basis = pod_basis_with_mean()
        energy = nls.rom_quantities(basis)[1]
        form = nls.CubicForm.build(
            0.25 * basis.dx * (basis.mean_derivative @ basis.mode_derivatives.conj().T),
            0.25 * basis.dx * (basis.mode_derivatives @ basis.mode_derivatives.conj().T),
            np.vstack([basis.mean, basis.modes]), -basis._projector)
        a = 0.4 * rng.standard_normal((20, 2 * basis.n_modes))
        assert np.array_equal(energy.gradient(a), reference_cubic_form(form, a))


#: values the modulus must carry through as the composition does: signed
#: zeros, subnormals, squares that overflow or underflow, infinities and NaN
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, -1e-160, 1e155,
                -1e155, 1.7e308, -1.7e308, np.inf, -np.inf, np.nan, -np.nan]


@st.composite
def stacked_fields(draw):
    """Stacked sampled fields ``(2, g)``, ``(1, 2, g)`` or ``(B, 2, g)`` whose
    elements mix generated floats with :data:`_EDGE_VALUES`."""
    lead = draw(st.sampled_from([(), (1,), (draw(st.integers(2, 6)),)]))
    g = draw(st.integers(1, 40))
    elements = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                         st.sampled_from(_EDGE_VALUES))
    return draw(hnp.arrays(float, lead + (2, g), elements=elements))


def three_ufunc_cube(u):
    """Oracle: ``|u|^2 u`` of a stacked field with the modulus formed by three
    ufunc calls."""
    modulus2 = u[..., 0, :] * u[..., 0, :]
    modulus2 += u[..., 1, :] * u[..., 1, :]
    return u * modulus2[..., None, :]


class TestCube:
    @given(stacked_fields())
    def test_bitwise_equal_to_three_ufunc_composition(self, u):
        with np.errstate(all="ignore"):
            want = three_ufunc_cube(u)
            assert nls._cube(u) is None
        assert u.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (1,), (20,)])
    def test_edge_values_at_every_shape(self, lead):
        rng = np.random.default_rng(7)
        g = 384
        u = rng.choice(np.array(_EDGE_VALUES), size=lead + (2, g))
        u[..., ::3] = rng.standard_normal(lead + (2, g))[..., ::3]
        with np.errstate(all="ignore"):
            want = three_ufunc_cube(u)
            nls._cube(u)
        assert u.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (1,), (5,)])
    def test_writes_only_its_argument(self, lead, rng):
        # the field is a window of a larger buffer, as a reshaped GEMM output
        # row block would be; the bytes around it stay as they were
        size = int(np.prod(lead + (2, 12)))
        buffer = rng.standard_normal(size + 10)
        before = buffer.copy()
        u = buffer[4:4 + size].reshape(lead + (2, 12))
        want = three_ufunc_cube(u)
        nls._cube(u)
        assert u.tobytes() == want.tobytes()
        assert np.array_equal(buffer[:4], before[:4])
        assert np.array_equal(buffer[4 + size:], before[4 + size:])


class TestConstrainedBatch:
    def test_grons_batch_makes_no_numpy_solve(self, rng, monkeypatch):
        # twenty members, mass and energy: every member's 2 x 2 constraint
        # system is solved in closed form
        basis = pod_basis_with_mean()
        quantities = prepared(basis, nls.rom_quantities(basis))
        a = 0.4 * rng.standard_normal((20, 2 * basis.n_modes))
        calls = []
        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: calls.append(1) or original(*args))
        out = nls.rom_rhs(a, basis, quantities)
        assert not calls
        for q in quantities:
            g = q.gradient(a)
            rate = np.vecdot(g, out)
            assert np.all(np.abs(rate) <= 1e-10 * np.linalg.norm(g, axis=1)
                          * np.linalg.norm(out, axis=1))


JOINT_BASIS = pod_basis_with_mean(n_modes=4)
JOINT_QUANTITIES = nls.rom_quantities(JOINT_BASIS)
JOINT_RHS = nls._grons_joint_rhs(JOINT_BASIS, JOINT_QUANTITIES)
JOINT_SET = prepared(JOINT_BASIS, JOINT_QUANTITIES)


@st.composite
def single_states(draw):
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 3.0]))
    unit = hnp.arrays(float, (2 * JOINT_BASIS.n_modes,), elements=st.floats(-1.0, 1.0))
    return scale * draw(unit)


def null_quantity(n_modes):
    """A declared invariant whose gradient vanishes at every state."""
    form = nls.CubicForm.build(np.zeros(n_modes), np.zeros((n_modes, n_modes)),
                               np.zeros((n_modes + 1, 0)), np.zeros((0, n_modes)))
    return core.ConservedQuantity("null", nls.ReducedFunctional(lambda a: 0.0, form), form)


def assert_tangent(a_dot, gradients):
    # the bound of TestRomRhs.test_constrained_tangency
    for g in gradients:
        assert abs(g @ a_dot) <= 1e-10 * np.linalg.norm(g) * max(np.linalg.norm(a_dot), 1.0)


def spy_on_solves(monkeypatch, closed_form):
    """Record the ``b`` of every call to :func:`core.solve_lagrange` and to
    the closed form named, passing the calls through."""
    calls, offers = [], []
    solve, offer = core.solve_lagrange, getattr(core, closed_form)
    monkeypatch.setattr(core, "solve_lagrange",
                        lambda c, b, active=None: calls.append(b) or solve(c, b, active))
    monkeypatch.setattr(core, closed_form, lambda c, b: offers.append(b) or offer(c, b))
    return calls, offers


class TestSingleRunJointForm:
    """The one-pass derivative of a single G-RONS run against :func:`nls.rom_rhs`."""

    @given(single_states())
    def test_matches_rom_rhs_and_is_tangent(self, a):
        got = JOINT_RHS(a)
        assert_relative_close(got, nls.rom_rhs(a, JOINT_BASIS, JOINT_SET), 1e-13)
        assert_tangent(got, [q.gradient(a) for q in JOINT_QUANTITIES])

    def test_vanishing_gradients_return_the_operator_bitwise(self):
        basis = nls.PodBasis(np.zeros(N_GRID, dtype=complex), JOINT_BASIS.modes, LENGTH,
                             JOINT_BASIS.singular_values)
        quantities = nls.rom_quantities(basis)
        a = np.zeros(2 * basis.n_modes)
        assert not any(q.gradient(a).any() for q in quantities)
        got = nls._grons_joint_rhs(basis, quantities)(a)
        assert np.array_equal(got, basis.reduced_operator(a))
        assert np.array_equal(got, nls.rom_rhs(a, basis, prepared(basis, quantities)))

    @pytest.mark.parametrize("kept", [0, 1], ids=["mass", "energy"])
    @given(a=single_states())
    def test_masks_a_vanishing_row_as_the_kernel_does(self, kept, a):
        live, null = JOINT_QUANTITIES[kept], null_quantity(JOINT_BASIS.n_modes)
        quantities = (live, null) if kept == 0 else (null, live)
        got = nls._grons_joint_rhs(JOINT_BASIS, quantities)(a)
        want = nls.rom_rhs(a, JOINT_BASIS, prepared(JOINT_BASIS, quantities))
        assert_relative_close(got, want, 1e-13)
        want = nls.rom_rhs(a, JOINT_BASIS, prepared(JOINT_BASIS, (live,)))
        assert_relative_close(got, want, 1e-13)
        assert_tangent(got, [live.gradient(a)])

    def test_declined_system_goes_to_solve_lagrange(self, rng, monkeypatch):
        # a twin of the mass makes C singular: the float path declines it,
        # offered once, and solve_lagrange falls back to least squares with
        # its warning
        mass = JOINT_QUANTITIES[0]
        quantities = (mass, core.ConservedQuantity("twin", mass.value, mass.gradient))
        a = 0.4 * rng.standard_normal(2 * JOINT_BASIS.n_modes)
        calls, offers = spy_on_solves(monkeypatch, "_solve_small")
        joint = nls._grons_joint_rhs(JOINT_BASIS, quantities)
        with pytest.warns(IllConditionedConstraintWarning):
            got = joint(a)
        assert len(calls) == 1 and calls[0].shape == (2,)
        assert len(offers) == 1
        with pytest.warns(IllConditionedConstraintWarning):
            want = nls.rom_rhs(a, JOINT_BASIS, prepared(JOINT_BASIS, quantities))
        assert_relative_close(got, want, 1e-13)
        assert_tangent(got, [mass.gradient(a)])

    def test_other_routes_keep_rom_rhs(self):
        # a plain run, undeclared quantities and a non-cubic operator take
        # the generic route
        basis = pod_basis_with_mean()
        mass, energy = nls.rom_quantities(basis)
        undeclared = core.ConservedQuantity("mass", lambda a: mass.value(a), mass.gradient)
        assert nls._grons_joint_rhs(basis, ()) is None
        assert nls._grons_joint_rhs(basis, (undeclared, energy)) is None
        operator = basis.reduced_operator
        basis.__dict__["reduced_operator"] = lambda values: operator(values)
        assert nls._grons_joint_rhs(basis, (mass, energy)) is None


@st.composite
def batched_states(draw):
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 3.0]))
    members = draw(st.sampled_from([1, 3, 8]))
    unit = hnp.arrays(float, (members, 2 * JOINT_BASIS.n_modes), elements=st.floats(-1.0, 1.0))
    return scale * draw(unit)


def forbid_generic_route(monkeypatch):
    """Make the kernel and every quantity's ``gradient`` fail if called; the
    quantities of :data:`JOINT_BASIS` with their values (and forms) kept."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the run left the one-pass route")

    monkeypatch.setattr(core, "apply_invariant_correction", forbidden)
    return tuple(core.ConservedQuantity(q.name, q.value, forbidden) for q in JOINT_QUANTITIES)


class TestBatchedJointForm:
    """The one-pass derivative of a batch against :func:`nls.rom_rhs` and
    against the single-state route, member by member."""

    @given(batched_states())
    def test_matches_rom_rhs_and_is_tangent(self, a):
        got = JOINT_RHS(a)
        want = nls.rom_rhs(a, JOINT_BASIS, JOINT_SET)
        for member, state in enumerate(a):
            assert_relative_close(got[member], want[member], 1e-13)
            assert_tangent(got[member], [q.gradient(state) for q in JOINT_QUANTITIES])

    @given(batched_states())
    def test_each_member_matches_the_single_state_route(self, a):
        got = JOINT_RHS(a)
        for member, state in enumerate(a):
            assert_relative_close(got[member], JOINT_RHS(state), 1e-13)

    def test_masks_only_the_member_whose_gradients_vanish(self, rng):
        basis = nls.PodBasis(np.zeros(N_GRID, dtype=complex), JOINT_BASIS.modes, LENGTH,
                             JOINT_BASIS.singular_values)
        quantities = nls.rom_quantities(basis)
        a = 0.4 * rng.standard_normal((3, 2 * basis.n_modes))
        a[1] = 0.0
        assert not any(q.gradient(a[1]).any() for q in quantities)
        got = nls._grons_joint_rhs(basis, quantities)(a)
        assert np.array_equal(got[1], basis.reduced_operator(a[1]))
        want = nls.rom_rhs(a, basis, prepared(basis, quantities))
        for member in (0, 2):
            assert_relative_close(got[member], want[member], 1e-13)
            assert_tangent(got[member], [q.gradient(a[member]) for q in quantities])
            assert np.max(np.abs(got[member] - basis.reduced_operator(a[member]))) > 1e-6

    def test_declined_batch_is_offered_to_the_pairs_once(self, rng, monkeypatch):
        mass = JOINT_QUANTITIES[0]
        quantities = (mass, core.ConservedQuantity("twin", mass.value, mass.gradient))
        a = 0.4 * rng.standard_normal((3, 2 * JOINT_BASIS.n_modes))
        calls, offers = spy_on_solves(monkeypatch, "_solve_pairs")
        with pytest.warns(IllConditionedConstraintWarning):
            nls._grons_joint_rhs(JOINT_BASIS, quantities)(a)
        assert len(calls) == 1 and calls[0].shape == (3, 2)
        assert len(offers) == 1

    def test_twin_mass_row_warns_once_and_uses_lstsq(self, rng, monkeypatch):
        mass = JOINT_QUANTITIES[0]
        quantities = (mass, core.ConservedQuantity("twin", mass.value, mass.gradient))
        a = 0.4 * rng.standard_normal((3, 2 * JOINT_BASIS.n_modes))
        lstsq = np.linalg.lstsq
        calls = []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: calls.append(1)
                            or lstsq(*args, **kw))
        with pytest.warns(IllConditionedConstraintWarning) as record:
            got = nls._grons_joint_rhs(JOINT_BASIS, quantities)(a)
        assert len(record) == 1 and len(calls) == len(a)
        with pytest.warns(IllConditionedConstraintWarning):
            want = nls.rom_rhs(a, JOINT_BASIS, prepared(JOINT_BASIS, quantities))
        for member, state in enumerate(a):
            assert_relative_close(got[member], want[member], 1e-13)
            assert_tangent(got[member], [mass.gradient(state)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_multipliers_raise_divergence_with_time(self, rng, monkeypatch, bad):
        # the batch's closed-form solve hands back non-finite multipliers at
        # step 2, stage 2
        quantities = forbid_generic_route(monkeypatch)
        solve = core._solve_pairs
        calls = []

        def failing(c, b):
            calls.append(1)
            lam = solve(c, b)
            return np.full_like(lam, bad) if len(calls) == 6 else lam

        monkeypatch.setattr(core, "_solve_pairs", failing)
        a0 = 0.4 * rng.standard_normal((3, 2 * JOINT_BASIS.n_modes))
        with pytest.raises(DivergenceError, match="RK4 step at t=") as info:
            with np.errstate(invalid="ignore", over="ignore"):
                nls.rom_run(a0, JOINT_BASIS, 1.0, 0.5, 1 / 32, quantities=quantities)
        assert info.value.time == 1 / 32
        # stages 3 and 4 see non-finite states, whose rows are all inactive
        assert len(calls) == 6

    def test_batched_run_calls_no_kernel_and_no_gradient(self, rng, monkeypatch):
        a0 = 0.4 * rng.standard_normal((3, 2 * JOINT_BASIS.n_modes))
        series, diag = nls.rom_run(a0, JOINT_BASIS, 0.5, 0.25, 1 / 32,
                                   quantities=forbid_generic_route(monkeypatch))
        assert len(series) == len(a0) and diag["n_steps"] == 16
        assert np.all(diag["mass_drift"] < 1e-8) and np.all(diag["energy_drift"] < 1e-8)


class TestReducedModelDivergence:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("members", [None, 3])
    def test_nonfinite_stage_two_raises_divergence_with_time(self, rng, monkeypatch, bad,
                                                              members):
        # G-RONS: the correction passes the non-finite stage on, and the
        # step's one check raises with the time of the step
        basis = pod_basis_with_mean()
        operator = basis.reduced_operator
        calls = []

        def failing(values):
            calls.append(1)
            out = operator(values)
            return np.full_like(out, bad) if len(calls) == 6 else out  # step 2, stage 2

        monkeypatch.setitem(basis.__dict__, "reduced_operator", failing)
        width = 2 * basis.n_modes
        a0 = 0.4 * rng.standard_normal((members, width) if members else width)
        with pytest.raises(DivergenceError, match="RK4 step at t=") as info:
            with np.errstate(invalid="ignore", over="ignore"):
                nls.rom_run(a0, basis, 1.0, 0.5, 1 / 32, quantities=nls.rom_quantities(basis))
        assert info.value.time == 1 / 32

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_joint_route_nonfinite_stage_raises_divergence_with_time(self, rng, monkeypatch,
                                                                     bad):
        # a single run with rom_quantities takes the one-pass route, whose
        # float solve hands back non-finite multipliers at step 2, stage 2
        basis = pod_basis_with_mean()
        solve = core._solve_small
        calls = []

        def failing(c, b):
            calls.append(1)
            lam = solve(c, b)
            return [bad] * len(b) if len(calls) == 6 else lam

        def forbidden(*args, **kwargs):
            raise AssertionError("the single run left the one-pass route")

        monkeypatch.setattr(core, "_solve_small", failing)
        monkeypatch.setattr(core, "apply_invariant_correction", forbidden)
        a0 = 0.4 * rng.standard_normal(2 * basis.n_modes)
        with pytest.raises(DivergenceError, match="RK4 step at t=") as info:
            with np.errstate(invalid="ignore", over="ignore"):
                nls.rom_run(a0, basis, 1.0, 0.5, 1 / 32, quantities=nls.rom_quantities(basis))
        assert info.value.time == 1 / 32
        # stages 3 and 4 see non-finite states, whose rows are all inactive
        assert len(calls) == 6


class TestBatchedEngines:
    def test_dns_batch_matches_serial(self):
        ics = [nls.nls_random_ic(s, LENGTH, N_GRID) for s in range(3)]
        batch, diag = nls.dns_run_batch(ics, 2.0, 0.5)
        for b, (ic, series) in enumerate(zip(ics, batch)):
            # a single run is a batch of one, with per-run types
            solo, solo_diag = nls.dns_run(ic, 2.0, 0.5)
            assert np.array_equal(solo.times, series.times)
            assert np.array_equal(solo.snapshots, series.snapshots)
            for name in ("mass", "energy"):
                assert solo_diag[name].shape == solo.times.shape
                assert np.array_equal(solo_diag[name], diag[name][:, b])
                assert type(solo_diag[f"{name}_drift"]) is float
                assert solo_diag[f"{name}_drift"] == diag[f"{name}_drift"][b]
            assert (solo_diag["dt"], solo_diag["n_steps"]) == (diag["dt"], diag["n_steps"])

    def test_rom_batch_matches_serial(self, rng):
        snaps = 0.1 * (rng.standard_normal((30, N_GRID)) + 1j * rng.standard_normal((30, N_GRID)))
        basis = nls.compute_pod(snaps, 4, LENGTH)
        quantities = nls.rom_quantities(basis)
        a0s = 0.4 * rng.standard_normal((3, 8))
        for enforce in (False, True):
            batch, diag = nls.rom_run_batch(a0s, basis, 1.0, 0.5, 1 / 32, enforce=enforce)
            for i in range(3):
                solo, solo_diag = nls.rom_run(
                    a0s[i], basis, 1.0, 0.5, 1 / 32,
                    quantities=quantities if enforce else (),
                )
                assert np.array_equal(solo.times, batch[i].times)
                assert np.max(np.abs(solo.snapshots - batch[i].snapshots)) < 1e-12
                for name in ("mass", "energy"):
                    # a single run carries no batch axis, a batch one column per member
                    assert solo_diag[name].shape == solo.times.shape
                    assert diag[name].shape == solo.times.shape + (3,)
                    assert np.max(np.abs(solo_diag[name] - diag[name][:, i])) < 1e-12
                    assert type(solo_diag[f"{name}_drift"]) is float
                    assert diag[f"{name}_drift"].shape == (3,)
                    assert abs(solo_diag[f"{name}_drift"] - diag[f"{name}_drift"][i]) < 1e-12
                assert (solo_diag["dt"], solo_diag["n_steps"]) == (diag["dt"], diag["n_steps"])


class TestErrorMetrics:
    def _series(self, values):
        times = np.arange(values.shape[0], dtype=float)
        return nls.SnapshotSeries(times, values, LENGTH)

    def test_identical_series_zero_error(self, rng):
        u = rng.standard_normal((5, N_GRID)) + 1j * rng.standard_normal((5, N_GRID))
        inst, total = nls.relative_errors(self._series(u), self._series(u.copy()), 0, 4)
        assert not inst.any()
        assert total == 0.0

    def test_zero_model_gives_unit_error(self, rng):
        u = rng.standard_normal((5, N_GRID)) + 1j * rng.standard_normal((5, N_GRID))
        inst, total = nls.relative_errors(
            self._series(u), self._series(np.zeros_like(u)), 0, 4
        )
        assert np.allclose(inst, 1.0)
        assert total == pytest.approx(1.0)

    def test_small_multiplicative_perturbation(self, rng):
        # oracle: u_hat = (1 + d) u gives eps_I = d^2 exactly
        u = rng.standard_normal((5, N_GRID)) + 1j * rng.standard_normal((5, N_GRID))
        inst, total = nls.relative_errors(
            self._series(u), self._series(u * (1 + 1e-3)), 0, 4
        )
        assert np.allclose(inst, 1e-6, rtol=1e-9)
        assert total == pytest.approx(1e-6, rel=1e-9)

    # a one-point field would broadcast against the others
    @pytest.mark.parametrize("n_grid, length", [(1, LENGTH), (N_GRID, 2 * LENGTH)],
                             ids=["grid-size", "domain-length"])
    def test_different_grids_rejected(self, rng, n_grid, length):
        u = rng.standard_normal((5, N_GRID)) + 1j * rng.standard_normal((5, N_GRID))
        other = nls.SnapshotSeries(np.arange(5.0), u[:, :n_grid], length)
        with pytest.raises(AlignmentError, match="different grids"):
            nls.relative_errors(self._series(u), other, 0, 4)
        with pytest.raises(AlignmentError, match="different grids"):
            nls.relative_errors(other, self._series(u), 0, 4)

    def test_misaligned_times_rejected(self, rng):
        u = rng.standard_normal((5, N_GRID)) + 1j * rng.standard_normal((5, N_GRID))
        shifted = nls.SnapshotSeries(np.arange(5) + 0.25, u, LENGTH)
        with pytest.raises(AlignmentError):
            nls.relative_errors(self._series(u), shifted, 0, 4)


class TestMaxEnvelopePdf:
    def test_constant_field_point_mass(self):
        samples = np.full(50, 2.0)
        edges, density = nls.max_envelope_pdf(samples, 5)
        widths = np.diff(edges)
        assert np.sum(density * widths) == pytest.approx(1.0, abs=1e-12)

    def test_two_values_equal_masses(self):
        edges, density = nls.max_envelope_pdf(np.array([1.0, 3.0]), np.array([0.0, 2.0, 4.0]))
        assert density[0] == density[1]

    def test_normalization(self, rng):
        samples = rng.standard_normal(500) ** 2
        edges, density = nls.max_envelope_pdf(samples, 20)
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            nls.max_envelope_pdf(np.array([]), 4)
