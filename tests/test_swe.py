import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rons import core, fv, swe
from rons.errors import (
    DryStateError,
    ResampledInitialConditionWarning,
    ValidationError,
)

from conftest import failing_draws

# ---------------------------------------------------------------------------
# Reference oracle: the central-upwind scheme composed from its textbook
# parts, one array pass each.  ``swe.central_upwind_scheme`` fuses these
# passes and must agree with the composition bit for bit.


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


def minmod_reconstruct(cellvals, theta, dx):
    """Limited slopes ``minmod(theta backward, central, theta forward)``
    for a linear in-cell reconstruction (periodic wrap)."""
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
    """``(a+ F(U-) - a- F(U+)) / (a+ - a-) + (a+ a- / (a+ - a-)) (U+ - U-)``,
    the mean of the two fluxes where the speed spread vanishes."""
    spread = a_plus - a_minus
    degenerate = spread < 1e-14
    safe = np.where(degenerate, 1.0, spread)
    upwind = (a_plus * flux_left - a_minus * flux_right) / safe
    diffusion = (a_plus * a_minus / safe) * (state_right - state_left)
    mean = 0.5 * (flux_left + flux_right)
    return np.where(degenerate, mean, upwind + diffusion)


def reference_rhs(U, grid, config):
    """Flux divergence of the stacked state, batch-transparent."""
    U = np.asarray(U, dtype=float)
    dx = grid.dx
    g = config.gravity
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


def reference_cfl_dt(U, grid, config):
    """``dx / (cfl_factor * max{max lam1, max(-lam2)})``, or the fallback."""
    depth = config.depth_at(grid.centers)
    lam1, lam2 = swe_eigenvalues(U[..., 0, :], U[..., 1, :], depth, config.gravity)
    speed = max(float(np.max(lam1)), float(np.max(-lam2)))
    if speed < 1e-14:
        return config.fallback_dt
    return grid.dx / (config.cfl_factor * speed)


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


class TestConfig:
    def test_derived_constants(self):
        # oracle: arithmetic on the characteristic scales
        config = swe.SweConfig()
        assert config.gravity == pytest.approx(9.8 * 2.13e6 / 198.0**2)
        assert config.gravity == pytest.approx(532.4457, rel=1e-6)
        assert config.mean_depth == pytest.approx(4000.0 / 2.13e6)
        # nondimensionalization puts the rest-state wave speed at ~1
        assert np.sqrt(config.gravity * config.mean_depth) == pytest.approx(1.0, abs=1e-4)

    def test_limiter_parameter_range(self):
        with pytest.raises(ValidationError):
            swe.SweConfig(limiter_theta=2.5)

    def test_bottom_must_stay_below_surface(self):
        config = swe.SweConfig(bottom=lambda x: np.full_like(x, 1.0))
        with pytest.raises(ValidationError):
            config.depth_at(np.array([0.0]))


class TestPhysicalFlux:
    def test_rest_state(self):
        assert swe_physical_flux(0.0, 0.0, 2.0, 532.4) == (0.0, 0.0)

    def test_direct_substitution(self):
        f1, f2 = swe_physical_flux(0.0, 1.0, 2.0, 532.4)
        assert f1 == pytest.approx(2.0)
        assert f2 == pytest.approx(0.5)

    def test_dry_state_rejected(self):
        with pytest.raises(DryStateError):
            swe_physical_flux(-3.0, 0.0, 2.0, 532.4)


class TestEigenvalues:
    def test_rest_state_unit_speed(self):
        config = swe.SweConfig()
        lam1, lam2 = swe_eigenvalues(0.0, 0.0, config.mean_depth, config.gravity)
        assert lam1 == pytest.approx(0.99995, abs=1e-4)
        assert lam2 == pytest.approx(-lam1)

    def test_degenerate_depth(self):
        lam1, lam2 = swe_eigenvalues(0.0, 0.5, 0.0, 532.4)
        assert lam1 == lam2 == 0.5

    def test_ordering(self, rng):
        config = swe.SweConfig()
        eta = 1e-4 * rng.standard_normal(50)
        v = 1e-2 * rng.standard_normal(50)
        lam1, lam2 = swe_eigenvalues(eta, v, config.mean_depth, config.gravity)
        assert np.all(lam1 >= lam2)


class TestCflStep:
    def test_rest_state_step(self):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 1024)
        dt = swe.central_upwind_scheme(config).cfl_dt(swe.lake_at_rest_ic(grid), grid)
        # oracle: dx / (2 sqrt(g D)) with the derived constants
        expected = (10.0 / 1024) / (2.0 * np.sqrt(config.gravity * config.mean_depth))
        assert dt == pytest.approx(expected)
        assert dt == pytest.approx(0.004883, rel=1e-3)

    def test_speed_doubling_halves_dt(self):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        U = swe.lake_at_rest_ic(grid)
        dt0 = swe.central_upwind_scheme(config).cfl_dt(U, grid)
        # quadruple gravity doubles the characteristic speed
        config4 = swe.SweConfig(gravity=4.0 * config.gravity)
        assert swe.central_upwind_scheme(config4).cfl_dt(U, grid) == pytest.approx(dt0 / 2.0)

    def test_zero_speed_fallback(self):
        config = swe.SweConfig(gravity=1.0, mean_depth=0.0, fallback_dt=0.125)
        grid = fv.build_grid(10.0, 64)
        assert swe.central_upwind_scheme(config).cfl_dt(np.zeros((2, 64)), grid) == 0.125

    def test_negative_depth_rejected(self):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        U = np.zeros((3, 2, 64))
        U[1, 0, 7] = -2.0 * config.mean_depth
        with pytest.raises(DryStateError, match="negative total depth"):
            swe.central_upwind_scheme(config).cfl_dt(U, grid)


class TestMinmod:
    def test_uniform_linear_data(self):
        dx = 0.1
        values = np.arange(8.0) * dx  # slope exactly 1 per unit x
        slopes = minmod_reconstruct(values, 1.2, dx)
        # periodic wrap corrupts the two boundary cells only
        assert np.allclose(slopes[1:-1], 1.0)

    def test_extremum_gets_zero_slope(self):
        values = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        slopes = minmod_reconstruct(values, 1.2, 0.1)
        assert slopes[2] == 0.0

    def test_constant_data(self):
        assert not minmod_reconstruct(np.full(6, 2.5), 1.2, 0.1).any()

    def test_interface_values_stay_in_stencil_range(self, rng):
        # TVD property of the limited reconstruction
        dx = 0.05
        values = rng.standard_normal(64)
        slopes = minmod_reconstruct(values, 1.2, dx)
        left = values - 0.5 * dx * slopes
        right = values + 0.5 * dx * slopes
        lo = np.minimum(np.minimum(np.roll(values, 1), values), np.roll(values, -1))
        hi = np.maximum(np.maximum(np.roll(values, 1), values), np.roll(values, -1))
        assert np.all(left >= lo - 1e-12) and np.all(left <= hi + 1e-12)
        assert np.all(right >= lo - 1e-12) and np.all(right <= hi + 1e-12)


class TestCentralUpwindFlux:
    def test_consistency_equal_states(self, rng):
        config = swe.SweConfig()
        eta = 1e-4 * rng.standard_normal(16)
        v = 1e-2 * rng.standard_normal(16)
        depth = np.full(16, config.mean_depth)
        flux = np.stack(swe_physical_flux(eta, v, depth, config.gravity))
        lam1, lam2 = swe_eigenvalues(eta, v, depth, config.gravity)
        a_plus = np.maximum(lam1, 0.0)
        a_minus = np.minimum(lam2, 0.0)
        state = np.stack([eta, v])
        out = central_upwind_interface_flux(flux, flux, state, state, a_plus, a_minus)
        assert np.allclose(out, flux, atol=1e-18)

    def test_rest_interface_zero_flux(self):
        config = swe.SweConfig()
        zero = np.zeros(4)
        flux = np.stack(
            swe_physical_flux(zero, zero, config.mean_depth, config.gravity)
        )
        lam1, lam2 = swe_eigenvalues(zero, zero, config.mean_depth, config.gravity)
        out = central_upwind_interface_flux(
            flux, flux, np.zeros((2, 4)), np.zeros((2, 4)),
            np.maximum(lam1, 0), np.minimum(lam2, 0),
        )
        assert not out.any()

    def test_reduces_to_upwind_for_linear_advection(self, rng):
        # oracle: for G(u) = c u with c > 0 both one-sided speeds are c and 0,
        # and the formula collapses to H = c * u_left
        c = 2.0
        u_left = rng.standard_normal(8)
        u_right = rng.standard_normal(8)
        out = central_upwind_interface_flux(
            c * u_left, c * u_right, u_left, u_right,
            np.full(8, c), np.zeros(8),
        )
        assert np.allclose(out, c * u_left)

    def test_degenerate_speeds_use_mean(self):
        out = central_upwind_interface_flux(
            np.array([2.0]), np.array([4.0]), np.array([1.0]), np.array([5.0]),
            np.zeros(1), np.zeros(1),
        )
        assert out[0] == 3.0


MEAN_DEPTH = swe.SweConfig().mean_depth


def _bumpy(x):
    return 0.3 * MEAN_DEPTH * np.sin(2.0 * np.pi * x / 5.0) ** 3


@st.composite
def flux_cases(draw):
    """Random states on flat or bumpy bottoms: sub- and supercritical
    velocities, flat stretches, and depths that sometimes run dry."""
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    n = draw(st.sampled_from([2, 3, 5, 16, 64, 257]))
    bottom = draw(st.sampled_from([None, _bumpy]))
    eta_scale = draw(st.sampled_from([0.0, 1e-8, 1e-5, 3e-4, 1.5e-3]))
    v_scale = draw(st.sampled_from([0.0, 1e-3, 0.1, 2.0]))
    flat = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U = rng.standard_normal(batch + (2, n)) * np.array([[eta_scale], [v_scale]])
    U[..., :flat] = 0.0
    return U, fv.build_grid(10.0, n), swe.SweConfig(bottom=bottom)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DryStateError as err:
        return str(err)


class TestFusedKernel:
    @given(flux_cases())
    def test_matches_reference_bitwise(self, case):
        # the CFL rule's one reduction max(|v| + c) must also equal the
        # larger of max(v + c) and max(c - v) exactly
        U, grid, config = case
        scheme = swe.central_upwind_scheme(config)
        got = _outcome(scheme.rhs, U, grid)
        want = _outcome(reference_rhs, U, grid, config)
        if isinstance(want, str):
            assert got == want
            return
        assert_same_bits(got, want)
        assert _outcome(scheme.cfl_dt, U, grid) == _outcome(reference_cfl_dt, U, grid, config)

    @pytest.mark.parametrize("bottom", [None, _bumpy])
    def test_lake_at_rest(self, bottom):
        config = swe.SweConfig(bottom=bottom)
        grid = fv.build_grid(10.0, 128)
        U = np.zeros((4, 2, 128))
        got = swe.central_upwind_scheme(config).rhs(U, grid)
        assert_same_bits(got, reference_rhs(U, grid, config))
        assert not got.any()

    def test_degenerate_spread_uses_mean_flux(self, rng):
        # c = sqrt(g (eta + H)) ~ 1e-15: every interface of the still stretch
        # has a speed spread below 1e-14, the disturbed cells do not.
        config = swe.SweConfig(gravity=1.0, mean_depth=1e-30)
        grid = fv.build_grid(10.0, 32)
        U = np.zeros((3, 2, 32))
        U[:, 1] = 1e-16 * rng.standard_normal((3, 32))
        U[1, 0, 5] = 1e-3
        U[2, :, 20:24] = 1e-3
        got = swe.central_upwind_scheme(config).rhs(U, grid)
        assert_same_bits(got, reference_rhs(U, grid, config))
        assert got[0, 1].any()

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("excess, message", [
        (1e-6, "negative total depth"),
        (0.0, "total depth eta [+] H must be positive"),
    ])
    def test_dry_interface_side_rejected(self, side, excess, message):
        # Alternating elevations make every cell an extremum (zero slope), so
        # interface j sees cell j on its left and cell j+1 on its right.  The
        # bottom rises to a thin film at that one interface only, and the
        # low cell sits on the named side of it.
        grid = fv.build_grid(10.0, 16)
        j = 6 if side == "left" else 7
        x_dry = (grid.centers + 0.5 * grid.dx)[j]
        rise = MEAN_DEPTH - 1e-5
        film = MEAN_DEPTH - rise  # the depth the scheme sees there, exactly
        config = swe.SweConfig(bottom=lambda x: np.where(x == x_dry, rise, 0.0))
        U = np.zeros((2, 2, 16))
        U[1, 0] = np.where(np.arange(16) % 2, 1.0, -1.0) * (film + excess)
        for rhs in (swe.central_upwind_scheme(config).rhs,
                    lambda U, grid: reference_rhs(U, grid, config)):
            with pytest.raises(DryStateError, match=message):
                rhs(U, grid)

    def test_results_do_not_alias(self, rng):
        # the steppers hold several stage derivatives at once, so no result
        # may share memory with another, with an input or with the workspace
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        for batch in ((), (8,)):
            scheme = swe.central_upwind_scheme(config)
            states = [1e-4 * rng.standard_normal(batch + (2, 64)) for _ in range(3)]
            kept = [U.copy() for U in states]
            results = [scheme.rhs(U, grid) for U in states]
            for i, f in enumerate(results):
                assert_same_bits(f, swe.central_upwind_scheme(config).rhs(kept[i], grid))
                assert_same_bits(states[i], kept[i])
                assert f.flags.c_contiguous
                assert not any(np.shares_memory(f, g) for g in states + results[i + 1:])

    def test_reused_scheme_follows_each_new_grid(self, rng):
        # Fresh grids may reuse a freed grid's id(); depths must follow the grid.
        config = swe.SweConfig(bottom=_bumpy)
        scheme = swe.central_upwind_scheme(config)
        U = 1e-5 * rng.standard_normal((2, 64))
        for length in (5.0, 5.001, 5.002, 5.003):
            grid = fv.build_grid(length, 64)
            assert_same_bits(scheme.rhs(U, grid), reference_rhs(U, grid, config))
            assert scheme.cfl_dt(U, grid) == reference_cfl_dt(U, grid, config)
            del grid


def _waves(rng, shape, n=256):
    """Tsunami-scale random states of shape ``shape + (2, n)``."""
    return rng.standard_normal(shape + (2, n)) * np.array([[1e-7], [1e-6]])


class TestFluxWorkspace:
    """The scheme keeps its flux temporaries; each result is still fresh."""

    def test_warm_call_allocates_little_beyond_its_result(self, rng):
        # numpy reports its array buffers to tracemalloc; what remains beyond
        # the result is numpy's fixed iterator buffers
        grid = fv.build_grid(10.0, 256)
        scheme = swe.central_upwind_scheme(swe.SweConfig())
        U = _waves(rng, (100,))
        scheme.rhs(U, grid)
        tracemalloc.start()
        try:
            out = scheme.rhs(U, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.nbytes

    def test_shape_changes_rebuild_the_workspace(self, rng):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 256)
        scheme = swe.central_upwind_scheme(config)
        for shape in ((5,), (1,), (), (5,), (2, 3), ()):
            U = _waves(rng, shape)
            assert_same_bits(scheme.rhs(U, grid),
                             swe.central_upwind_scheme(config).rhs(U, grid))

    def test_call_after_a_dry_state_is_correct(self, rng):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        scheme = swe.central_upwind_scheme(config)
        dry = _waves(rng, (4,), 64)
        dry[2, 0, 10:20] = -2.0 * config.mean_depth
        with pytest.raises(DryStateError):
            scheme.rhs(dry, grid)
        U = _waves(rng, (4,), 64)
        assert_same_bits(scheme.rhs(U, grid), reference_rhs(U, grid, config))


def _faults(fn, *args):
    """``fn(*args)`` with every floating-point fault raised: its result, the
    message of a :class:`DryStateError`, or ``"FloatingPointError"``."""
    with np.errstate(all="raise"):
        try:
            return _outcome(fn, *args)
        except FloatingPointError:
            return "FloatingPointError"


class TestFlatLayout:
    """The flux computes every member and field in one flat buffer; the
    lanes it fills past each row's end must not reach any output."""

    @given(flux_cases())
    def test_no_floating_point_fault_the_reference_lacks(self, case):
        U, grid, config = case
        got = _faults(swe.central_upwind_scheme(config).rhs, U, grid)
        want = _faults(reference_rhs, U, grid, config)
        if isinstance(want, str):
            assert got == want
            return
        assert_same_bits(got, want)

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_each_member_is_its_own_flux(self, rng, n):
        # members three times apart in scale, so a lane taken from a
        # neighbouring member changes the bits
        config = swe.SweConfig(bottom=_bumpy)
        grid = fv.build_grid(10.0, n)
        U = _waves(rng, (7,), n) * 3.0 ** np.arange(7)[:, None, None]
        batch = swe.central_upwind_scheme(config).rhs(U, grid)
        scheme = swe.central_upwind_scheme(config)
        for k, member in enumerate(U):
            assert_same_bits(scheme.rhs(member[None], grid), batch[k:k + 1])
            assert_same_bits(scheme.rhs(member, grid), batch[k])


class TestWorkspaceFootprint:
    def test_flat_buffers_cost_no_more_than_strided_ones(self):
        # the strided layout kept the padded state (..., 2, n + 2), the
        # one-sided slopes (..., 2, n + 1), two (..., 2, n) buffers and four
        # (..., n) arrays
        m, n = 100, 256
        strided = 8 * (2 * m * (n + 2) + 2 * m * (n + 1) + 4 * m * n + 4 * m * n)
        flat = sum(a.nbytes for a in swe._flux_workspace((m, 2, n)))
        assert flat <= 1.01 * strided

    def test_warm_cfl_step_allocates_nothing(self, rng):
        grid = fv.build_grid(10.0, 256)
        scheme = swe.central_upwind_scheme(swe.SweConfig())
        U = _waves(rng, (100,))
        dt = scheme.cfl_dt(U, grid)
        tracemalloc.start()
        try:
            again = scheme.cfl_dt(U, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == dt
        assert peak < 4096

    def test_cfl_steps_between_fluxes_change_nothing(self, rng):
        # the CFL rule borrows two of the flux workspace's arrays
        config = swe.SweConfig(bottom=_bumpy)
        grid = fv.build_grid(10.0, 64)
        scheme = swe.central_upwind_scheme(config)
        for shape in ((3,), (3,), (), (2, 2), (3,)):
            U = _waves(rng, shape, 64)
            assert scheme.cfl_dt(U, grid) == reference_cfl_dt(U, grid, config)
            assert_same_bits(scheme.rhs(U, grid), reference_rhs(U, grid, config))
            assert scheme.cfl_dt(U, grid) == reference_cfl_dt(U, grid, config)


class TestInvariants:
    def test_lake_at_rest_values(self):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        flat = swe.lake_at_rest_ic(grid).reshape(-1)
        quantities = swe.swe_quantities(grid, config)
        assert np.allclose([q.value(flat) for q in quantities], 0.0)
        assert not quantities[2].gradient(flat).any()

    def test_constant_state_closed_form(self):
        # eta = c, v = 0 on [0, 10]: I1 = 10 c, I2 = 0, I3 = 5 g c^2
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 256)
        c = 3e-7
        U = np.stack([np.full(256, c), np.zeros(256)])
        values = [q.value(U.reshape(-1)) for q in swe.swe_quantities(grid, config)]
        assert values[0] == pytest.approx(10 * c)
        assert values[1] == 0.0
        assert values[2] == pytest.approx(5 * config.gravity * c**2)

    @pytest.mark.parametrize("batch", [(), (5,)])
    def test_state_integrals_are_the_fv_field_integrals(self, rng, batch):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 32)
        a = rng.standard_normal(batch + (64,))
        quantities = swe.swe_quantities(grid, config)
        for fld, q in enumerate(quantities[:2]):
            ref = fv.state_integral_quantity(grid, 2, fld)
            assert np.array_equal(q.value(a), ref.value(a))
            assert np.array_equal(q.gradient(a), ref.gradient(a))

    def test_gradients_match_finite_differences(self, rng):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 12)
        quantities = swe.swe_quantities(grid, config)
        for _ in range(5):
            a = rng.standard_normal(24)
            for q in quantities:
                fd = core.finite_difference_gradient(q.value, a)
                g = q.gradient(a)
                assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    @pytest.mark.parametrize("bottom", [None, _bumpy])
    @pytest.mark.parametrize("batch", [(), (1,), (7,)])
    def test_energy_gradient_matches_concatenated_formula(self, rng, bottom, batch):
        # oracle: the two halves composed from temporaries and concatenated,
        # in the arithmetic order the one-array gradient keeps
        config = swe.SweConfig(bottom=bottom)
        grid = fv.build_grid(10.0, 40)
        n, w = grid.n_cells, grid.widths
        depth, g = config.depth_at(grid.centers), config.gravity
        a = rng.standard_normal(batch + (2 * n,)) * 1e-3
        eta, v = a[..., :n], a[..., n:]
        want = np.concatenate([w * (0.5 * v * v + g * eta), w * (eta + depth) * v], axis=-1)
        got = swe.swe_quantities(grid, config)[2].gradient(a)
        assert got.shape == a.shape
        assert np.array_equal(got, want)


class TestInitialConditions:
    def test_gaussian_peak_amplitude(self):
        # oracle: 0.1 / 2.13e6 = 4.695e-8, sampled at the cell center nearest
        # the domain midpoint (half a cell away at this resolution)
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 1024)
        U = swe.gaussian_pulse_ic(grid, config)
        nearest = grid.centers[np.argmax(U[0])]
        expected = (0.1 / 2.13e6) * np.exp(-((5.0 * (nearest - 5.0)) ** 2))
        assert np.max(U[0]) == pytest.approx(expected, rel=1e-12)
        assert np.max(U[0]) == pytest.approx(4.695e-8, rel=1e-3)

    def test_gaussian_vanishes_at_boundary(self):
        # exp(-623.7) is ~1e-271, below any physically visible level
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 1024)
        U = swe.gaussian_pulse_ic(grid, config)
        assert abs(U[0][0]) < 1e-250

    def test_gaussian_fluid_at_rest(self):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        assert not swe.gaussian_pulse_ic(grid, config)[1].any()

    def test_random_ic_no_velocity(self):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 256)
        assert not swe.random_oscillatory_ic(5, grid, config)[1].any()

    def test_random_ic_normalization(self):
        # grid maximum equals 1 / (2 wavelength) by construction
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 512)
        for seed in (0, 7, 19):
            U = swe.random_oscillatory_ic(seed, grid, config)
            assert np.max(U[0]) == pytest.approx(1.0 / (2.0 * config.wavelength_m), rel=1e-12)

    def test_random_ic_deterministic(self):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 128)
        a = swe.random_oscillatory_ic(11, grid, config)
        b = swe.random_oscillatory_ic(11, grid, config)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("failures", [1, 3])
    def test_random_ic_resampled_after_failed_draws(self, monkeypatch, failures):
        # the draw from seed 7 + failures, warned once at the caller's line
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        want = swe.random_oscillatory_ic(7 + failures, grid, config)
        seeds = failing_draws(monkeypatch, failures)
        with pytest.warns(ResampledInitialConditionWarning,
                          match=rf"^initial condition resampled {failures} time\(s\) "
                                r"from seed 7$") as caught:
            got = swe.random_oscillatory_ic(7, grid, config)
        assert seeds == list(range(7, 8 + failures))
        assert np.array_equal(got, want)
        assert len(caught) == 1 and caught[0].filename == __file__

    def test_random_ic_every_draw_failing(self, monkeypatch):
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        seeds = failing_draws(monkeypatch, core.IC_MAX_RESAMPLES)
        with pytest.raises(ValidationError,
                           match="^could not draw a usable initial condition from seed 7$"):
            swe.random_oscillatory_ic(7, grid, config)
        assert seeds == list(range(7, 7 + core.IC_MAX_RESAMPLES))


class TestWellBalanced:
    def test_lake_at_rest_survives_integration(self):
        from rons.integrators import StepSchedule, integrate, step_ssprk3

        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 128)
        scheme = swe.central_upwind_scheme(config)
        quantities = swe.swe_quantities(grid, config)
        schedule = StepSchedule(t_final=1.0, cfl=lambda U: scheme.cfl_dt(U, grid))
        for constraints in ((), core.ConstraintSet(fv.fv_metric(grid, 2), quantities)):
            rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, constraints)
            traj = integrate(rhs, swe.lake_at_rest_ic(grid), schedule,
                             stepper=step_ssprk3, observe_every=1.0)
            assert np.max(np.abs(traj.states[-1])) <= 1e-12
