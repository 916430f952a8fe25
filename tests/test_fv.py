import numpy as np
import pytest
from scipy.integrate import quad

from rons import core, fv, swe
from rons.errors import DivergenceError, ValidationError
from rons.integrators import StepSchedule, integrate, step_rk4, step_ssprk3

from conftest import with_lambda_values


class TestBuildGrid:
    def test_benchmark_resolution(self):
        grid = fv.build_grid(10.0, 1024)
        assert grid.dx == pytest.approx(10.0 / 1024)
        assert grid.dx == pytest.approx(0.009765625)
        assert np.sum(grid.widths) == pytest.approx(10.0, abs=1e-12 * 10)

    def test_two_cells(self):
        grid = fv.build_grid(1.0, 2)
        assert np.allclose(grid.centers, [0.25, 0.75])

    def test_single_cell_rejected(self):
        with pytest.raises(ValidationError):
            fv.build_grid(1.0, 1)

    def test_bad_length_rejected(self):
        with pytest.raises(ValidationError):
            fv.build_grid(-1.0, 8)

    @pytest.mark.parametrize("bad", ["centers", "widths"])
    def test_array_length_must_match_cell_count(self, bad):
        arrays = {"centers": np.array([0.5, 1.5, 2.5, 3.5]), "widths": np.ones(4)}
        arrays[bad] = np.append(arrays[bad], 4.5 if bad == "centers" else 0.0)
        with pytest.raises(ValidationError, match=f"cell {bad} have shape \\(5,\\)"):
            fv.FvGrid(length=4.0, n_cells=4, **arrays)

    def test_arrays_are_read_only_copies(self):
        widths = np.ones(4)
        grid = fv.FvGrid(length=4.0, n_cells=4, centers=np.arange(4) + 0.5, widths=widths)
        widths[0] = 5.0
        assert grid.widths[0] == 1.0
        built = fv.build_grid(10.0, 8)
        for values in (grid.centers, grid.widths, built.centers, built.widths):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 5.0


class TestGridMetric:
    def test_built_once_per_grid_and_field_count(self):
        grid = fv.build_grid(10.0, 16)
        assert fv.fv_metric(grid, 2) is fv.fv_metric(grid, 2)
        assert fv.fv_metric(grid, 1) is not fv.fv_metric(grid, 2)
        assert fv.fv_metric(grid, 1).size == 16
        other = fv.build_grid(10.0, 16)
        assert fv.fv_metric(other, 2) is not fv.fv_metric(grid, 2)

    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_fvrons_rhs_matches_a_freshly_built_metric(self, batch):
        config, grid, scheme = _swe_setup()
        quantities = swe.swe_quantities(grid, config)
        U = np.stack([swe.random_oscillatory_ic(s, grid, config) for s in range(3)])
        U[:, 1] = 1e-6 * np.random.default_rng(2).standard_normal((3, grid.n_cells))
        U = U if batch else U[0]
        fresh = core.MetricTensor.from_diagonal(np.tile(grid.widths, 2))
        flat_shape = batch + (-1,)
        want = core.apply_invariant_correction(
            fresh,
            scheme.rhs(U, grid).reshape(flat_shape),
            [q.gradient(U.reshape(flat_shape)) for q in quantities],
        ).reshape(U.shape)
        got = fv.fvrons_rhs(U, scheme, grid, quantities)
        assert got.tobytes() == want.tobytes()


def _swe_setup(n=64):
    config = swe.SweConfig()
    grid = fv.build_grid(10.0, n)
    scheme = swe.central_upwind_scheme(config)
    return config, grid, scheme


class TestFvRhs:
    def test_constant_state_is_steady(self):
        config, grid, scheme = _swe_setup()
        U = np.stack([np.full(grid.n_cells, 3e-8), np.zeros(grid.n_cells)])
        # constant eta and zero v: flux of the second component is g*eta,
        # constant in x, so both divergences vanish
        out = fv.fv_rhs(U, scheme, grid)
        assert np.max(np.abs(out)) < 1e-18

    def test_telescoping_sum(self, rng):
        config, grid, scheme = _swe_setup()
        U = np.stack(
            [1e-3 * rng.standard_normal(grid.n_cells), 1e-3 * rng.standard_normal(grid.n_cells)]
        )
        out = fv.fv_rhs(U, scheme, grid)
        for fld in range(2):
            assert abs(np.dot(grid.widths, out[fld])) < 1e-12

    def test_lake_at_rest_steady(self):
        config, grid, scheme = _swe_setup()
        out = fv.fv_rhs(swe.lake_at_rest_ic(grid), scheme, grid)
        assert np.max(np.abs(out)) <= 1e-13

    def test_nonfinite_flux_raises(self):
        config, grid, scheme = _swe_setup()
        bad = fv.FluxScheme(
            rhs=lambda U, g: np.full_like(U, np.nan), cfl_dt=scheme.cfl_dt
        )
        with pytest.raises(DivergenceError):
            fv.fv_rhs(swe.lake_at_rest_ic(grid), bad, grid)


class TestFvRonsRhs:
    def test_no_constraints_bitwise_identical(self, rng):
        config, grid, scheme = _swe_setup()
        U = np.stack(
            [1e-7 * rng.standard_normal(grid.n_cells), 1e-7 * rng.standard_normal(grid.n_cells)]
        )
        plain = fv.fv_rhs(U, scheme, grid)
        constrained = fv.fvrons_rhs(U, scheme, grid, ())
        assert np.array_equal(plain, constrained)

    def test_tangency_of_enforced_invariants(self, rng):
        config, grid, scheme = _swe_setup()
        quantities = swe.swe_quantities(grid, config)
        U = np.stack(
            [1e-7 * rng.standard_normal(grid.n_cells), 1e-7 * rng.standard_normal(grid.n_cells)]
        )
        out = fv.fvrons_rhs(U, scheme, grid, quantities).reshape(-1)
        for q in quantities:
            g = q.gradient(U.reshape(-1))
            assert abs(g @ out) <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(out)

    def test_lake_at_rest_all_multipliers_vanish(self):
        # energy gradient is identically zero there (dropped), the two state
        # integrals have b = 0 by telescoping, so the correction is zero
        config, grid, scheme = _swe_setup()
        quantities = swe.swe_quantities(grid, config)
        U = swe.lake_at_rest_ic(grid)
        out = fv.fvrons_rhs(U, scheme, grid, quantities)
        assert np.max(np.abs(out)) <= 1e-13

    def test_degenerate_gradients_fall_back_to_plain(self):
        config, grid, scheme = _swe_setup()
        zero_q = core.ConservedQuantity(
            "null", lambda a: 0.0, lambda a: np.zeros_like(a)
        )
        U = swe.gaussian_pulse_ic(grid, config)
        assert np.array_equal(
            fv.fvrons_rhs(U, scheme, grid, (zero_q,)), fv.fv_rhs(U, scheme, grid)
        )

    def test_member_result_does_not_depend_on_its_batch(self):
        # the batched correction forms its products row by row, so a member
        # gets the same bits alone, in the salvage batch of one or in chunks
        config, grid, scheme = _swe_setup(256)
        quantities = swe.swe_quantities(grid, config)
        U = np.stack([swe.random_oscillatory_ic(s, grid, config) for s in range(100)])
        U[:, 1] = 1e-6 * np.random.default_rng(5).standard_normal((100, 256))
        whole = fv.fvrons_rhs(U, scheme, grid, quantities)
        for size in (1, 16, 25):
            parts = [fv.fvrons_rhs(U[i:i + size], scheme, grid, quantities)
                     for i in range(0, 100, size)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()


def failing_at_call(scheme, call, bad):
    """``scheme`` whose flux is ``bad`` everywhere on its ``call``-th evaluation."""
    calls = []

    def rhs(U, grid):
        calls.append(1)
        out = scheme.rhs(U, grid)
        return np.full_like(out, bad) if len(calls) == call else out

    return fv.FluxScheme(rhs=rhs, cfl_dt=scheme.cfl_dt)


class TestFvRonsDivergence:
    """A non-finite stage derivative surfaces once per step, from the stepper."""

    def test_flux_not_checked_again(self):
        # the steppers check each new state; fv_rhs keeps its own check
        config, grid, scheme = _swe_setup()
        bad = failing_at_call(scheme, 1, np.nan)
        out = fv.fvrons_rhs(swe.gaussian_pulse_ic(grid, config), bad, grid)
        assert np.isnan(out).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("members", [None, 3])
    @pytest.mark.parametrize("stepper, stages", [(step_rk4, 4), (step_ssprk3, 3)])
    def test_nonfinite_stage_two_raises_divergence_with_time(self, bad, members, stepper,
                                                              stages):
        config, grid, scheme = _swe_setup()
        quantities = swe.swe_quantities(grid, config)
        U0 = swe.random_oscillatory_ic(3, grid, config)
        if members:
            U0 = np.stack([swe.random_oscillatory_ic(s, grid, config) for s in range(members)])
        # the first step is clean; the second step's second stage is not
        bad_scheme = failing_at_call(scheme, stages + 2, bad)
        rhs = lambda U: fv.fvrons_rhs(U, bad_scheme, grid, quantities)
        with pytest.raises(DivergenceError, match="step at t=") as info:
            with np.errstate(invalid="ignore", over="ignore"):
                integrate(rhs, U0, StepSchedule(t_final=1.0, dt=0.01), stepper=stepper)
        assert info.value.time == pytest.approx(0.01)


def _moving_states(grid, config, first):
    """Three random-wave states with a nonzero velocity field."""
    U = np.stack([swe.random_oscillatory_ic(s, grid, config) for s in range(first, first + 3)])
    U[:, 1] = 0.3 * np.roll(U[:, 0], 5, axis=-1)
    return U


class TestPreparedConstraintSet:
    """FV-RONS with the state integrals' rows prepared once per run against
    the same integrals given as plain lambdas, stacked per call."""

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batched"])
    def test_cached_rows_match_lambda_integrals_bitwise(self, batch):
        config, grid, scheme = _swe_setup()
        quantities = swe.swe_quantities(grid, config)
        prepared = core.ConstraintSet(fv.fv_metric(grid, 2), quantities)
        plain = with_lambda_values(quantities)
        for first in (0, 3, 6):   # one set over several states: no stale rows
            U = _moving_states(grid, config, first)
            U = U if batch else U[0]
            want = fv.fvrons_rhs(U, scheme, grid, plain)
            assert fv.fvrons_rhs(U, scheme, grid, prepared).tobytes() == want.tobytes()
            assert fv.fvrons_rhs(U, scheme, grid, quantities).tobytes() == want.tobytes()

    def test_inactive_energy_row_at_rest_matches_lambda_integrals(self, rng):
        # lake at rest: the energy gradient vanishes, so its row is dropped
        # for that state, then written again for the next one
        config, grid, scheme = _swe_setup()
        quantities = swe.swe_quantities(grid, config)
        metric = fv.fv_metric(grid, 2)
        prepared = core.ConstraintSet(metric, quantities)
        plain = core.ConstraintSet(metric, with_lambda_values(quantities))
        rest = swe.lake_at_rest_ic(grid).reshape(-1)
        assert not quantities[2].gradient(rest).any()
        moving = _moving_states(grid, config, 0)[0].reshape(-1)
        for state in (rest, moving, rest):
            velocity = rng.standard_normal(state.shape)
            want = plain.correct(velocity, state)
            assert prepared.correct(velocity, state).tobytes() == want.tobytes()

    def test_rebuilt_quantities_keep_the_cached_rows(self):
        # perfbench rebuilds each quantity from its name, value and gradient;
        # the value carries the linear declaration, so an unbatched call
        # evaluates only the energy gradient (a batched one stacks them all)
        config, grid, scheme = _swe_setup()
        calls = []

        def counted(q):
            def gradient(a):
                calls.append(q.name)
                return q.gradient(a)
            return core.ConservedQuantity(q.name, q.value, gradient)

        quantities = swe.swe_quantities(grid, config)
        prepared = core.ConstraintSet(fv.fv_metric(grid, 2), [counted(q) for q in quantities])
        U = _moving_states(grid, config, 0)
        for state in (U[0], U[1]):
            want = fv.fvrons_rhs(state, scheme, grid, with_lambda_values(quantities))
            assert fv.fvrons_rhs(state, scheme, grid, prepared).tobytes() == want.tobytes()
        assert calls == ["total_energy", "total_energy"]


def field_integral(grid, U, fld):
    """The integral of field ``fld`` of a ``(2, n)`` state."""
    return fv.state_integral_quantity(grid, 2, fld).value(U.reshape(-1))


class TestStateIntegral:
    def test_unit_field(self):
        grid = fv.build_grid(10.0, 128)
        U = np.stack([np.ones(128), np.zeros(128)])
        assert field_integral(grid, U, 0) == pytest.approx(10.0)

    def test_zero_field(self):
        grid = fv.build_grid(10.0, 128)
        assert field_integral(grid, np.zeros((2, 128)), 1) == 0.0

    def test_gaussian_matches_quadrature(self):
        # oracle: adaptive quadrature of the pulse profile
        config = swe.SweConfig()
        grid = fv.build_grid(10.0, 1024)
        U = swe.gaussian_pulse_ic(grid, config)
        amplitude = 0.1 / config.wavelength_m
        exact, _ = quad(lambda x: amplitude * np.exp(-((5.0 * (x - 5.0)) ** 2)), 0, 10)
        assert field_integral(grid, U, 0) == pytest.approx(exact, rel=1e-6)

    def test_bad_field_index(self):
        grid = fv.build_grid(1.0, 4)
        with pytest.raises(ValidationError):
            fv.state_integral_quantity(grid, 2, 5)

    def test_quantity_value_is_batch_transparent(self, rng):
        grid = fv.build_grid(10.0, 16)
        q = fv.state_integral_quantity(grid, 2, 0)
        batch = rng.standard_normal((4, 32))
        values = q.value(batch)
        assert values.shape == (4,)
        # a matrix-vector product may sum in another order than a dot product
        scale = np.abs(batch[:, :16]) @ grid.widths
        for value, member, size in zip(values, batch, scale):
            assert abs(value - q.value(member)) <= 1e-14 * size
            assert abs(value - np.dot(grid.widths, member[:16])) <= 1e-14 * size

    def test_quantity_gradient_is_cell_widths(self):
        grid = fv.build_grid(10.0, 16)
        q = fv.state_integral_quantity(grid, 2, 1)
        g = q.gradient(np.zeros(32))
        assert np.array_equal(g[16:], grid.widths)
        assert not g[:16].any()


class TestNonuniformWidths:
    def test_types_accept_varying_cells(self):
        widths = np.array([0.5, 1.0, 1.5, 1.0])
        centers = np.cumsum(widths) - 0.5 * widths
        grid = fv.FvGrid(length=4.0, n_cells=4, centers=centers, widths=widths)
        U = np.stack([np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4)])
        assert field_integral(grid, U, 0) == pytest.approx(0.5 + 2.0 + 4.5 + 4.0)
        metric = fv.fv_metric(grid, 2)
        assert np.array_equal(np.diag(metric.toarray()), np.tile(widths, 2))
        with pytest.raises(ValidationError):
            grid.dx  # uniform-only accessor


class TestDiscreteConservation:
    def test_state_integrals_flat_for_both_paths(self, rng):
        config, grid, scheme = _swe_setup(n=128)
        quantities = swe.swe_quantities(grid, config)
        U0 = swe.random_oscillatory_ic(3, grid, config)
        schedule = StepSchedule(t_final=1.0, cfl=lambda U: scheme.cfl_dt(U, grid))
        for constraints in ((), quantities):
            rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, constraints)
            traj = integrate(rhs, U0, schedule, stepper=step_ssprk3, observe_every=1.0)
            final = traj.states[-1]
            for fld in range(2):
                start = field_integral(grid, U0, fld)
                end = field_integral(grid, final, fld)
                # velocity starts identically zero, so scale the drift by the
                # L1 magnitude the field actually reaches
                scale = max(
                    abs(start),
                    np.dot(grid.widths, np.abs(U0[fld])),
                    np.dot(grid.widths, np.abs(final[fld])),
                )
                assert abs(end - start) / scale < 1e-10
