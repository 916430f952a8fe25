import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rons import core
from rons.errors import (
    ConstraintConditioningError,
    DimensionError,
    IllConditionedConstraintWarning,
    RonsError,
    SingularMetricError,
    ValidationError,
)

from conftest import quadratic_quantity, random_spd


# ---------------------------------------------------------------------------
# Parameter layout


class TestParameterLayout:
    def test_real_pack_roundtrip(self):
        layout = core.ParameterLayout.single_real(3)
        v = layout.pack([np.array([1.0, 2.0, 3.0])])
        assert v.tolist() == [1.0, 2.0, 3.0]
        assert layout.unpack(v)[0].tolist() == [1.0, 2.0, 3.0]

    def test_complex_stacking_order(self):
        # one complex coefficient occupies two slots: [Re, -Im]
        layout = core.ParameterLayout.single_complex(2)
        v = layout.pack([np.array([1 + 2j, 3 - 4j])])
        assert v.tolist() == [1.0, 3.0, -2.0, 4.0]
        z = layout.unpack(v)[0]
        assert np.allclose(z, [1 + 2j, 3 - 4j])

    def test_width_counts_components(self):
        layout = core.ParameterLayout(
            (core.Component(3), core.Component(2, is_complex=True))
        )
        assert layout.width == 3 + 4
        assert layout.boundaries == (0, 3, 7)

    def test_state_length_must_match(self):
        layout = core.ParameterLayout.single_real(3)
        with pytest.raises(DimensionError):
            core.ParameterState(np.zeros(4), layout)

    def test_mixed_pack(self):
        layout = core.ParameterLayout(
            (core.Component(2), core.Component(1, is_complex=True))
        )
        v = layout.pack([np.array([5.0, 6.0]), np.array([1 - 1j])])
        assert v.tolist() == [5.0, 6.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# Metric assembly


class TestAssembleMetric:
    def test_orthonormal_modes_identity(self):
        m = core.assemble_metric(np.eye(3))
        assert m.kind == "diagonal"
        assert np.array_equal(m.toarray(), np.eye(3))

    def test_dense_spd_eigenvalues(self):
        m = core.assemble_metric([[2.0, 1.0], [1.0, 2.0]])
        assert m.kind == "dense"
        eigs = np.linalg.eigvalsh(m.toarray())
        assert np.allclose(eigs, [1.0, 3.0])

    def test_fv_indicator_modes_diagonal(self):
        # oracle: direct integration of indicator products on a uniform grid,
        # <phi_i, phi_j> = dx * delta_ij with dx = 10/1024
        dx = 10.0 / 1024
        pairings = np.zeros((8, 8))
        x = np.linspace(0, 10, 20001)
        for i in range(8):
            for j in range(8):
                chi_i = ((x >= i * dx) & (x < (i + 1) * dx)).astype(float)
                chi_j = ((x >= j * dx) & (x < (j + 1) * dx)).astype(float)
                pairings[i, j] = np.trapezoid(chi_i * chi_j, x)
        # quadrature of discontinuous indicators is rough; assert the exact
        # construction instead and check the oracle agrees loosely
        exact = core.assemble_metric(dx * np.eye(8))
        assert exact.kind == "diagonal"
        assert np.allclose(np.diag(exact.toarray()), dx)
        assert np.allclose(np.diag(pairings), dx, rtol=0.15)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            core.assemble_metric(np.ones((2, 3)))

    def test_asymmetry_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValidationError):
            core.assemble_metric(m)

    def test_not_positive_definite_fails_at_solve(self):
        m = core.assemble_metric([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(SingularMetricError):
            m.solve(np.ones(2))


class TestBlockMetric:
    def test_two_scalar_blocks(self):
        m = core.assemble_block_metric([np.array([[2.0]]), np.array([[3.0]])])
        assert np.array_equal(m.toarray(), np.diag([2.0, 3.0]))

    def test_fv_fields_share_widths(self):
        dx = 10.0 / 64
        blk = core.MetricTensor.from_diagonal(np.full(64, dx))
        m = core.assemble_block_metric([blk, blk])
        assert m.kind == "diagonal"
        assert np.allclose(np.diag(m.toarray()), dx)
        assert m.boundaries == (0, 64, 128)

    def test_single_block_degenerate_case(self, rng):
        pairings = random_spd(rng, 4)
        direct = core.assemble_metric(pairings)
        blocked = core.assemble_block_metric([pairings])
        assert blocked.kind == direct.kind
        assert np.array_equal(blocked.toarray(), direct.toarray())

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            core.assemble_block_metric([])

    def test_mixed_blocks_solve(self, rng):
        dense = random_spd(rng, 3)
        m = core.assemble_block_metric(
            [dense, core.MetricTensor.from_diagonal(np.array([2.0, 4.0]))]
        )
        rhs = rng.standard_normal(5)
        assert np.allclose(m.toarray() @ m.solve(rhs), rhs)


class TestComplexifyMetric:
    def test_single_orthonormal_mode(self):
        m = core.complexify_metric(np.array([[1.0 + 0j]]))
        assert np.array_equal(m.toarray(), np.eye(2))

    def test_hand_expanded_two_mode_example(self):
        # expand [[Re P, Im P], [-Im P, Re P]] entrywise for
        # P = [[1, i/2], [-i/2, 1]]
        pairings = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.5],
                [0.0, 1.0, -0.5, 0.0],
                [0.0, -0.5, 1.0, 0.0],
                [0.5, 0.0, 0.0, 1.0],
            ]
        )
        m = core.complexify_metric(pairings)
        assert np.allclose(m.toarray(), expected, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(m.toarray())) > 0

    def test_fourier_modes_identity(self):
        # oracle: trapezoid quadrature of exp(2 pi i k x / L) / sqrt(L)
        # pairings on a fine periodic grid (exact for band-limited products)
        length = 7.0
        n_modes, n_grid = 4, 512
        x = np.arange(n_grid) * (length / n_grid)
        modes = [
            np.exp(2j * np.pi * k * x / length) / np.sqrt(length) for k in range(n_modes)
        ]
        pairings = np.array(
            [
                [np.sum(np.conj(a) * b) * (length / n_grid) for b in modes]
                for a in modes
            ]
        )
        m = core.complexify_metric(pairings)
        assert np.allclose(m.toarray(), np.eye(2 * n_modes), atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            core.complexify_metric(np.array([[1.0, 0.5j], [0.5j, 1.0]]))


class TestAssembleRhs:
    def test_real_passthrough(self):
        assert core.assemble_rhs(np.array([1.0, 2.0])).tolist() == [1.0, 2.0]

    def test_complex_stacking_matches_complex_solve(self):
        # oracle: with unit pairing the complex Galerkin solve is z' = f;
        # the stored vector is [Re f, -Im f] and the identity stacked metric
        # returns exactly that, so unpacking recovers z' = 1 + 2i
        f = core.assemble_rhs(np.array([1 + 2j]))
        assert f.tolist() == [1.0, -2.0]
        metric = core.complexify_metric(np.array([[1.0 + 0j]]))
        a_dot = metric.solve(f)
        z_dot = core.ParameterLayout.single_complex(1).unpack(a_dot)[0]
        assert np.allclose(z_dot, [1 + 2j])

    def test_zero_vector(self):
        assert core.assemble_rhs(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_layout_mismatch(self):
        layout = core.ParameterLayout.single_complex(2)
        with pytest.raises(DimensionError):
            core.assemble_rhs([np.array([1 + 1j])], layout)


# ---------------------------------------------------------------------------
# Constraint machinery


def _unit_circle_system():
    metric = core.assemble_metric(np.eye(2))
    quantity = quadratic_quantity("radius", 2.0 * np.eye(2))  # a1^2 + a2^2
    return core.RonsSystem(metric, lambda a: np.array([1.0, 1.0]), (quantity,))


class TestEvaluateConstraintSystem:
    def test_circle_example(self):
        system = _unit_circle_system()
        out = core.evaluate_constraint_system(np.array([1.0, 0.0]), system)
        assert np.allclose(out.matrix, [[4.0]])
        assert np.allclose(out.rhs, [2.0])
        assert out.active == (0,)

    def test_zero_gradient_dropped(self):
        metric = core.assemble_metric(np.eye(2))
        cubic = core.ConservedQuantity(
            "cubic", lambda a: float(np.sum(a**3)), lambda a: 3.0 * a**2
        )
        system = core.RonsSystem(metric, lambda a: np.ones(2), (cubic,))
        out = core.evaluate_constraint_system(np.zeros(2), system)
        assert out.active == ()
        assert out.matrix.shape == (0, 0)

    def test_duplicate_constraints_raise(self):
        metric = core.assemble_metric(np.eye(2))
        q = quadratic_quantity("q", np.eye(2))
        system = core.RonsSystem(metric, lambda a: np.ones(2), (q, q))
        with pytest.raises(ConstraintConditioningError):
            core.evaluate_constraint_system(np.array([1.0, 2.0]), system)

    def test_symmetry_and_psd(self, rng):
        for _ in range(25):
            n = int(rng.integers(3, 12))
            metric = core.assemble_metric(random_spd(rng, n))
            qs = tuple(
                quadratic_quantity(f"q{k}", rng.standard_normal((n, n)))
                for k in range(int(rng.integers(1, 4)))
            )
            system = core.RonsSystem(metric, lambda a: rng.standard_normal(n), qs)
            out = core.evaluate_constraint_system(rng.standard_normal(n), system)
            c = out.matrix
            scale = max(np.max(np.abs(c)), 1e-300)
            assert np.max(np.abs(c - c.T)) <= 1e-12 * scale
            assert np.min(np.linalg.eigvalsh(c)) >= -1e-12 * scale


class TestSolveLagrange:
    def test_scalar(self):
        assert np.allclose(core.solve_lagrange(np.array([[4.0]]), np.array([2.0])), [0.5])

    def test_diagonal(self):
        lam = core.solve_lagrange(np.diag([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.allclose(lam, [3.0, 2.0])

    def test_singular_least_squares_with_warning(self):
        # oracle: minimum-norm solution of the rank-one system is (1/2, 1/2)
        c = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.warns(IllConditionedConstraintWarning):
            lam = core.solve_lagrange(c, np.array([1.0, 1.0]))
        assert np.allclose(lam, [0.5, 0.5])

    def test_empty(self):
        assert core.solve_lagrange(np.zeros((0, 0)), np.zeros(0)).size == 0

    def test_badly_scaled_but_independent(self):
        # scale disparity alone must not trigger the fallback
        c = np.diag([1e8, 1e-8])
        lam = core.solve_lagrange(c, np.array([1e8, 1e-8]))
        assert np.allclose(lam, [1.0, 1.0])


class TestGronsRhs:
    def test_circle_tangent(self):
        system = _unit_circle_system()
        a_dot = core.grons_rhs(np.array([1.0, 0.0]), system)
        assert np.allclose(a_dot, [0.0, 1.0])

    def test_unconstrained_plain_solve(self):
        metric = core.assemble_metric(np.diag([2.0, 2.0]))
        system = core.RonsSystem(metric, lambda a: np.array([2.0, 4.0]))
        assert np.allclose(core.grons_rhs(np.zeros(2), system), [1.0, 2.0])

    def test_classical_equivalence_bitwise(self, rng):
        metric = core.assemble_metric(random_spd(rng, 6))
        f = rng.standard_normal(6)
        system = core.RonsSystem(metric, lambda a: f)
        assert np.array_equal(core.grons_rhs(np.zeros(6), system), metric.solve(f))

    def test_tangency_randomized(self, rng):
        # oracle is the construction itself: directional derivative of each
        # active invariant along the returned velocity must vanish
        for _ in range(40):
            n = int(rng.integers(2, 21))
            m = int(rng.integers(0, min(4, n) + 1))
            metric = core.assemble_metric(random_spd(rng, n))
            qs = tuple(
                quadratic_quantity(f"q{k}", rng.standard_normal((n, n)))
                for k in range(m)
            )
            f = rng.standard_normal(n)
            system = core.RonsSystem(metric, lambda a: f, qs)
            a = rng.standard_normal(n)
            a_dot = core.grons_rhs(a, system)
            # velocity scale includes the unconstrained solve: when the
            # correction cancels it almost fully, |a_dot| alone drops below
            # the round-off of the subtraction that produced it
            v_scale = max(
                np.linalg.norm(a_dot), np.linalg.norm(system.metric.solve(f))
            )
            for q in qs:
                g = q.gradient(a)
                bound = 1e-10 * np.linalg.norm(g) * v_scale
                assert abs(g @ a_dot) <= max(bound, 1e-300)

    def test_tangency_stacked_complex(self, rng):
        # Appendix-style path: Hermitian pairing, complex projections, real
        # quadratic invariants on the stacked coordinates
        n = 5
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        metric = core.complexify_metric(r @ r.conj().T + n * np.eye(n))
        f = core.assemble_rhs(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        qs = tuple(
            quadratic_quantity(f"q{k}", rng.standard_normal((2 * n, 2 * n)))
            for k in range(2)
        )
        system = core.RonsSystem(metric, lambda a: f, qs)
        a = rng.standard_normal(2 * n)
        a_dot = core.grons_rhs(a, system)
        for q in qs:
            g = q.gradient(a)
            assert abs(g @ a_dot) <= 1e-10 * np.linalg.norm(g) * np.linalg.norm(a_dot)

    def test_complex_consistency(self, rng):
        # stacked real solve reproduces the complex Galerkin solve entrywise
        for _ in range(10):
            n = int(rng.integers(1, 9))
            r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pairings = r @ r.conj().T + n * np.eye(n)
            f_c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            metric = core.complexify_metric(pairings)
            system = core.RonsSystem(metric, lambda a: core.assemble_rhs(f_c))
            a_dot = core.grons_rhs(np.zeros(2 * n), system)
            z_dot = core.ParameterLayout.single_complex(n).unpack(a_dot)[0]
            expected = np.linalg.solve(pairings, f_c)
            assert np.max(np.abs(z_dot - expected)) <= 1e-12 * max(
                1.0, np.max(np.abs(expected))
            )


def _correct(metric, velocity, gradients):
    """Kernel output plus the IllConditionedConstraintWarnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = core.apply_invariant_correction(metric, velocity, gradients)
    ill = [w for w in caught if issubclass(w.category, IllConditionedConstraintWarning)]
    return out, len(ill)


def _close(a, b, rtol=1e-12):
    return np.linalg.norm(a - b) <= rtol * max(np.linalg.norm(b), 1e-300)


class TestBatchedCorrection:
    """One batch mixing a degenerate member (energy-like gradient below the
    degeneracy tolerance), a member whose two gradients coincide, and
    ordinary members."""

    W, B = 12, 5

    def _mixed_batch(self, rng):
        metric = core.MetricTensor.from_diagonal(rng.uniform(0.5, 2.0, self.W))
        constant = np.zeros(self.W)
        constant[: self.W // 2] = 1.0
        energy = rng.standard_normal((self.B, self.W))
        energy[0] *= 1e-14   # below DEGENERACY_TOL, like lake-at-rest round-off
        energy[1] = constant
        velocity = rng.standard_normal((self.B, self.W))
        return metric, velocity, [constant, energy]

    def test_members_match_lone_runs(self, rng):
        metric, velocity, (constant, energy) = self._mixed_batch(rng)
        batched, n_warned = _correct(metric, velocity, [constant, energy])
        assert batched.shape == velocity.shape
        assert n_warned == 1
        for i in range(self.B):
            alone, alone_warned = _correct(metric, velocity[i], [constant, energy[i]])
            assert _close(batched[i], alone)
            assert alone_warned == (1 if i == 1 else 0)
        # the degenerate member is corrected by the constant gradient alone
        only_constant, _ = _correct(metric, velocity[0], [constant])
        assert _close(batched[0], only_constant)
        # the duplicated member went through least squares and is still tangent
        scale = np.linalg.norm(constant) * np.linalg.norm(velocity[1])
        assert abs(constant @ batched[1]) <= 1e-12 * scale

    def test_no_active_member_returns_velocity_bitwise(self, rng):
        metric = core.MetricTensor.from_diagonal(np.ones(self.W))
        velocity = rng.standard_normal((self.B, self.W))
        out = core.apply_invariant_correction(
            metric, velocity, [np.zeros(self.W), np.zeros((self.B, self.W))]
        )
        assert out is velocity

    def test_linalg_error_surfaces_as_rons_error(self, rng, monkeypatch):
        metric, velocity, (constant, energy) = self._mixed_batch(rng)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConstraintConditioningError) as info:
            core.apply_invariant_correction(metric, velocity[2:], [constant, energy[2:]])
        assert isinstance(info.value, RonsError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@st.composite
def correction_cases(draw):
    """Batches of up to 8 members, widths up to 40, up to 4 gradients, some
    constant, some zero in some members, under a positive diagonal or a
    dense SPD metric.  Widths of at least twice the gradient count keep the
    random gradients well conditioned, which the tangency bound assumes."""
    batch = draw(st.integers(1, 8))
    m = draw(st.integers(1, 4))
    w = draw(st.integers(2 * m, 40))
    constant = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    zeroed = draw(st.sets(st.tuples(st.integers(0, batch - 1), st.integers(0, m - 1)),
                          max_size=3))
    dense = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dense:
        metric = core.assemble_metric(random_spd(rng, w))
    else:
        metric = core.MetricTensor.from_diagonal(rng.uniform(0.1, 10.0, w))
    gradients = []
    for k in range(m):
        if constant[k]:
            gradients.append(rng.standard_normal(w))
        else:
            g = rng.standard_normal((batch, w))
            for member, kk in zeroed:
                if kk == k:
                    g[member] = 0.0
            gradients.append(g)
    return metric, rng.standard_normal((batch, w)), gradients


def _member(gradients, i):
    return [g if g.ndim == 1 else g[i] for g in gradients]


CASES = settings(max_examples=60, deadline=None, derandomize=True, database=None)


class TestCorrectionProperties:
    @CASES
    @given(correction_cases())
    def test_tangent_to_every_active_invariant(self, case):
        metric, velocity, gradients = case
        out = core.apply_invariant_correction(metric, velocity, gradients)
        for i in range(velocity.shape[0]):
            scale = max(np.linalg.norm(out[i]), np.linalg.norm(velocity[i]))
            for g in _member(gradients, i):
                if np.linalg.norm(g) > core.DEGENERACY_TOL:
                    bound = 1e-10 * np.linalg.norm(g) * scale
                    assert abs(g @ out[i]) <= max(bound, 1e-300)

    @CASES
    @given(correction_cases())
    def test_batch_equals_members(self, case):
        metric, velocity, gradients = case
        out = core.apply_invariant_correction(metric, velocity, gradients)
        for i in range(velocity.shape[0]):
            alone = core.apply_invariant_correction(metric, velocity[i], _member(gradients, i))
            assert _close(out[i], alone)


class TestDropDegenerate:
    def test_mixed(self):
        grads = [np.array([2.0, 0.0]), np.array([0.0, 0.0])]
        assert core.drop_degenerate_constraints(grads, 1e-10) == (0,)

    def test_all_zero(self):
        assert core.drop_degenerate_constraints([np.zeros(2)] * 3, 1e-10) == ()

    def test_tiny_versus_unit(self):
        grads = [np.array([1e-14, 0.0]), np.array([1.0, 1.0])]
        assert core.drop_degenerate_constraints(grads, 1e-10) == (1,)

    def test_invalid_tolerance(self):
        with pytest.raises(ValidationError):
            core.drop_degenerate_constraints([np.ones(2)], 0.0)


class TestGradientChecks:
    def test_quadratic_gradients_match_fd(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            q = quadratic_quantity("q", rng.standard_normal((n, n)))
            a = rng.standard_normal(n)
            fd = core.finite_difference_gradient(q.value, a)
            g = q.gradient(a)
            assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_directional_derivative(self, rng):
        q = quadratic_quantity("q", random_spd(rng, 5))
        a = rng.standard_normal(5)
        d = rng.standard_normal(5)
        assert core.directional_derivative(q.value, a, d) == pytest.approx(
            float(q.gradient(a) @ d), rel=1e-6
        )


class TestProjection:
    def test_projects_back_to_level_set(self, rng):
        q = quadratic_quantity("q", 2.0 * np.eye(3))  # |a|^2
        a = np.array([1.0, 0.0, 0.0])
        target = q.value(a)
        drifted = a + 1e-3 * rng.standard_normal(3)
        repaired = core.project_onto_levels(drifted, [q], [target])
        assert q.value(repaired) == pytest.approx(target, abs=1e-12)
