import copy
import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from rons import core
from rons.errors import (
    ConstraintConditioningError,
    DimensionError,
    IllConditionedConstraintWarning,
    RonsError,
    SingularMetricError,
    ValidationError,
)

from conftest import quadratic_quantity, random_spd, with_lambda_values


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

    @pytest.mark.parametrize("entry", [0.0, -1.0])
    def test_non_positive_diagonal_fails_at_every_solve(self, entry):
        m = core.MetricTensor.from_diagonal([1.0, entry, 2.0])
        for rhs in (np.ones(3), np.ones((4, 3))):
            with pytest.raises(SingularMetricError):
                m.solve(rhs)

    def test_diagonal_metric_keeps_a_private_copy(self):
        # the positivity check runs once, so the caller's array must not
        # reach the metric
        diag = np.ones(3)
        m = core.MetricTensor.from_diagonal(diag)
        m.solve(np.ones(3))
        diag[1] = -1.0
        assert np.array_equal(m.solve(np.ones(3)), np.ones(3))


class TestBlockMetric:
    def test_two_scalar_blocks(self):
        m = core.assemble_block_metric([np.array([[2.0]]), np.array([[3.0]])])
        assert np.array_equal(m.toarray(), np.diag([2.0, 3.0]))

    def test_fv_fields_share_widths(self):
        dx = 10.0 / 64
        blk = core.MetricTensor.from_diagonal(np.full(64, dx))
        m = core.assemble_block_metric([blk, blk])
        assert m.kind == "diagonal"
        assert m.size == 128 and np.allclose(np.diag(m.toarray()), dx)

    def test_single_block_degenerate_case(self, rng):
        pairings = random_spd(rng, 4)
        direct = core.assemble_metric(pairings)
        blocked = core.assemble_block_metric([pairings])
        assert blocked.kind == direct.kind
        assert np.array_equal(blocked.toarray(), direct.toarray())

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            core.assemble_block_metric([])

    @pytest.mark.parametrize("kind", ["diagonal", "dense"])
    def test_lone_block_returned_as_it_is(self, rng, kind):
        block = (core.MetricTensor.from_diagonal(rng.uniform(0.5, 2.0, 4)) if kind == "diagonal"
                 else core.assemble_metric(random_spd(rng, 4)))
        before = block.toarray()
        assert core.assemble_block_metric([block]) is block
        assert block.kind == kind and np.array_equal(block.toarray(), before)

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


@st.composite
def complex_arrays(draw, shapes=st.sampled_from([(1,), (4,), (3, 4), (2, 3, 4)])):
    """Finite complex arrays, the last axis the coefficients."""
    re, im = draw(hnp.arrays(float, (2,) + draw(shapes), elements=st.floats(-1e3, 1e3)))
    return re + 1j * im


class TestComplexStacking:
    """The one definition of the ``[Re z, -Im z]`` stacking."""

    @given(complex_arrays())
    def test_unstack_inverts_stack(self, z):
        a = core.stack_complex(z)
        assert a.shape == z.shape[:-1] + (2 * z.shape[-1],)
        assert np.array_equal(a, np.concatenate([z.real, -z.imag], axis=-1))
        assert np.array_equal(core.unstack_complex(a), z)

    @given(complex_arrays(), st.data())
    def test_real_form_acts_as_the_matrix_on_row_vectors(self, z, data):
        n = z.shape[-1]
        m = data.draw(complex_arrays(st.just((n, n))))
        got = core.stack_complex(z) @ core.real_form(m)
        want = core.stack_complex(z @ m)
        # both sides sum the same 2 n products per entry, in another order
        scale = np.abs(core.stack_complex(z)) @ np.abs(core.real_form(m))
        assert np.all(np.abs(got - want) <= 8 * n * np.finfo(float).eps * scale)

    @given(complex_arrays(st.integers(1, 5).map(lambda n: (n, n))))
    def test_complexify_metric_is_the_real_form_of_the_conjugate(self, a):
        pairings = a + a.conj().T       # Hermitian, entry by entry
        via_real_form = core.assemble_metric(core.real_form(pairings.conj()))
        metric = core.complexify_metric(pairings)
        assert metric.kind == via_real_form.kind
        assert np.array_equal(metric.toarray(), via_real_form.toarray())

    @given(complex_arrays(st.integers(1, 6).map(lambda n: (n,))))
    def test_layout_packs_a_complex_component_as_the_stacking(self, z):
        packed = core.ParameterLayout.single_complex(z.shape[0]).pack([z])
        assert packed.tobytes() == core.stack_complex(z).tobytes()


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


def _unit_circle_constraints():
    metric = core.assemble_metric(np.eye(2))
    quantity = quadratic_quantity("radius", 2.0 * np.eye(2))  # a1^2 + a2^2
    return core.ConstraintSet(metric, (quantity,))


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_empty_batch(self, m):
        lam = core.solve_lagrange(np.zeros((0, m, m)), np.zeros((0, m)))
        assert lam.shape == (0, m)

    def test_badly_scaled_but_independent(self):
        # scale disparity alone must not trigger the fallback
        c = np.diag([1e8, 1e-8])
        lam = core.solve_lagrange(c, np.array([1e8, 1e-8]))
        assert np.allclose(lam, [1.0, 1.0])


def _spy(monkeypatch, name):
    """Count the calls to ``np.linalg.<name>``, passing them through."""
    calls = []
    original = getattr(np.linalg, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestSmallSystemPath:
    """An unbatched system with m <= 3 that passes the checks is solved in
    Python floats; everything else defers to the batched numpy solve."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_certified_system_skips_numpy(self, rng, m, monkeypatch):
        u = rng.uniform(-0.3, 0.3, (m, m))
        c = np.eye(m) + (u + u.T) / 2   # scaled row sums below 2: certified
        c = c * np.outer(10.0 ** np.arange(m), 10.0 ** np.arange(m))   # units differ
        b = rng.standard_normal(m)
        want = np.linalg.solve(c, b)
        solve_calls = _spy(monkeypatch, "solve")
        lam = core.solve_lagrange(c, b)
        assert not solve_calls
        assert lam.shape == (m,)
        assert np.linalg.norm(lam - want) <= 1e-13 * np.linalg.norm(want)

    def test_agrees_with_batched_path(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 4))
            g = rng.standard_normal((m, 2 * m + 3))
            c, b = g @ g.T, rng.standard_normal(m)
            single = core.solve_lagrange(c, b)
            batched = core.solve_lagrange(c[None], b[None])[0]
            assert np.linalg.norm(single - batched) <= 1e-12 * np.linalg.norm(batched)

    def test_asymmetric_raises_validation_error(self):
        c = np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValidationError):
            core.solve_lagrange(c, np.ones(2))

    def test_near_dependent_pair_warns_once_and_uses_lstsq(self, monkeypatch):
        c = np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]])
        b = np.array([1.0, 1.0])
        lstsq_calls = _spy(monkeypatch, "lstsq")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam = core.solve_lagrange(c, b)
        ill = [w for w in caught if issubclass(w.category, IllConditionedConstraintWarning)]
        assert len(ill) == 1
        assert len(lstsq_calls) == 1
        assert np.allclose(c @ lam, b, rtol=0.0, atol=1e-12)

    def test_zero_diagonal_row_gets_zero_multiplier(self):
        c = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
        lam = core.solve_lagrange(c, np.array([1.0, 5.0, 2.0]))
        assert lam.tolist() == [0.5, 0.0, 0.5]

    def test_gershgorin_edge_defers_instead_of_raising(self, monkeypatch):
        # row 0 sums to exactly 2 > 2L/(1+L), so no certificate, yet the
        # eigenvalues 1, 1 +- 1/sqrt(2) are well apart: the numpy path takes
        # a condition estimate and solves without a warning
        c = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.0], [0.5, 0.0, 1.0]])
        b = np.array([1.0, 2.0, 3.0])
        eig_calls = _spy(monkeypatch, "eigvalsh")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = core.solve_lagrange(c, b)
        assert len(eig_calls) == 1
        assert np.allclose(c @ lam, b, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("c", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[np.inf, 1.0], [1.0, 1.0]],
        [[1.0, np.inf], [np.inf, 1.0]],
        [[5e-324, 0.0], [0.0, 1.0]],
        [[1e300, 1e300], [1e300, 1e300]],
        [[1e-300, 0.0], [0.0, 1e300]],
        [[-1.0, 0.0], [0.0, 1.0]],
    ])
    def test_awkward_entries_never_leak_raw_errors(self, c):
        c = np.array(c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                single = core.solve_lagrange(c, np.array([1.0, 2.0]))
            except RonsError:
                return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batched = core.solve_lagrange(c[None], np.array([[1.0, 2.0]]))[0]
        finite = np.isfinite(batched)
        assert np.array_equal(np.isfinite(single), finite)
        assert np.allclose(single[finite], batched[finite], rtol=1e-12, atol=0.0)


def _numpy_path(c, b):
    """``solve_lagrange`` with the closed form for batched pairs declining."""
    with mock.patch.object(core, "_solve_pairs", lambda c, b: None):
        return core.solve_lagrange(c, b)


def _pair_batch(rng, batch, e_max=8.0, t_max=9.0):
    """``batch`` symmetric 2 x 2 systems ``D [[1, r], [r, 1]] D`` with diagonal
    entries ``10^e``, ``|e| <= e_max``, and ``|r| = 1 - 10^-t``,
    ``0 <= t <= t_max``; member 0 takes both extremes.  Returns ``C``, ``b``
    and the condition number ``(1 + |r|) / (1 - |r|)`` of each scaled matrix."""
    e = rng.uniform(-e_max, e_max, (batch, 2))
    e[0] = [-e_max, e_max]
    t = rng.uniform(0.0, t_max, batch)
    t[0] = t_max
    r = rng.choice([-1.0, 1.0], batch) * (1.0 - 10.0 ** -t)
    d = 10.0 ** (e / 2)
    c = np.empty((batch, 2, 2))
    c[:, 0, 0], c[:, 1, 1] = d[:, 0] ** 2, d[:, 1] ** 2
    c[:, 0, 1] = c[:, 1, 0] = r * d[:, 0] * d[:, 1]
    b = d * rng.standard_normal((batch, 2))
    return c, b, (1.0 + abs(r)) / (1.0 - abs(r))


def _outcome(solve, c, b):
    """What one solve does: ``("raised", type)`` or ``("value", lambda,
    warning messages)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lam = solve(c, b)
        except Exception as exc:   # noqa: BLE001 - the type is the outcome
            return ("raised", type(exc))
    return ("value", lam, [(w.category, str(w.message)) for w in caught])


class TestPairedClosedForm:
    """A batch of 2 x 2 systems that all pass the checks is solved in closed
    form; a batch with any member that fails one takes the numpy path whole."""

    @given(st.sampled_from([1, 3, 20]), st.sampled_from([0.0, 2.0, 8.0]),
           st.sampled_from([0.0, 3.0, 9.0]), st.integers(0, 2**32 - 1))
    def test_matches_numpy_path(self, batch, e_max, t_max, seed):
        # Two backward-stable solves of a system with condition number
        # kappa agree to about kappa * eps in the scaled multipliers (both
        # paths round the scaled matrix differently), so the 1e-12 bound is
        # relative to the scaled multipliers and scaled by kappa.
        c, b, kappa = _pair_batch(np.random.default_rng(seed), batch, e_max, t_max)
        got = core.solve_lagrange(c, b)
        want = _numpy_path(c, b)
        assert got.shape == want.shape == (batch, 2)
        s = 1.0 / np.sqrt(c.diagonal(axis1=1, axis2=2))
        diff = np.linalg.norm((got - want) / s, axis=1)
        assert np.all(diff <= 1e-12 * kappa * np.linalg.norm(want / s, axis=1))

    def test_solves_each_member(self, rng):
        c, b, _ = _pair_batch(rng, 20, t_max=6.0)
        lam = core.solve_lagrange(c, b)
        residual = np.linalg.norm(np.vecdot(c, lam[:, None, :]) - b, axis=1)
        assert np.all(residual <= 1e-9 * np.linalg.norm(b, axis=1))

    def test_grons_shaped_batch_makes_no_numpy_solve(self, rng, monkeypatch):
        # twenty members with two gradients each of width 18, like nls-rom
        g = rng.standard_normal((20, 2, 18))
        c, b = g @ g.swapaxes(1, 2), rng.standard_normal((20, 2))
        want = _numpy_path(c, b)
        solve_calls = _spy(monkeypatch, "solve")
        lam = core.solve_lagrange(c, b)
        assert not solve_calls
        assert np.allclose(lam, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("fault", [
        "zero diagonal", "nan diagonal", "inf diagonal", "negative diagonal",
        "asymmetric", "no Gershgorin certificate", "r of one", "r above one",
    ])
    @pytest.mark.parametrize("member", [0, 7])
    def test_one_failing_member_defers_the_whole_batch(self, rng, fault, member):
        c, b, _ = _pair_batch(rng, 20, e_max=2.0, t_max=3.0)
        bad = c[member]
        diag = np.sqrt(bad[0, 0] * bad[1, 1])
        if fault.endswith("diagonal"):
            bad[1, 1] = {"zero": 0.0, "nan": np.nan, "inf": np.inf, "negative": -1.0}[
                fault.split()[0]]
        elif fault == "asymmetric":
            bad[1, 0] *= 1.0 + 1e-6
        else:
            r = {"no Gershgorin certificate": 1.0 - 1e-13, "r of one": 1.0,
                 "r above one": 1.5}[fault]
            bad[0, 1] = bad[1, 0] = r * diag
        got = _outcome(core.solve_lagrange, c, b)
        want = _outcome(_numpy_path, c, b)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1]
            return
        assert np.array_equal(got[1], want[1], equal_nan=True)
        assert got[2] == want[2]
        assert len(got[2]) <= 1

    def test_unbatched_pair_keeps_the_float_path(self, monkeypatch):
        pairs_calls = []
        monkeypatch.setattr(core, "_solve_pairs",
                            lambda c, b: pairs_calls.append(1))
        lam = core.solve_lagrange(np.array([[2.0, 0.5], [0.5, 1.0]]), np.ones(2))
        assert not pairs_calls
        assert np.allclose(lam, np.linalg.solve([[2.0, 0.5], [0.5, 1.0]], np.ones(2)))


@st.composite
def lagrange_systems(draw):
    """``(c, b, active)``: one system with ``m = 1..3`` or a batch of 1, 3 or
    8 of them.  Gram matrices of rows scaled over twelve decades, sometimes
    with a near-twin row (the least-squares fallback) or rows and columns
    zeroed, and a mask drawn entry by entry, all-inactive included."""
    m = draw(st.integers(1, 3))
    lead = draw(st.sampled_from([(), (1,), (3,), (8,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal(lead + (m, m + 2)) * 10.0 ** rng.uniform(-6, 6, lead + (m, 1))
    if draw(st.booleans()):
        g[..., -1, :] = g[..., 0, :] * (1.0 + 1e-15)
    c = g @ g.swapaxes(-1, -2)
    for k in draw(st.sets(st.integers(0, m - 1), max_size=m)):
        c[..., k, :] = c[..., :, k] = 0.0
    active = draw(hnp.arrays(bool, lead + (m,)))
    return c, rng.standard_normal(lead + (m,)), active


def _composed(c, b, active):
    """The active rows' multipliers by hand: one system compressed to its
    active rows, offered to ``_solve_small``, then the numpy path; a batch
    zero-masked, offered to ``_solve_pairs``, then the numpy path."""
    if b.ndim == 1:
        rows = np.flatnonzero(active)
        c, b = c[np.ix_(rows, rows)], b[rows]
        lam = core._solve_small(c.tolist(), b.tolist())
        return core._solve_numpy(c, b) if lam is None else np.array(lam)
    c = np.where(active[..., :, None] & active[..., None, :], c, 0.0)
    b = np.where(active, b, 0.0)
    lam = core._solve_pairs(c, b) if b.shape[-1] == 2 else None
    return (core._solve_numpy(c, b) if lam is None else lam)[active]


class TestMaskedEntry:
    """``solve_lagrange(c, b, active)`` is the composition it replaced, with
    multiplier zero on every inactive row."""

    @given(lagrange_systems())
    def test_matches_the_composition_and_zeroes_inactive_rows(self, system):
        c, b, active = system
        got = _outcome(lambda c, b: core.solve_lagrange(c, b, active), c, b)
        want = _outcome(lambda c, b: _composed(c, b, active), c, b)
        assert got[0] == want[0]
        if got[0] == "raised":
            assert got[1] is want[1]
            return
        lam = got[1]
        assert lam.shape == b.shape
        assert not lam[~active].any()
        assert np.array_equal(lam[active], want[1], equal_nan=True)
        assert got[2] == want[2]

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch"])
    def test_least_squares_gives_null_rows_zero(self, lead):
        # a twin pair around a zero row: least squares on the matrix with an
        # identity row in the zero row's place gives that row about 3e-16
        c = np.broadcast_to([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]], lead + (3, 3))
        b = np.broadcast_to([1.0, 2.0, 3.0], lead + (3,))
        with pytest.warns(IllConditionedConstraintWarning):
            lam = core.solve_lagrange(c, b)
        assert np.all(lam[..., 1] == 0.0)
        assert np.allclose(lam, [1.0, 0.0, 1.0], rtol=1e-14, atol=0.0)


def _constant_quantity(name, gradient):
    """A quantity whose gradient is ``gradient`` at every state, also per
    member of a batch, and that declares nothing."""
    return core.ConservedQuantity(
        name, lambda a: 0.0, lambda a: np.broadcast_to(gradient, np.shape(a)).copy())


def _declared_constant_quantity(name, gradient, n_modes):
    """A reduced-model quantity of constant stacked gradient whose value
    declares that gradient's form, so the joint route takes it."""
    from rons import nls

    form = nls.CubicForm.build(core.unstack_complex(gradient), np.zeros((n_modes, n_modes)),
                               np.zeros((n_modes + 1, 0)), np.zeros((0, n_modes)))
    return core.ConservedQuantity(name, nls.ReducedFunctional(lambda a: 0.0, form), form)


class TestActivityThreshold:
    """A gradient of norm exactly ``DEGENERACY_TOL`` is masked and one of
    twice that norm is enforced, on the constraint set's single and batch
    routes (under a diagonal metric of 0.5, where ``C_kk`` is twice the
    squared norm) and on both paths of the joint reduced-model route.  A
    masked row leaves its coordinate of the velocity as it was; the enforced
    one removes its coordinate."""

    @staticmethod
    def _gradients(width):
        at_tol, twice = np.zeros(width), np.zeros(width)
        at_tol[0], twice[1] = core.DEGENERACY_TOL, 2.0 * core.DEGENERACY_TOL
        return at_tol, twice

    @staticmethod
    def _assert_masks_the_first(velocity, out):
        assert np.array_equal(out[..., 0], velocity[..., 0])
        assert np.all(np.abs(out[..., 1]) <= 1e-12 * np.abs(velocity[..., 1]))

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch"])
    def test_constraint_set(self, rng, lead):
        width = 6
        at_tol, twice = self._gradients(width)
        metric = core.MetricTensor.from_diagonal(np.full(width, 0.5))
        constraints = core.ConstraintSet(
            metric, (_constant_quantity("at_tol", at_tol), _constant_quantity("twice", twice)))
        velocity = rng.standard_normal(lead + (width,)) + 1.0
        out = constraints.correct(velocity, rng.standard_normal(lead + (width,)))
        self._assert_masks_the_first(velocity, out)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batch"])
    def test_joint_route(self, rng, lead):
        from rons import nls

        snaps = 0.1 * (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64)))
        basis = nls.compute_pod(snaps, 4, 16.0 * np.pi)
        width = 2 * basis.n_modes
        quantities = tuple(_declared_constant_quantity(name, g, basis.n_modes)
                           for name, g in zip(("at_tol", "twice"), self._gradients(width)))
        rhs = nls._grons_joint_rhs(basis, quantities)
        a = 0.4 * rng.standard_normal(lead + (width,))
        self._assert_masks_the_first(basis.reduced_operator(a), rhs(a))


class TestUnitMetric:
    def test_solve_returns_its_input(self, rng):
        x = rng.standard_normal((3, 6))
        x[0, :3] = [np.nan, -0.0, np.inf]
        for metric in (core.MetricTensor.identity(6),
                       core.MetricTensor.from_diagonal(np.ones(6))):
            row = x[1]
            assert metric.solve(x) is x
            assert metric.solve(row) is row

    def test_other_diagonals_still_divide(self, rng):
        x = rng.standard_normal(4)
        metric = core.MetricTensor.from_diagonal([1.0, 1.0, 2.0, 1.0])
        got = metric.solve(x)
        assert got is not x
        assert np.array_equal(got, x / np.array([1.0, 1.0, 2.0, 1.0]))

    def test_non_positive_entries_still_raise(self):
        with pytest.raises(SingularMetricError):
            core.MetricTensor.from_diagonal([1.0, 0.0]).solve(np.ones(2))

    @pytest.mark.parametrize("batch", [(), (5,)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_correction_leaves_gradients_alone(self, rng, batch, k):
        w = 8
        metric = core.MetricTensor.identity(w)
        velocity = rng.standard_normal(batch + (w,))
        # per-member gradients; a single state's are shared ones
        gradients = [rng.standard_normal(batch + (w,)) for _ in range(k)]
        saved = [g.copy() for g in gradients]
        out = core.apply_invariant_correction(metric, velocity, gradients)
        for g, before in zip(gradients, saved):
            assert np.array_equal(g, before)
        want = reference_correction(metric, velocity, gradients)
        assert np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(velocity)


class TestGronsRhs:
    def test_circle_tangent(self):
        constraints = _unit_circle_constraints()
        a_dot = core.grons_rhs(np.array([1.0, 0.0]), lambda a: np.array([1.0, 1.0]), constraints)
        assert np.allclose(a_dot, [0.0, 1.0])

    def test_unconstrained_plain_solve(self):
        metric = core.assemble_metric(np.diag([2.0, 2.0]))
        constraints = core.ConstraintSet(metric)
        assert np.allclose(core.grons_rhs(np.zeros(2), lambda a: np.array([2.0, 4.0]),
                                          constraints), [1.0, 2.0])

    @pytest.mark.parametrize("given", ["tuple", "list", "empty"])
    def test_unprepared_constraints_rejected_naming_the_fix(self, given):
        q = quadratic_quantity("q", np.eye(2))
        constraints = {"tuple": (q,), "list": [q], "empty": ()}[given]
        with pytest.raises(ValidationError, match=r"core\.ConstraintSet\(metric, quantities\)"):
            core.grons_rhs(np.array([1.0, 0.0]), lambda a: np.array([1.0, 1.0]), constraints)

    def test_classical_equivalence_bitwise(self, rng):
        metric = core.assemble_metric(random_spd(rng, 6))
        f = rng.standard_normal(6)
        constraints = core.ConstraintSet(metric)
        assert np.array_equal(core.grons_rhs(np.zeros(6), lambda a: f, constraints),
                              metric.solve(f))

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
            constraints = core.ConstraintSet(metric, qs)
            a = rng.standard_normal(n)
            a_dot = core.grons_rhs(a, lambda a: f, constraints)
            # velocity scale includes the unconstrained solve: when the
            # correction cancels it almost fully, |a_dot| alone drops below
            # the round-off of the subtraction that produced it
            v_scale = max(
                np.linalg.norm(a_dot), np.linalg.norm(constraints.metric.solve(f))
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
        constraints = core.ConstraintSet(metric, qs)
        a = rng.standard_normal(2 * n)
        a_dot = core.grons_rhs(a, lambda a: f, constraints)
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
            constraints = core.ConstraintSet(metric)
            a_dot = core.grons_rhs(np.zeros(2 * n), lambda a: core.assemble_rhs(f_c),
                                   constraints)
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
        # the closed form for batched pairs declines, so the solve goes
        # through numpy's, which raises
        metric, velocity, (constant, energy) = self._mixed_batch(rng)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(core, "_solve_pairs", lambda c, b: None)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConstraintConditioningError) as info:
            core.apply_invariant_correction(metric, velocity[2:], [constant, energy[2:]])
        assert isinstance(info.value, RonsError)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_linalg_error_in_single_state_fallback_surfaces_as_rons_error(
        self, rng, monkeypatch
    ):
        # member 1's gradients coincide: the float path declines and the
        # numpy path's least squares is the solver that fails
        metric, velocity, (constant, energy) = self._mixed_batch(rng)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", singular)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedConstraintWarning)
            with pytest.raises(ConstraintConditioningError) as info:
                core.apply_invariant_correction(metric, velocity[1], [constant, energy[1]])
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("batched", [False, True])
    def test_nonfinite_member_passes_through(self, rng, bad, batched):
        # a non-finite stage state reaches the stepper's check, not an error here
        metric, velocity, (constant, energy) = self._mixed_batch(rng)
        velocity[3, 2], energy[3, 5] = bad, bad
        members = slice(2, None) if batched else 3
        with np.errstate(invalid="ignore", over="ignore"):
            out = core.apply_invariant_correction(
                metric, velocity[members], [constant, energy[members]])
        if batched:
            assert not np.isfinite(out[1]).all()
            assert np.isfinite(out[[0, 2]]).all()
        else:
            assert not np.isfinite(out).all()

    def test_no_active_gradient_single_state_returns_velocity_bitwise(self, rng):
        metric = core.MetricTensor.from_diagonal(np.ones(self.W))
        velocity = rng.standard_normal(self.W)
        out = core.apply_invariant_correction(
            metric, velocity, [np.zeros(self.W), np.full(self.W, 1e-14)]
        )
        assert out is velocity

    def test_gradients_at_the_tolerance_return_velocity_itself(self, rng):
        # norms exactly DEGENERACY_TOL and just below it are inactive
        metric = core.MetricTensor.from_diagonal(rng.uniform(0.5, 2.0, self.W))
        velocity = rng.standard_normal(self.W)
        at_tol = np.zeros(self.W)
        at_tol[3] = core.DEGENERACY_TOL
        out = core.apply_invariant_correction(
            metric, velocity, [at_tol, np.full(self.W, 0.1 * core.DEGENERACY_TOL / self.W)]
        )
        assert out is velocity

    @pytest.mark.parametrize("batched", [False, True])
    def test_tiny_gradient_beside_a_unit_one_gets_multiplier_zero(self, rng, batched):
        # the 1e-14 gradient is dropped: the result is the correction by the
        # unit gradient alone, bit for bit
        metric = core.MetricTensor.from_diagonal(rng.uniform(0.5, 2.0, self.W))
        unit = np.zeros(self.W)
        unit[0] = 1.0
        tiny = np.zeros(self.W)
        tiny[1] = 1e-14
        velocity = rng.standard_normal((self.B, self.W) if batched else self.W)
        if batched:
            tiny = np.broadcast_to(tiny, velocity.shape)
        out = core.apply_invariant_correction(metric, velocity, [tiny, unit])
        alone = core.apply_invariant_correction(metric, velocity, [unit])
        assert np.array_equal(out, alone)
        assert _close(out, reference_correction(metric, velocity, [unit]))


def _symmetric_quadratic(name, rng, n):
    """``a Q a / 2`` with a batch-transparent gradient ``a @ Q``."""
    q = rng.standard_normal((n, n))
    q = q + q.T
    return core.ConservedQuantity(name, lambda a: 0.5 * np.vecdot(a @ q, a), lambda a: a @ q)


def _squared_norm(a):
    return np.vecdot(a, a)


def _squared_norm_gradient(a):
    return 2.0 * a


class TestConstraintSet:
    """A set caches the rows of its linear invariants; the result must be
    bitwise that of stacking every gradient per call, for each metric kind."""

    N = 8

    def _metric(self, kind, rng):
        if kind == "dense":
            return core.assemble_metric(random_spd(rng, self.N))
        if kind == "diagonal":
            return core.MetricTensor.from_diagonal(rng.uniform(0.5, 2.0, self.N))
        return core.MetricTensor.identity(self.N)

    def _quantities(self, rng):
        linear = core.LinearFunctional(rng.standard_normal(self.N))
        null = core.LinearFunctional(np.zeros(self.N))   # a row that is never active
        return (
            core.ConservedQuantity("linear", linear, linear.gradient),
            core.ConservedQuantity("null", null, null.gradient),
            _symmetric_quadratic("quadratic", rng, self.N),
        )

    @pytest.mark.parametrize("kind", ["dense", "diagonal", "unit"])
    def test_system_with_linear_invariant_matches_lambda_values(self, rng, kind):
        metric = self._metric(kind, rng)
        qs = self._quantities(rng)
        f = rng.standard_normal(self.N)
        cached = core.ConstraintSet(metric, qs)
        plain = core.ConstraintSet(metric, with_lambda_values(qs))
        # the zero state makes the quadratic row inactive; later states must
        # not see what an earlier call wrote into the set's rows
        states = [rng.standard_normal(self.N), np.zeros(self.N), rng.standard_normal(self.N)]
        for a in states:
            want = core.grons_rhs(a, lambda a: f, plain)
            assert core.grons_rhs(a, lambda a: f, cached).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "diagonal", "unit"])
    def test_batched_call_matches_lambda_values(self, rng, kind):
        metric = self._metric(kind, rng)
        qs = self._quantities(rng)
        cached = core.ConstraintSet(metric, qs)
        plain = core.ConstraintSet(metric, with_lambda_values(qs))
        states = rng.standard_normal((4, self.N))
        states[2] = 0.0   # one member's quadratic row inactive
        velocity = rng.standard_normal((4, self.N))
        want = plain.correct(velocity, states)
        assert cached.correct(velocity, states).tobytes() == want.tobytes()

    def test_is_a_sequence_of_its_quantities(self, rng):
        qs = self._quantities(rng)
        prepared = core.ConstraintSet(core.MetricTensor.identity(self.N), qs)
        assert len(prepared) == 3 and tuple(prepared) == qs

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copy_is_prepared_afresh(self, rng, clone):
        # pins the round trip: tuple's default would rebuild an empty set
        # (no correction at all) or keep row views detached from the stacks
        metric = self._metric("diagonal", rng)
        linear = core.LinearFunctional(rng.standard_normal(self.N))
        qs = (
            core.ConservedQuantity("linear", linear, linear.gradient),
            core.ConservedQuantity("norm", _squared_norm, _squared_norm_gradient),
        )
        prepared = core.ConstraintSet(metric, qs)
        copied = clone(prepared)
        assert type(copied) is core.ConstraintSet and len(copied) == 2
        velocity, state = rng.standard_normal((2, self.N))
        want = prepared.correct(velocity, state)
        assert not np.array_equal(want, velocity)
        assert copied.correct(velocity, state).tobytes() == want.tobytes()

    def test_more_constraints_than_parameters_rejected(self, rng):
        qs = self._quantities(rng)
        with pytest.raises(ValidationError):
            core.ConstraintSet(core.MetricTensor.identity(2), qs)

    def test_linear_value_is_the_dot_product(self, rng):
        c = rng.standard_normal(self.N)
        a = rng.standard_normal((3, self.N))
        linear = core.LinearFunctional(c)
        assert linear(a).tobytes() == (a @ c).tobytes()
        assert np.array_equal(linear.gradient(a), c)
        assert not linear.coefficients.flags.writeable


def reference_correction(metric, velocity, gradients, tol=core.DEGENERACY_TOL):
    """The oracle: the kernel as first written, one member at a time.

    Every gradient is broadcast into one ``(..., m, w)`` stack and the metric
    is solved on all of it; ``C = (M^-1 G) G^T`` and ``b = G v`` come from
    batched matmuls.  Each member's active rows are Jacobi-equilibrated and
    solved by ``np.linalg.solve``, or by minimum-norm least squares when the
    eigenvalue condition estimate exceeds the limit.
    """
    velocity = np.asarray(velocity, dtype=float)
    g = np.empty(velocity.shape[:-1] + (len(gradients), velocity.shape[-1]))
    for k, gradient in enumerate(gradients):
        g[..., k, :] = gradient
    solved = metric.solve(g)
    c = solved @ g.swapaxes(-1, -2)
    b = (g @ velocity[..., None])[..., 0]
    active = np.vecdot(g, g) > tol * tol
    m = len(gradients)
    lam = np.zeros(b.shape)
    flat_lam = lam.reshape(-1, m)
    for k, (ck, bk, ak) in enumerate(zip(c.reshape(-1, m, m), b.reshape(-1, m),
                                          active.reshape(-1, m))):
        idx = np.flatnonzero(ak)
        if not idx.size:
            continue
        ck = ck[np.ix_(idx, idx)]
        s = 1.0 / np.sqrt(np.diag(ck))
        cs, bs = ck * np.outer(s, s), bk[idx] * s
        eigs = np.linalg.eigvalsh(cs)
        if eigs[0] > 0 and eigs[-1] / eigs[0] <= core.CONDITION_LIMIT:
            flat_lam[k, idx] = s * np.linalg.solve(cs, bs)
        else:
            flat_lam[k, idx] = s * np.linalg.lstsq(cs, bs, rcond=None)[0]
    return velocity - (lam[..., None, :] @ solved)[..., 0, :]


@st.composite
def correction_cases(draw):
    """Single states, or batches of up to 8 members; widths up to 40; one to
    four gradients, each shared by the batch (``(w,)``) or per member, in
    any order, some zero in some members; a positive diagonal or a dense
    SPD metric.  A single state's gradients are all ``(w,)``.  Widths of at
    least twice the gradient count keep the random gradients well
    conditioned, which the tangency bound assumes."""
    single = draw(st.booleans())
    batch = 1 if single else draw(st.integers(1, 8))
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
            gradients.append(g[0] if single else g)
    velocity = rng.standard_normal((batch, w))
    return metric, velocity[0] if single else velocity, gradients


def _members(velocity, gradients, out):
    """``(velocity, gradients, output)`` of each member; a single state is one."""
    if velocity.ndim == 1:
        yield velocity, gradients, out
        return
    for i in range(velocity.shape[0]):
        yield velocity[i], [g if g.ndim == 1 else g[i] for g in gradients], out[i]


class TestCorrectionProperties:
    @given(correction_cases())
    def test_matches_reference(self, case):
        metric, velocity, gradients = case
        out = core.apply_invariant_correction(metric, velocity, gradients)
        want = reference_correction(metric, velocity, gradients)
        assert out.shape == velocity.shape
        for (v, _, got), ref in zip(_members(velocity, gradients, out),
                                    want.reshape(-1, velocity.shape[-1])):
            # relative to the larger of the input and the output: when the
            # correction cancels most of v, |output| alone is below the
            # round-off of that subtraction
            scale = max(np.linalg.norm(ref), np.linalg.norm(v))
            assert np.linalg.norm(got - ref) <= 1e-12 * scale

    @given(correction_cases())
    def test_tangent_to_every_active_invariant(self, case):
        metric, velocity, gradients = case
        out = core.apply_invariant_correction(metric, velocity, gradients)
        for v, member_gradients, got in _members(velocity, gradients, out):
            scale = max(np.linalg.norm(got), np.linalg.norm(v))
            for g in member_gradients:
                if np.linalg.norm(g) > core.DEGENERACY_TOL:
                    bound = 1e-10 * np.linalg.norm(g) * scale
                    assert abs(g @ got) <= max(bound, 1e-300)

    @given(correction_cases())
    def test_batch_equals_members(self, case):
        metric, velocity, gradients = case
        out = core.apply_invariant_correction(metric, velocity, gradients)
        for v, member_gradients, got in _members(velocity, gradients, out):
            alone = core.apply_invariant_correction(metric, v, member_gradients)
            assert _close(got, alone)


def _partial_norm(mask):
    """``|a[mask]|^2 / 2``: its gradient vanishes where the state does on ``mask``."""
    return core.ConservedQuantity(
        "partial_norm",
        value=lambda a: 0.5 * float(np.vecdot(a[mask], a[mask])),
        gradient=lambda a: np.where(mask, a, 0.0),
    )


@st.composite
def constraint_set_cases(draw):
    """A unit, positive diagonal or dense SPD metric of width up to 40; one to
    four quantities, each linear, all-zero linear, quadratic, or a partial
    norm; and two states with their velocities.  The first state is zero on
    the masks of the partial norms drawn to vanish, so their rows are
    inactive there; the second is not."""
    m = draw(st.integers(1, 4))
    w = draw(st.integers(2 * m, 40))
    kind = draw(st.sampled_from(["unit", "diagonal", "dense"]))
    kinds = draw(st.lists(st.sampled_from(["linear", "null", "quadratic", "partial"]),
                          min_size=m, max_size=m))
    vanish = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dense":
        metric = core.assemble_metric(random_spd(rng, w))
    elif kind == "diagonal":
        metric = core.MetricTensor.from_diagonal(rng.uniform(0.1, 10.0, w))
    else:
        metric = core.MetricTensor.identity(w)
    states = rng.standard_normal((2, w))
    qs = []
    for k, (what, gone) in enumerate(zip(kinds, vanish)):
        if what in ("linear", "null"):
            linear = core.LinearFunctional(
                rng.standard_normal(w) if what == "linear" else np.zeros(w))
            qs.append(core.ConservedQuantity(what, linear, linear.gradient))
        elif what == "quadratic":
            qs.append(quadratic_quantity(f"q{k}", rng.standard_normal((w, w))))
        else:
            mask = rng.random(w) < 0.5
            mask[k] = True
            if gone:
                states[0, mask] = 0.0
            qs.append(_partial_norm(mask))
    return metric, tuple(qs), states, rng.standard_normal((2, w))


class TestConstraintSetProperties:
    @given(constraint_set_cases())
    def test_unbatched_correct_is_the_kernel_bitwise(self, case):
        # one set serves both states in turn: rows masked at the first must
        # come back at the second
        metric, qs, states, velocities = case
        prepared = core.ConstraintSet(metric, qs)
        for a, v in zip(states, velocities):
            want = core.apply_invariant_correction(metric, v, [q.gradient(a) for q in qs])
            assert prepared.correct(v, a).tobytes() == want.tobytes()


def test_package_exports_resolve():
    import rons

    for name in rons.__all__:
        assert getattr(rons, name) is not None
    assert not {"evaluate_constraint_system", "drop_degenerate_constraints",
                "RonsSystem"} & set(rons.__all__)


def directional_derivative(fn, x, direction, step: float = 1e-6) -> float:
    """Central difference of ``fn`` along ``direction``."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    return (fn(x + step * d) - fn(x - step * d)) / (2 * step)


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
        assert directional_derivative(q.value, a, d) == pytest.approx(
            float(q.gradient(a) @ d), rel=1e-6
        )
