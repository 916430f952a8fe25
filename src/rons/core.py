"""Constrained projection dynamics.

Builds the linear algebra shared by every solver in this package: metric
tensors (dense or diagonal), projected right-hand sides, declared first
integrals with analytic gradients, and the Lagrange-multiplier correction
that keeps those integrals constant along the projected dynamics.

Complex coefficients are stored as stacked real vectors.  The stacking used
throughout is ``T(z) = [Re z, -Im z]`` per component, together with the real
metric ``[[Re P, Im P], [-Im P, Re P]]`` built from the Hermitian pairing
matrix ``P``.  Under this pairing ``T(P z) = complexify(P) @ T(z)`` holds
exactly, so the stacked real solve reproduces the complex Galerkin solve
entrywise; see ``tests/test_core.py`` for the verification.  The stacking
is defined here once: :func:`stack_complex`, :func:`unstack_complex` and
:func:`real_form` build and invert it, and every other module calls them.
Random initial conditions draw through :func:`positive_profile`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import linalg

from .errors import (
    ConstraintConditioningError,
    DimensionError,
    IllConditionedConstraintWarning,
    ResampledInitialConditionWarning,
    SingularMetricError,
    ValidationError,
)

#: Condition-number estimate above which the constraint equation falls back
#: to a minimum-norm least-squares solve.
CONDITION_LIMIT = 1e12

#: Gradient-norm threshold at or below which a constraint is inactive.
DEGENERACY_TOL = 1e-10

#: Largest Jacobi-scaled absolute row sum ``r`` at which Gershgorin's theorem
#: alone certifies the condition limit: a unit-diagonal symmetric matrix has
#: its eigenvalues in ``[2 - r, r]``, so ``r / (2 - r) <= CONDITION_LIMIT``.
_GERSHGORIN_ROW_SUM = 2.0 * CONDITION_LIMIT / (1.0 + CONDITION_LIMIT)

#: Smallest pivot ``1 - r^2`` of a Jacobi-scaled 2 x 2 matrix ``[[1, r], [r, 1]]``
#: with the Gershgorin certificate ``1 + |r| <= _GERSHGORIN_ROW_SUM``: one
#: test on the pivot makes both checks, and the bound is positive.
_PAIR_PIVOT_MIN = 1.0 - (_GERSHGORIN_ROW_SUM - 1.0) ** 2

#: Seeds tried by :func:`positive_profile` for one random initial condition.
IC_MAX_RESAMPLES = 16

_SYMMETRY_RTOL = 1e-12
_DIAGONAL_RTOL = 1e-14
_IDENTITY_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


# ---------------------------------------------------------------------------
# Complex coefficients as stacked real vectors


def stack_complex(z) -> np.ndarray:
    """Stacked real storage ``[Re z, -Im z]`` of complex vectors along the
    last axis; batch-transparent over leading axes."""
    z = np.asarray(z)
    return np.concatenate([z.real, -z.imag], axis=-1)


def unstack_complex(a) -> np.ndarray:
    """Complex vectors ``a_re - i a_im`` of stacked real storage
    ``(..., 2 N)``; the inverse of :func:`stack_complex`."""
    n = a.shape[-1] // 2
    return a[..., :n] - 1j * a[..., n:]


def real_form(matrix) -> np.ndarray:
    """The real matrix acting on stacked row vectors as ``matrix`` acts on
    complex row vectors: ``stack_complex(z @ M) == stack_complex(z) @ real_form(M)``."""
    return np.block([[matrix.real, -matrix.imag], [matrix.imag, matrix.real]])


# ---------------------------------------------------------------------------
# Parameter layout and state


@dataclass(frozen=True)
class Component:
    """One block of the parameter vector: a PDE field or one complex set.

    ``size`` counts coefficients; a complex component of ``size`` coefficients
    occupies ``2 * size`` slots of real storage.
    """

    size: int
    is_complex: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("component size must be a positive integer")

    @property
    def width(self) -> int:
        return 2 * self.size if self.is_complex else self.size


@dataclass(frozen=True)
class ParameterLayout:
    """How a real parameter vector decomposes into per-field components."""

    components: tuple[Component, ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("layout needs at least one component")

    @classmethod
    def single_real(cls, size: int) -> "ParameterLayout":
        return cls((Component(size),))

    @classmethod
    def single_complex(cls, size: int) -> "ParameterLayout":
        return cls((Component(size, is_complex=True),))

    @property
    def width(self) -> int:
        return sum(c.width for c in self.components)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Offsets of component starts, plus the total width."""
        offs = [0]
        for c in self.components:
            offs.append(offs[-1] + c.width)
        return tuple(offs)

    def slices(self) -> tuple[slice, ...]:
        b = self.boundaries
        return tuple(slice(b[i], b[i + 1]) for i in range(len(self.components)))

    def pack(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Stack per-component coefficient vectors into real storage.

        Complex components are stored as ``[Re z, -Im z]``.
        """
        if len(parts) != len(self.components):
            raise DimensionError(
                f"expected {len(self.components)} component vectors, got {len(parts)}"
            )
        out = []
        for comp, part in zip(self.components, parts):
            arr = np.asarray(part)
            if arr.shape != (comp.size,):
                raise DimensionError(
                    f"component vector has shape {arr.shape}, expected ({comp.size},)"
                )
            if comp.is_complex:
                out.append(stack_complex(arr.astype(complex, copy=False)))
            elif np.iscomplexobj(arr):
                raise ValidationError("real component given complex data")
            else:
                out.append(arr.astype(float, copy=True))
        return np.concatenate(out)

    def unpack(self, values: np.ndarray) -> list[np.ndarray]:
        """Inverse of :meth:`pack`; complex components come back complex."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.width,):
            raise DimensionError(
                f"state has shape {values.shape}, expected ({self.width},)"
            )
        parts = []
        for comp, sl in zip(self.components, self.slices()):
            block = values[sl]
            parts.append(unstack_complex(block) if comp.is_complex else block.copy())
        return parts


@dataclass(frozen=True)
class ParameterState:
    """A real parameter vector together with its component layout."""

    values: np.ndarray
    layout: ParameterLayout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.layout.width,):
            raise DimensionError(
                f"{values.shape[0] if values.ndim == 1 else values.shape} values "
                f"for a layout of width {self.layout.width}"
            )


def state_values(a) -> np.ndarray:
    """Accept either a raw vector or a :class:`ParameterState`."""
    return np.asarray(getattr(a, "values", a), dtype=float)


# ---------------------------------------------------------------------------
# Metric tensors


class MetricTensor:
    """Gram matrix of the modes under the ambient inner product.

    ``kind`` is ``"dense"`` or ``"diagonal"``.  The dense kind caches its
    Cholesky factor on first use, the diagonal kind whether every entry is
    positive and whether every entry is one; the inverse is never formed.  A
    unit diagonal metric's :meth:`solve` returns its input itself
    (``x / 1.0 == x`` bitwise), so callers must not write into the result of
    a solve they did not allocate.
    """

    def __init__(self, kind, *, dense=None, diag=None):
        self.kind = kind
        self._dense = dense
        self._diag = diag
        self._chol = None
        self._singular = None
        self._unit = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "MetricTensor":
        return cls.from_diagonal(np.ones(n))

    @classmethod
    def from_diagonal(cls, diag) -> "MetricTensor":
        # a private read-only copy, so the cached positivity check stays true
        diag = np.array(diag, dtype=float)
        if diag.ndim != 1:
            raise DimensionError("diagonal metric needs a 1-d array")
        diag.setflags(write=False)
        return cls("diagonal", diag=diag)

    # -- basic queries -------------------------------------------------------

    @property
    def size(self) -> int:
        if self.kind == "dense":
            return self._dense.shape[0]
        return self._diag.shape[0]

    def toarray(self) -> np.ndarray:
        if self.kind == "dense":
            return self._dense.copy()
        return np.diag(self._diag)

    # -- linear algebra ------------------------------------------------------

    def _factor(self):
        if self._chol is None:
            try:
                self._chol = linalg.cholesky(self._dense, lower=True)
            except linalg.LinAlgError as exc:
                raise SingularMetricError(
                    "metric tensor is not positive definite"
                ) from exc
        return self._chol

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``M x = rhs`` along the last axis of a vector or a stack of rows."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[-1:] != (self.size,):
            raise DimensionError(
                f"rhs has trailing dimension {rhs.shape[-1:]}, metric size {self.size}"
            )
        if self.kind == "diagonal":
            if self._singular is None:
                self._singular = bool((self._diag <= 0).any())
                self._unit = bool((self._diag == 1.0).all())
            if self._singular:
                raise SingularMetricError("diagonal metric has non-positive entries")
            if self._unit:
                return rhs
            return rhs / self._diag
        if rhs.ndim == 1:
            return linalg.cho_solve((self._factor(), True), rhs)
        columns = rhs.reshape(-1, self.size).T
        return linalg.cho_solve((self._factor(), True), columns).T.reshape(rhs.shape)


def assemble_metric(inner_products) -> MetricTensor:
    """Build a metric tensor from the symmetric matrix of mode pairings.

    Flags the diagonal kind when every off-diagonal entry is negligible
    against the largest diagonal entry.
    """
    m = np.asarray(inner_products, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"mode pairings must be square, got shape {m.shape}")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale > 0 and np.max(np.abs(m - m.T)) > _SYMMETRY_RTOL * scale:
        raise ValidationError("mode pairings are not symmetric within tolerance")
    m = 0.5 * (m + m.T)
    diag = np.diag(m).copy()
    off = m - np.diag(diag)
    if np.max(np.abs(off), initial=0.0) <= _DIAGONAL_RTOL * np.max(diag, initial=0.0):
        return MetricTensor.from_diagonal(diag)
    m.setflags(write=False)  # the cached Cholesky factor stays valid
    return MetricTensor("dense", dense=m)


def assemble_block_metric(blocks: Sequence) -> MetricTensor:
    """Assemble a block-diagonal metric from per-component metrics.

    Accepts :class:`MetricTensor` blocks or raw pairing matrices.  A lone
    block is returned as it is, diagonal blocks merge into one diagonal
    metric, and any other mix becomes one metric of the block-diagonal
    matrix.  The blocks keep the order of the components, so field offsets
    are those of the matching :class:`ParameterLayout`.
    """
    if not blocks:
        raise ValidationError("block metric needs at least one block")
    tensors = [
        b if isinstance(b, MetricTensor) else assemble_metric(b) for b in blocks
    ]
    if len(tensors) == 1:
        return tensors[0]
    if all(t.kind == "diagonal" for t in tensors):
        return MetricTensor.from_diagonal(np.concatenate([t._diag for t in tensors]))
    return assemble_metric(linalg.block_diag(*(t.toarray() for t in tensors)))


def complexify_metric(complex_pairings) -> MetricTensor:
    """Real metric for complex coefficients stored as stacked real vectors.

    Given the Hermitian pairing matrix ``P`` this is the real matrix
    ``[[Re P, Im P], [-Im P, Re P]]``, which represents ``z -> P z`` in the
    ``[Re z, -Im z]`` stacking: :func:`real_form` of ``conj(P)``, the
    row-vector action of ``P``.  Symmetric by construction, and positive
    definite whenever the modes are independent.
    """
    p = np.asarray(complex_pairings, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError(f"pairing matrix must be square, got shape {p.shape}")
    scale = np.max(np.abs(p)) if p.size else 0.0
    if scale > 0 and np.max(np.abs(p - p.conj().T)) > _SYMMETRY_RTOL * scale:
        raise ValidationError("pairing matrix is not Hermitian within tolerance")
    p = 0.5 * (p + p.conj().T)
    return assemble_metric(real_form(p.conj()))


def assemble_rhs(projections, layout: ParameterLayout | None = None) -> np.ndarray:
    """Stack projected right-hand-side values into real storage.

    Real components pass through unchanged; a complex component ``f`` becomes
    ``[Re f, -Im f]``, matching the metric built by :func:`complexify_metric`
    so the stacked solve reproduces the complex Galerkin system.
    """
    if layout is None:
        arr = np.asarray(projections)
        if np.iscomplexobj(arr):
            layout = ParameterLayout.single_complex(arr.shape[0])
        else:
            layout = ParameterLayout.single_real(arr.shape[0])
        return layout.pack([arr])
    if isinstance(projections, np.ndarray) and len(layout.components) == 1:
        projections = [projections]
    return layout.pack(list(projections))


# ---------------------------------------------------------------------------
# Conserved quantities


@dataclass(frozen=True)
class ConservedQuantity:
    """A named first integral of the discretized dynamics.

    ``value`` maps a parameter vector to the scalar invariant; ``gradient``
    returns its analytic gradient with respect to the same vector.  Shipped
    quantities are checked against central finite differences in the tests.
    A linear invariant declares itself by giving a :class:`LinearFunctional`
    as its ``value``; a :class:`ConstraintSet` then takes the gradient from
    its coefficients once per run instead of calling ``gradient``.
    """

    name: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


class LinearFunctional:
    """The value ``a @ coefficients`` of a linear invariant.

    Batch-transparent over leading axes of ``a``.  The read-only coefficient
    vector is the invariant's constant gradient, returned by :meth:`gradient`.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coefficients = np.array(coefficients, dtype=float)
        if coefficients.ndim != 1:
            raise DimensionError("a linear functional needs a 1-d coefficient vector")
        coefficients.setflags(write=False)
        self.coefficients = coefficients

    def __call__(self, a):
        return a @ self.coefficients

    def gradient(self, a) -> np.ndarray:
        return self.coefficients


def finite_difference_gradient(fn, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the oracle for gradient checks."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[i] += step
        backward[i] -= step
        out[i] = (fn(forward) - fn(backward)) / (2 * step)
    return out


# ---------------------------------------------------------------------------
# Constrained systems


def _is_active(gradients: np.ndarray) -> np.ndarray:
    """Whether each gradient (last axis) has Euclidean norm above
    :data:`DEGENERACY_TOL`.

    The one degeneracy rule of the package: a gradient whose norm is at most
    the tolerance is inactive for that state.  Keeps states like
    lake-at-rest (vanishing energy gradient) from making ``C`` singular.
    """
    return np.vecdot(gradients, gradients) > DEGENERACY_TOL * DEGENERACY_TOL


def _equilibrated(c: np.ndarray, b: np.ndarray):
    """Jacobi-scale each ``C`` (positive diagonal) so conditioning reflects
    dependence, not units."""
    s = 1.0 / np.sqrt(c.diagonal(axis1=-2, axis2=-1))
    return c * (s[..., :, None] * s[..., None, :]), b * s, s


def _condition_estimate(c_scaled: np.ndarray) -> np.ndarray:
    """Eigenvalue condition number of each symmetric matrix; inf if singular."""
    eigs = np.linalg.eigvalsh(c_scaled)
    lo, hi = eigs[..., 0], eigs[..., -1]
    positive = lo > 0
    return np.where(positive, hi / np.where(positive, lo, 1.0), np.inf)


def _solve_small(c: list, b: list) -> list | None:
    """Multipliers of one ``m <= 3`` system in Python floats, or ``None``.

    Pads ``C`` to 3 x 3 with identity rows and ``b`` with zeros, which leaves
    the solution unchanged, then runs the numpy path's checks in straight-line
    code -- Jacobi equilibration, the symmetry test and the Gershgorin
    certificate -- and solves the unit-diagonal matrix by Cholesky.  Returns
    ``None``, so the caller takes the numpy path, on a diagonal entry that
    is not positive (NaN included), an asymmetric or uncertified matrix, or
    a pivot that is not positive.
    """
    m = len(b)
    pad = [0.0] * (3 - m)
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = (
        [row + pad for row in c] + _IDENTITY_ROWS[m:]
    )
    if not (c00 > 0 and c11 > 0 and c22 > 0):
        return None
    s0, s1, s2 = 1.0 / math.sqrt(c00), 1.0 / math.sqrt(c11), 1.0 / math.sqrt(c22)
    c00, c01, c02 = c00 * (s0 * s0), c01 * (s0 * s1), c02 * (s0 * s2)
    c10, c11, c12 = c10 * (s1 * s0), c11 * (s1 * s1), c12 * (s1 * s2)
    c20, c21, c22 = c20 * (s2 * s0), c21 * (s2 * s1), c22 * (s2 * s2)
    if not (
        abs(c01 - c10) <= _SYMMETRY_RTOL
        and abs(c02 - c20) <= _SYMMETRY_RTOL
        and abs(c12 - c21) <= _SYMMETRY_RTOL
        and abs(c00) + abs(c01) + abs(c02) <= _GERSHGORIN_ROW_SUM
        and abs(c10) + abs(c11) + abs(c12) <= _GERSHGORIN_ROW_SUM
        and abs(c20) + abs(c21) + abs(c22) <= _GERSHGORIN_ROW_SUM
        and c00 > 0  # the first Cholesky pivot
    ):
        return None
    l00 = math.sqrt(c00)
    l10, l20 = c10 / l00, c20 / l00
    pivot = c11 - l10 * l10
    if not pivot > 0:
        return None
    l11 = math.sqrt(pivot)
    l21 = (c21 - l20 * l10) / l11
    pivot = c22 - l20 * l20 - l21 * l21
    if not pivot > 0:
        return None
    l22 = math.sqrt(pivot)
    b0, b1, b2 = b + pad
    y0 = b0 * s0 / l00
    y1 = (b1 * s1 - l10 * y0) / l11
    y2 = (b2 * s2 - l20 * y0 - l21 * y1) / l22
    x2 = y2 / l22
    x1 = (y1 - l21 * x2) / l11
    x0 = (y0 - l10 * x1 - l20 * x2) / l00
    return [s0 * x0, s1 * x1, s2 * x2][:m]


def _solve_pairs(c: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Multipliers of a batch of 2 x 2 systems in closed form, or ``None``.

    The numpy path's checks over the whole batch at once: with the Jacobi
    scaling ``s = 1 / sqrt(diag C)`` each scaled matrix is ``[[1, r], [r, 1]]``
    with ``r = s_0 s_1 C_01``, certified by Gershgorin when ``1 + |r|`` is at
    most :data:`_GERSHGORIN_ROW_SUM` (tested on the pivot, see
    :data:`_PAIR_PIVOT_MIN`), and ``lambda = s (y - r y') / (1 - r^2)`` with
    ``y = s b`` and ``y'`` its two entries swapped.  Returns ``None``, so the
    caller takes the numpy path for the whole batch, when any member has a
    diagonal entry that is not positive and finite, or an asymmetric or
    uncertified scaled matrix.
    """
    diag = c.diagonal(axis1=-2, axis2=-1)
    if not (diag.min() > 0 and diag.max() < np.inf):
        return None
    s = 1.0 / np.sqrt(diag)
    s01 = s[..., 0] * s[..., 1]
    r = c[..., 0, 1] * s01
    if not abs(r - c[..., 1, 0] * s01).max() <= _SYMMETRY_RTOL:
        return None
    pivot = 1.0 - r * r
    if not pivot.min() >= _PAIR_PIVOT_MIN:
        return None
    y = s * b
    return s * (y - r[..., None] * y[..., ::-1]) / pivot[..., None]


def solve_lagrange(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the constraint equations ``C lambda = b``, one per batch member.

    ``c`` is ``(..., m, m)`` and ``b`` is ``(..., m)``.  A row with a zero
    diagonal (a gradient with no weight, or one the caller masked out) gets
    multiplier zero.  Each system is Jacobi-equilibrated.  Members whose
    scaled matrix Gershgorin's theorem certifies below
    :data:`CONDITION_LIMIT` skip the condition estimate; the others get an
    eigenvalue estimate, and those above the limit fall back to minimum-norm
    least squares with one :class:`IllConditionedConstraintWarning` for the
    call, so run diagnostics can record it.  Everything else goes through
    one batched ``np.linalg.solve``.  A numpy ``LinAlgError`` surfaces as
    :class:`ConstraintConditioningError`.

    An unbatched system with ``m <= 3`` is first offered to
    :func:`_solve_small`, which solves it in Python floats when its diagonal
    is positive and it passes the same checks; that skips some twenty numpy
    calls.  A batch of ``m = 2`` systems is likewise first offered to
    :func:`_solve_pairs`, which solves every member in closed form when all
    of them pass the checks.  Whatever these paths decline takes the numpy
    path above.
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m = b.shape[-1]
    if c.shape != b.shape + (m,):
        raise DimensionError(f"constraint matrix shape {c.shape} does not match b {b.shape}")
    if not b.size:
        return np.zeros(b.shape)
    if b.ndim == 1 and m <= 3:
        lam = _solve_small(c.tolist(), b.tolist())
        if lam is not None:
            return np.array(lam)
    if b.ndim > 1 and m == 2:
        lam = _solve_pairs(c, b)
        if lam is not None:
            return lam
    batch = b.shape[:-1]
    c = c.reshape(-1, m, m)
    b = b.reshape(-1, m)
    null = c.diagonal(axis1=1, axis2=2) <= 0
    if null.any():
        c = np.where(null[:, :, None] | null[:, None, :], np.eye(m), c)
        b = np.where(null, 0.0, b)
    cs, bs, s = _equilibrated(c, b)
    # relative to the unit diagonal, so one tolerance serves every member
    if abs(cs - cs.swapaxes(1, 2)).max() > _SYMMETRY_RTOL:
        raise ValidationError("constraint matrix must be symmetric")
    try:
        slow = abs(cs).sum(axis=2).max(axis=1) > _GERSHGORIN_ROW_SUM
        ill = slow
        if slow.any():
            cond = _condition_estimate(cs[slow])
            ill = slow.copy()
            ill[slow] = ~(cond <= CONDITION_LIMIT)
        if not ill.any():
            lam = np.linalg.solve(cs, bs[..., None])[..., 0]
        else:
            warnings.warn(
                f"constraint equation ill-conditioned in {int(ill.sum())} of "
                f"{ill.size} member(s) (estimate {np.max(cond[ill[slow]]):.3e}); "
                "using minimum-norm least squares",
                IllConditionedConstraintWarning,
                stacklevel=2,
            )
            well = np.where(ill[:, None, None], np.eye(m), cs)
            lam = np.linalg.solve(well, bs[..., None])[..., 0]
            for k in np.flatnonzero(ill):
                lam[k] = np.linalg.lstsq(cs[k], bs[k], rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise ConstraintConditioningError(f"constraint equation solve failed: {exc}") from exc
    return (s * lam).reshape(batch + (m,))


def _shared_block(metric: MetricTensor, gradients):
    """Stack gradients shared by the whole batch, each ``(w,)``, once.

    Drops the inactive ones and applies ``M^{-1}`` once.  Returns ``G_s`` and
    ``M^{-1} G_s``, both ``(m_s, w)``.
    """
    g = np.array(gradients, dtype=float)
    active = _is_active(g)
    if not active.all():
        g = g[active]
    return g, metric.solve(g)


def apply_invariant_correction(
    metric: MetricTensor,
    velocity: np.ndarray,
    gradients: Sequence[np.ndarray],
    shared: tuple | None = None,
) -> np.ndarray:
    """Project ``velocity`` onto the tangent space of the active invariants.

    The one Lagrange correction of the package, batch-transparent:
    ``velocity`` is ``(..., w)``, the unconstrained solve ``M^{-1} f`` (for
    finite volume, the flux vector itself, since there ``f = M F`` exactly),
    and each gradient is ``(..., w)`` or a constant ``(w,)``.  Returns
    ``velocity - M^{-1} G^T lambda`` with ``C lambda = b``,
    ``C = G M^{-1} G^T`` and ``b = G velocity``, member by member.  Gradients
    with norm at most :data:`DEGENERACY_TOL` are masked per member
    (multiplier zero); with no active gradient anywhere ``velocity`` comes
    back unchanged, bit for bit.

    The ``(w,)`` gradients -- every gradient of an unbatched call -- are
    shared by the batch: stacked once as ``G_s`` with no batch axis, they
    come first in ``C``.  ``C_ss = (M^{-1} G_s) G_s^T`` is one small GEMM;
    over a batch, ``b_s``, the cross block ``C_so`` and the per-member block
    use row-wise ``vecdot``, so a member's result does not depend on the
    batch it sits in (a GEMM rounds by row count).  The result is
    ``velocity - lambda_o . M^{-1} G_o - lambda_s @ M^{-1} G_s``.

    ``shared`` is that block already built, as a :class:`ConstraintSet`
    keeps it for an unbatched call: ``(G_s, M^{-1} G_s)`` of active rows
    only, read and never written.  ``gradients`` then lists the per-member
    gradients alone.
    """
    velocity = np.asarray(velocity, dtype=float)
    if shared is None:
        if len(gradients) == 0:
            return velocity
        flat, own = [], []
        for g in gradients:
            (flat if np.ndim(g) == 1 else own).append(g)
        if flat:
            shared = _shared_block(metric, flat)
    else:
        own = gradients
    m_s = 0
    if shared is not None:
        g_s, solved_s = shared
        m_s = len(g_s)
    if not own:
        if not m_s:
            return velocity
        c = solved_s @ g_s.T
        if velocity.ndim == 1:
            b = velocity @ g_s.T
        else:
            b = np.vecdot(velocity[..., None, :], g_s)
            c = np.broadcast_to(c, b.shape + (m_s,))
        return velocity - solve_lagrange(c, b) @ solved_s

    # per-member gradients stacked along axis -2: a view of a lone one
    own = [np.asarray(g, dtype=float) for g in own]
    if len(own) == 1 and own[0].shape == velocity.shape:
        g_o = own[0][..., None, :]
    else:
        g_o = np.empty(velocity.shape[:-1] + (len(own), velocity.shape[-1]))
        for k, g in enumerate(own):
            g_o[..., k, :] = g
    active = _is_active(g_o)
    n_active = np.count_nonzero(active)
    if not m_s and not n_active:
        return velocity
    solved_o = metric.solve(g_o)
    c = np.vecdot(solved_o[..., :, None, :], g_o[..., None, :, :])
    b = np.vecdot(g_o, velocity[..., None, :])
    if m_s:
        c_oo, b_o = c, b
        m = m_s + len(own)
        c = np.empty(velocity.shape[:-1] + (m, m))
        b = np.empty(velocity.shape[:-1] + (m,))
        cross = np.vecdot(g_o[..., :, None, :], solved_s)
        c[..., :m_s, :m_s] = solved_s @ g_s.T
        c[..., m_s:, :m_s] = cross
        c[..., :m_s, m_s:] = cross.swapaxes(-1, -2)
        c[..., m_s:, m_s:] = c_oo
        np.vecdot(velocity[..., None, :], g_s, out=b[..., :m_s])
        b[..., m_s:] = b_o
    if n_active < active.size:
        # zero rows and columns: solve_lagrange gives them multiplier zero
        keep = np.ones(b.shape, dtype=bool)
        keep[..., m_s:] = active
        c = np.where(keep[..., :, None] & keep[..., None, :], c, 0.0)
        b = np.where(keep, b, 0.0)
    lam = solve_lagrange(c, b)
    spent = None
    if len(own) > 1:
        out = velocity - (lam[..., None, m_s:] @ solved_o)[..., 0, :]
    elif solved_o is g_o:
        # a unit metric hands back g_o, a view of the caller's gradient
        out = velocity - solved_o[..., 0, :] * lam[..., m_s:]
    else:
        solved_o *= lam[..., m_s:, None]
        out = velocity - solved_o[..., 0, :]
        spent = solved_o[..., 0, :]
    if m_s:
        # the shared term goes into the spent M^-1 G_o when this call owns it
        out -= np.matmul(lam[..., :m_s], solved_s, out=spent)
    return out


class ConstraintSet(tuple):
    """The invariants enforced on one run, prepared once against its metric.

    A tuple of its quantities, and the package's one constraint object: an
    empty set is the unconstrained system.  It keeps the ``(m, w)`` stacks
    ``G`` and ``M^{-1} G`` of its rows in quantity order.  The rows of the
    linear quantities (whose value is a :class:`LinearFunctional`) are
    constant: they are stacked, tested for degeneracy and solved through
    ``M^{-1}`` here, once, and an inactive one never enters.  An unbatched
    :meth:`correct` writes each varying row in place, tests it for activity
    and, for a diagonal metric, divides it into its row of ``M^{-1} G``; a
    dense metric solves the stack per call.  When some varying row vanished
    at this state, the stacks are masked to the active rows after every row
    is written.  A batched state goes through the kernel's own split.

    Either way the result is bitwise the kernel's on the plain gradient
    list.  The stacks are rewritten by every call, so a set serves one run
    at a time.  Copies and pickles are prepared afresh from the metric and
    quantities.
    """

    def __new__(cls, metric: MetricTensor, quantities: Sequence[ConservedQuantity] = ()):
        return super().__new__(cls, quantities)

    def __init__(self, metric: MetricTensor, quantities: Sequence[ConservedQuantity] = ()):
        self.metric = metric
        if len(self) > metric.size:
            raise ValidationError("more constraints than parameters")
        linear = [q.value.coefficients if isinstance(q.value, LinearFunctional) else None
                  for q in self]
        if any(c is not None and c.shape != (metric.size,) for c in linear):
            raise DimensionError(
                f"linear invariant coefficients must match metric size {metric.size}"
            )
        # an inactive linear row is inactive at every state, so it never enters
        kept = [(q, c) for q, c in zip(self, linear) if c is None or _is_active(c)]
        self._g = np.zeros((len(kept), metric.size))
        for row, (_, c) in zip(self._g, kept):
            if c is not None:
                row[:] = c
        self._solved = metric.solve(self._g)
        self._solve_all = metric.kind == "dense"
        self._diag = metric._diag
        elementwise = self._solved is not self._g and not self._solve_all
        self._varying = tuple(
            (k, q.gradient, self._g[k], self._solved[k] if elementwise else None)
            for k, (q, c) in enumerate(kept) if c is None
        )

    def __reduce__(self):
        # tuple's default would pass the quantities as the metric and keep
        # the stacks' row views detached from the stacks
        return type(self), (self.metric, tuple(self))

    def correct(self, velocity: np.ndarray, state: np.ndarray) -> np.ndarray:
        """:func:`apply_invariant_correction` of ``velocity`` with the
        gradients at ``state``, a ``(w,)`` vector or a ``(..., w)`` batch."""
        if state.ndim > 1:
            return apply_invariant_correction(
                self.metric, velocity, [q.gradient(state) for q in self]
            )
        vanished = []
        for k, gradient, row, solved_row in self._varying:
            row[:] = gradient(state)
            if not _is_active(row):
                vanished.append(k)
            elif solved_row is not None:
                np.divide(row, self._diag, out=solved_row)
        g, solved = self._g, self._solved
        if vanished:
            keep = np.ones(len(g), dtype=bool)
            keep[vanished] = False
            g, solved = g[keep], solved[keep]
        if self._solve_all:
            solved = self.metric.solve(g)
        return apply_invariant_correction(self.metric, velocity, (), (g, solved))


def prepared(constraints, metric: MetricTensor, metric_expr: str):
    """``constraints`` if it is ``()`` or a :class:`ConstraintSet` prepared
    against ``metric``, else a :class:`ValidationError` naming the fix."""
    if (isinstance(constraints, ConstraintSet) and constraints.metric is metric
            or type(constraints) is tuple and not constraints):
        return constraints
    raise _unprepared(metric_expr)


def _unprepared(metric_expr: str) -> ValidationError:
    return ValidationError(f"constraints must be a ConstraintSet prepared once per run: "
                           f"pass core.ConstraintSet({metric_expr}, quantities)")


def grons_rhs(a, rhs: Callable[[np.ndarray], np.ndarray],
              constraints: ConstraintSet) -> np.ndarray:
    """Constrained time derivative ``M a' = f - sum_k lambda_k grad I_k``.

    ``f = rhs(a)`` is the projected right-hand side, and ``constraints``
    holds the metric ``M`` and the invariants.  With no active constraints
    (``ConstraintSet(metric)`` included) this is exactly the classical
    Galerkin solve ``M a' = f`` (identical code path, hence bitwise identical
    results).  Along the returned direction every active invariant has zero
    rate of change up to the linear-solve tolerance.  Anything but a
    :class:`ConstraintSet` raises :class:`ValidationError` naming the fix.
    """
    if not isinstance(constraints, ConstraintSet):
        raise _unprepared("metric")
    a = state_values(a)
    velocity = constraints.metric.solve(np.asarray(rhs(a), dtype=float))
    return constraints.correct(velocity, a)


# ---------------------------------------------------------------------------
# Random initial conditions


def positive_profile(draw: Callable[[np.random.Generator], np.ndarray], seed: int):
    """``(profile, peak)`` of the first ``draw(rng)`` whose grid maximum
    ``peak`` exceeds 1e-12.

    ``rng`` is ``np.random.default_rng(seed + k)`` for ``k = 0, 1, ...``, up
    to :data:`IC_MAX_RESAMPLES` seeds.  A draw from a later seed warns with
    :class:`ResampledInitialConditionWarning`, so runs can log it; when every
    draw fails the result is a :class:`ValidationError` naming ``seed``.
    """
    for attempt in range(IC_MAX_RESAMPLES):
        profile = draw(np.random.default_rng(seed + attempt))
        peak = float(np.max(profile))
        if peak > 1e-12:
            if attempt:
                warnings.warn(
                    f"initial condition resampled {attempt} time(s) from seed {seed}",
                    ResampledInitialConditionWarning,
                    stacklevel=3,
                )
            return profile, peak
    raise ValidationError(f"could not draw a usable initial condition from seed {seed}")
