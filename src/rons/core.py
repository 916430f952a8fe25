"""Constrained projection dynamics.

Builds the linear algebra shared by every solver in this package: metric
tensors (dense, block-diagonal, diagonal), projected right-hand sides,
declared first integrals with analytic gradients, and the Lagrange-multiplier
correction that keeps those integrals constant along the projected dynamics.

Complex coefficients are stored as stacked real vectors.  The stacking used
throughout is ``T(z) = [Re z, -Im z]`` per component, together with the real
metric ``[[Re P, Im P], [-Im P, Re P]]`` built from the Hermitian pairing
matrix ``P``.  Under this pairing ``T(P z) = complexify(P) @ T(z)`` holds
exactly, so the stacked real solve reproduces the complex Galerkin solve
entrywise; see ``tests/test_core.py`` for the verification.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy import linalg

from .errors import (
    ConstraintConditioningError,
    DimensionError,
    IllConditionedConstraintWarning,
    SingularMetricError,
    ValidationError,
)

#: Condition-number estimate above which the constraint equation falls back
#: to a minimum-norm least-squares solve.
CONDITION_LIMIT = 1e12

#: Default gradient-norm threshold below which a constraint is inactive.
DEGENERACY_TOL = 1e-10

#: Largest Jacobi-scaled absolute row sum ``r`` at which Gershgorin's theorem
#: alone certifies the condition limit: a unit-diagonal symmetric matrix has
#: its eigenvalues in ``[2 - r, r]``, so ``r / (2 - r) <= CONDITION_LIMIT``.
_GERSHGORIN_ROW_SUM = 2.0 * CONDITION_LIMIT / (1.0 + CONDITION_LIMIT)

_SYMMETRY_RTOL = 1e-12
_DIAGONAL_RTOL = 1e-14


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
                arr = arr.astype(complex, copy=False)
                out.append(arr.real.copy())
                out.append(-arr.imag)
            else:
                if np.iscomplexobj(arr):
                    raise ValidationError("real component given complex data")
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
            if comp.is_complex:
                parts.append(block[: comp.size] - 1j * block[comp.size :])
            else:
                parts.append(block.copy())
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

    def components(self) -> list[np.ndarray]:
        return self.layout.unpack(self.values)


def state_values(a) -> np.ndarray:
    """Accept either a raw vector or a :class:`ParameterState`."""
    return np.asarray(getattr(a, "values", a), dtype=float)


# ---------------------------------------------------------------------------
# Metric tensors


class MetricTensor:
    """Gram matrix of the modes under the ambient inner product.

    ``kind`` is one of ``"dense"``, ``"diagonal"`` or ``"block"``.  The dense
    kind caches its Cholesky factor on first use; the inverse is never formed.
    """

    def __init__(self, kind, *, dense=None, diag=None, blocks=None, boundaries=None):
        self.kind = kind
        self._dense = dense
        self._diag = diag
        self._blocks = blocks
        self._chol = None
        if boundaries is None and blocks is not None:
            offs = [0]
            for b in blocks:
                offs.append(offs[-1] + b.size)
            boundaries = tuple(offs)
        self.boundaries = boundaries

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "MetricTensor":
        return cls("diagonal", diag=np.ones(n))

    @classmethod
    def from_diagonal(cls, diag) -> "MetricTensor":
        diag = np.asarray(diag, dtype=float)
        if diag.ndim != 1:
            raise DimensionError("diagonal metric needs a 1-d array")
        return cls("diagonal", diag=diag)

    # -- basic queries -------------------------------------------------------

    @property
    def size(self) -> int:
        if self.kind == "dense":
            return self._dense.shape[0]
        if self.kind == "diagonal":
            return self._diag.shape[0]
        return self.boundaries[-1]

    def toarray(self) -> np.ndarray:
        if self.kind == "dense":
            return self._dense.copy()
        if self.kind == "diagonal":
            return np.diag(self._diag)
        out = np.zeros((self.size, self.size))
        for blk, lo, hi in self._iter_blocks():
            out[lo:hi, lo:hi] = blk.toarray()
        return out

    def _iter_blocks(self):
        for blk, lo, hi in zip(self._blocks, self.boundaries[:-1], self.boundaries[1:]):
            yield blk, lo, hi

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
            if (self._diag <= 0).any():
                raise SingularMetricError("diagonal metric has non-positive entries")
            return rhs / self._diag
        if self.kind == "dense":
            if rhs.ndim == 1:
                return linalg.cho_solve((self._factor(), True), rhs)
            columns = rhs.reshape(-1, self.size).T
            return linalg.cho_solve((self._factor(), True), columns).T.reshape(rhs.shape)
        out = np.empty_like(rhs)
        for blk, lo, hi in self._iter_blocks():
            out[..., lo:hi] = blk.solve(rhs[..., lo:hi])
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "diagonal":
            return self._diag * x
        if self.kind == "dense":
            return self._dense @ x
        out = np.empty_like(x)
        for blk, lo, hi in self._iter_blocks():
            out[lo:hi] = blk.matvec(x[lo:hi])
        return out


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
    return MetricTensor("dense", dense=m)


def assemble_block_metric(blocks: Sequence) -> MetricTensor:
    """Assemble a block-diagonal metric from per-component metrics.

    Accepts :class:`MetricTensor` blocks or raw pairing matrices.  Component
    boundaries are recorded so systems of PDEs keep their field offsets.
    """
    if not blocks:
        raise ValidationError("block metric needs at least one block")
    tensors = [
        b if isinstance(b, MetricTensor) else assemble_metric(b) for b in blocks
    ]
    offs = [0]
    for t in tensors:
        offs.append(offs[-1] + t.size)
    boundaries = tuple(offs)
    if len(tensors) == 1:
        single = tensors[0]
        single.boundaries = boundaries
        return single
    if all(t.kind == "diagonal" for t in tensors):
        merged = MetricTensor.from_diagonal(np.concatenate([t._diag for t in tensors]))
        merged.boundaries = boundaries
        return merged
    return MetricTensor("block", blocks=tensors, boundaries=boundaries)


def complexify_metric(complex_pairings) -> MetricTensor:
    """Real metric for complex coefficients stored as stacked real vectors.

    Given the Hermitian pairing matrix ``P`` this is the real matrix
    ``[[Re P, Im P], [-Im P, Re P]]``, which represents ``z -> P z`` in the
    ``[Re z, -Im z]`` stacking.  Symmetric by construction, and positive
    definite whenever the modes are independent.
    """
    p = np.asarray(complex_pairings, dtype=complex)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError(f"pairing matrix must be square, got shape {p.shape}")
    scale = np.max(np.abs(p)) if p.size else 0.0
    if scale > 0 and np.max(np.abs(p - p.conj().T)) > _SYMMETRY_RTOL * scale:
        raise ValidationError("pairing matrix is not Hermitian within tolerance")
    p = 0.5 * (p + p.conj().T)
    a, b = p.real, p.imag
    real = np.block([[a, b], [-b, a]])
    return assemble_metric(real)


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
    """

    name: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]


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


def directional_derivative(fn, x, direction, step: float = 1e-6) -> float:
    """Central difference of ``fn`` along ``direction``."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    return (fn(x + step * d) - fn(x - step * d)) / (2 * step)


# ---------------------------------------------------------------------------
# Constrained systems


@dataclass
class RonsSystem:
    """Metric, projected right-hand side and the invariants to enforce."""

    metric: MetricTensor
    rhs: Callable[[np.ndarray], np.ndarray]
    constraints: tuple[ConservedQuantity, ...] = ()
    degeneracy_tol: float = DEGENERACY_TOL

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        if self.degeneracy_tol <= 0:
            raise ValidationError("degeneracy tolerance must be positive")
        if len(self.constraints) > self.metric.size:
            raise ValidationError("more constraints than parameters")


class ConstraintSystem(NamedTuple):
    matrix: np.ndarray   # C, m x m over active constraints
    rhs: np.ndarray      # b, length m
    active: tuple[int, ...]


def _is_active(gradients: np.ndarray, tol: float) -> np.ndarray:
    """Whether each gradient (last axis) has Euclidean norm above ``tol``.

    The one degeneracy rule of the package: a gradient whose norm is at most
    ``tol`` is inactive for that state.  Keeps states like lake-at-rest
    (vanishing energy gradient) from making ``C`` singular.
    """
    if tol <= 0:
        raise ValidationError("degeneracy tolerance must be positive")
    return np.vecdot(gradients, gradients) > tol * tol


def drop_degenerate_constraints(gradients, tol: float) -> tuple[int, ...]:
    """Indices of gradients with Euclidean norm above ``tol``, in order."""
    return tuple(
        i for i, g in enumerate(gradients) if _is_active(np.asarray(g, dtype=float), tol)
    )


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
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    m = b.shape[-1]
    if c.shape != b.shape + (m,):
        raise DimensionError(f"constraint matrix shape {c.shape} does not match b {b.shape}")
    batch = b.shape[:-1]
    if m == 0:
        return np.zeros(b.shape)
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


def _lagrange_system(metric: MetricTensor, velocity: np.ndarray, gradients):
    """Stack the gradients and assemble ``C = G M^{-1} G^T`` and ``b = G v``.

    ``velocity`` is ``(..., w)``; each gradient is ``(..., w)`` or a constant
    ``(w,)`` and broadcasts against it.  Returns ``G`` and ``M^{-1} G`` as
    ``(..., m, w)``, ``C`` as ``(..., m, m)`` and ``b`` as ``(..., m)``.
    """
    g = np.empty(velocity.shape[:-1] + (len(gradients), velocity.shape[-1]))
    for k, gradient in enumerate(gradients):
        g[..., k, :] = gradient
    solved = metric.solve(g)
    c = solved @ g.swapaxes(-1, -2)
    b = (g @ velocity[..., None])[..., 0]
    return g, solved, c, b


def evaluate_constraint_system(
    a, system: RonsSystem, *, check_conditioning: bool = True
) -> ConstraintSystem:
    """Assemble ``C`` and ``b`` for the active constraints at state ``a``.

    ``C[i, j] = <grad I_i, M^{-1} grad I_j>`` and ``b[i] = <grad I_i, M^{-1} f>``,
    assembled exactly as :func:`apply_invariant_correction` does; the inverse
    metric is never formed.  With ``check_conditioning`` the (equilibrated)
    conditioning of ``C`` is verified and numerically dependent gradients
    raise :class:`ConstraintConditioningError`; the time-stepping path has
    no such check and relies on :func:`solve_lagrange`'s fallback.
    """
    if not system.constraints:
        return ConstraintSystem(np.zeros((0, 0)), np.zeros(0), ())
    a = state_values(a)
    velocity = system.metric.solve(np.asarray(system.rhs(a), dtype=float))
    g, _, c, b = _lagrange_system(
        system.metric, velocity, [q.gradient(a) for q in system.constraints]
    )
    active = np.flatnonzero(_is_active(g, system.degeneracy_tol))
    c, b = c[np.ix_(active, active)], b[active]
    if check_conditioning and active.size:
        cond = float(_condition_estimate(_equilibrated(c, b)[0]))
        if not cond <= CONDITION_LIMIT:
            raise ConstraintConditioningError(
                f"active constraint gradients are numerically dependent "
                f"(condition estimate {cond:.3e})"
            )
    return ConstraintSystem(c, b, tuple(int(i) for i in active))


def apply_invariant_correction(
    metric: MetricTensor,
    velocity: np.ndarray,
    gradients: Sequence[np.ndarray],
    tol: float = DEGENERACY_TOL,
) -> np.ndarray:
    """Project ``velocity`` onto the tangent space of the active invariants.

    The one Lagrange correction of the package, batch-transparent:
    ``velocity`` is ``(..., w)``, the unconstrained solve ``M^{-1} f`` (for
    finite volume, the flux vector itself, since there ``f = M F`` exactly),
    and each gradient is ``(..., w)`` or a constant ``(w,)``.  Returns
    ``velocity - M^{-1} G^T lambda`` with ``C lambda = b``,
    ``C = G M^{-1} G^T`` and ``b = G velocity``, member by member.  Gradients
    with norm at most ``tol`` are masked per member (multiplier zero); with
    no active gradient anywhere ``velocity`` comes back unchanged, bit for bit.
    """
    velocity = np.asarray(velocity, dtype=float)
    if len(gradients) == 0:
        return velocity
    g, solved, c, b = _lagrange_system(metric, velocity, gradients)
    active = _is_active(g, tol)
    if not active.any():
        return velocity
    if not active.all():
        # zero rows and columns: solve_lagrange gives them multiplier zero
        c = np.where(active[..., :, None] & active[..., None, :], c, 0.0)
        b = np.where(active, b, 0.0)
    lam = solve_lagrange(c, b)
    return velocity - (lam[..., None, :] @ solved)[..., 0, :]


def grons_rhs(a, system: RonsSystem) -> np.ndarray:
    """Constrained time derivative ``M a' = f - sum_k lambda_k grad I_k``.

    With no active constraints this is exactly the classical Galerkin solve
    ``M a' = f`` (identical code path, hence bitwise identical results).
    Along the returned direction every active invariant has zero rate of
    change up to the linear-solve tolerance.
    """
    a = state_values(a)
    velocity = system.metric.solve(np.asarray(system.rhs(a), dtype=float))
    return apply_invariant_correction(
        system.metric,
        velocity,
        [q.gradient(a) for q in system.constraints],
        system.degeneracy_tol,
    )


def project_onto_levels(
    a,
    quantities: Sequence[ConservedQuantity],
    targets: Sequence[float],
    *,
    tol: float = 1e-12,
    max_iter: int = 25,
) -> np.ndarray:
    """Optional post-step Newton projection onto invariant level sets.

    OFF by default everywhere: the solvers enforce tangency only.  Kept for
    experiments that want to renormalize after long integrations.
    """
    x = state_values(a).copy()
    targets = np.asarray(targets, dtype=float)
    scale = np.maximum(np.abs(targets), 1.0)
    for _ in range(max_iter):
        residual = np.array([q.value(x) for q in quantities]) - targets
        if np.max(np.abs(residual) / scale) < tol:
            return x
        jac = np.stack([np.asarray(q.gradient(x), dtype=float) for q in quantities])
        delta = np.linalg.lstsq(jac @ jac.T, residual, rcond=None)[0]
        x = x - jac.T @ delta
    residual = np.array([q.value(x) for q in quantities]) - targets
    if np.max(np.abs(residual) / scale) >= tol:
        warnings.warn(
            "invariant projection did not converge", RuntimeWarning, stacklevel=2
        )
    return x
