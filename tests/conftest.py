import numpy as np
import pytest
from hypothesis import settings

from rons import core

# Property tests replay the same generated cases on every run and have no
# per-example deadline (a cold numpy call can exceed hypothesis's default).
settings.register_profile("rons", max_examples=60, deadline=None, derandomize=True,
                          database=None)
settings.load_profile("rons")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_spd(rng, n, shift=None):
    """Random symmetric positive-definite matrix."""
    a = rng.standard_normal((n, n))
    return a @ a.T + (shift if shift is not None else n) * np.eye(n)


def quadratic_quantity(name, q_matrix):
    """I(a) = a^T Q a / 2 with its analytic gradient."""
    q_matrix = 0.5 * (q_matrix + q_matrix.T)
    return core.ConservedQuantity(
        name,
        value=lambda a: float(0.5 * a @ q_matrix @ a),
        gradient=lambda a: q_matrix @ a,
    )


def with_lambda_values(quantities):
    """The same quantities with each value wrapped in a plain lambda, so no
    :class:`~rons.core.ConstraintSet` sees a linear invariant: every row is
    evaluated per call, and an all-zero linear row is tested at each state
    instead of dropped once."""
    return tuple(
        core.ConservedQuantity(q.name, lambda a, value=q.value: value(a), q.gradient)
        for q in quantities
    )


class _NanDraws:
    """A generator stand-in whose every draw is NaN, so no profile built
    from it has a positive maximum."""

    def uniform(self, low, high, size):
        return np.full(size, np.nan)

    def standard_normal(self, size):
        return np.full(size, np.nan)


def failing_draws(monkeypatch, failures):
    """Make the next ``failures`` generators of ``np.random.default_rng``
    draw only NaN; returns the list that records every seed asked for."""
    real = np.random.default_rng
    seeds = []

    def default_rng(seed=None):
        seeds.append(seed)
        return _NanDraws() if len(seeds) <= failures else real(seed)

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return seeds
