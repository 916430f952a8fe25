"""Constrained projection on a toy system.

A two-parameter state with identity metric and right-hand side f = (1, 1)
would leave the circle a1^2 + a2^2 = 1 immediately.  Declaring the squared
radius as a conserved quantity adds a Lagrange-multiplier correction that
removes the radial component of the dynamics, and the corrected velocity is
exactly tangent to the circle.

The same machinery drives complex coefficients stored as stacked real
vectors: the stacked solve reproduces the complex Galerkin solve entrywise.
"""

import numpy as np

from rons import (
    ConservedQuantity,
    ConstraintSet,
    ParameterLayout,
    assemble_metric,
    assemble_rhs,
    complexify_metric,
    grons_rhs,
)

# --- a conserved circle ----------------------------------------------------

radius = ConservedQuantity(
    "radius_squared",
    value=lambda a: float(a @ a),
    gradient=lambda a: 2.0 * a,
)
constraints = ConstraintSet(assemble_metric(np.eye(2)), (radius,))


def rhs(a):
    return np.array([1.0, 1.0])


a = np.array([1.0, 0.0])
unconstrained = constraints.metric.solve(rhs(a))
constrained = grons_rhs(a, rhs, constraints)

print("state a                 :", a)
print("unconstrained velocity  :", unconstrained, " (radial rate", 2 * a @ unconstrained, ")")
print("constrained velocity    :", constrained, " (radial rate", 2 * a @ constrained, ")")

# --- integrating stays on the circle ----------------------------------------

dt, steps = 1e-3, 5000
state = a.copy()
for _ in range(steps):
    state = state + dt * grons_rhs(state, rhs, constraints)
print(f"after {steps} Euler steps: |a| = {np.linalg.norm(state):.12f}  (exactly 1 up to O(dt))")

# --- complex coefficients as stacked real vectors ---------------------------

rng = np.random.default_rng(1)
n = 4
r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
pairings = r @ r.conj().T + n * np.eye(n)          # Hermitian positive definite
f_complex = rng.standard_normal(n) + 1j * rng.standard_normal(n)

stacked_metric = complexify_metric(pairings)
stacked_f = assemble_rhs(f_complex)
stacked_solution = stacked_metric.solve(stacked_f)

layout = ParameterLayout.single_complex(n)
z_dot = layout.unpack(stacked_solution)[0]
reference = np.linalg.solve(pairings, f_complex)

print("\ncomplex Galerkin solve vs stacked real solve:")
print("  max entrywise difference:", np.max(np.abs(z_dot - reference)))
