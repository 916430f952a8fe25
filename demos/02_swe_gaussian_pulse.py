"""Gaussian pulse benchmark: plain finite volume vs the energy-conserving run.

A small Gaussian elevation bump splits into two counter-propagating waves
that wrap the periodic domain and re-merge around t = 10.  The central-upwind
scheme conserves the two state integrals by construction but dissipates the
total energy; adding the energy (and state integrals) as enforced invariants
removes that decay, and by t = 10 the constrained run keeps a visibly taller
pulse.

Runs at 512 cells with a refined step so it finishes in ~20 s; outputs land
in demos/output/.
"""

from pathlib import Path

import numpy as np

from rons import core, fv, swe
from rons.integrators import StepSchedule, integrate, step_ssprk3

OUT = Path(__file__).parent / "output" / "gaussian_pulse"
CELLS = 512
HORIZON = 10.0

config = swe.SweConfig(cfl_factor=8.0)
grid = fv.build_grid(10.0, CELLS)
scheme = swe.central_upwind_scheme(config)
quantities = swe.swe_quantities(grid, config)
enforced = core.ConstraintSet(fv.fv_metric(grid, 2), quantities)   # prepared once
U0 = swe.gaussian_pulse_ic(grid, config)


def run(constraints):
    rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, constraints)
    observer = lambda t, U: {
        q.name: q.value(U.reshape(-1)) for q in quantities
    }
    schedule = StepSchedule(t_final=HORIZON, cfl=lambda U: scheme.cfl_dt(U, grid))
    return integrate(rhs, U0, schedule, stepper=step_ssprk3,
                     observers=(observer,), observe_every=1.0)


print(f"integrating {CELLS}-cell Gaussian pulse to t={HORIZON} ...")
plain = run(())
conserving = run(enforced)

print(f"\n{'t':>4} | {'energy (plain)':>16} | {'energy (conserving)':>19}")
for d_plain, d_cons in zip(plain.diagnostics, conserving.diagnostics):
    print(f"{d_plain['time']:4.0f} | {d_plain['total_energy']:16.9e} |"
          f" {d_cons['total_energy']:19.9e}")

e0 = plain.diagnostics[0]["total_energy"]
print("\nenergy change by t=10:")
print(f"  plain       : {(plain.diagnostics[-1]['total_energy'] - e0) / e0:+.3e}")
print(f"  conserving  : {(conserving.diagnostics[-1]['total_energy'] - e0) / e0:+.3e}")
print(f"peak elevation at t=10: plain {np.max(plain.states[-1][0]):.4e}"
      f" < conserving {np.max(conserving.states[-1][0]):.4e}")

OUT.mkdir(parents=True, exist_ok=True)
np.savetxt(OUT / "final_elevation.csv",
           np.column_stack([grid.centers, plain.states[-1][0], conserving.states[-1][0]]),
           delimiter=",", header="x,eta_plain,eta_conserving", comments="")
print(f"\nfinal profiles written to {OUT / 'final_elevation.csv'}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4))
    ax.plot(grid.centers, plain.states[-1][0], "k--", label="finite volume")
    ax.plot(grid.centers, conserving.states[-1][0], "r-", label="energy conserving")
    ax.set_xlabel("x")
    ax.set_ylabel("surface elevation")
    ax.set_title("Gaussian pulse at t = 10")
    ax.legend()
    fig.tight_layout()
    fig.savefig(OUT / "final_elevation.png", dpi=150)
    print(f"plot written to {OUT / 'final_elevation.png'}")
except ImportError:
    print("matplotlib not installed; skipping the plot")
