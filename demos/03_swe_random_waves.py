"""Oscillatory random waves: energy decay halves the wave amplitudes.

With a random multi-cosine elevation the plain scheme's numerical dissipation
is far more visible than for the smooth pulse: the total energy decays
steadily and the surface amplitudes shrink with it, while the conserving run
keeps both.  This is the single-seed version of the ensemble statistics in
demo 04.
"""

from pathlib import Path

import numpy as np

from rons import fv, swe
from rons.integrators import StepSchedule, integrate, step_rk4, step_ssprk3

OUT = Path(__file__).parent / "output" / "random_waves"
CELLS = 256
HORIZON = 40.0
SEED = 7

grid = fv.build_grid(10.0, CELLS)
base_config = swe.SweConfig()
U0 = swe.random_oscillatory_ic(SEED, grid, base_config)
print(f"seed {SEED}: initial max elevation {np.max(U0[0]):.3e} "
      f"(rescaled to 1 / (2 wavelength))")


def run(constraints, cfl_factor, stepper):
    config = swe.SweConfig(cfl_factor=cfl_factor)
    scheme = swe.central_upwind_scheme(config)
    quantities = swe.swe_quantities(grid, config)
    chosen = tuple(q for q in quantities if q.name in constraints)
    rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, chosen)
    observer = lambda t, U: {
        "energy": quantities[2].value(U.reshape(-1)),
        "max_eta": float(np.max(np.abs(U[0]))),
    }
    schedule = StepSchedule(t_final=HORIZON, cfl=lambda U: scheme.cfl_dt(U, grid))
    return integrate(rhs, U0, schedule, stepper=stepper,
                     observers=(observer,), observe_every=5.0)


print("integrating plain scheme (protocol step) and conserving run (refined step) ...")
plain = run((), 2.0, step_ssprk3)
conserving = run(
    ("total_elevation", "total_velocity", "total_energy"), 16.0, step_rk4
)

print(f"\n{'t':>4} | {'max|eta| plain':>15} | {'max|eta| conserving':>20}")
for d_p, d_c in zip(plain.diagnostics, conserving.diagnostics):
    print(f"{d_p['time']:4.0f} | {d_p['max_eta']:15.4e} | {d_c['max_eta']:20.4e}")

e0 = plain.diagnostics[0]["energy"]
print(f"\nenergy change over the run: plain "
      f"{(plain.diagnostics[-1]['energy'] - e0) / e0:+.2e}, conserving "
      f"{(conserving.diagnostics[-1]['energy'] - e0) / e0:+.2e}")

OUT.mkdir(parents=True, exist_ok=True)
rows = np.array([
    [d_p["time"], d_p["max_eta"], d_c["max_eta"], d_p["energy"], d_c["energy"]]
    for d_p, d_c in zip(plain.diagnostics, conserving.diagnostics)
])
np.savetxt(OUT / "history.csv", rows, delimiter=",",
           header="time,max_eta_plain,max_eta_conserving,energy_plain,energy_conserving",
           comments="")
print(f"history written to {OUT / 'history.csv'}")
