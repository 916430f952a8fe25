"""Experiment execution: single runs, seeded ensembles, and output files.

Single runs integrate one trajectory with invariant logging and snapshot
capture.  Ensembles advance all seeds together through the batched engines
(seed-deterministic; on a numerical failure the runner falls back to a
per-seed loop so surviving seeds are preserved alongside a failed-seed
manifest).  Outputs are plain data files; everything except telemetry is
bitwise reproducible for a fixed config, seed, and build.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import fv, io, nls, swe
from .config import RunConfig
from .errors import ConfigError, RonsError, RonsWarning
from .integrators import StepSchedule, integrate, step_rk4, step_ssprk3

_STEPPERS = {"ssprk3": step_ssprk3, "rk4": step_rk4}


@dataclass
class RunRecord:
    """Everything a run produced, sufficient to reproduce it bit for bit."""

    config: dict
    seed: int | None = None
    times: np.ndarray | None = None
    invariants: dict = dataclass_field(default_factory=dict)
    field_snapshots: list = dataclass_field(default_factory=list)   # (t, dict of columns)
    snapshot_series: "nls.SnapshotSeries | None" = None
    metrics: dict = dataclass_field(default_factory=dict)
    histogram: tuple | None = None
    seed_records: list = dataclass_field(default_factory=list)
    failed_seeds: list = dataclass_field(default_factory=list)
    warnings: list = dataclass_field(default_factory=list)
    telemetry: dict = dataclass_field(default_factory=dict)
    grid_x: np.ndarray | None = None


def run_experiment(config: RunConfig) -> RunRecord:
    """Execute a validated config: one run, or a seed ensemble when set."""
    config.validate()
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if config.seeds is not None:
            record = _dispatch_ensemble(config)
        else:
            record = _dispatch_single(config, config.seed)
    record.warnings.extend(
        {"category": type(w.message).__name__, "message": str(w.message)}
        for w in caught
        if isinstance(w.message, RonsWarning)
    )
    record.telemetry["wall_seconds"] = time.perf_counter() - started
    return record


def _dispatch_single(config: RunConfig, seed: int) -> RunRecord:
    if config.model == "swe":
        return _swe_single(config, seed)
    if config.model == "nls-dns":
        return _nls_dns_single(config, seed)
    return _nls_rom_single(config, seed)


def _dispatch_ensemble(config: RunConfig) -> RunRecord:
    if config.model == "swe":
        return _swe_ensemble(config)
    return _nls_ensemble(config)


# ---------------------------------------------------------------------------
# Shallow water


def _swe_setup(config: RunConfig):
    swe_cfg = swe.SweConfig(limiter_theta=config.theta, cfl_factor=config.cfl_factor)
    grid = fv.build_grid(config.length, config.cells)
    scheme = swe.central_upwind_scheme(swe_cfg)
    quantities = swe.swe_quantities(grid, swe_cfg)
    enforced = tuple(q for q in quantities if q.name in config.enforce)
    return swe_cfg, grid, scheme, quantities, enforced


def _swe_initial_state(config: RunConfig, seed: int, grid, swe_cfg):
    if config.swe_ic == "gaussian":
        return swe.gaussian_pulse_ic(grid, swe_cfg)
    if config.swe_ic == "random":
        return swe.random_oscillatory_ic(seed, grid, swe_cfg)
    if config.swe_ic == "rest":
        return swe.lake_at_rest_ic(grid)
    raise ConfigError(f"unknown swe initial condition {config.swe_ic!r}")


def _swe_single(config: RunConfig, seed: int) -> RunRecord:
    swe_cfg, grid, scheme, quantities, enforced = _swe_setup(config)
    U0 = _swe_initial_state(config, seed, grid, swe_cfg)
    metric = fv.fv_metric(grid, 2)

    if enforced:
        rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, enforced, metric=metric)
    else:
        rhs = lambda U: fv.fv_rhs(U, scheme, grid)

    widths = grid.widths

    def observer(t, U):
        flat = U.reshape(-1)
        out = {q.name: q.value(flat) for q in quantities}
        # L1 field norms give a magnitude scale for invariants that start at
        # zero (total velocity), where a ratio to the initial value is useless.
        out["_l1_elevation"] = float(np.dot(widths, np.abs(U[0])))
        out["_l1_velocity"] = float(np.dot(widths, np.abs(U[1])))
        return out

    if config.dt is not None:
        schedule = StepSchedule(t_final=config.horizon, dt=config.dt)
    else:
        schedule = StepSchedule(t_final=config.horizon, cfl=lambda U: scheme.cfl_dt(U, grid))
    checkpoints = tuple(t for t in config.snapshot_times if 0.0 < t < config.horizon)
    traj = integrate(
        rhs, U0, schedule,
        stepper=_STEPPERS[config.stepper],
        observers=(observer,),
        observe_every=config.cadence,
        checkpoints=checkpoints,
    )

    record = RunRecord(config=_echo(config), seed=seed, times=traj.times, grid_x=grid.centers)
    for q in quantities:
        record.invariants[q.name] = np.array([d[q.name] for d in traj.diagnostics])
    wanted = [t for t in config.snapshot_times if t <= config.horizon + 1e-12]
    for t_want in wanted:
        idx = int(np.argmin(np.abs(traj.times - t_want)))
        state = traj.states[idx]
        record.field_snapshots.append(
            (traj.times[idx], {"eta": state[0].copy(), "v": state[1].copy()})
        )
    l1_scales = {
        "total_elevation": max(d["_l1_elevation"] for d in traj.diagnostics),
        "total_velocity": max(d["_l1_velocity"] for d in traj.diagnostics),
    }

    def drift(name, series):
        # invariants that start at zero (total velocity on at-rest data) are
        # scaled by the L1 magnitude the field actually reaches
        scale = abs(series[0])
        if scale == 0.0:
            scale = l1_scales.get(name, 0.0)
        absolute = float(np.max(np.abs(series - series[0])))
        return float(absolute / scale) if scale > 0 else absolute

    record.metrics = {
        "scheme": config.scheme,
        "n_steps": int(len(traj.dt_history)),
        "drift": {
            name: drift(name, series)
            for name, series in record.invariants.items()
        },
        "drift_absolute": {
            name: float(np.max(np.abs(series - series[0])))
            for name, series in record.invariants.items()
        },
        "field_l1_max": l1_scales,
        "final": {name: float(series[-1]) for name, series in record.invariants.items()},
        "max_abs_eta_final": float(np.max(np.abs(traj.states[-1][0]))),
    }
    record.telemetry["n_steps"] = int(len(traj.dt_history))
    return record


def _swe_ensemble(config: RunConfig) -> RunRecord:
    swe_cfg, grid, scheme, quantities, enforced = _swe_setup(config)
    record = RunRecord(config=_echo(config), grid_x=grid.centers)

    states, good_seeds = [], []
    for seed in config.seeds:
        try:
            states.append(_swe_initial_state(config, seed, grid, swe_cfg))
            good_seeds.append(seed)
        except RonsError as exc:
            record.failed_seeds.append({"seed": seed, "stage": "initial-condition",
                                        "error": str(exc)})
    if not good_seeds:
        raise ConfigError("every seed failed during initial-condition generation")

    try:
        samples, drifts, n_steps = _swe_ensemble_batched(
            config, np.stack(states), grid, scheme, quantities, enforced
        )
        per_seed = dict(zip(good_seeds, zip(samples, drifts)))
    except RonsError:
        # Salvage seed by seed so one divergent member cannot sink the rest.
        per_seed = {}
        for seed, U0 in zip(good_seeds, states):
            try:
                s, d, n_steps = _swe_ensemble_batched(
                    config, U0[None], grid, scheme, quantities, enforced
                )
                per_seed[seed] = (s[0], d[0])
            except RonsError as exc:
                record.failed_seeds.append({"seed": seed, "stage": "integration",
                                            "error": str(exc)})

    if not per_seed:
        raise RonsError(
            f"all {len(good_seeds)} seeds failed during integration; "
            f"manifest: {record.failed_seeds}"
        )
    pooled = []
    for seed, (seed_samples, drift) in sorted(per_seed.items()):
        pooled.append(seed_samples)
        record.seed_records.append({
            "seed": seed,
            "n_samples": int(seed_samples.size),
            "max_elevation_mean": float(np.mean(seed_samples)),
            "total_energy_drift": drift,
        })
    pooled = np.concatenate(pooled)
    edges, density = nls.max_envelope_pdf(pooled, config.bins)
    record.histogram = (edges, density)
    record.metrics = {
        "scheme": config.scheme,
        "n_seeds": len(per_seed),
        "n_failed": len(record.failed_seeds),
        "sample_window": list(config.sample_window),
        "max_elevation_mean": float(np.mean(pooled)),
        "max_elevation_median": float(np.median(pooled)),
        "n_steps": int(n_steps),
    }
    record.telemetry["n_steps"] = int(n_steps)
    return record


def _swe_ensemble_batched(config, batch, grid, scheme, quantities, enforced):
    """Advance a stacked ensemble, sampling max elevation in the window."""
    if enforced:
        metric = fv.fv_metric(grid, 2)
        rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, enforced, metric=metric)
    else:
        rhs = lambda U: scheme.rhs(U, grid)
    energy = next(q for q in quantities if q.name == "total_energy")

    def sampler(t, U):
        return {
            "max_elevation": np.max(np.abs(U[..., 0, :]), axis=-1),
            "total_energy": energy.value(U.reshape(U.shape[:-2] + (-1,))),
        }

    if config.dt is not None:
        schedule = StepSchedule(t_final=config.horizon, dt=config.dt)
    else:
        schedule = StepSchedule(t_final=config.horizon, cfl=lambda U: scheme.cfl_dt(U, grid))
    traj = integrate(
        rhs, batch, schedule,
        stepper=_STEPPERS[config.stepper],
        observers=(sampler,),
        observe_every=config.sample_cadence,
        store_states=False,
    )
    lo, hi = config.sample_window
    keep = [i for i, t in enumerate(traj.times) if lo - 1e-9 <= t <= hi + 1e-9]
    samples = np.stack([traj.diagnostics[i]["max_elevation"] for i in keep], axis=-1)
    energies = np.stack([d["total_energy"] for d in traj.diagnostics], axis=-1)
    drifts = [nls.relative_drift(e) for e in energies]
    return samples, drifts, len(traj.dt_history)


# ---------------------------------------------------------------------------
# Nonlinear Schrodinger


def _nls_dns_single(config: RunConfig, seed: int) -> RunRecord:
    ic = nls.nls_random_ic(seed, config.length, config.modes)
    series, diag = nls.dns_run(ic, config.horizon, config.snapshot_cadence, dt=config.dt)
    record = RunRecord(config=_echo(config), seed=seed, times=series.times)
    record.invariants = {"mass": diag["mass"], "energy": diag["energy"]}
    record.snapshot_series = series
    record.metrics = {
        "scheme": "spectral",
        "mass_drift": diag["mass_drift"],
        "energy_drift": diag["energy_drift"],
        "n_steps": diag["n_steps"],
        "dt": diag["dt"],
    }
    record.telemetry["n_steps"] = diag["n_steps"]
    return record


def _rom_basis(config: RunConfig) -> nls.PodBasis:
    if config.basis_path:
        return io.load_pod_basis(config.basis_path)
    snapshots = []
    for seed in config.training_seeds:
        ic = nls.nls_random_ic(seed, config.length, config.modes)
        series, _ = nls.dns_run(ic, config.training_horizon, config.snapshot_cadence)
        snapshots.append(series.snapshots)
    return nls.compute_pod(np.vstack(snapshots), config.rom_modes, config.length)


def _rom_initial_state(config: RunConfig, seed: int, basis) -> np.ndarray:
    if config.nls_ic == "project":
        ic = nls.nls_random_ic(seed, config.length, config.modes)
        return nls.project_ic(ic, basis).values
    state = nls.random_rom_ic(seed, basis)
    return state.values * config.ic_amplitude


def _nls_rom_single(config: RunConfig, seed: int) -> RunRecord:
    basis = _rom_basis(config)
    a0 = _rom_initial_state(config, seed, basis)
    quantities = nls.rom_quantities(basis) if config.scheme == "g-rons" else ()
    dt = config.dt if config.dt is not None else 1.0 / 32
    series, diag = nls.rom_run(
        a0, basis, config.horizon, config.snapshot_cadence, dt, quantities=quantities
    )
    record = RunRecord(config=_echo(config), seed=seed, times=series.times)
    record.invariants = {"mass": diag["mass"], "energy": diag["energy"]}
    record.snapshot_series = series
    record.metrics = {
        "scheme": config.scheme,
        "mass_drift": diag["mass_drift"],
        "energy_drift": diag["energy_drift"],
        "n_steps": diag["n_steps"],
        "dt": dt,
        "rom_modes": basis.n_modes,
        "truth_note": (
            "error metrics compare against a DNS started from the reconstructed "
            "reduced state; see the metrics command"
        ),
    }
    record.telemetry["n_steps"] = diag["n_steps"]
    return record


def _nls_ensemble(config: RunConfig) -> RunRecord:
    record = RunRecord(config=_echo(config))
    if config.model == "nls-dns":
        ics = [nls.nls_random_ic(s, config.length, config.modes) for s in config.seeds]
        series_list, diag = nls.dns_run_batch(
            ics, config.horizon, config.snapshot_cadence, dt=config.dt
        )
    else:
        basis = _rom_basis(config)
        a0s = np.stack([
            _rom_initial_state(config, s, basis) for s in config.seeds
        ])
        dt = config.dt if config.dt is not None else 1.0 / 32
        series_list, diag = nls.rom_run_batch(
            a0s, basis, config.horizon, config.snapshot_cadence, dt,
            enforce=config.scheme == "g-rons",
        )
    lo, hi = config.sample_window
    pooled = []
    for member, (seed, series) in enumerate(zip(config.seeds, series_list)):
        windowed = series.window(lo, hi)
        peaks = nls.max_envelope(windowed)
        pooled.append(peaks)
        record.seed_records.append({
            "seed": seed,
            "n_samples": int(peaks.size),
            "max_envelope_mean": float(np.mean(peaks)),
            "mass_drift": float(diag["mass_drift"][member]),
            "energy_drift": float(diag["energy_drift"][member]),
        })
    pooled = np.concatenate(pooled)
    edges, density = nls.max_envelope_pdf(pooled, config.bins)
    record.histogram = (edges, density)
    record.metrics = {
        "scheme": config.scheme,
        "n_seeds": len(config.seeds),
        "max_envelope_mean": float(np.mean(pooled)),
        "n_steps": diag["n_steps"],
    }
    record.telemetry["n_steps"] = diag["n_steps"]
    return record


# ---------------------------------------------------------------------------
# Output files


def _echo(config: RunConfig) -> dict:
    payload = {
        key: value
        for key, value in vars(config).items()
        if key != "raw" and not key.startswith("_")
    }
    for key, value in list(payload.items()):
        if isinstance(value, tuple):
            payload[key] = list(value)
    payload["raw"] = config.raw
    return payload


def write_outputs(record: RunRecord, out_dir, fmt: str = "csv") -> list[Path]:
    """Write the record as plain data files; returns the paths written.

    Everything except ``telemetry.json`` is deterministic for a fixed
    (config, seed, build) triple.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    io.write_json(out / "config.json", record.config)
    written.append(out / "config.json")

    if record.times is not None and record.invariants:
        io.write_invariants_csv(out / "invariants.csv", record.times, record.invariants)
        written.append(out / "invariants.csv")

    if record.field_snapshots:
        index_rows = []
        for t, fields in record.field_snapshots:
            name = f"snapshots/t_{io.format_float(t)}.csv"
            io.write_field_csv(out / name, record.grid_x, fields)
            index_rows.append((t, name))
            written.append(out / name)
        with open(out / "snapshots" / "index.csv", "w") as fh:
            fh.write("time,file\n")
            for t, name in index_rows:
                fh.write(f"{io.format_float(t)},{Path(name).name}\n")
        written.append(out / "snapshots" / "index.csv")

    if record.snapshot_series is not None:
        path = out / f"snapshots.{fmt}"
        io.save_snapshots(path, record.snapshot_series, fmt=fmt)
        written.append(path)

    if record.histogram is not None:
        io.write_histogram_csv(out / "histogram.csv", *record.histogram)
        written.append(out / "histogram.csv")

    metrics = dict(record.metrics)
    if record.seed_records:
        metrics["seeds"] = record.seed_records
    if record.failed_seeds:
        io.write_json(out / "failed_seeds.json", {"failed": record.failed_seeds})
        written.append(out / "failed_seeds.json")
    io.write_json(out / "metrics.json", metrics)
    written.append(out / "metrics.json")

    io.write_json(out / "warnings.json", {"warnings": record.warnings})
    written.append(out / "warnings.json")

    io.write_json(out / "telemetry.json", record.telemetry)
    written.append(out / "telemetry.json")
    return written
