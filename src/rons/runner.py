"""Experiment execution: single runs, seeded ensembles, and output files.

Each model has one integration path.  A single run's state carries no
batch axis; an ensemble stacks its seeds along a leading one and advances
them together (seed-deterministic; on a numerical failure a shallow-water
ensemble falls back to a per-seed loop so surviving seeds are preserved
alongside a failed-seed manifest).  Single runs keep invariant histories and
snapshots, ensembles pooled samples.  Outputs are plain data files;
everything except telemetry is bitwise reproducible for a fixed config,
seed, and build.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import core, fv, io, nls, swe
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
    """Execute a config, validated and checked (:meth:`RunConfig.check_before_run`)
    before anything runs: one run, or a seed ensemble when set."""
    config.validate().check_before_run()
    started = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        record = (_swe if config.model == "swe" else _nls)(config)
    record.warnings.extend(
        {"category": type(w.message).__name__, "message": str(w.message)}
        for w in caught
        if isinstance(w.message, RonsWarning)
    )
    record.telemetry["wall_seconds"] = time.perf_counter() - started
    return record


# ---------------------------------------------------------------------------
# Shallow water


def _swe(config: RunConfig) -> RunRecord:
    swe_cfg = swe.SweConfig(limiter_theta=config.theta, cfl_factor=config.cfl_factor)
    grid = fv.build_grid(config.length, config.cells)
    scheme = swe.central_upwind_scheme(swe_cfg)
    quantities = swe.swe_quantities(grid, swe_cfg)
    enforced = tuple(q for q in quantities if q.name in config.enforce)
    if config.seeds is None:
        U0 = _swe_initial_state(config, config.seed, grid, swe_cfg)
        return _swe_single(config, U0, grid, scheme, quantities, enforced)
    return _swe_ensemble(config, grid, swe_cfg, scheme, quantities, enforced)


def _swe_initial_state(config: RunConfig, seed: int, grid, swe_cfg):
    if config.swe_ic == "gaussian":
        return swe.gaussian_pulse_ic(grid, swe_cfg)
    if config.swe_ic == "random":
        return swe.random_oscillatory_ic(seed, grid, swe_cfg)
    if config.swe_ic == "rest":
        return swe.lake_at_rest_ic(grid)
    raise ConfigError(f"unknown swe initial condition {config.swe_ic!r}")


def _swe_integrate(config, U0, grid, scheme, enforced, observer, observe_every, **kwargs):
    """Advance a ``(2, n)`` state or a ``(B, 2, n)`` ensemble with the
    configured right-hand side, stepper and step rule."""
    if enforced:
        constraints = core.ConstraintSet(fv.fv_metric(grid, U0.shape[-2]), enforced)
        rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, constraints)
    else:
        rhs = lambda U: scheme.rhs(U, grid)   # every stepper checks each new state
    if config.dt is not None:
        schedule = StepSchedule(t_final=config.horizon, dt=config.dt)
    else:
        schedule = StepSchedule(t_final=config.horizon, cfl=lambda U: scheme.cfl_dt(U, grid))
    return integrate(rhs, U0, schedule, stepper=_STEPPERS[config.stepper],
                     observers=(observer,), observe_every=observe_every, **kwargs)


def _swe_single(config, U0, grid, scheme, quantities, enforced) -> RunRecord:
    widths = grid.widths

    def observer(t, U):
        flat = U.reshape(-1)
        out = {q.name: q.value(flat) for q in quantities}
        # L1 field norms give a magnitude scale for invariants that start at
        # zero (total velocity), where a ratio to the initial value is useless.
        out["_l1_elevation"] = float(np.dot(widths, np.abs(U[0])))
        out["_l1_velocity"] = float(np.dot(widths, np.abs(U[1])))
        return out

    checkpoints = tuple(t for t in config.snapshot_times if 0.0 < t < config.horizon)
    traj = _swe_integrate(config, U0, grid, scheme, enforced, observer, config.cadence,
                          checkpoints=checkpoints)

    record = RunRecord(config=_echo(config), seed=config.seed, times=traj.times,
                       grid_x=grid.centers)
    for q in quantities:
        record.invariants[q.name] = np.array([d[q.name] for d in traj.diagnostics])
    # one snapshot per observed time: requests that land on the same
    # observation (say the horizon and a time a round-off past it) collapse
    observed = dict.fromkeys(int(np.argmin(np.abs(traj.times - t)))
                             for t in config.snapshot_times if t <= config.horizon + 1e-12)
    for idx in observed:
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


def _swe_ensemble(config, grid, swe_cfg, scheme, quantities, enforced) -> RunRecord:
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
    members = sorted(per_seed.items())
    pooled = np.concatenate([seed_samples for _, (seed_samples, _) in members])
    record.histogram = nls.max_envelope_pdf(pooled, config.bins)
    record.seed_records = [{
        "seed": seed,
        "n_samples": int(seed_samples.size),
        "max_elevation_mean": float(np.mean(seed_samples)),
        "total_energy_drift": drift,
    } for seed, (seed_samples, drift) in members]
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
    """Advance a stacked ensemble, sampling max elevation in the window;
    the samples are ``(B, 0)`` when no sample time falls inside it."""
    energy = next(q for q in quantities if q.name == "total_energy")

    def sampler(t, U):
        return {
            "max_elevation": np.max(np.abs(U[..., 0, :]), axis=-1),
            "total_energy": energy.value(U.reshape(U.shape[:-2] + (-1,))),
        }

    traj = _swe_integrate(config, batch, grid, scheme, enforced, sampler,
                          config.sample_cadence, store_states=False)
    lo, hi = config.sample_window
    times = np.asarray(traj.times)
    inside = (times >= lo - 1e-9) & (times <= hi + 1e-9)
    samples = np.stack([d["max_elevation"] for d in traj.diagnostics], axis=-1)[:, inside]
    energies = np.stack([d["total_energy"] for d in traj.diagnostics], axis=-1)
    drifts = [nls.relative_drift(e) for e in energies]
    return samples, drifts, len(traj.dt_history)


# ---------------------------------------------------------------------------
# Nonlinear Schrodinger


def _nls(config: RunConfig) -> RunRecord:
    """A DNS or reduced-model run of one seed, or of a seed ensemble."""
    single = config.seeds is None
    seeds = (config.seed,) if single else config.seeds
    if config.model == "nls-dns":
        ics = [nls.nls_random_ic(s, config.length, config.modes) for s in seeds]
        if single:
            series, diag = nls.dns_run(ics[0], config.horizon, config.snapshot_cadence,
                                       dt=config.dt)
        else:
            series, diag = nls.dns_run_batch(ics, config.horizon, config.snapshot_cadence,
                                             dt=config.dt)
        extra = {}
    else:
        basis = _rom_basis(config)
        a0 = np.stack([_rom_initial_state(config, s, basis) for s in seeds])
        quantities = nls.rom_quantities(basis) if config.scheme == "g-rons" else ()
        series, diag = nls.rom_run(
            a0[0] if single else a0, basis, config.horizon, config.snapshot_cadence,
            config.dt, quantities=quantities,
        )
        extra = {
            "rom_modes": basis.n_modes,
            "truth_note": (
                "error metrics compare against a DNS started from the reconstructed "
                "reduced state; see the metrics command"
            ),
        }
    record = RunRecord(config=_echo(config))
    record.telemetry["n_steps"] = diag["n_steps"]
    if single:
        record.seed, record.times = config.seed, series.times
        record.invariants = {"mass": diag["mass"], "energy": diag["energy"]}
        record.snapshot_series = series
        record.metrics = {
            "scheme": config.scheme,
            "mass_drift": diag["mass_drift"],
            "energy_drift": diag["energy_drift"],
            "n_steps": diag["n_steps"],
            "dt": diag["dt"],
            **extra,
        }
        return record
    peaks = [nls.max_envelope(s.window(*config.sample_window)) for s in series]
    pooled = np.concatenate(peaks)
    record.histogram = nls.max_envelope_pdf(pooled, config.bins)
    record.seed_records = [{
        "seed": seed,
        "n_samples": int(member_peaks.size),
        "max_envelope_mean": float(np.mean(member_peaks)),
        "mass_drift": float(diag["mass_drift"][member]),
        "energy_drift": float(diag["energy_drift"][member]),
    } for member, (seed, member_peaks) in enumerate(zip(seeds, peaks))]
    record.metrics = {
        "scheme": config.scheme,
        "n_seeds": len(seeds),
        "max_envelope_mean": float(np.mean(pooled)),
        "n_steps": diag["n_steps"],
    }
    return record


def _rom_basis(config: RunConfig) -> nls.PodBasis:
    if config.basis_path:
        return io.load_pod_basis(config.basis_path)
    ics = [nls.nls_random_ic(s, config.length, config.modes) for s in config.training_seeds]
    series, _ = nls.dns_run_batch(ics, config.training_horizon, config.snapshot_cadence)
    snapshots = np.vstack([s.snapshots for s in series])
    return nls.compute_pod(snapshots, config.rom_modes, config.length)


def _rom_initial_state(config: RunConfig, seed: int, basis) -> np.ndarray:
    if config.nls_ic == "project":
        ic = nls.nls_random_ic(seed, config.length, config.modes)
        return nls.project_ic(ic, basis).values
    state = nls.random_rom_ic(seed, basis)
    return state.values * config.ic_amplitude


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
        times = [t for t, _ in record.field_snapshots]
        names = [f"t_{io.format_float(t)}.csv" for t in times]
        for name, (_, fields) in zip(names, record.field_snapshots):
            io.write_field_csv(out / "snapshots" / name, record.grid_x, fields)
            written.append(out / "snapshots" / name)
        io.write_snapshot_index(out / "snapshots" / "index.csv", times, names)
        written.append(out / "snapshots" / "index.csv")

    if record.snapshot_series is not None:
        path = out / f"snapshots.{fmt}"
        io.save_snapshots(path, record.snapshot_series)
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
