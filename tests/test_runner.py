import json

import numpy as np
import pytest

from rons import core, fv, io, nls, runner, swe
from rons.config import RunConfig, parse_config
from rons.integrators import StepSchedule, integrate, step_ssprk3
from rons.runner import run_experiment, write_outputs

from conftest import with_lambda_values


def make_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return parse_config(path)


SWE_SMALL = """
[run]
model = swe
scheme = {scheme}
seed = {seed}
[space]
cells = 96
[time]
horizon = 1.5
cadence = 0.5
[swe]
ic = {ic}
snapshot_times = 0, 1.5
"""


class TestSweSingleRun:
    def test_record_contents(self, tmp_path):
        cfg = make_config(tmp_path, SWE_SMALL.format(scheme="fv-rons", seed=0, ic="gaussian"))
        record = run_experiment(cfg)
        assert set(record.invariants) == {
            "total_elevation", "total_velocity", "total_energy",
        }
        assert record.times[0] == 0.0
        assert record.times[-1] == pytest.approx(1.5)
        assert len(record.field_snapshots) == 2
        assert "drift" in record.metrics

    def test_unenforced_run_still_logs_all_quantities(self, tmp_path):
        cfg = make_config(tmp_path, SWE_SMALL.format(scheme="fv", seed=0, ic="gaussian"))
        assert cfg.enforce == ()
        record = run_experiment(cfg)
        assert set(record.invariants) == {
            "total_elevation", "total_velocity", "total_energy",
        }

    def test_outputs_roundtrip_bit_exact(self, tmp_path):
        cfg = make_config(tmp_path, SWE_SMALL.format(scheme="fv-rons", seed=0, ic="gaussian"))
        record = run_experiment(cfg)
        out = tmp_path / "out"
        write_outputs(record, out, "csv")
        header, *rows = (out / "invariants.csv").read_text().splitlines()
        table = np.array([row.split(",") for row in rows], dtype=float)
        for name, series in record.invariants.items():
            assert np.array_equal(table[:, header.split(",").index(name)], series)
        assert (out / "snapshots" / "index.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        text = SWE_SMALL.format(scheme="fv-rons", seed=3, ic="random")
        cfg1 = make_config(tmp_path, text, "a.ini")
        cfg2 = make_config(tmp_path, text, "b.ini")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        write_outputs(run_experiment(cfg1), out1, "csv")
        write_outputs(run_experiment(cfg2), out2, "csv")
        for name in ("invariants.csv", "metrics.json", "warnings.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestPreparedConstraintSet:
    def test_linear_declared_and_lambda_integrals_write_identical_files(
            self, tmp_path, monkeypatch):
        # the swe-pulse FV-RONS run of the benchmark: 1024 cells, t = 2
        config = RunConfig(
            model="swe", scheme="fv-rons", cells=1024, horizon=2.0, swe_ic="gaussian",
            snapshot_times=(0.0, 0.5, 2.0), stepper="ssprk3", cadence=1.0,
        ).validate()

        def files(out):
            paths = write_outputs(run_experiment(config), out)
            return {p.relative_to(out): p.read_bytes() for p in paths
                    if p.name != "telemetry.json"}

        declared = files(tmp_path / "declared")
        linear_quantities = swe.swe_quantities
        monkeypatch.setattr(swe, "swe_quantities",
                            lambda *args: with_lambda_values(linear_quantities(*args)))
        assert files(tmp_path / "lambdas") == declared


class TestSweEnsemble:
    def test_histogram_and_seed_records(self, tmp_path):
        text = """
[run]
model = swe
scheme = fv-rons
seeds = 0..4
[space]
cells = 96
[time]
horizon = 3.0
cadence = 1.0
[swe]
ic = random
[sampling]
window = 1, 3
cadence = 0.5
bins = 8
"""
        cfg = make_config(tmp_path, text)
        record = run_experiment(cfg)
        assert len(record.seed_records) == 5
        edges, density = record.histogram
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, abs=1e-12)
        assert record.metrics["max_elevation_mean"] > 0
        out = tmp_path / "out"
        write_outputs(record, out, "csv")
        assert (out / "histogram.csv").exists()

    def test_warnings_land_in_the_record(self, tmp_path, monkeypatch):
        import warnings as warnings_mod

        import rons.runner as runner_mod
        from rons.errors import ResampledInitialConditionWarning

        original = runner_mod.swe.random_oscillatory_ic

        def warning_ic(seed, grid, cfg, **kw):
            warnings_mod.warn("probe", ResampledInitialConditionWarning)
            return original(seed, grid, cfg, **kw)

        monkeypatch.setattr(runner_mod.swe, "random_oscillatory_ic", warning_ic)
        cfg = make_config(tmp_path, SWE_SMALL.format(scheme="fv", seed=1, ic="random"))
        record = run_experiment(cfg)
        assert any(
            w["category"] == "ResampledInitialConditionWarning" for w in record.warnings
        )

    def test_default_snapshot_times_match_benchmark_panels(self, tmp_path):
        cfg = make_config(tmp_path, """
[run]
model = swe
scheme = fv-rons
[space]
cells = 64
""")
        record = run_experiment(cfg)
        taken = [t for t, _ in record.field_snapshots]
        assert np.allclose(taken, [0.0, 0.5, 2.0, 7.0, 10.0])

    def test_partial_failure_keeps_surviving_seeds(self, tmp_path, monkeypatch):
        import rons.runner as runner_mod

        cfg = make_config(tmp_path, """
[run]
model = swe
scheme = fv
seeds = 0..3
[space]
cells = 64
[time]
horizon = 0.5
cadence = 0.25
[swe]
ic = random
[sampling]
window = 0, 0.5
cadence = 0.25
bins = 4
""")
        original = runner_mod._swe_ensemble_batched
        calls = {"n": 0}

        def flaky(config, batch, *args, **kwargs):
            calls["n"] += 1
            if batch.shape[0] > 1:
                raise runner_mod.RonsError("synthetic batch failure")
            if calls["n"] == 3:  # second lone seed fails
                from rons.errors import DivergenceError

                raise DivergenceError("synthetic member failure")
            return original(config, batch, *args, **kwargs)

        monkeypatch.setattr(runner_mod, "_swe_ensemble_batched", flaky)
        record = run_experiment(cfg)
        assert len(record.seed_records) == 3
        assert len(record.failed_seeds) == 1
        assert record.failed_seeds[0]["stage"] == "integration"

    def test_batched_matches_per_seed_runs(self, tmp_path):
        # fixed dt so the batch and the lone runs share the time grid
        text = """
[run]
model = swe
scheme = fv-rons
seeds = 0..2
[space]
cells = 64
[time]
horizon = 1.0
cadence = 0.5
dt = 0.004
[swe]
ic = random
[sampling]
window = 0, 1
cadence = 0.5
"""
        cfg = make_config(tmp_path, text)
        record = run_experiment(cfg)

        swe_cfg = swe.SweConfig()
        grid = fv.build_grid(10.0, 64)
        scheme = swe.central_upwind_scheme(swe_cfg)
        quantities = core.ConstraintSet(fv.fv_metric(grid, 2), swe.swe_quantities(grid, swe_cfg))
        for seed_record in record.seed_records:
            U0 = swe.random_oscillatory_ic(seed_record["seed"], grid, swe_cfg)
            rhs = lambda U: fv.fvrons_rhs(U, scheme, grid, quantities)
            traj = integrate(
                rhs, U0, StepSchedule(t_final=1.0, dt=0.004),
                stepper=step_ssprk3, observe_every=0.5,
            )
            solo = np.array([np.max(np.abs(s[0])) for s in traj.states])
            batched_mean = seed_record["max_elevation_mean"]
            assert batched_mean == pytest.approx(np.mean(solo), rel=1e-11)


REST_ENSEMBLE = """
[run]
model = swe
scheme = fv-rons
seeds = 0..1
[space]
cells = 64
[time]
horizon = 10.0
cadence = 5.0
[swe]
ic = rest
[sampling]
window = 0, 10
cadence = 1.0
bins = 4
"""


class TestLakeAtRestEnsemble:
    """Criterion 3 on the batched path: the energy gradient vanishes at rest
    in every member, so it must be masked member by member."""

    @pytest.fixture
    def final_states(self, monkeypatch):
        import rons.runner as runner_mod

        states = []
        original = runner_mod.integrate

        def recording(rhs, y0, schedule, **kwargs):
            keep = lambda t, U: states.append(np.array(U))
            kwargs["observers"] = tuple(kwargs.get("observers", ())) + (keep,)
            return original(rhs, y0, schedule, **kwargs)

        monkeypatch.setattr(runner_mod, "integrate", recording)
        return states

    @staticmethod
    def _assert_at_rest(states):
        final = states[-1]
        assert final.shape == (2, 2, 64)
        assert np.max(np.abs(final)) <= 1e-12

    def test_run_experiment(self, tmp_path, final_states):
        record = run_experiment(make_config(tmp_path, REST_ENSEMBLE))
        assert record.failed_seeds == []
        assert [r["seed"] for r in record.seed_records] == [0, 1]
        assert all(r["max_elevation_mean"] <= 1e-12 for r in record.seed_records)
        self._assert_at_rest(final_states)

    def test_cli_ensemble(self, tmp_path, final_states):
        from rons.cli import main

        path = tmp_path / "rest.ini"
        path.write_text(REST_ENSEMBLE)
        out = tmp_path / "out"
        assert main(["ensemble", str(path), "--output", str(out)]) == 0
        assert not (out / "failed_seeds.json").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_seeds"] == 2 and metrics["n_failed"] == 0
        self._assert_at_rest(final_states)


class TestNlsRuns:
    def test_dns_single(self, tmp_path):
        text = """
[run]
model = nls-dns
seed = 1
[space]
modes = 64
length = 50.26548245743669
[time]
horizon = 2.0
[nls]
snapshot_cadence = 0.5
"""
        cfg = make_config(tmp_path, text)
        record = run_experiment(cfg)
        assert record.snapshot_series is not None
        assert record.metrics["mass_drift"] < 1e-8
        out = tmp_path / "out"
        write_outputs(record, out, "csv")
        loaded = io.load_snapshots(out / "snapshots.csv")
        assert np.allclose(loaded.snapshots, record.snapshot_series.snapshots)

    def test_dns_shorter_than_the_swe_observer_cadence(self, tmp_path):
        # the observer cadence is a shallow-water setting, so its default of
        # 1.0 does not bound an NLS horizon
        text = "[run]\nmodel = nls-dns\n[space]\nmodes = 32\n[time]\nhorizon = 0.5\n"
        record = run_experiment(make_config(tmp_path, text))
        assert record.snapshot_series.times[-1] == pytest.approx(0.5)

    def test_rom_single_with_saved_basis(self, tmp_path):
        series, _ = nls.dns_run(nls.nls_random_ic(100, 16 * np.pi, 64), 30.0, 0.5)
        basis = nls.compute_pod(series.snapshots, 4, 16 * np.pi)
        basis_path = tmp_path / "basis.npz"
        io.save_pod_basis(basis_path, basis)
        text = f"""
[run]
model = nls-rom
scheme = g-rons
seed = 2
[space]
modes = 64
length = {16 * np.pi!r}
[time]
horizon = 5.0
[nls]
basis = {basis_path}
rom_modes = 4
snapshot_cadence = 0.5
"""
        cfg = make_config(tmp_path, text)
        record = run_experiment(cfg)
        assert record.metrics["mass_drift"] < 1e-8
        assert record.metrics["energy_drift"] < 1e-8
        assert record.metrics["rom_modes"] == 4

    def test_training_dns_is_one_batch(self, monkeypatch):
        # all training seeds advance together, and the basis is bitwise the
        # one trained from per-seed runs
        config = RunConfig(model="nls-rom", scheme="tg", modes=64, length=16 * np.pi,
                           training_seeds=(100, 101, 102), training_horizon=3.0,
                           rom_modes=3).validate()
        serial = [nls.dns_run(nls.nls_random_ic(s, config.length, 64), 3.0, 0.5)[0]
                  for s in config.training_seeds]
        want = nls.compute_pod(np.vstack([s.snapshots for s in serial]), 3, config.length)
        batches = []
        original = nls.dns_run_batch

        def counted(ics, *args, **kwargs):
            batches.append(len(ics))
            return original(ics, *args, **kwargs)

        monkeypatch.setattr(nls, "dns_run_batch", counted)
        basis = runner._rom_basis(config)
        assert batches == [3]
        assert np.array_equal(basis.modes, want.modes)
        assert np.array_equal(basis.mean, want.mean)

    def test_rom_ensemble_histogram(self, tmp_path):
        series, _ = nls.dns_run(nls.nls_random_ic(100, 16 * np.pi, 64), 30.0, 0.5)
        basis = nls.compute_pod(series.snapshots, 4, 16 * np.pi)
        basis_path = tmp_path / "basis.npz"
        io.save_pod_basis(basis_path, basis)
        text = f"""
[run]
model = nls-rom
scheme = tg
seeds = 0..3
[space]
modes = 64
length = {16 * np.pi!r}
[time]
horizon = 4.0
[nls]
basis = {basis_path}
rom_modes = 4
snapshot_cadence = 0.5
[sampling]
window = 1, 4
bins = 6
"""
        cfg = make_config(tmp_path, text)
        record = run_experiment(cfg)
        assert len(record.seed_records) == 4
        edges, density = record.histogram
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, abs=1e-12)


def record_ndims(monkeypatch, module):
    """The number of axes of every initial state ``module.integrate`` receives."""
    ndims = []
    original = module.integrate

    def recording(rhs, y0, schedule, **kwargs):
        ndims.append(np.ndim(y0))
        return original(rhs, y0, schedule, **kwargs)

    monkeypatch.setattr(module, "integrate", recording)
    return ndims


class TestOneRunPath:
    """A single run integrates its state with no batch axis; an ensemble
    stacks its seeds along a leading one."""

    @pytest.mark.parametrize("scheme", ["fv", "fv-rons"])
    @pytest.mark.parametrize("seeds, ndim", [("", 2), ("seeds = 0..2", 3)])
    def test_swe(self, tmp_path, monkeypatch, scheme, seeds, ndim):
        ndims = record_ndims(monkeypatch, runner)
        run_experiment(make_config(tmp_path, f"""
[run]
model = swe
scheme = {scheme}
{seeds}
[space]
cells = 64
[time]
horizon = 0.5
cadence = 0.25
[swe]
ic = random
snapshot_times = 0, 0.5
[sampling]
window = 0, 0.5
cadence = 0.25
"""))
        assert ndims == [ndim]

    def test_nls_rom(self, tmp_path, monkeypatch, rng):
        length = 16 * np.pi
        snaps = 0.1 * (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64)))
        basis = nls.compute_pod(snaps, 3, length)
        basis_path = tmp_path / "basis.npz"
        io.save_pod_basis(basis_path, basis)
        a0s = 0.4 * rng.standard_normal((2, 6))
        ndims = record_ndims(monkeypatch, nls)
        nls.rom_run(a0s[0], basis, 0.5, 0.25, 1 / 32, quantities=nls.rom_quantities(basis))
        nls.rom_run_batch(a0s, basis, 0.5, 0.25, 1 / 32, enforce=True)
        run_experiment(make_config(tmp_path, f"""
[run]
model = nls-rom
scheme = g-rons
seed = 2
[space]
modes = 64
length = {length!r}
[time]
horizon = 0.5
[nls]
basis = {basis_path}
rom_modes = 3
snapshot_cadence = 0.25
"""))
        assert ndims == [1, 2, 1]


class TestPersistence:
    def test_snapshot_formats_roundtrip(self, tmp_path, rng):
        u = 0.1 * (rng.standard_normal((4, 32)) + 1j * rng.standard_normal((4, 32)))
        series = nls.SnapshotSeries(np.arange(4.0), u, 12.0)
        for fmt in ("csv", "json", "npz"):
            path = tmp_path / f"series.{fmt}"
            io.save_snapshots(path, series)
            loaded = io.load_snapshots(path)
            assert np.array_equal(loaded.times, series.times)
            assert np.array_equal(loaded.snapshots, series.snapshots)
            assert loaded.length == series.length

    def test_other_suffixes_are_csv(self, tmp_path, rng):
        u = 0.1 * (rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16)))
        series = nls.SnapshotSeries(np.arange(3.0), u, 12.0)
        path = tmp_path / "series.dat"
        io.save_snapshots(path, series)
        assert path.read_text().startswith("# snapshot-series\n")
        assert np.array_equal(io.load_snapshots(path).snapshots, series.snapshots)

    def test_pod_basis_roundtrip(self, tmp_path, rng):
        snaps = 0.1 * (rng.standard_normal((12, 32)) + 1j * rng.standard_normal((12, 32)))
        basis = nls.compute_pod(snaps, 3, 12.0)
        for name in ("basis.json", "basis.npz"):
            path = tmp_path / name
            io.save_pod_basis(path, basis)
            loaded = io.load_pod_basis(path)
            assert np.array_equal(loaded.modes, basis.modes)
            assert np.array_equal(loaded.mean, basis.mean)
            assert np.allclose(loaded.mode_derivatives, basis.mode_derivatives)
