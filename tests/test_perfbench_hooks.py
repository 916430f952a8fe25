"""The traced benchmark patches package entry points by name; these checks
keep those names alive and the traced outputs identical to untraced ones.

The benchmark rebuilds each conserved quantity from its name, value and
gradient only, and each flux scheme from its ``rhs`` and ``cfl_dt`` only, so
a correction or a flux that relied on anything else carried by those objects
would compute something different in traced passes.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from rons import core, fv, nls, runner, swe
from rons.config import RunConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def test_every_patched_entry_point_resolves():
    for module, attribute, _ in layers.patches(Tracer()):
        assert callable(getattr(module, attribute, None)), f"{module.__name__}.{attribute}"


def _outputs(U, A, basis):
    swe_cfg = swe.SweConfig()
    grid = fv.build_grid(10.0, U.shape[-1])
    scheme = swe.central_upwind_scheme(swe_cfg)
    swe_qs = core.ConstraintSet(fv.fv_metric(grid, 2), swe.swe_quantities(grid, swe_cfg))
    rom_qs = core.ConstraintSet(basis.metric, nls.rom_quantities(basis))
    return [
        fv.fvrons_rhs(U, scheme, grid, swe_qs),
        fv.fvrons_rhs(U[0], scheme, grid, swe_qs),
        nls.rom_rhs(A, basis, rom_qs),
        nls.rom_rhs(A[0], basis, rom_qs),
    ]


def test_rewrapped_quantities_leave_outputs_bitwise_unchanged(rng):
    swe_cfg = swe.SweConfig()
    grid = fv.build_grid(10.0, 64)
    U = np.stack([swe.random_oscillatory_ic(s, grid, swe_cfg) for s in range(3)])
    U[:, 1] = 0.3 * np.roll(U[:, 0], 5, axis=-1)
    snaps = 0.1 * (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64)))
    basis = nls.compute_pod(snaps, 4, 16.0 * np.pi)
    A = 0.4 * rng.standard_normal((3, 8))

    untraced = _outputs(U, A, basis)
    tracer = Tracer()
    with tracer.installed(layers.patches(tracer)):
        traced = _outputs(U, A, basis)
    names = {span[0] for span in tracer.spans}
    assert {"swe.grad", "nls.rom.grad", "core.apply_invariant_correction"} <= names
    for before, after in zip(untraced, traced):
        assert np.array_equal(before, after)

    # a single reduced-model run chooses its one-pass route by the values,
    # which the rebuild keeps, so both passes take it and agree bitwise
    built = []
    choose = nls._grons_single_rhs

    def spy(*args):
        built.append(choose(*args))
        return built[-1]

    def single_run():
        series, diag = nls.rom_run(A[0], basis, 0.25, 0.125, 1 / 32,
                                   quantities=nls.rom_quantities(basis))
        return [series.times, series.snapshots, diag["mass"], diag["energy"]]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nls, "_grons_single_rhs", spy)
        untraced = single_run()
        tracer = Tracer()
        with tracer.installed(layers.patches(tracer)):
            traced = single_run()
    assert len(built) == 2 and all(callable(rhs) for rhs in built)
    names = {span[0] for span in tracer.spans}
    assert "nls.integrate" in names
    assert not names & {"nls.rom.grad", "core.apply_invariant_correction"}
    for before, after in zip(untraced, traced, strict=True):
        assert np.array_equal(before, after)


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
def test_each_constrained_evaluation_solves_once(rng, batched):
    # the traced core.lagrange.* metrics count one solve per evaluation,
    # whichever path (float or numpy) the solve takes inside
    swe_cfg = swe.SweConfig()
    grid = fv.build_grid(10.0, 64)
    U = np.stack([swe.random_oscillatory_ic(s, grid, swe_cfg) for s in range(3)])
    U[:, 1] = 0.3 * np.roll(U[:, 0], 5, axis=-1)
    snaps = 0.1 * (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64)))
    basis = nls.compute_pod(snaps, 4, 16.0 * np.pi)
    A = 0.4 * rng.standard_normal((3, 8))
    if not batched:
        U, A = U[0], A[0]
    scheme = swe.central_upwind_scheme(swe_cfg)
    swe_qs = core.ConstraintSet(fv.fv_metric(grid, 2), swe.swe_quantities(grid, swe_cfg))
    rom_qs = core.ConstraintSet(basis.metric, nls.rom_quantities(basis))
    calls = [lambda: fv.fvrons_rhs(U, scheme, grid, swe_qs),
             lambda: nls.rom_rhs(A, basis, rom_qs)]
    for call in calls:
        tracer = Tracer()
        with tracer.installed(layers.patches(tracer)):
            call()
        names = [span[0] for span in tracer.spans]
        assert names.count("core.solve_lagrange") == 1
        assert names.count("core.apply_invariant_correction") == 1


def _dns_outputs():
    ics = [nls.nls_random_ic(s, 16.0 * np.pi, 32) for s in (1, 2)]
    solo, solo_diag = nls.dns_run(ics[0], 0.5, 0.25)
    batch, batch_diag = nls.dns_run_batch(ics, 0.5, 0.25)
    arrays = [solo.times, solo.snapshots] + [s.snapshots for s in batch]
    for diag in (solo_diag, batch_diag):
        arrays += [diag[k] for k in ("mass", "energy", "mass_drift", "energy_drift")]
    return arrays


def test_traced_dns_runs_give_identical_outputs():
    untraced = _dns_outputs()
    tracer = Tracer()
    with tracer.installed(layers.patches(tracer)):
        traced = _dns_outputs()
    for before, after in zip(untraced, traced, strict=True):
        assert np.array_equal(before, after)


def test_each_dns_run_records_one_dns_span():
    # a single run is a batch of one, so the setup.nls.dns.* metrics see it
    # once, and a batched run is not counted again
    ic = nls.nls_random_ic(1, 16.0 * np.pi, 32)
    runs = {1: lambda: nls.dns_run(ic, 0.5, 0.25),
            2: lambda: nls.dns_run_batch([ic, ic], 0.5, 0.25)}
    for members, run in runs.items():
        tracer = Tracer()
        with tracer.installed(layers.patches(tracer)):
            _, diag = run()
        names = [span[0] for span in tracer.spans]
        assert names.count(layers.DNS) == 1
        counted = tracer.counters[tracer.run]["nls.dns.member_steps"]
        assert counted == members * diag["n_steps"]


def _swe_run_files(config, out_dir):
    record = runner.run_experiment(config)
    paths = runner.write_outputs(record, out_dir)
    # telemetry.json holds wall times; every other file is deterministic
    return {p.relative_to(out_dir): p.read_bytes() for p in paths
            if p.name != "telemetry.json"}


SINGLE = {"seed": 3, "cadence": 0.1, "snapshot_times": (0.3,)}
ENSEMBLE = {"seeds": (0, 1, 2), "cadence": 0.3, "snapshot_times": (),
            "sample_window": (0.15, 0.3), "sample_cadence": 0.1}


@pytest.mark.parametrize("scheme", ["fv", "fv-rons"])
@pytest.mark.parametrize("run", [SINGLE, ENSEMBLE], ids=["single", "ensemble"])
def test_traced_swe_runs_write_identical_files(tmp_path, scheme, run):
    enforce = ("total_elevation", "total_velocity", "total_energy")
    config = RunConfig(
        model="swe", scheme=scheme, swe_ic="random", cells=64, horizon=0.3,
        stepper="ssprk3", enforce=enforce if scheme == "fv-rons" else (), **run,
    ).validate()
    untraced = _swe_run_files(config, tmp_path / "untraced")
    tracer = Tracer()
    with tracer.installed(layers.patches(tracer)):
        traced = _swe_run_files(config, tmp_path / "traced")
    names = {span[0] for span in tracer.spans}
    assert {"swe.flux", "swe.cfl", "runner.run_experiment"} <= names
    assert traced.keys() == untraced.keys() and traced
    for name, data in untraced.items():
        assert traced[name] == data, name
