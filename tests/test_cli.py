import json

import numpy as np
import pytest

from rons import io, nls
from rons.cli import main


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SWE_OK = """
[run]
model = swe
scheme = fv-rons
[space]
cells = 64
[time]
horizon = 0.5
cadence = 0.25
[swe]
snapshot_times = 0, 0.5
"""


class TestRunCommand:
    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWE_OK)
        code = main(["run", cfg, "--output", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "invariants.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_validation_error_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[run]\nmodel = swe\nscheme = g-rons\n")
        assert main(["run", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_numerical_failure_exit_two(self, tmp_path, capsys):
        # a fixed step far above the CFL limit blows the run up
        text = SWE_OK + "\n[swe]\nic = random\n"
        text = text.replace("[swe]\nsnapshot_times = 0, 0.5\n", "")
        text = text.replace("[time]\nhorizon = 0.5\ncadence = 0.25\n",
                            "[time]\nhorizon = 5\ncadence = 1\ndt = 1.0\n")
        cfg = write_config(tmp_path, text)
        code = main(["run", cfg, "--output", str(tmp_path / "boom")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_lagrange_solve_failure_exit_two(self, tmp_path, monkeypatch, capsys):
        # a LinAlgError inside the constraint solve is a numerical failure
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        cfg = write_config(tmp_path, SWE_OK)
        assert main(["run", cfg, "--output", str(tmp_path / "boom")]) == 2
        assert "constraint equation solve failed" in capsys.readouterr().err

    def test_output_root_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RONS_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg = write_config(tmp_path, SWE_OK + "[output]\ndirectory = sub\n")
        assert main(["run", cfg]) == 0
        assert (tmp_path / "root" / "sub" / "metrics.json").exists()


class TestEnsembleCommand:
    def test_seed_override(self, tmp_path, capsys):
        text = SWE_OK + "[swe]\nic = random\n[sampling]\nwindow = 0, 0.5\ncadence = 0.25\nbins = 4\n"
        text = text.replace("[swe]\nsnapshot_times = 0, 0.5\n", "")
        cfg = write_config(tmp_path, text)
        code = main(["ensemble", cfg, "--seeds", "0..2",
                     "--output", str(tmp_path / "ens")])
        assert code == 0
        assert (tmp_path / "ens" / "histogram.csv").exists()
        with open(tmp_path / "ens" / "metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["n_seeds"] == 3

    def test_missing_seeds_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path, SWE_OK)
        assert main(["ensemble", cfg]) == 1


class TestPodCommand:
    def test_basis_from_snapshot_files(self, tmp_path, capsys, rng):
        length = 16 * np.pi
        series, _ = nls.dns_run(nls.nls_random_ic(100, length, 64), 10.0, 0.5)
        snap_path = tmp_path / "snaps.npz"
        io.save_snapshots(snap_path, series, "npz")
        out = tmp_path / "basis.json"
        code = main(["pod", str(snap_path), "--modes", "3", "--out", str(out)])
        assert code == 0
        basis = io.load_pod_basis(out)
        assert basis.n_modes == 3

    def test_rank_failure_exit_two(self, tmp_path, rng):
        length = 12.0
        constant = nls.SnapshotSeries(
            np.arange(8.0), np.tile(np.exp(1j * np.arange(32)), (8, 1)), length
        )
        path = tmp_path / "flat.npz"
        io.save_snapshots(path, constant, "npz")
        assert main(["pod", str(path), "--modes", "2",
                     "--out", str(tmp_path / "b.json")]) == 2


class TestMetricsCommand:
    def test_errors_between_series(self, tmp_path, capsys, rng):
        u = 0.1 * (rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32)))
        truth = nls.SnapshotSeries(np.arange(6.0), u, 10.0)
        rom = nls.SnapshotSeries(np.arange(6.0), u * (1 + 1e-3), 10.0)
        t_path, r_path = tmp_path / "t.npz", tmp_path / "r.npz"
        io.save_snapshots(t_path, truth, "npz")
        io.save_snapshots(r_path, rom, "npz")
        out = tmp_path / "metrics.json"
        code = main(["metrics", str(t_path), str(r_path), "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            payload = json.load(fh)
        assert payload["total_relative_error"] == pytest.approx(1e-6, rel=1e-6)

    def test_misaligned_series_exit_one(self, tmp_path, rng):
        u = rng.standard_normal((4, 16)) + 0j
        a = nls.SnapshotSeries(np.arange(4.0), u, 10.0)
        b = nls.SnapshotSeries(np.arange(4.0) + 0.5, u, 10.0)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        io.save_snapshots(pa, a, "npz")
        io.save_snapshots(pb, b, "npz")
        assert main(["metrics", str(pa), str(pb)]) == 1
