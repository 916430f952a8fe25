import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rons import core, io, nls
from rons.cli import main

from test_config import BAD_VALUES, ensemble_text


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

    def test_snapshot_requests_on_one_observed_time_written_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWE_OK.replace("0, 0.5", "0, 0.5, 0.5000000000001"))
        out = tmp_path / "out"
        assert main(["run", cfg, "--output", str(out)]) == 0
        files = [p for p in out.rglob("*") if p.is_file()]
        assert f"wrote {len(files)} files" in capsys.readouterr().out
        index = (out / "snapshots" / "index.csv").read_text()
        assert index == "time,file\n0.0,t_0.0.csv\n0.5,t_0.5.csv\n"

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
        # a LinAlgError inside the constraint solve is a numerical failure;
        # the float path for small unbatched systems declines, so the solve
        # goes through numpy's, which raises
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(core, "_solve_small", lambda c, b: None)
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


class TestUnrunnableConfigs:
    """Checks made when the run starts still end in an error line, exit 1
    and no output."""

    def test_repeated_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ensemble_text())
        assert main(["ensemble", cfg, "--seeds", "3,3,4",
                     "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run.seeds names seed(s) 3 more than once")
        assert not (tmp_path / "out").exists()

    def test_window_past_the_horizon(self, tmp_path, capsys):
        cfg = write_config(tmp_path, ensemble_text(sampling="window = 25, 75\nbins = 4"))
        assert main(["ensemble", cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sampling window starts at 25.0") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestBadConfigs:
    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_exit_one_with_error_line(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, BAD_VALUES[case][0])
        assert main(["ensemble", cfg, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cadence", ["0", "-1"])
    def test_non_positive_cadence_returns(self, tmp_path, cadence):
        # in a subprocess with a timeout, so a regression to the endless
        # observation loop fails here instead of hanging the suite
        text = ensemble_text(sampling=f"window = 0, 0.5\ncadence = {cadence}")
        cfg = write_config(tmp_path, text)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "rons.cli", "ensemble", cfg,
             "--output", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")


class TestPodCommand:
    def test_basis_from_snapshot_files(self, tmp_path, capsys, rng):
        length = 16 * np.pi
        series, _ = nls.dns_run(nls.nls_random_ic(100, length, 64), 10.0, 0.5)
        snap_path = tmp_path / "snaps.npz"
        io.save_snapshots(snap_path, series)
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
        io.save_snapshots(path, constant)
        assert main(["pod", str(path), "--modes", "2",
                     "--out", str(tmp_path / "b.json")]) == 2

    @pytest.mark.parametrize("modes", ["0", "-2"])
    def test_fewer_than_one_mode_exit_one(self, tmp_path, capsys, rng, modes):
        u = 0.1 * (rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64)))
        path = tmp_path / "snaps.npz"
        io.save_snapshots(path, nls.SnapshotSeries(np.arange(30.0), u, 16 * np.pi))
        out = tmp_path / "basis.json"
        assert main(["pod", str(path), "--modes", modes, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def _snapshot_csv(rows, n_grid=None):
    head = "# snapshot-series\n# length=10.0\n" + (f"# n_grid={n_grid}\n" if n_grid else "")
    return head + "".join(row + "\n" for row in rows)


MALFORMED_SNAPSHOTS = {
    "header-only-csv": {"a.csv": _snapshot_csv(["time,re_0,im_0"], 1)},
    "one-value-per-point": {"a.csv": _snapshot_csv(["0.0,1.0,2.0", "1.0,1.0,2.0"], 2)},
    "two-values-one-point": {"a.csv": _snapshot_csv(["0.0,1.0", "1.0,1.0"])},
    "jagged-row": {"a.csv": _snapshot_csv(["0.0,1.0,0.0,1.0,0.0", "1.0,1.0,0.0"])},
    "non-numeric": {"a.csv": _snapshot_csv(["0.0,1.0,x"])},
    "empty-json": {"a.json": json.dumps({"kind": "snapshot-series", "length": 10.0,
                                         "times": [], "real": [], "imag": []})},
    # equal values, so broadcasting one point against two would read 0 error
    "different-grids": {"a.csv": _snapshot_csv(["0.0,1.0,0.0", "1.0,1.0,0.0"]),
                        "b.csv": _snapshot_csv(["0.0,1.0,0.0,1.0,0.0", "1.0,1.0,0.0,1.0,0.0"])},
}


@pytest.mark.parametrize("command", ["pod", "metrics"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SNAPSHOTS))
def test_malformed_snapshots_exit_one(tmp_path, capsys, case, command):
    paths = []
    for name, text in MALFORMED_SNAPSHOTS[case].items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    out = tmp_path / "basis.json"
    if command == "pod":
        argv = ["pod", *paths, "--modes", "1", "--out", str(out)]
    else:
        argv = ["metrics", paths[0], paths[-1]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


MISSING_FILE_COMMANDS = {
    "pod": lambda missing, tmp_path: ["pod", missing, "--modes", "1",
                                      "--out", str(tmp_path / "basis.json")],
    "metrics": lambda missing, tmp_path: ["metrics", missing, missing],
    "run-basis": lambda missing, tmp_path: ["run", write_config(tmp_path, f"""
[run]
model = nls-rom
scheme = g-rons
[nls]
basis = {missing}
rom_modes = 3
"""), "--output", str(tmp_path / "out")],
}


@pytest.mark.parametrize("suffix", [".csv", ".npz", ".json"])
@pytest.mark.parametrize("command", sorted(MISSING_FILE_COMMANDS))
def test_missing_file_exit_one_naming_it(tmp_path, capsys, command, suffix):
    missing = str(tmp_path / f"nope{suffix}")
    assert main(MISSING_FILE_COMMANDS[command](missing, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert missing in err
    assert not (tmp_path / "basis.json").exists()


class TestMetricsCommand:
    def test_errors_between_series(self, tmp_path, capsys, rng):
        u = 0.1 * (rng.standard_normal((6, 32)) + 1j * rng.standard_normal((6, 32)))
        truth = nls.SnapshotSeries(np.arange(6.0), u, 10.0)
        rom = nls.SnapshotSeries(np.arange(6.0), u * (1 + 1e-3), 10.0)
        t_path, r_path = tmp_path / "t.npz", tmp_path / "r.npz"
        io.save_snapshots(t_path, truth)
        io.save_snapshots(r_path, rom)
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
        io.save_snapshots(pa, a)
        io.save_snapshots(pb, b)
        assert main(["metrics", str(pa), str(pb)]) == 1
