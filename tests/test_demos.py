"""Demos 01-03, the ones that call the constraint entry points, run as
written at shortened constants, with their outputs under ``tmp_path``."""

import sys
from pathlib import Path

import numpy as np

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, tmp_path, monkeypatch, constants):
    """Execute ``demos/<name>`` with each ``constants`` line replaced once
    and its ``__file__`` in ``tmp_path``; returns its namespace."""
    path = DEMOS / name
    code = path.read_text()
    for old, new in constants.items():
        assert code.count(old) == 1, old
        code = code.replace(old, new)
    monkeypatch.setitem(sys.modules, "matplotlib", None)   # no plots
    namespace = {"__file__": str(tmp_path / name), "__name__": "__main__"}
    exec(compile(code, str(path), "exec"), namespace)
    return namespace


def relative_change(history, key):
    return abs(history[-1][key] - history[0][key]) / abs(history[0][key])


def test_constrained_projection_basics(tmp_path, monkeypatch, capsys):
    ns = run_demo("01_constrained_projection_basics.py", tmp_path, monkeypatch,
                  {"dt, steps = 1e-3, 5000": "dt, steps = 1e-3, 500"})
    assert abs(2 * ns["a"] @ ns["constrained"]) <= 1e-15
    assert abs(np.linalg.norm(ns["state"]) - 1.0) < 1e-3
    assert np.max(np.abs(ns["z_dot"] - ns["reference"])) < 1e-12
    assert "radial rate 0.0" in capsys.readouterr().out


def test_swe_gaussian_pulse(tmp_path, monkeypatch):
    ns = run_demo("02_swe_gaussian_pulse.py", tmp_path, monkeypatch,
                  {"CELLS = 512": "CELLS = 64", "HORIZON = 10.0": "HORIZON = 1.0"})
    assert ns["enforced"].metric is ns["fv"].fv_metric(ns["grid"], 2)
    plain, conserving = ns["plain"].diagnostics, ns["conserving"].diagnostics
    assert relative_change(conserving, "total_energy") < 1e-3 < relative_change(
        plain, "total_energy")
    table = np.loadtxt(tmp_path / "output" / "gaussian_pulse" / "final_elevation.csv",
                       delimiter=",", skiprows=1)
    assert table.shape == (64, 3)


def test_swe_random_waves(tmp_path, monkeypatch):
    ns = run_demo("03_swe_random_waves.py", tmp_path, monkeypatch,
                  {"CELLS = 256": "CELLS = 64", "HORIZON = 40.0": "HORIZON = 5.0"})
    plain, conserving = ns["plain"].diagnostics, ns["conserving"].diagnostics
    assert relative_change(conserving, "energy") < 1e-3 < relative_change(plain, "energy")
    history = np.loadtxt(tmp_path / "output" / "random_waves" / "history.csv",
                         delimiter=",", skiprows=1)
    assert history[:, 0].tolist() == [0.0, 5.0]

