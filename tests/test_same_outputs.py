"""The config shortening and output comparison of ``tools/same_outputs.py``,
without exporting a revision or running a config."""

import configparser
import json
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(_TOOLS))
import same_outputs  # noqa: E402

from rons.config import parse_config  # noqa: E402

_CONFIGS = sorted((_TOOLS.parent / "configs").glob("*.ini"))


def _parsed(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return parser


class TestShorten:
    @pytest.mark.parametrize("path", _CONFIGS, ids=lambda p: p.stem)
    def test_shortened_config_parses(self, tmp_path, path):
        text, _ = same_outputs.shorten(path.read_text())
        short = tmp_path / path.name
        short.write_text(text)
        full = parse_config(path)
        config = parse_config(short)
        assert config.model == full.model and config.scheme == full.scheme
        assert config.horizon < full.horizon

    def test_ensemble_window_and_seeds(self):
        text, ensemble = same_outputs.shorten(
            "[run]\nmodel = swe\nscheme = fv-rons\nseeds = 0..19\n"
            "[time]\nhorizon = 75.0\n[sampling]\nwindow = 25, 75\nbins = 40\n")
        parser = _parsed(text)
        assert ensemble
        assert parser.get("run", "seeds") == "0..5"
        assert parser.get("time", "horizon") == "27"
        assert parser.get("sampling", "window") == "25, 27"
        assert parser.get("sampling", "bins") == "40"   # the rest is kept

    def test_single_runs(self):
        swe, ensemble = same_outputs.shorten("[run]\nmodel = swe\n")
        assert not ensemble and _parsed(swe).get("time", "horizon") == "2"
        dns, _ = same_outputs.shorten("[run]\nmodel = nls-dns\n[time]\nhorizon = 100\n")
        assert _parsed(dns).get("time", "horizon") == "3"
        rom = _parsed(same_outputs.shorten(
            "[run]\nmodel = nls-rom\n[nls]\ntraining_horizon = 100\nrom_modes = 9\n")[0])
        assert rom.get("time", "horizon") == "5"
        assert rom.get("nls", "training_horizon") == "5"
        assert rom.get("nls", "rom_modes") == "9"

    def test_reduced_model_ensemble_samples_inside_the_shortened_run(self):
        text, ensemble = same_outputs.shorten(
            "[run]\nmodel = nls-rom\nscheme = g-rons\nseeds = 0..3\n"
            "[time]\nhorizon = 100\n[sampling]\nwindow = 25, 75\n")
        parser = _parsed(text)
        assert ensemble
        assert parser.get("run", "seeds") == "0..3"
        assert parser.get("time", "horizon") == "5"
        lo, hi = map(float, parser.get("sampling", "window").split(","))
        assert 0 <= lo < hi <= 5

    def test_dns_ensemble_samples_inside_the_shortened_run(self):
        text, ensemble = same_outputs.shorten(
            "[run]\nmodel = nls-dns\nseeds = 100..103\n"
            "[time]\nhorizon = 100\n[sampling]\nwindow = 25, 75\n")
        parser = _parsed(text)
        assert ensemble
        assert parser.get("run", "seeds") == "100..103"
        assert parser.get("time", "horizon") == "3"
        lo, hi = map(float, parser.get("sampling", "window").split(","))
        assert 0 <= lo < hi <= 3

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="heat"):
            same_outputs.shorten("[run]\nmodel = heat\n")


def _tree(root, files):
    for name, content in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    return root


def _config_json(directory, horizon=2.0):
    return json.dumps({"model": "swe", "horizon": horizon, "out_dir": directory,
                       "raw": {"run": {"model": "swe"}, "output": {"directory": directory}}})


class TestDifferingFiles:
    def test_identical_trees(self, tmp_path):
        files = {"a/metrics.json": "{}", "a/snapshots/t_0.csv": "x,h\n0,1\n"}
        assert same_outputs.differing_files(_tree(tmp_path / "p", files),
                                            _tree(tmp_path / "c", files)) == []

    def test_names_every_differing_and_one_sided_file(self, tmp_path):
        parent = _tree(tmp_path / "p", {"a/metrics.json": "{}", "a/x.csv": "1\n",
                                        "a/gone.csv": "", "b/same.csv": "s"})
        change = _tree(tmp_path / "c", {"a/metrics.json": "{ }", "a/x.csv": "2\n",
                                        "a/new.csv": "", "b/same.csv": "s"})
        assert same_outputs.differing_files(parent, change) == [
            "a/gone.csv", "a/metrics.json", "a/new.csv", "a/x.csv"]

    def test_telemetry_is_skipped(self, tmp_path):
        parent = _tree(tmp_path / "p", {"a/telemetry.json": '{"s": 1.0}'})
        change = _tree(tmp_path / "c", {"a/telemetry.json": '{"s": 2.0}'})
        assert same_outputs.differing_files(parent, change) == []

    def test_config_echo_ignores_the_output_directory_only(self, tmp_path):
        parent = _tree(tmp_path / "p", {"a/config.json": _config_json("/w/parent_out/a")})
        change = _tree(tmp_path / "c", {"a/config.json": _config_json("/w/change_out/a")})
        assert same_outputs.differing_files(parent, change) == []
        other = _tree(tmp_path / "o", {"a/config.json": _config_json("/w/o/a", horizon=3.0)})
        assert same_outputs.differing_files(parent, other) == ["a/config.json"]
