import math

import pytest

from rons.config import parse_config
from rons.errors import ConfigError


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_minimal_swe_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[run]\nmodel = swe\nscheme = fv-rons\n"))
        assert cfg.cells == 1024
        assert cfg.length == 10.0
        assert cfg.horizon == 10.0
        assert cfg.stepper == "ssprk3"
        # fv-rons enforces all three declared quantities by default
        assert cfg.enforce == ("total_elevation", "total_velocity", "total_energy")

    def test_fv_scheme_enforces_nothing(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[run]\nmodel = swe\nscheme = fv\n"))
        assert cfg.enforce == ()

    def test_nls_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[run]\nmodel = nls-rom\nscheme = g-rons\n"))
        assert cfg.length == pytest.approx(32.0 * math.pi)
        assert cfg.modes == 256
        assert cfg.rom_modes == 9
        assert cfg.horizon == 100.0
        assert cfg.stepper == "rk4"


class TestValidation:
    def test_grons_with_swe_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="incompatible"):
            parse_config(write(tmp_path, "[run]\nmodel = swe\nscheme = g-rons\n"))

    def test_cadence_beyond_horizon_rejected(self, tmp_path):
        text = "[run]\nmodel = swe\nscheme = fv\n[time]\nhorizon = 1.0\ncadence = 2.0\n"
        with pytest.raises(ConfigError, match="cadence"):
            parse_config(write(tmp_path, text))

    def test_unknown_keys_listed(self, tmp_path):
        text = "[run]\nmodel = swe\nscheme = fv\nbanana = 1\n[time]\nhorzon = 2\n"
        with pytest.raises(ConfigError) as info:
            parse_config(write(tmp_path, text))
        message = str(info.value)
        assert "run.banana" in message and "time.horzon" in message

    def test_unknown_model(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown model"):
            parse_config(write(tmp_path, "[run]\nmodel = heat\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    def test_unknown_quantity(self, tmp_path):
        text = "[run]\nmodel = swe\nscheme = fv-rons\n[swe]\nenforce = vorticity\n"
        with pytest.raises(ConfigError, match="vorticity"):
            parse_config(write(tmp_path, text))


ENSEMBLE = {
    "run": "model = swe\nscheme = fv\nseeds = 0..1",
    "space": "cells = 16",
    "time": "horizon = 0.5\ncadence = 0.25",
    "swe": "ic = random\nsnapshot_times =",
    "sampling": "window = 0, 0.5\ncadence = 0.25\nbins = 4",
}


def ensemble_text(**changes):
    """A small SWE ensemble config with whole sections replaced."""
    sections = {**ENSEMBLE, **changes}
    return "".join(f"[{name}]\n{body}\n" for name, body in sections.items())


#: config changes that are not runnable, and a word the error must contain
BAD_VALUES = {
    "cells not a number": ({"space": "cells = abc"}, "space.cells"),
    "length not a number": ({"space": "cells = 16\nlength = ten"}, "space.length"),
    "zero sampling cadence": ({"sampling": "window = 0, 0.5\ncadence = 0"}, "cadence"),
    "negative sampling cadence": ({"sampling": "window = 0, 0.5\ncadence = -1"}, "cadence"),
    "zero snapshot cadence": ({"nls": "snapshot_cadence = 0"}, "snapshot cadence"),
    "negative snapshot cadence": ({"nls": "snapshot_cadence = -0.5"}, "snapshot cadence"),
    "no histogram bins": ({"sampling": "window = 0, 0.5\nbins = 0"}, "bin"),
    "bins not a number": ({"sampling": "window = 0, 0.5\nbins = many"}, "sampling.bins"),
    "one-number window": ({"sampling": "window = 25"}, "two numbers"),
    "three-number window": ({"sampling": "window = 0, 0.25, 0.5"}, "two numbers"),
    "one-number error window": ({"nls": "error_window = 25"}, "two numbers"),
}


class TestRejectedValues:
    def test_base_config_is_valid(self, tmp_path):
        cfg = parse_config(write(tmp_path, ensemble_text()))
        assert (cfg.seeds, cfg.bins, cfg.sample_window) == ((0, 1), 4, (0.0, 0.5))

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_rejected_with_config_error(self, tmp_path, case):
        changes, word = BAD_VALUES[case]
        with pytest.raises(ConfigError, match=word):
            parse_config(write(tmp_path, ensemble_text(**changes)))


class TestSeeds:
    def test_range(self, tmp_path):
        cfg = parse_config(
            write(tmp_path, "[run]\nmodel = swe\nscheme = fv\nseeds = 3..6\n")
        )
        assert cfg.seeds == (3, 4, 5, 6)

    def test_comma_list(self, tmp_path):
        cfg = parse_config(
            write(tmp_path, "[run]\nmodel = swe\nscheme = fv\nseeds = 1, 5, 9\n")
        )
        assert cfg.seeds == (1, 5, 9)

    def test_empty_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "[run]\nmodel = swe\nscheme = fv\nseeds = 5..2\n"))


class TestOverrides:
    def test_cli_style_overrides(self, tmp_path):
        path = write(tmp_path, "[run]\nmodel = swe\nscheme = fv\n")
        cfg = parse_config(
            path, overrides={"run.seeds": "0..3", "output.directory": "elsewhere"}
        )
        assert cfg.seeds == (0, 1, 2, 3)
        assert cfg.out_dir == "elsewhere"

    def test_output_root_env(self, tmp_path, monkeypatch):
        path = write(tmp_path, "[run]\nmodel = swe\nscheme = fv\n[output]\ndirectory = sub\n")
        cfg = parse_config(path)
        monkeypatch.setenv("RONS_OUTPUT_ROOT", str(tmp_path / "root"))
        assert cfg.resolved_out_dir() == tmp_path / "root" / "sub"
