import math

import pytest

from rons.config import SWE_QUANTITIES, RunConfig, parse_config
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
        assert cfg.dt == 1.0 / 32

    @pytest.mark.parametrize("model, scheme", [
        ("swe", None), ("swe", "fv-rons"), ("nls-dns", None), ("nls-rom", None),
        ("nls-rom", "g-rons"),
    ])
    def test_keywords_and_minimal_file_agree(self, tmp_path, model, scheme):
        # scheme None: left unset on both paths, so the model's default
        run = {"model": model} if scheme is None else {"model": model, "scheme": scheme}
        text = "[run]\n" + "".join(f"{key} = {value}\n" for key, value in run.items())
        from_file = vars(parse_config(write(tmp_path, text)))
        from_keywords = vars(RunConfig(**run).validate())
        assert from_file.pop("raw") == {"run": run}
        assert from_keywords.pop("raw") == {}
        assert from_file == from_keywords


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

    def test_fv_with_enforced_quantities_rejected(self, tmp_path):
        text = "[run]\nmodel = swe\nscheme = fv\n[swe]\nenforce = total_energy\n"
        with pytest.raises(ConfigError, match="swe.enforce"):
            parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match="swe.enforce"):
            RunConfig(model="swe", scheme="fv", enforce=SWE_QUANTITIES).validate()

    def test_fvrons_with_empty_enforce_rejected(self, tmp_path):
        text = "[run]\nmodel = swe\nscheme = fv-rons\n[swe]\nenforce =\n"
        with pytest.raises(ConfigError, match="swe.enforce"):
            parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match="swe.enforce"):
            RunConfig(model="swe", scheme="fv-rons", enforce=()).validate()

    def test_unknown_quantity(self, tmp_path):
        text = "[run]\nmodel = swe\nscheme = fv-rons\n[swe]\nenforce = vorticity\n"
        with pytest.raises(ConfigError, match="vorticity"):
            parse_config(write(tmp_path, text))


SWE_ONLY = ["space.cells", "time.cadence", "time.stepper", "time.cfl_factor",
            "sampling.cadence", "swe.ic", "swe.theta", "swe.snapshot_times", "swe.enforce"]
ROM_ONLY = ["nls.rom_modes", "nls.basis", "nls.training_seeds", "nls.training_horizon",
            "nls.ic", "nls.ic_amplitude"]
#: model -> the keys it does not read
UNREAD = {
    "swe": ["space.modes", "nls.snapshot_cadence"] + ROM_ONLY,
    "nls-dns": SWE_ONLY + ROM_ONLY,
    "nls-rom": SWE_ONLY,
}


class TestKeysByModel:
    """A model accepts only the keys it reads."""

    @pytest.mark.parametrize("model, dotted", [(model, dotted) for model, keys in UNREAD.items()
                                               for dotted in keys])
    def test_unread_key_rejected_by_name(self, tmp_path, model, dotted):
        # rejected before conversion, so any value will do
        section, key = dotted.split(".")
        text = f"[run]\nmodel = {model}\n[{section}]\n{key} = 1\n"
        with pytest.raises(ConfigError, match=f"does not read: {dotted}$"):
            parse_config(write(tmp_path, text))


ENSEMBLE = {
    "run": "model = swe\nscheme = fv\nseeds = 0..1",
    "space": "cells = 16",
    "time": "horizon = 0.5\ncadence = 0.25",
    "swe": "ic = random\nsnapshot_times =",
    "sampling": "window = 0, 0.5\ncadence = 0.25\nbins = 4",
}


NLS_ENSEMBLE = {
    "run": "model = nls-dns\nseeds = 0..1",
    "space": "modes = 16",
    "time": "horizon = 0.5",
    "nls": "snapshot_cadence = 0.25",
    "sampling": "window = 0, 0.5\nbins = 4",
}


ROM_ENSEMBLE = {**NLS_ENSEMBLE, "run": "model = nls-rom\nseeds = 0..1"}


def ensemble_text(base=ENSEMBLE, **changes):
    """A small ensemble config (SWE unless ``base`` says otherwise) with
    whole sections replaced."""
    sections = {**base, **changes}
    return "".join(f"[{name}]\n{body}\n" for name, body in sections.items())


#: config texts that are not runnable, and a word the error must contain
BAD_VALUES = {
    "cells not a number": (ensemble_text(space="cells = abc"), "space.cells"),
    "length not a number": (ensemble_text(space="cells = 16\nlength = ten"), "space.length"),
    "zero sampling cadence": (ensemble_text(sampling="window = 0, 0.5\ncadence = 0"), "cadence"),
    "negative sampling cadence": (ensemble_text(sampling="window = 0, 0.5\ncadence = -1"),
                                  "cadence"),
    "zero snapshot cadence": (ensemble_text(NLS_ENSEMBLE, nls="snapshot_cadence = 0"),
                              "snapshot cadence"),
    "negative snapshot cadence": (ensemble_text(NLS_ENSEMBLE, nls="snapshot_cadence = -0.5"),
                                  "snapshot cadence"),
    "no histogram bins": (ensemble_text(sampling="window = 0, 0.5\nbins = 0"), "bin"),
    "bins not a number": (ensemble_text(sampling="window = 0, 0.5\nbins = many"),
                          "sampling.bins"),
    "one-number window": (ensemble_text(sampling="window = 25"), "two numbers"),
    "three-number window": (ensemble_text(sampling="window = 0, 0.25, 0.5"), "two numbers"),
    "no reduced modes": (ensemble_text(ROM_ENSEMBLE, nls="snapshot_cadence = 0.25\n"
                                       "rom_modes = 0"), "nls.rom_modes"),
    "fractional training seed": (ensemble_text(ROM_ENSEMBLE, nls="snapshot_cadence = 0.25\n"
                                               "training_seeds = 100.7, 101"),
                                 "nls.training_seeds"),
}


class TestRejectedValues:
    def test_base_config_is_valid(self, tmp_path):
        cfg = parse_config(write(tmp_path, ensemble_text()))
        assert (cfg.seeds, cfg.bins, cfg.sample_window) == ((0, 1), 4, (0.0, 0.5))

    def test_nls_base_config_is_valid(self, tmp_path):
        cfg = parse_config(write(tmp_path, ensemble_text(NLS_ENSEMBLE)))
        assert (cfg.seeds, cfg.snapshot_cadence, cfg.sample_window) == ((0, 1), 0.25, (0.0, 0.5))

    def test_rom_base_config_is_valid(self, tmp_path):
        cfg = parse_config(write(tmp_path, ensemble_text(ROM_ENSEMBLE)))
        assert (cfg.rom_modes, cfg.training_seeds) == (9, (100, 101))

    def test_whole_training_seed_written_as_float_accepted(self, tmp_path):
        # "100.0" names seed 100; only a fractional part is rejected
        text = ensemble_text(ROM_ENSEMBLE, nls="snapshot_cadence = 0.25\n"
                                               "training_seeds = 100.0, 101")
        assert parse_config(write(tmp_path, text)).training_seeds == (100, 101)

    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_rejected_with_config_error(self, tmp_path, case):
        text, word = BAD_VALUES[case]
        with pytest.raises(ConfigError, match=word):
            parse_config(write(tmp_path, text))


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
