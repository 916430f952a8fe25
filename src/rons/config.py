"""Declarative run configurations: INI-style files with strict validation.

A config names a model (``swe``, ``nls-dns``, ``nls-rom``), a scheme where
applicable (``fv`` / ``fv-rons`` for the shallow-water solver, ``tg`` /
``g-rons`` for the reduced models), and the discretization, seeding, and
output choices.  The fields of :class:`RunConfig` are the one table of run
settings: each gives its INI key, the converter from the key's text, its
default and the models that read it.  A file may set only the keys its model
reads; any other key is rejected by name, so typos cannot silently fall back
to defaults.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError

MODELS = ("swe", "nls-dns", "nls-rom")
SWE, DNS, ROM = MODELS
NLS = (DNS, ROM)
SCHEMES_BY_MODEL = {
    SWE: ("fv", "fv-rons"),
    DNS: ("spectral",),
    ROM: ("tg", "g-rons"),
}
STEPPERS = ("ssprk3", "rk4")
OUTPUT_FORMATS = ("csv", "json")
SWE_QUANTITIES = ("total_elevation", "total_velocity", "total_energy")


def _parse_seeds(text: str) -> tuple[int, ...] | None:
    """Parse '0..99' ranges (inclusive) or comma lists; empty text is None."""
    text = text.strip()
    if not text:
        return None
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"empty seed range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _whole_numbers(text: str) -> tuple[int, ...]:
    values = _floats(text)
    fractional = [value for value in values if not value.is_integer()]
    if fractional:
        raise ValueError(f"not whole numbers: {', '.join(map(str, fractional))}")
    return tuple(int(value) for value in values)


def _names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _step(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _setting(key: str, convert, default, models=MODELS):
    """A :class:`RunConfig` field read from INI key ``section.key``.

    ``convert`` turns the key's text into the value and ``models`` names the
    models that read the key.  A ``default`` given as a dict maps each model
    to its own value: the field then defaults to ``None``, which
    :meth:`RunConfig.validate` resolves for the config's model.
    """
    per_model = default if isinstance(default, dict) else None
    return field(
        default=None if per_model else default,
        metadata={"key": key, "convert": convert, "models": frozenset(models),
                  "per_model": per_model},
    )


@dataclass
class RunConfig:
    """A fully resolved experiment description, one field per run setting."""

    model: str = _setting("run.model", str.strip, MISSING)
    scheme: str | None = _setting(
        "run.scheme", str.strip, {SWE: "fv", DNS: "spectral", ROM: "tg"})
    seed: int = _setting("run.seed", int, 0)
    seeds: tuple[int, ...] | None = _setting("run.seeds", _parse_seeds, None)  # ensemble mode

    length: float | None = _setting(
        "space.length", float, {SWE: 10.0, DNS: 32.0 * math.pi, ROM: 32.0 * math.pi})
    cells: int = _setting("space.cells", int, 1024, (SWE,))
    modes: int = _setting("space.modes", int, 256, NLS)

    horizon: float | None = _setting("time.horizon", float, {SWE: 10.0, DNS: 100.0, ROM: 100.0})
    cadence: float = _setting("time.cadence", float, 1.0, (SWE,))
    # None (INI ``auto``) is the automatic step rule; the reduced model has none
    dt: float | None = _setting("time.dt", _step, {SWE: None, DNS: None, ROM: 1.0 / 32})
    # the NLS integrators are RK4; the key is read by the shallow-water solver only
    stepper: str | None = _setting(
        "time.stepper", str.strip, {SWE: "ssprk3", DNS: "rk4", ROM: "rk4"}, (SWE,))
    cfl_factor: float = _setting("time.cfl_factor", float, 2.0, (SWE,))

    swe_ic: str = _setting("swe.ic", str.strip, "gaussian", (SWE,))
    theta: float = _setting("swe.theta", float, 1.2, (SWE,))
    snapshot_times: tuple[float, ...] = _setting(
        "swe.snapshot_times", _floats, (0.0, 0.5, 2.0, 7.0, 10.0), (SWE,))
    # None follows the scheme: every quantity for fv-rons, none for fv
    enforce: tuple[str, ...] | None = _setting("swe.enforce", _names, None, (SWE,))

    rom_modes: int = _setting("nls.rom_modes", int, 9, (ROM,))
    basis_path: str | None = _setting("nls.basis", str, None, (ROM,))
    training_seeds: tuple[int, ...] = _setting(
        "nls.training_seeds", _whole_numbers, (100, 101), (ROM,))
    training_horizon: float = _setting("nls.training_horizon", float, 100.0, (ROM,))
    snapshot_cadence: float = _setting("nls.snapshot_cadence", float, 0.5, NLS)
    nls_ic: str = _setting("nls.ic", str.strip, "random", (ROM,))
    ic_amplitude: float = _setting("nls.ic_amplitude", float, 1.0, (ROM,))

    sample_window: tuple[float, float] = _setting("sampling.window", _floats, (25.0, 75.0))
    sample_cadence: float = _setting("sampling.cadence", float, 0.1, (SWE,))
    bins: int = _setting("sampling.bins", int, 40)

    out_dir: str = _setting("output.directory", str, "")
    out_format: str = _setting("output.format", str.strip, "csv")
    raw: dict = field(default_factory=dict)

    def validate(self):
        """Resolve the defaults left ``None`` and check the settings the
        model reads; returns ``self``."""
        defaults = _MODEL_DEFAULTS.get(self.model)
        if defaults is None:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODELS}")
        # attribute tests rather than a loop: set-up paths validate per run
        if self.scheme is None:
            self.scheme = defaults["scheme"]
        if self.length is None:
            self.length = defaults["length"]
        if self.horizon is None:
            self.horizon = defaults["horizon"]
        if self.dt is None:
            self.dt = defaults["dt"]
        if self.stepper is None:
            self.stepper = defaults["stepper"]
        if self.enforce is None:
            self.enforce = SWE_QUANTITIES if self.scheme == "fv-rons" else ()

        allowed = SCHEMES_BY_MODEL[self.model]
        if self.scheme not in allowed:
            raise ConfigError(
                f"scheme {self.scheme!r} is incompatible with model {self.model!r}; "
                f"valid schemes: {', '.join(allowed)}"
            )
        if self.horizon <= 0:
            raise ConfigError("time horizon must be positive")
        if self.seeds is not None and len(self.seeds) == 0:
            raise ConfigError("ensemble mode needs a non-empty seed range")
        if self.out_format not in OUTPUT_FORMATS:
            raise ConfigError(f"unknown output format {self.out_format!r}")
        if len(self.sample_window) != 2:
            raise ConfigError("sampling window needs exactly two numbers: start, end")
        lo, hi = self.sample_window
        if not (0 <= lo < hi):
            raise ConfigError("sampling window must be increasing")
        if self.bins < 1:
            raise ConfigError("sampling needs at least one histogram bin")
        if self.model == SWE:
            if self.cadence <= 0 or self.cadence > self.horizon:
                raise ConfigError("observer cadence must lie in (0, horizon]")
            if self.stepper not in STEPPERS:
                raise ConfigError(f"unknown stepper {self.stepper!r}")
            if not self.sample_cadence > 0:
                raise ConfigError("sampling cadence must be positive")
            unknown = [q for q in self.enforce if q not in SWE_QUANTITIES]
            if unknown:
                raise ConfigError(f"unknown conserved quantities: {', '.join(unknown)}")
            if self.scheme == "fv" and self.enforce:
                raise ConfigError("scheme fv enforces nothing; use scheme fv-rons "
                                  "or leave swe.enforce unset")
            if self.scheme == "fv-rons" and not self.enforce:
                raise ConfigError("scheme fv-rons needs at least one quantity in swe.enforce")
            if self.cells < 2:
                raise ConfigError("need at least two cells")
            if self.swe_ic not in ("gaussian", "random", "rest"):
                raise ConfigError("swe ic must be 'gaussian', 'random' or 'rest'")
        elif not self.snapshot_cadence > 0:
            raise ConfigError("nls snapshot cadence must be positive")
        elif self.model == ROM:
            if self.nls_ic not in ("random", "project"):
                raise ConfigError("nls ic must be 'random' or 'project'")
            if self.rom_modes < 1:
                raise ConfigError("nls.rom_modes must be at least 1")
        return self

    def resolved_out_dir(self) -> Path:
        root = os.environ.get("RONS_OUTPUT_ROOT", "")
        base = self.out_dir or f"runs/{self.model}-{self.scheme}"
        path = Path(base)
        if root and not path.is_absolute():
            path = Path(root) / path
        return path


#: ``section.key`` -> the RunConfig field that holds it
_KEYS = {f.metadata["key"]: f for f in fields(RunConfig) if f.metadata}
_SECTIONS = {dotted.split(".", 1)[0] for dotted in _KEYS}
#: model -> field name -> that model's default, for the per-model fields
_MODEL_DEFAULTS = {
    model: {f.name: f.metadata["per_model"][model]
            for f in _KEYS.values() if f.metadata["per_model"]}
    for model in MODELS
}


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Read and validate a run configuration file.

    ``overrides`` maps ``section.key`` strings to replacement values (used by
    the command line for seed ranges and output directories).  Every key is
    checked like a key of the file.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc

    raw = {s: dict(parser[s]) for s in parser.sections()}
    if overrides:
        for dotted, value in overrides.items():
            section, key = dotted.split(".", 1)
            raw.setdefault(section, {})[key] = str(value)
    unknown = []
    for section, keys in raw.items():
        if section not in _SECTIONS:
            unknown.append(section)
            continue
        unknown.extend(f"{section}.{key}" for key in keys if f"{section}.{key}" not in _KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    given = {f"{section}.{key}": text for section, keys in raw.items() for key, text in keys.items()}

    if "run.model" not in given:
        raise ConfigError("config must set run.model")
    model = given["run.model"].strip()
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; choose from {MODELS}")
    unread = sorted(dotted for dotted in given if model not in _KEYS[dotted].metadata["models"])
    if unread:
        raise ConfigError(f"model {model!r} does not read: {', '.join(unread)}")

    values = {}
    for dotted, text in given.items():
        setting = _KEYS[dotted]
        try:
            values[setting.name] = setting.metadata["convert"](text)
        except ValueError as exc:
            raise ConfigError(f"{dotted} = {text!r} is not valid: {exc}") from None
    return RunConfig(raw=raw, **values).validate()

