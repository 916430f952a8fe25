"""Declarative run configurations: INI-style files with strict validation.

A config names a model (``swe``, ``nls-dns``, ``nls-rom``), a scheme where
applicable (``fv`` / ``fv-rons`` for the shallow-water solver, ``tg`` /
``g-rons`` for the reduced models), and the discretization, seeding, and
output choices.  Unknown keys are rejected by name so typos cannot silently
fall back to defaults.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

MODELS = ("swe", "nls-dns", "nls-rom")
SCHEMES_BY_MODEL = {
    "swe": ("fv", "fv-rons"),
    "nls-dns": ("spectral",),
    "nls-rom": ("tg", "g-rons"),
}
STEPPERS = ("ssprk3", "rk4")
OUTPUT_FORMATS = ("csv", "json")
SWE_QUANTITIES = ("total_elevation", "total_velocity", "total_energy")
NLS_QUANTITIES = ("mass", "energy")

#: section -> allowed keys
_SCHEMA = {
    "run": {"model", "scheme", "seed", "seeds"},
    "space": {"length", "cells", "modes"},
    "time": {"horizon", "cadence", "dt", "stepper", "cfl_factor"},
    "swe": {"ic", "theta", "snapshot_times", "enforce"},
    "nls": {
        "rom_modes", "basis", "training_seeds", "training_horizon",
        "snapshot_cadence", "ic", "ic_amplitude", "error_window",
    },
    "sampling": {"window", "cadence", "bins"},
    "output": {"directory", "format"},
}


@dataclass
class RunConfig:
    """A fully resolved experiment description."""

    model: str
    scheme: str
    seed: int = 0
    seeds: tuple[int, ...] | None = None   # ensemble mode when set

    length: float = 10.0
    cells: int = 1024
    modes: int = 256

    horizon: float = 10.0
    cadence: float = 1.0
    dt: float | None = None                # None = automatic step rule
    stepper: str = "ssprk3"
    cfl_factor: float = 2.0

    swe_ic: str = "gaussian"
    theta: float = 1.2
    snapshot_times: tuple[float, ...] = (0.0, 0.5, 2.0, 7.0, 10.0)
    enforce: tuple[str, ...] = ()

    rom_modes: int = 9
    basis_path: str | None = None
    training_seeds: tuple[int, ...] = (100, 101)
    training_horizon: float = 100.0
    snapshot_cadence: float = 0.5
    nls_ic: str = "random"
    ic_amplitude: float = 1.0
    error_window: tuple[float, float] | None = None

    sample_window: tuple[float, float] = (25.0, 75.0)
    sample_cadence: float = 0.1
    bins: int = 40

    out_dir: str = ""
    out_format: str = "csv"
    raw: dict = field(default_factory=dict)

    def validate(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODELS}")
        allowed = SCHEMES_BY_MODEL[self.model]
        if self.scheme not in allowed:
            raise ConfigError(
                f"scheme {self.scheme!r} is incompatible with model {self.model!r}; "
                f"valid schemes: {', '.join(allowed)}"
            )
        if self.horizon <= 0:
            raise ConfigError("time horizon must be positive")
        if self.cadence <= 0 or self.cadence > self.horizon:
            raise ConfigError("observer cadence must lie in (0, horizon]")
        if self.seeds is not None and len(self.seeds) == 0:
            raise ConfigError("ensemble mode needs a non-empty seed range")
        if self.stepper not in STEPPERS:
            raise ConfigError(f"unknown stepper {self.stepper!r}")
        if self.out_format not in OUTPUT_FORMATS:
            raise ConfigError(f"unknown output format {self.out_format!r}")
        if self.model == "swe":
            valid = set(SWE_QUANTITIES)
            unknown = [q for q in self.enforce if q not in valid]
            if unknown:
                raise ConfigError(f"unknown conserved quantities: {', '.join(unknown)}")
            if self.cells < 2:
                raise ConfigError("need at least two cells")
            if self.swe_ic not in ("gaussian", "random", "rest"):
                raise ConfigError("swe ic must be 'gaussian', 'random' or 'rest'")
        if self.model == "nls-rom":
            if self.nls_ic not in ("random", "project"):
                raise ConfigError("nls ic must be 'random' or 'project'")
        if self.error_window is not None:
            if len(self.error_window) != 2:
                raise ConfigError("error window needs exactly two numbers: start, end")
            lo, hi = self.error_window
            if not (0 <= lo < hi <= self.horizon):
                raise ConfigError("error window must satisfy 0 <= start < end <= horizon")
        if len(self.sample_window) != 2:
            raise ConfigError("sampling window needs exactly two numbers: start, end")
        lo, hi = self.sample_window
        if not (0 <= lo < hi):
            raise ConfigError("sampling window must be increasing")
        if not self.sample_cadence > 0:
            raise ConfigError("sampling cadence must be positive")
        if not self.snapshot_cadence > 0:
            raise ConfigError("nls snapshot cadence must be positive")
        if self.bins < 1:
            raise ConfigError("sampling needs at least one histogram bin")
        return self

    def resolved_out_dir(self) -> Path:
        root = os.environ.get("RONS_OUTPUT_ROOT", "")
        base = self.out_dir or f"runs/{self.model}-{self.scheme}"
        path = Path(base)
        if root and not path.is_absolute():
            path = Path(root) / path
        return path


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Parse '0..99' ranges (inclusive) or comma lists."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ConfigError(f"empty seed range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def parse_config(path, overrides: dict | None = None) -> RunConfig:
    """Read and validate a run configuration file.

    ``overrides`` maps ``section.key`` strings to replacement values (used by
    the command line for seed ranges and output directories).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc

    unknown = []
    for section in parser.sections():
        if section not in _SCHEMA:
            unknown.append(section)
            continue
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                unknown.append(f"{section}.{key}")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    raw = {s: dict(parser[s]) for s in parser.sections()}
    if overrides:
        for dotted, value in overrides.items():
            section, key = dotted.split(".", 1)
            raw.setdefault(section, {})[key] = str(value)

    def get(section, key, default=None):
        return raw.get(section, {}).get(key, default)

    def read(section, key, convert, default):
        """``convert`` applied to the key's text, or ``default`` when unset;
        a value that does not convert is a :class:`ConfigError` naming the key."""
        text = get(section, key)
        if text is None:
            return default
        try:
            return convert(text)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key} = {text!r} is not valid: {exc}") from None

    model = get("run", "model")
    if model is None:
        raise ConfigError("config must set run.model")
    model = model.strip()
    scheme = get("run", "scheme")
    if scheme is None:
        scheme = {"swe": "fv", "nls-dns": "spectral", "nls-rom": "tg"}.get(model, "")
    scheme = scheme.strip()

    is_nls = model.startswith("nls")
    cfg = RunConfig(
        model=model,
        scheme=scheme,
        seed=read("run", "seed", int, 0),
        seeds=read("run", "seeds", lambda t: _parse_seeds(t) if t else None, None),
        length=read("space", "length", float, 32.0 * math.pi if is_nls else 10.0),
        cells=read("space", "cells", int, 1024),
        modes=read("space", "modes", int, 256),
        horizon=read("time", "horizon", float, 100.0 if is_nls else 10.0),
        cadence=read("time", "cadence", float, 1.0),
        dt=read("time", "dt", lambda t: None if t == "auto" else float(t), None),
        stepper=get("time", "stepper", "rk4" if is_nls else "ssprk3").strip(),
        cfl_factor=read("time", "cfl_factor", float, 2.0),
        swe_ic=get("swe", "ic", "gaussian").strip(),
        theta=read("swe", "theta", float, 1.2),
        snapshot_times=read("swe", "snapshot_times", _floats, (0.0, 0.5, 2.0, 7.0, 10.0)),
        enforce=tuple(
            tok.strip()
            for tok in get(
                "swe", "enforce",
                ",".join(SWE_QUANTITIES) if scheme == "fv-rons" else "",
            ).split(",")
            if tok.strip()
        ),
        rom_modes=read("nls", "rom_modes", int, 9),
        basis_path=get("nls", "basis"),
        training_seeds=read("nls", "training_seeds",
                            lambda t: tuple(int(s) for s in _floats(t)), (100, 101)),
        training_horizon=read("nls", "training_horizon", float, 100.0),
        snapshot_cadence=read("nls", "snapshot_cadence", float, 0.5),
        nls_ic=get("nls", "ic", "random").strip(),
        ic_amplitude=read("nls", "ic_amplitude", float, 1.0),
        error_window=read("nls", "error_window", lambda t: _floats(t) if t else None, None),
        sample_window=read("sampling", "window", _floats, (25.0, 75.0)),
        sample_cadence=read("sampling", "cadence", float, 0.1),
        bins=read("sampling", "bins", int, 40),
        out_dir=get("output", "directory", ""),
        out_format=get("output", "format", "csv").strip(),
        raw=raw,
    )
    return cfg.validate()
