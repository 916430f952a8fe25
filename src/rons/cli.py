"""Command-line front end for declarative experiments.

Subcommands:

* ``run <config>`` -- execute one configured run and write its outputs.
* ``ensemble <config> --seeds A..B`` -- seeded ensemble with histogram output.
* ``pod <snapshots...> --modes N`` -- extract a POD basis from snapshot files.
* ``metrics <truth> <rom>`` -- relative errors between two snapshot series.

Exit codes: 0 success, 1 validation/configuration error, 2 numerical failure.
The ``RONS_OUTPUT_ROOT`` environment variable prefixes relative output paths.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io, nls
from .config import parse_config
from .errors import (
    AlignmentError,
    ConfigError,
    RonsError,
    ValidationError,
)
from .runner import run_experiment, write_outputs

_VALIDATION_ERRORS = (ConfigError, ValidationError, AlignmentError)


def _add_output_option(parser):
    parser.add_argument(
        "--output", default=None,
        help="output directory (overrides the config; RONS_OUTPUT_ROOT applies)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rons",
        description="Invariant-preserving Galerkin and finite-volume experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single configured run")
    p_run.add_argument("config", help="path to an INI run configuration")
    _add_output_option(p_run)

    p_ens = sub.add_parser("ensemble", help="execute a seeded ensemble")
    p_ens.add_argument("config")
    p_ens.add_argument(
        "--seeds", default=None,
        help="seed range 'A..B' (inclusive) or comma list; overrides the config",
    )
    _add_output_option(p_ens)

    p_pod = sub.add_parser("pod", help="extract a POD basis from snapshots")
    p_pod.add_argument(
        "snapshots", nargs="+",
        help="snapshot series files, or a directory of them",
    )
    p_pod.add_argument("--modes", type=int, required=True)
    p_pod.add_argument("--out", default="pod_basis.json")

    p_met = sub.add_parser("metrics", help="relative errors between two series")
    p_met.add_argument("truth")
    p_met.add_argument("rom")
    p_met.add_argument("--window", nargs=2, type=float, default=None,
                       metavar=("START", "END"))
    p_met.add_argument("--out", default=None, help="write metrics.json here")
    return parser


def _cmd_run(args, ensemble: bool) -> int:
    overrides = {}
    if args.output:
        overrides["output.directory"] = args.output
    if ensemble and args.seeds:
        overrides["run.seeds"] = args.seeds
    config = parse_config(args.config, overrides=overrides)
    if ensemble and config.seeds is None:
        raise ConfigError("ensemble mode needs a seed range (config run.seeds or --seeds)")
    record = run_experiment(config)
    out_dir = config.resolved_out_dir()
    written = write_outputs(record, out_dir, fmt=config.out_format)
    print(f"wrote {len(written)} files under {out_dir}")
    for key in ("drift", "max_elevation_mean", "max_envelope_mean",
                "mass_drift", "energy_drift"):
        if key in record.metrics:
            print(f"  {key}: {record.metrics[key]}")
    return 0


def _snapshot_paths(tokens) -> list[Path]:
    paths = []
    for token in tokens:
        p = Path(token)
        if p.is_dir():
            for pattern in ("*.npz", "*.csv", "*.json"):
                paths.extend(sorted(p.glob(pattern)))
        else:
            paths.append(p)
    if not paths:
        raise ConfigError("no snapshot files found")
    return paths


def _cmd_pod(args) -> int:
    stacks, length = [], None
    for path in _snapshot_paths(args.snapshots):
        series = io.load_snapshots(path)
        if length is None:
            length, n_grid = series.length, series.snapshots.shape[1]
        elif series.length != length:
            raise ValidationError(f"{path} has a different domain length")
        elif series.snapshots.shape[1] != n_grid:
            raise ValidationError(f"{path} has a different grid size")
        stacks.append(series.snapshots)
    basis = nls.compute_pod(np.vstack(stacks), args.modes, length)
    io.save_pod_basis(args.out, basis)
    captured = float(
        np.sum(basis.singular_values[: args.modes] ** 2)
        / np.sum(basis.singular_values**2)
    )
    print(f"wrote {args.out}: {args.modes} modes, "
          f"{100 * captured:.2f}% of snapshot energy")
    return 0


def _cmd_metrics(args) -> int:
    truth = io.load_snapshots(args.truth)
    rom = io.load_snapshots(args.rom)
    if args.window:
        lo, hi = args.window
    else:
        lo, hi = float(truth.times[0]), float(truth.times[-1])
    instantaneous, total = nls.relative_errors(truth, rom, lo, hi)
    payload = {
        "window": [lo, hi],
        "total_relative_error": total,
        "instantaneous_mean": float(np.mean(instantaneous)),
        "instantaneous_max": float(np.max(instantaneous)),
        "truth_note": (
            "reduced runs are compared against a DNS started from the "
            "reconstructed reduced initial state"
        ),
    }
    if args.out:
        io.write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args, ensemble=False)
        if args.command == "ensemble":
            return _cmd_run(args, ensemble=True)
        if args.command == "pod":
            return _cmd_pod(args)
        return _cmd_metrics(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RonsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
