"""Plain-data persistence: snapshot series, POD bases, CSV/JSON tables.

All text output uses shortest round-trip float formatting, so CSV files
reproduce the binary64 values bit for bit when parsed back.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .nls import PodBasis, SnapshotSeries


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same float."""
    return repr(float(x))


def write_json(path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path, header, columns, preamble=()):
    """A CSV of named columns, one row per entry, each column formatted once:
    :func:`format_float` of every value, byte for byte, or the strings of a
    text column as they are.  The ``preamble`` lines, if any, come before
    the header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    cells = [c if isinstance(c, list) and all(isinstance(x, str) for x in c)
             else map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in preamble))
        fh.write("".join(",".join(row) + "\n" for row in [header, *zip(*cells)]))


def write_invariants_csv(path, times, series: dict):
    """One row per observation: time plus each declared quantity."""
    _write_table(path, ["time", *series], [times, *series.values()])


def write_histogram_csv(path, edges, density):
    """Bin edges and densities; densities integrate to one."""
    _write_table(path, ["bin_left", "bin_right", "density"], [edges[:-1], edges[1:], density])


def write_field_csv(path, x, fields: dict):
    """Grid field snapshot: one row per cell, named columns."""
    _write_table(path, ["x", *fields], [x, *fields.values()])


def write_snapshot_index(path, times, names):
    """The field snapshots of a run: one row per snapshot, its time and the
    name of its file."""
    _write_table(path, ["time", "file"], [times, names])


# ---------------------------------------------------------------------------
# Snapshot series containers (complex fields)


def save_snapshots(path, series: SnapshotSeries):
    """Persist a snapshot series in the format of the file suffix, as
    :func:`load_snapshots` reads it back.

    ``.json`` and CSV (any other suffix) are self-describing text containers
    with the domain length recorded; ``.npz`` is the compact binary option.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".npz":
        np.savez(path, times=series.times, snapshots=series.snapshots,
                 length=series.length)
    elif path.suffix == ".json":
        write_json(path, {
            "kind": "snapshot-series",
            "length": series.length,
            "times": [format_float(t) for t in series.times],
            "real": [[format_float(v) for v in row] for row in series.snapshots.real],
            "imag": [[format_float(v) for v in row] for row in series.snapshots.imag],
        })
    else:
        n = series.snapshots.shape[1]
        interleaved = np.empty((len(series.times), 2 * n))
        interleaved[:, 0::2] = series.snapshots.real
        interleaved[:, 1::2] = series.snapshots.imag
        _write_table(path, ["time", *(f"{part}_{j}" for j in range(n) for part in ("re", "im"))],
                     [series.times, *interleaved.T],
                     ["# snapshot-series", f"# length={format_float(series.length)}",
                      f"# n_grid={n}"])


def load_snapshots(path) -> SnapshotSeries:
    """The series :func:`save_snapshots` wrote, in the format of the suffix.

    Raises :class:`ValidationError` naming the path unless the file can be
    opened and holds at least one sample of at least one grid point, with
    ``1 + 2 n`` values on every CSV row for the ``n`` points of its
    ``n_grid`` header (else of the first row).
    """
    path = Path(path)
    try:
        series = _read_snapshots(path)
    except ValidationError:
        raise
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    except ValueError as exc:
        raise ValidationError(f"{path} is not a readable snapshot series: {exc}") from exc
    if series.snapshots.ndim != 2 or not series.snapshots.size:
        raise ValidationError(f"{path} holds no sample of any grid point")
    return series


def _read_snapshots(path: Path) -> SnapshotSeries:
    if path.suffix == ".npz":
        data = np.load(path)
        return SnapshotSeries(data["times"], data["snapshots"], float(data["length"]))
    if path.suffix == ".json":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("kind") != "snapshot-series":
            raise ValidationError(f"{path} is not a snapshot series")
        times = np.asarray([float(t) for t in payload["times"]])
        return SnapshotSeries(times, _complex(payload), float(payload["length"]))
    # CSV
    length = n_grid = None
    times, rows = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "length=" in line:
                    length = float(line.split("length=")[1])
                elif "n_grid=" in line:
                    n_grid = int(line.split("n_grid=")[1])
                continue
            if line.startswith("time"):
                continue
            vals = list(map(float, line.split(",")))
            if n_grid is None:
                n_grid = (len(vals) - 1) // 2
            if len(vals) != 1 + 2 * n_grid:
                raise ValidationError(
                    f"{path} has a row of {len(vals)} values, expected 1 + 2 * {n_grid}"
                )
            times.append(vals[0])
            interleaved = np.asarray(vals[1:])
            rows.append(interleaved[0::2] + 1j * interleaved[1::2])
    if length is None:
        raise ValidationError(f"{path} has no length metadata")
    return SnapshotSeries(np.asarray(times), np.asarray(rows), length)


# ---------------------------------------------------------------------------
# POD bases


def save_pod_basis(path, basis: PodBasis):
    """Persist mean, modes, and singular values (derivatives are recomputed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".npz":
        np.savez(path, mean=basis.mean, modes=basis.modes,
                 singular_values=basis.singular_values, length=basis.length)
        return
    write_json(path, {
        "kind": "pod-basis",
        "length": basis.length,
        "singular_values": [format_float(s) for s in basis.singular_values],
        "mean_real": [format_float(v) for v in basis.mean.real],
        "mean_imag": [format_float(v) for v in basis.mean.imag],
        "modes_real": [[format_float(v) for v in row] for row in basis.modes.real],
        "modes_imag": [[format_float(v) for v in row] for row in basis.modes.imag],
    })


def load_pod_basis(path) -> PodBasis:
    """The basis :func:`save_pod_basis` wrote; a file that cannot be opened
    raises :class:`ValidationError` naming the path."""
    path = Path(path)
    try:
        return _read_pod_basis(path)
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def _unreadable(path: Path, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot read {path}: {exc.strerror or exc}")


def _read_pod_basis(path: Path) -> PodBasis:
    if path.suffix == ".npz":
        data = np.load(path)
        mean = data["mean"]
        modes = data["modes"]
        length = float(data["length"])
        sv = data["singular_values"]
    else:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("kind") != "pod-basis":
            raise ValidationError(f"{path} is not a POD basis")
        length = float(payload["length"])
        mean, modes = _complex(payload, "mean_"), _complex(payload, "modes_")
        sv = np.asarray([float(s) for s in payload["singular_values"]])
    return PodBasis(
        mean=mean,
        modes=modes,
        length=length,
        singular_values=np.asarray(sv),
    )


def _complex(payload: dict, prefix: str = "") -> np.ndarray:
    """The complex array a JSON container stores as its ``<prefix>real``
    and ``<prefix>imag`` lists."""
    return (np.asarray(payload[prefix + "real"], dtype=float)
            + 1j * np.asarray(payload[prefix + "imag"], dtype=float))
