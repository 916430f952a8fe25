"""Check that two revisions write the same outputs for every shipped config.

    python tools/same_outputs.py --parent HEAD~1 --change HEAD

Each revision's committed files are exported with ``bench_pairs.export`` into
a directory of its own under ``--work``.  Every ``configs/*.ini`` of each
checkout is shortened (see :data:`SHORTENED`) and run from that checkout's
own ``src/`` with ``python -m rons.cli run|ensemble`` (``ensemble`` when the
config names ``run.seeds``).  The two output trees are then compared file by
file, byte for byte, except ``telemetry.json``, which holds timings, and
``config.json``, which is compared as JSON without the echoed output
directory.  Every file that differs, or exists on one side only, is named;
the exit code is 1 if any file differs or any run failed, else 0.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import REPO, export

#: (model, ensemble) -> ``section.key`` settings that shorten a run of it
SHORTENED = {
    ("swe", False): {"time.horizon": "2"},
    ("swe", True): {"run.seeds": "0..5", "time.horizon": "27", "sampling.window": "25, 27"},
    ("nls-dns", False): {"time.horizon": "3"},
    ("nls-dns", True): {"time.horizon": "3", "sampling.window": "1, 3"},
    ("nls-rom", False): {"time.horizon": "5", "nls.training_horizon": "5"},
    ("nls-rom", True): {"time.horizon": "5", "nls.training_horizon": "5",
                        "sampling.window": "2, 5"},
}

#: files left out of the comparison: they hold wall-clock timings
SKIPPED = {"telemetry.json"}


def shorten(text: str) -> tuple[str, bool]:
    """The shortened INI text of a run configuration, and whether the
    configuration is an ensemble (it names ``run.seeds``)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    ensemble = parser.has_option("run", "seeds")
    model = parser.get("run", "model", fallback="")
    try:
        settings = SHORTENED[model, ensemble]
    except KeyError:
        raise ValueError(f"no shortened run for model {model!r} "
                         f"({'ensemble' if ensemble else 'single run'})") from None
    for dotted, value in settings.items():
        section, key = dotted.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value)
    out = io.StringIO()
    parser.write(out)
    return out.getvalue(), ensemble


def _config_echo(path: Path) -> dict:
    """A ``config.json`` without the output directory it echoes."""
    payload = json.loads(path.read_text())
    payload.pop("out_dir", None)
    payload.get("raw", {}).get("output", {}).pop("directory", None)
    return payload


def differing_files(a: Path, b: Path) -> list[str]:
    """Paths, relative to the two roots, of the files that differ between the
    trees ``a`` and ``b`` or exist in only one of them; sorted."""
    files = {side: {p.relative_to(side).as_posix() for p in side.rglob("*") if p.is_file()}
             for side in (a, b)}
    differ = []
    for name in sorted(files[a] | files[b]):
        if Path(name).name in SKIPPED:
            continue
        if name not in files[a] or name not in files[b]:
            differ.append(name)
        elif Path(name).name == "config.json":
            if _config_echo(a / name) != _config_echo(b / name):
                differ.append(name)
        elif (a / name).read_bytes() != (b / name).read_bytes():
            differ.append(name)
    return differ


def run_configs(checkout: Path, out: Path, configs: Path) -> list[str]:
    """Run every shortened config of ``checkout``, each into ``out/<stem>``;
    the shortened INI files go to ``configs``.  Returns the names of the
    configs whose run failed."""
    configs.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "RONS_OUTPUT_ROOT"}
    env["PYTHONPATH"] = str(checkout / "src")
    failed = []
    for config in sorted((checkout / "configs").glob("*.ini")):
        text, ensemble = shorten(config.read_text())
        short = configs / config.name
        short.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "rons.cli", "ensemble" if ensemble else "run",
             str(short), "--output", str(out / config.stem)],
            cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{checkout.name}: {config.name} failed (exit {proc.returncode}):\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr, flush=True)
            failed.append(config.name)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--repo", type=Path, default=REPO, help="git repository to export from")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for the checkouts and outputs, which must not "
                             "exist yet (default: a temporary one)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        failed = []
        for side, rev in (("parent", args.parent), ("change", args.change)):
            commit = export(args.repo, rev, work / side)
            print(f"{side}: {commit}", flush=True)
            failed += [f"{side}: {name}" for name in
                       run_configs(work / side, work / f"{side}_out", work / f"{side}_configs")]
        differ = differing_files(work / "parent_out", work / "change_out")
    for name in differ:
        print(f"differs: {name}")
    for name in failed:
        print(f"run failed: {name}")
    if differ or failed:
        return 1
    print("same outputs for every config")
    return 0


if __name__ == "__main__":
    sys.exit(main())
