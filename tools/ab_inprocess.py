"""Time perfbench phases of two commits in alternating pairs, in one process.

    python tools/ab_inprocess.py --parent HEAD~1 --change HEAD --workload nls-rom \\
        --phases rons_single --pairs 21 --repeats 3 --label my_change

Each revision's committed files are exported with ``bench_pairs.export`` into
a directory of its own under ``--work``.  Both revisions' ``src/rons`` are
then imported side by side under distinct package names (``rons_parent`` and
``rons_change``), and each checkout's ``perfbench/workloads.py`` is imported
against its own package, so each side's inputs, set-up and phases run that
revision's code with perfbench's phase configs.  Each side sets up once and
runs every phase once untimed.  Then, for each phase, every pair runs the
phase ``--repeats`` times per side, the side that runs first alternating
from pair to pair (parent first on the first pair), and records each side's
fastest run in member-steps per second of wall time (``time.perf_counter``,
after a ``gc.collect``).  One run per side per pair reads quartiles of about
±4% on a revision against itself; the fastest of a few runs drops the runs
that a passing load slowed.

``AB_<label>.json`` gets, per phase, ``bench_pairs.summarize`` of the two
sides' rates plus the change/parent ratio of every pair with its median and
quartiles.  In one process the two sides share the heap, the caches and the
machine's load at the moment, so build-to-build and run-to-run offsets that
hide effects of a few percent between subprocess runs cancel.  It supplements
``tools/bench_pairs.py``, whose subprocess pairs are the end-to-end record,
and does not replace it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import json
import pkgutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import REPO, export, quartiles, summarize

SIDES = ("parent", "change")


def load_package(src: Path, name: str):
    """Import the ``rons`` package under ``src`` as ``name``, with every
    submodule, so it lives beside any other copy of the package."""
    spec = importlib.util.spec_from_file_location(
        name, src / "rons" / "__init__.py", submodule_search_locations=[str(src / "rons")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{info.name}")
    return package


@contextlib.contextmanager
def _as_rons(package):
    """``import rons`` and ``import rons.<sub>`` give ``package`` and its
    submodules inside the block; the previous entries come back after it."""
    def ours(key):
        return key == "rons" or key.startswith("rons.")

    saved = {key: module for key, module in sys.modules.items() if ours(key)}
    prefix = package.__name__ + "."
    aliases = {"rons": package}
    aliases.update({"rons." + key[len(prefix):]: module
                    for key, module in sys.modules.items() if key.startswith(prefix)})
    for key in saved:
        del sys.modules[key]
    sys.modules.update(aliases)
    try:
        yield
    finally:
        for key in [key for key in sys.modules if ours(key)]:
            del sys.modules[key]
        sys.modules.update(saved)


def load_workloads(checkout: Path, package, name: str):
    """The checkout's ``perfbench/workloads.py`` imported as ``name``, with
    ``rons`` resolved to ``package``."""
    spec = importlib.util.spec_from_file_location(name, checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(checkout / "perfbench"))
    try:
        with _as_rons(package):
            sys.modules[name] = module
            spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(checkout / "perfbench"))
    return module


def rate(workload, phase: str, state) -> float:
    """Member-steps per second of one run of ``phase``."""
    gc.collect()
    start = perf_counter()
    result = workload.run_phase(phase, state)
    took = perf_counter() - start
    return workload.member_steps(phase, result) / took


def fastest(run, repeats: int) -> float:
    """The highest of ``repeats`` rates that ``run()`` returns."""
    return max(run() for _ in range(repeats))


def alternate(runs: dict, pairs: int) -> tuple[list[float], list[float]]:
    """``runs[side]()`` once per side per pair, the parent first on even
    pairs; the two sides' values in pair order."""
    values = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            values[side].append(runs[side]())
    return values["parent"], values["change"]


def pair_ratios(parent: list[float], change: list[float]) -> dict:
    """``bench_pairs.summarize`` of two rates (higher is better) plus the
    change/parent ratio of every pair, its median and its quartiles."""
    ratios = [c / p for p, c in zip(parent, change)]
    lo, median, hi = quartiles(ratios)
    return {**summarize(parent, change, "higher"), "unit": "member-steps/s",
            "ratio_per_pair": ratios, "ratio_median": median,
            "ratio_quartiles": [lo, hi], "ratio_iqr": hi - lo}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", required=True, help="perfbench workload name")
    parser.add_argument("--phases", default=None,
                        help="comma list of the workload's phases (default: all of them)")
    parser.add_argument("--pairs", type=int, default=21)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs of each phase per side per pair; the fastest is kept")
    parser.add_argument("--seed", type=int, default=0, help="perfbench input seed")
    parser.add_argument("--label", required=True, help="output is AB_<label>.json")
    parser.add_argument("--repo", type=Path, default=REPO, help="git repository to export from")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory to export the two checkouts into, as parent/ and "
                             "change/, which must not exist yet (default: a temporary one)")
    parser.add_argument("--out", type=Path, default=Path.cwd(),
                        help="directory to write AB_<label>.json in")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("need at least one pair")
    if args.repeats < 1:
        parser.error("need at least one run per side per pair")
    sys.path.insert(0, str(REPO / "perfbench"))
    from run import limit_threads

    limit_threads()  # before either package imports numpy

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        commits, workloads, states = {}, {}, {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            checkout = work / side
            commits[side] = export(args.repo, rev, checkout)
            package = load_package(checkout / "src", f"rons_{side}")
            module = load_workloads(checkout, package, f"workloads_{side}")
            workloads[side] = module.WORKLOADS[args.workload](work / f"{side}_out")
            states[side] = workloads[side].setup(workloads[side].inputs(args.seed))
        phases = (args.phases.split(",") if args.phases else workloads["change"].phases)
        for side in SIDES:
            for phase in phases:
                rate(workloads[side], phase, states[side])
        result = {"label": args.label, "parent": commits["parent"],
                  "change": commits["change"], "workload": args.workload,
                  "seed": args.seed, "pairs": args.pairs, "repeats": args.repeats,
                  "harness": "tools/ab_inprocess.py: both revisions imported in one process; "
                             "per pair the fastest of `repeats` runs of the phase per side, "
                             "the side that runs first alternating (parent first on the "
                             "first pair)",
                  "phases": {}}
        for phase in phases:
            runs = {side: lambda side=side: fastest(
                        lambda: rate(workloads[side], phase, states[side]), args.repeats)
                    for side in SIDES}
            summary = pair_ratios(*alternate(runs, args.pairs))
            result["phases"][phase] = summary
            print(f"{args.workload} {phase}: change/parent median "
                  f"{summary['ratio_median']:.3f} (quartiles "
                  f"{summary['ratio_quartiles'][0]:.3f}-{summary['ratio_quartiles'][1]:.3f}), "
                  f"change won {summary['change_wins']}", flush=True)

    path = args.out / f"AB_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
