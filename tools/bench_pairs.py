"""Run perfbench on two commits in alternating pairs and summarise the pairs.

    python tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workloads nls-rom --seeds 301..310 --label my_change

Each revision's committed files are exported with ``git archive`` into a
directory of its own under ``--work``, so both sides build what they run from
their own ``src/``.  For every seed, each workload runs once per side
(``PYTHONHASHSEED=S python3 perfbench/run.py --workload W --seed S --seconds N
--trace 0|1``), the side that runs first alternating from seed to seed (parent
first on the first seed).  The hash seed is pinned because it moves the heap
layout, and with it some timings, so a pair can be re-run exactly.  The last line of each run's standard output is perfbench's JSON
record; every numeric metric in it is collected.  After each run the side's
``perfbench_out/<workload>/passes.json`` adds medians over the untraced
passes in raw (not rescaled) seconds: ``median_raw.setup_s`` and
``median_raw.<phase>.member_steps_per_s``, which count wins in the direction
of the metric they mirror.  They are medians, not perfbench's ``raw.*``
fastest pass of one run, and unlike the rescaled figures they do not move
with the reference kernel's heap layout.  ``run.minor_faults_per_pass`` is the
minor page faults of the whole perfbench process (``RUSAGE_CHILDREN`` read
around it) over its pass count in ``passes.json``; lower is better.

``BENCH_<label>.json`` gets, per workload and metric, the per-pair values of
both sides, their medians and quartiles, the change/parent ratio of the
medians and how many pairs the change won (by the direction ``BENCHMARK.json``
declares for the metric), plus the seeds, the revisions, whether every run
was correct and, per workload, the number of usable pairs.  A workload with
fewer than ``MIN_PAIRS`` usable pairs gets a warning: with so few, run-to-run
noise alone can put the medians more than an interquartile range apart.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RAW = "median_raw."
FAULTS = "run.minor_faults_per_pass"
MIN_PAIRS = 10


def parse_seeds(text: str) -> list[int]:
    """``'A..B'`` (inclusive) or a comma list."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split("..", 1))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",") if t.strip()]


def quartiles(values) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, linear interpolation
    between order statistics (numpy's default percentile rule)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str | None) -> dict:
    """Pair statistics of one metric; ``parent[i]`` and ``change[i]`` are pair ``i``.

    ``better`` is ``"lower"``, ``"higher"`` or ``None`` (no direction: no
    wins are counted).  ``resolved`` says whether the medians differ by more
    than the parent's interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    out = {
        "better": better,
        "parent_per_pair": parent,
        "change_per_pair": change,
        "parent_median": p_med,
        "parent_quartiles": [p1, p3],
        "parent_iqr": p3 - p1,
        "change_median": c_med,
        "change_quartiles": [c1, c3],
        "change_iqr": c3 - c1,
        "change_over_parent": c_med / p_med if p_med else None,
        "resolved": abs(c_med - p_med) > p3 - p1,
    }
    if better is not None:
        won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
        out["change_wins"] = f"{won}/{len(parent)}"
    return out


def metric_directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> ``"lower"`` / ``"higher"`` from a ``BENCHMARK.json``,
    plus this tool's own fault count."""
    directions = {m["name"]: m["better"]
                  for key in ("end_to_end", "per_layer") for m in benchmark.get(key, ())}
    directions[FAULTS] = "lower"
    return directions


def raw_medians(passes: dict) -> dict:
    """``median_raw.*`` metrics of one run's ``passes.json``: the median raw
    set-up seconds and, per phase, the median over untraced passes of
    member-steps per raw second."""
    untraced = [p for p in passes["passes"] if not p["traced"]]
    metrics = {RAW + "setup_s": {"value": statistics.median(passes["raw_setup_seconds"]),
                                 "unit": "s"}}
    for phase in untraced[0]["raw_seconds"]:
        rate = statistics.median(p["member_steps"][phase] / p["raw_seconds"][phase]
                                 for p in untraced)
        metrics[f"{RAW}{phase}.member_steps_per_s"] = {"value": rate, "unit": "member-steps/s"}
    return metrics


def export(repo: Path, rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest``; returns the full commit id."""
    commit = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", rev + "^{commit}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as archive:
        subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                       check=True, stdout=archive)
        archive.seek(0)
        with tarfile.open(fileobj=archive) as tar:
            tar.extractall(dest, filter="data")
    return commit


def run_perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run with ``PYTHONHASHSEED`` set to ``seed``; its JSON
    record, with ``"ok"`` false if it failed."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONHASHSEED": str(seed)})
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "error": (proc.stderr or proc.stdout)[-2000:]}
    record["ok"] = proc.returncode == 0 and bool(record.get("correct"))
    path = checkout / "perfbench_out" / workload / "passes.json"
    if "metrics" in record and path.is_file():
        passes = json.loads(path.read_text())
        record["metrics"].update(raw_medians(passes))
        record["metrics"][FAULTS] = {"value": faults / len(passes["passes"]),
                                     "unit": "faults"}
    return record


def collect(records: list[tuple[dict, dict]], directions: dict) -> dict:
    """Summaries of every metric both sides reported in every pair; a
    ``median_raw.*`` metric takes the direction of the metric it mirrors."""
    names = set.intersection(*(set(r["metrics"]) for pair in records for r in pair))
    return {name: summarize([p["metrics"][name]["value"] for p, _ in records],
                            [c["metrics"][name]["value"] for _, c in records],
                            directions.get(name.removeprefix(RAW)))
            for name in sorted(names)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the baseline")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workloads", required=True, help="comma list of perfbench workloads")
    parser.add_argument("--seeds", required=True, help="'A..B' (inclusive) or a comma list")
    parser.add_argument("--label", required=True, help="output is BENCH_<label>.json")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repo", type=Path, default=REPO, help="git repository to export from")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory to export the two checkouts into, as parent/ and "
                             "change/, which must not exist yet (default: a temporary one)")
    parser.add_argument("--out", type=Path, default=Path.cwd(),
                        help="directory to write BENCH_<label>.json in")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if not seeds or not workloads:
        parser.error("need at least one seed and one workload")

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        sides = {}
        commits = {}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            sides[side] = work / side
            commits[side] = export(args.repo, rev, sides[side])
        directions = metric_directions(
            json.loads((sides["change"] / "BENCHMARK.json").read_text()))

        result = {"label": args.label, "parent": commits["parent"], "change": commits["change"],
                  "harness": f"PYTHONHASHSEED=S python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {args.seconds:g} --trace {args.trace}",
                  "pairing": "one parent and one change run per seed and workload; the side "
                             "that runs first alternates from seed to seed (parent first on "
                             "the first seed)",
                  "seeds": seeds, "workloads": {}}
        for workload in workloads:
            records = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run_perfbench(sides[side], workload, seed, args.seconds,
                                               args.trace)
                    value = pair[side].get("metrics", {}).get("rons.member_steps_per_s", {})
                    print(f"{workload} seed {seed} {side}: ok={pair[side]['ok']} "
                          f"rons={value.get('value')}", flush=True)
                records.append((pair["parent"], pair["change"]))
            usable = [(p, c) for p, c in records if "metrics" in p and "metrics" in c]
            if len(usable) < MIN_PAIRS:
                print(f"warning: {workload} has {len(usable)} usable pair(s), fewer than "
                      f"{MIN_PAIRS}; its 'resolved' and win counts are not evidence",
                      file=sys.stderr, flush=True)
            result["workloads"][workload] = {
                "pairs": len(usable),
                "all_correct": all(p["ok"] and c["ok"] for p, c in records),
                "errors": [r["error"] for pair in records for r in pair if "error" in r],
                "metrics": collect(usable, directions) if usable else {},
            }

    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
