"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload swe-pulse --seed 0 --seconds 35 --trace 0

``--trace 0`` repeats untraced passes of the workload's phases for about
``--seconds`` seconds and reports the end-to-end metrics (medians over
passes).  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; the spans go to
``perfbench_out/<workload>/trace.json``.  Every pass runs the workload's
correctness checks.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def limit_threads():
    """One BLAS/OpenMP thread, whatever the caller's environment says.

    Must run before numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def environment(workload, inputs) -> dict:
    import numpy as np
    import scipy

    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append({key: (index / key).read_text().strip()
                           for key in ("level", "type", "size", "shared_cpu_list")})
        except OSError:
            continue
    cpu_model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_model": cpu_model,
        "caches": caches,
        "working_set": workload.working_set(inputs),
    }


def set_up(workload, inputs):
    return [workload.setup(inputs) for _ in range(workload.setup_batch)]


def run_pass(workload, state, index, clock, tracer=None, patches=()):
    """All phases once, then the checks; returns times, results and ops."""
    raw, times, results = {}, {}, {}
    clock.refresh()
    for phase in workload.phases:
        if tracer is not None:
            tracer.run = f"{index}/{phase}"
        with tracer.installed(patches) if tracer else contextlib.nullcontext():
            results[phase], raw[phase], times[phase] = clock.time(
                workload.reference_kind(phase), workload.run_phase, phase, state)
    ops = workload.check(state, results)
    digests = {phase: workload.digest(phase, results[phase]) for phase in workload.phases}
    steps = {phase: workload.member_steps(phase, results[phase]) for phase in workload.phases}
    return {"index": index, "times": times, "raw_times": raw, "ops": ops,
            "digests": digests, "member_steps": steps}


def mark_mismatches(run, reference, why):
    """Fail every op of a phase whose outputs differ from the reference pass."""
    for op in run["ops"]:
        if run["digests"][op.phase] != reference["digests"][op.phase]:
            op.ok = False
            op.detail += f"; outputs differ from {why}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import rons

    if Path(rons.__file__).resolve().parent != ROOT / "src" / "rons":
        print(f"rons imported from {rons.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import layers
    import report
    import workloads
    from clock import CalibratedClock
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    out_dir = ROOT / "perfbench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    workload = workloads.WORKLOADS[args.workload](out_dir)
    inputs = workload.inputs(args.seed)

    env = environment(workload, inputs)
    print("environment: " + json.dumps(env))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "environment.json").write_text(json.dumps(env, indent=2) + "\n")

    clock = CalibratedClock()
    ops = []
    setup_times, raw_setup_times = [], []
    state = None
    for _ in range(workload.setup_repeats):
        candidates, raw, scaled = clock.time(
            workload.reference_kind("setup"), set_up, workload, inputs)
        raw_setup_times.append(raw / len(candidates))
        setup_times.append(scaled / len(candidates))
        state = state or candidates[0]
        ops += workload.setup_ops(candidates[0], state)

    tracer = Tracer() if args.trace else None
    patches = layers.patches(tracer) if tracer else ()
    traced_state = None
    if tracer:
        tracer.run = "setup"
        with tracer.installed(patches):
            traced_state = workload.setup(inputs)
        ops += workload.setup_ops(traced_state, state)

    deadline = perf_counter() + args.seconds
    untraced, traced = [], []
    while True:
        trace_now = tracer is not None and len(untraced) > len(traced)
        start = perf_counter()
        if trace_now:
            run = run_pass(workload, traced_state, len(untraced) + len(traced), clock, tracer,
                           patches)
            traced.append(run)
        else:
            run = run_pass(workload, state, len(untraced) + len(traced), clock)
            untraced.append(run)
        mark_mismatches(run, untraced[0], "the first untraced pass")
        ops += run["ops"]
        took = perf_counter() - start
        enough = len(untraced) >= 1 and (tracer is None or len(traced) >= 1)
        if enough and perf_counter() + took > deadline:
            break

    probe = workload.probe(state)

    failed = [op for op in ops if not op.ok]
    for op in failed[:20]:
        print(f"FAILED {op.phase} {op.label}: {op.detail}")
    print(f"operations: {len(ops)} attempted, {len(failed)} failed")

    passes = [{"index": r["index"], "traced": r in traced, "seconds": r["times"],
               "raw_seconds": r["raw_times"], "member_steps": r["member_steps"]}
              for r in untraced + traced]
    (out_dir / "passes.json").write_text(json.dumps(
        {"setup_seconds": setup_times, "raw_setup_seconds": raw_setup_times,
         "passes": passes}, indent=1) + "\n")
    if tracer is None:
        metrics = report.end_to_end(workload, untraced, setup_times, ops, failed)
    else:
        tracer.dump(out_dir / "trace.json")
        metrics = report.per_layer(workload, tracer, untraced, traced, probe,
                                   raw_setup_times)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
