"""Metrics of one benchmark run, from its passes and (traced runs) its spans.

Timings are medians over the passes of the run; phase times are the rescaled
ones of :mod:`clock`.
"""

from __future__ import annotations

import resource
import statistics

import layers
from spans import RunSummary


def wall(run, key="times"):
    """Rescaled (or, with ``key="raw_times"``, raw) time of all phases of one pass."""
    return sum(run[key].values())


def end_to_end(workload, runs, setup_times, ops, failed) -> dict:
    rates = {phase: statistics.median(r["member_steps"][phase] / r["times"][phase] for r in runs)
             for phase in workload.phases}
    for alias, phase in workload.aliases.items():
        rates[alias] = rates[phase]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(map(wall, runs)), "s"),
        **{f"{phase}.member_steps_per_s": (rates[phase], "member-steps/s")
           for phase in ("plain", "rons", "rons_single")},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_frac": ((len(ops) - len(failed)) / len(ops), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def fastest_raw(workload, runs, raw_setup_times) -> dict:
    """Raw (not rescaled) figures of the fastest set-up and untraced passes."""
    rates = {phase: max(r["member_steps"][phase] / r["raw_times"][phase] for r in runs)
             for phase in workload.phases}
    for alias, phase in workload.aliases.items():
        rates[alias] = rates[phase]
    return {
        "raw.setup_s": min(raw_setup_times),
        "raw.wall_s": min(wall(r, "raw_times") for r in runs),
        **{f"raw.{phase}.member_steps_per_s": rates[phase]
           for phase in ("plain", "rons", "rons_single")},
    }


def per_layer(workload, tracer, untraced, traced, probe, raw_setup_times) -> dict:
    def summary(run):
        return RunSummary(tracer.spans, run, tracer.counters.get(run))

    setup = layers.layer_metrics(summary("setup"))
    dns_us = setup["nls.dns.us_per_member_step"]
    by_phase = {"setup": setup}
    for phase in workload.phases:
        samples = []
        for run in traced:
            m = layers.layer_metrics(summary(f"{run['index']}/{phase}"))
            m["nls.rom_over_dns_step"] = (
                m["nls.rom.us_per_member_step"] / dns_us if dns_us else 0.0
            )
            samples.append(m)
        by_phase[phase] = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    for alias, phase in workload.aliases.items():
        by_phase[alias] = by_phase[phase]

    metrics = {}
    for phase, names in layers.PHASE_METRICS.items():
        for name in names:
            metrics[f"{phase}.{name}"] = by_phase.get(phase, {}).get(name, 0.0)
    metrics["trace.overhead_frac"] = (
        statistics.median(map(wall, traced)) / statistics.median(map(wall, untraced)) - 1.0
    )
    metrics["rest.failed_members"] = probe.get("rest.failed_members", 0)
    metrics.update(fastest_raw(workload, untraced, raw_setup_times))
    return {name: {"value": value, "unit": layers.unit_of(name)}
            for name, value in metrics.items()}
