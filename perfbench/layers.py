"""Which package entry points the traced run wraps, and the per-layer metrics.

Layers are the package modules: ``runner`` (with ``config``), ``io``,
``integrators``, ``fv``, ``swe``, ``core`` and ``nls``.  Each metric is taken
from the spans of one phase of one traced pass; see README.md for what each
one means and which end-to-end metric it should move.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from rons import core, fv, integrators, nls, runner, swe

from spans import RunSummary, Tracer

DNS = "nls.dns_run_batch"

#: Per-layer metrics by phase.  A workload reports 0 for a layer it does not
#: exercise in that phase (no DNS in the SWE workloads, no flux in ``nls-rom``).
SETUP_METRICS = (
    "integrators.steps", "integrators.rhs_evals", "integrators.stage.s",
    "integrators.loop.s", "nls.dns.rhs.s", "nls.dns.us_per_member_step", "nls.pod.s",
)
_RUN_METRICS = (
    "runner.run.s", "runner.failed_seeds", "io.write.s", "io.files", "io.bytes",
    "integrators.steps", "integrators.rhs_evals", "integrators.stage.s",
    "integrators.loop.s", "integrators.observe.s", "fv.check.s",
    "swe.flux.calls", "swe.flux.s", "swe.flux.us_per_call", "swe.cfl.s",
    "nls.rom.rhs.s", "nls.rom.full_rhs.s", "nls.rom.us_per_member_step",
    "nls.rom_over_dns_step", "correction_over_flux",
)
_CONSTRAINED_METRICS = (
    "fv.fvrons.s", "swe.grad.s", "core.correction.s", "core.lagrange.calls",
    "core.lagrange.s",
)
PHASE_METRICS = {
    "setup": SETUP_METRICS,
    "plain": _RUN_METRICS,
    "rons": _RUN_METRICS + _CONSTRAINED_METRICS,
    "rons_single": _RUN_METRICS + _CONSTRAINED_METRICS + ("nls.rom.grad.s",),
}
WORKLOAD_METRICS = ("trace.overhead_frac", "rest.failed_members")
#: End-to-end timings from raw seconds, not rescaled (see clock.py)
RAW_METRICS = ("raw.setup_s", "raw.wall_s", "raw.plain.member_steps_per_s",
               "raw.rons.member_steps_per_s", "raw.rons_single.member_steps_per_s")


def per_layer_names() -> list[str]:
    names = [f"{phase}.{m}" for phase, metrics in PHASE_METRICS.items() for m in metrics]
    return names + list(WORKLOAD_METRICS) + list(RAW_METRICS)


def unit_of(name: str) -> str:
    if name.endswith((".s", "setup_s", "wall_s")):
        return "s"
    if name.endswith("member_steps_per_s"):
        return "member-steps/s"
    if name.endswith(("us_per_call", "us_per_member_step")):
        return "us"
    if name.endswith("io.bytes"):
        return "bytes"
    if name.endswith(("_frac", "over_flux", "over_dns_step")):
        return "ratio"
    return "count"


def patches(tracer: Tracer):
    """``(module, attribute, make_wrapper)`` entries for :meth:`Tracer.installed`."""
    wrap = tracer.wrap

    def traced_integrate(span, batch_ndim):
        # ``batch_ndim`` tells batched initial states from single ones, so the
        # member-steps counter knows how many members one step advances.
        def make(original):
            def integrate(rhs, y0, schedule, **kwargs):
                kwargs["stepper"] = wrap(
                    "integrators.stage", kwargs.get("stepper", integrators.step_rk4)
                )
                kwargs["observers"] = tuple(
                    wrap("integrators.observe", o) for o in kwargs.get("observers", ())
                )

                def after(traj, args, kw):
                    if span == "nls.integrate" and not tracer.inside(DNS):
                        members = y0.shape[0] if np.ndim(y0) == batch_ndim else 1
                        tracer.count("nls.rom.member_steps", members * len(traj.dt_history))

                return wrap(span, original, after)(
                    wrap("integrators.rhs", rhs), y0, schedule, **kwargs
                )
            return integrate
        return make

    def traced_scheme(original):
        def central_upwind_scheme(config):
            scheme = original(config)
            return fv.FluxScheme(
                rhs=wrap("swe.flux", scheme.rhs), cfl_dt=wrap("swe.cfl", scheme.cfl_dt)
            )
        return central_upwind_scheme

    def traced_gradients(span):
        def make(original):
            def quantities(*args, **kwargs):
                return tuple(
                    core.ConservedQuantity(q.name, q.value, wrap(span, q.gradient))
                    for q in original(*args, **kwargs)
                )
            return quantities
        return make

    def span_only(span, after=None):
        return lambda original: wrap(span, original, after)

    def count_failed_seeds(record, args, kwargs):
        tracer.count("runner.failed_seeds", len(record.failed_seeds))

    def count_files(paths, args, kwargs):
        tracer.count("io.files", len(paths))
        tracer.count("io.bytes", sum(Path(p).stat().st_size for p in paths))

    def count_dns(result, args, kwargs):
        _, diagnostics = result
        tracer.count("nls.dns.member_steps", len(args[0]) * diagnostics["n_steps"])

    return (
        (runner, "run_experiment", span_only("runner.run_experiment", count_failed_seeds)),
        (runner, "write_outputs", span_only("runner.write_outputs", count_files)),
        (runner, "integrate", traced_integrate("runner.integrate", batch_ndim=3)),
        (nls, "integrate", traced_integrate("nls.integrate", batch_ndim=2)),
        (swe, "central_upwind_scheme", traced_scheme),
        (swe, "swe_quantities", traced_gradients("swe.grad")),
        (nls, "rom_quantities", traced_gradients("nls.rom.grad")),
        (fv, "fv_rhs", span_only("fv.fv_rhs")),
        (fv, "fvrons_rhs", span_only("fv.fvrons_rhs")),
        (core, "apply_invariant_correction", span_only("core.apply_invariant_correction")),
        (core, "solve_lagrange", span_only("core.solve_lagrange")),
        (nls, "nls_rhs_values", span_only("nls.nls_rhs_values")),
        (nls, "dns_run_batch", span_only(DNS, count_dns)),
        (nls, "compute_pod", span_only("nls.compute_pod")),
    )


def _per(total, count, scale=1.0):
    return scale * total / count if count else 0.0


def layer_metrics(s: RunSummary) -> dict:
    """Every per-layer metric of one phase; ``nls.rom_over_dns_step`` is left
    to the caller, which holds the set-up phase's DNS figure."""
    flux = s.total("swe.flux")
    flux_calls = s.calls("swe.flux")
    swe_rhs = s.total("integrators.rhs", within="runner.integrate")
    dns_steps = s.counters.get("nls.dns.member_steps", 0)
    rom_steps = s.counters.get("nls.rom.member_steps", 0)
    return {
        "runner.run.s": s.self_total("runner.run_experiment"),
        "runner.failed_seeds": s.counters.get("runner.failed_seeds", 0),
        "io.write.s": s.total("runner.write_outputs"),
        "io.files": s.counters.get("io.files", 0),
        "io.bytes": s.counters.get("io.bytes", 0),
        "integrators.steps": s.calls("integrators.stage"),
        "integrators.rhs_evals": s.calls("integrators.rhs"),
        "integrators.stage.s": s.self_total("integrators.stage"),
        "integrators.loop.s": s.self_total("runner.integrate") + s.self_total("nls.integrate"),
        "integrators.observe.s": s.total("integrators.observe"),
        "fv.check.s": s.self_total("fv.fv_rhs"),
        "fv.fvrons.s": s.self_total("fv.fvrons_rhs"),
        "swe.flux.calls": flux_calls,
        "swe.flux.s": flux,
        "swe.flux.us_per_call": _per(flux, flux_calls, 1e6),
        "swe.cfl.s": s.total("swe.cfl"),
        "swe.grad.s": s.total("swe.grad"),
        "core.correction.s": s.self_total("core.apply_invariant_correction"),
        "core.lagrange.calls": s.calls("core.solve_lagrange"),
        "core.lagrange.s": s.total("core.solve_lagrange"),
        "nls.dns.rhs.s": s.total("integrators.rhs", within=DNS),
        "nls.dns.us_per_member_step": _per(
            s.total("nls.integrate", within=DNS), dns_steps, 1e6
        ),
        "nls.pod.s": s.total("nls.compute_pod"),
        "nls.rom.rhs.s": s.total("integrators.rhs", within="nls.integrate", outside=DNS),
        "nls.rom.full_rhs.s": s.total("nls.nls_rhs_values", within="nls.integrate"),
        "nls.rom.grad.s": s.total("nls.rom.grad"),
        "nls.rom.us_per_member_step": _per(
            s.total("nls.integrate", outside=DNS), rom_steps, 1e6
        ),
        "correction_over_flux": _per(swe_rhs - flux, flux) if swe_rhs else 0.0,
    }
