"""Explicit time steppers and an integration driver with observer support."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, StepCollapseError, ValidationError


def _require_finite(state: np.ndarray, label: str):
    if not np.isfinite(state).all():
        raise DivergenceError(f"non-finite values in {label}")


def _owned(y: np.ndarray, *derivatives: np.ndarray) -> np.ndarray:
    """A new state-shaped array of the type ``y + c * k`` has for these ``k``."""
    return np.empty(y.shape, np.result_type(y, *derivatives, 1.0))


def _spare(stage: np.ndarray, derivative: np.ndarray) -> np.ndarray:
    """``stage`` to write the next stage into, or a new array when the
    derivative ``rhs`` returned for it shares its memory."""
    return np.empty_like(stage) if np.may_share_memory(stage, derivative) else stage


# The steppers write every stage input with ``out=`` into arrays they
# allocate, in the arithmetic order of the textbook formulas, so the output
# is bitwise the same.  They never write into an array ``rhs`` returned (it
# may be its input or a shared constant), so a stage buffer is reused only
# when the derivative of that stage does not share its memory.  The new
# state is a new array, allocated after the last ``rhs`` call: a long-lived
# array allocated between the flux evaluations of a batched step changed
# where glibc's heap grows and trims, and a 100-member, 256-cell ensemble
# then took about four times the page faults and ran 10% slower.  Every
# stage derivative enters the new state with a nonzero weight, so one
# finiteness check of that state catches a non-finite stage.


def step_rk4(rhs, y, dt: float):
    """One classical four-stage Runge-Kutta step for ``y' = rhs(y)``."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    y = np.asarray(y)
    k1 = np.asarray(rhs(y))
    stage = _owned(y, k1)
    np.multiply(0.5 * dt, k1, out=stage)
    stage += y
    k2 = np.asarray(rhs(stage))
    # ((k1 + 2 k2) + 2 k3) + k4
    total = _owned(y, k1, k2)
    np.multiply(2.0, k2, out=total)
    total += k1
    stage = _spare(stage, k2)
    np.multiply(0.5 * dt, k2, out=stage)
    stage += y
    k3 = np.asarray(rhs(stage))
    stage = _spare(stage, k3)
    np.multiply(2.0, k3, out=stage)
    total += stage
    np.multiply(dt, k3, out=stage)
    stage += y
    total += np.asarray(rhs(stage))
    out = np.multiply(dt / 6.0, total)
    out += y
    _require_finite(out, "RK4 step")
    return out


def step_ssprk3(rhs, y, dt: float):
    """One third-order strong-stability-preserving Runge-Kutta step.

    Shu-Osher form:
        y1 = y + dt F(y)
        y2 = 3/4 y + 1/4 (y1 + dt F(y1))
        y+ = 1/3 y + 2/3 (y2 + dt F(y2))
    """
    if dt <= 0:
        raise ValidationError("dt must be positive")
    y = np.asarray(y)
    f0 = np.asarray(rhs(y))
    stage = _owned(y, f0)
    np.multiply(dt, f0, out=stage)
    stage += y
    f1 = np.asarray(rhs(stage))
    part = _owned(y, f0, f1)
    np.multiply(dt, f1, out=part)
    part += stage
    np.multiply(0.25, part, out=part)
    stage = _spare(stage, f1)
    np.multiply(0.75, y, out=stage)
    stage += part
    f2 = np.asarray(rhs(stage))
    np.multiply(dt, f2, out=part)
    part += stage
    np.multiply(2.0 / 3.0, part, out=part)
    out = np.empty_like(part)
    np.divide(y, 3.0, out=out)
    out += part
    _require_finite(out, "SSP-RK3 step")
    return out


@dataclass
class StepSchedule:
    """Fixed-step or CFL-driven step-size rule up to ``t_final``.

    Exactly one of ``dt`` (fixed step) or ``cfl`` (state -> dt callback) must
    be given.  ``max_steps`` guards against step collapse when a CFL callback
    returns ever-smaller steps.
    """

    t_final: float
    dt: float | None = None
    cfl: Callable | None = None
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.t_final <= 0:
            raise ValidationError("t_final must be positive")
        if (self.dt is None) == (self.cfl is None):
            raise ValidationError("give exactly one of dt or cfl")
        if self.dt is not None and self.dt <= 0:
            raise ValidationError("dt must be positive")
        if self.max_steps < 1:
            raise ValidationError("max_steps must be at least 1")

    def step_size(self, y) -> float:
        if self.dt is not None:
            return self.dt
        dt = float(self.cfl(y))
        if not np.isfinite(dt) or dt <= 0:
            raise StepCollapseError(f"CFL callback returned invalid dt={dt}")
        return dt


@dataclass
class Trajectory:
    """Recorded observations of one integration.

    ``times`` starts at 0 and ends exactly at ``t_final``.  ``states`` matches
    ``times`` entry for entry (``None`` when state storage was disabled);
    ``diagnostics`` holds one dict per observation with observer outputs.
    ``dt_history`` records every accepted step.
    """

    times: np.ndarray
    states: list | None
    diagnostics: list[dict]
    dt_history: np.ndarray

    @property
    def final_state(self):
        if self.states:
            return self.states[-1]
        return None


def integrate(
    rhs,
    y0,
    schedule: StepSchedule,
    *,
    stepper=step_rk4,
    observers: Sequence[Callable] = (),
    observe_every: float | None = None,
    checkpoints: Sequence[float] = (),
    store_states: bool = True,
) -> Trajectory:
    """Advance ``y' = rhs(y)`` to ``t_final``, recording observations.

    The last step is clipped to land exactly on ``t_final``; steps are also
    clipped to land on each requested checkpoint time.  ``observe_every``
    samples at that cadence in simulation-time units (observations happen at
    the first step boundary at or past each sample point); ``None`` records
    every step.  Observers are callables ``(t, y) -> dict | None``.
    """
    if observe_every is not None and not observe_every > 0:
        raise ValidationError(f"observe_every must be positive, got {observe_every}")
    t_final = schedule.t_final
    y = np.array(y0, copy=True)
    t = 0.0
    eps = 1e-14 * max(t_final, 1.0)

    cps = sorted({float(c) for c in checkpoints if 0.0 < float(c) < t_final})
    cp_index = 0
    obs_count = 1  # next observation grid point is obs_count * observe_every

    times = [0.0]
    states = [y.copy()] if store_states else None
    dt_history: list[float] = []
    diagnostics = [_observe(observers, 0.0, y)]

    steps = 0
    while t < t_final - eps:
        if steps >= schedule.max_steps:
            raise StepCollapseError(
                f"exceeded max_steps={schedule.max_steps} at t={t:.6g}"
            )
        dt = schedule.step_size(y)
        landed = None
        if cp_index < len(cps) and t + dt >= cps[cp_index] - eps:
            dt = cps[cp_index] - t
            landed = cps[cp_index]
            cp_index += 1
        if t + dt >= t_final - eps:
            dt = t_final - t
            landed = t_final
        try:
            y = stepper(rhs, y, dt)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} at t={t:.6g}", time=t) from None
        t = landed if landed is not None else t + dt
        steps += 1
        dt_history.append(dt)

        due = observe_every is None or landed is not None
        if not due and t >= obs_count * observe_every - eps:
            due = True
        if observe_every is not None:
            while obs_count * observe_every <= t + eps:
                obs_count += 1
        if due:
            times.append(t)
            if store_states:
                states.append(y.copy())
            diagnostics.append(_observe(observers, t, y))

    return Trajectory(
        times=np.asarray(times),
        states=states,
        diagnostics=diagnostics,
        dt_history=np.asarray(dt_history),
    )


def _observe(observers, t, y) -> dict:
    record = {"time": t}
    for obs in observers:
        out = obs(t, y)
        if out:
            record.update(out)
    return record
