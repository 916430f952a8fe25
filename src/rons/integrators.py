"""Explicit time steppers and an integration driver with observer support."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, StepCollapseError, ValidationError


def _require_finite(stage: np.ndarray, label: str):
    if not np.all(np.isfinite(stage)):
        raise DivergenceError(f"non-finite values in {label}")


def step_rk4(rhs, y, dt: float):
    """One classical four-stage Runge-Kutta step for ``y' = rhs(y)``."""
    if dt <= 0:
        raise ValidationError("dt must be positive")
    y = np.asarray(y)
    k1 = np.asarray(rhs(y))
    _require_finite(k1, "RK4 stage 1")
    k2 = np.asarray(rhs(y + 0.5 * dt * k1))
    _require_finite(k2, "RK4 stage 2")
    k3 = np.asarray(rhs(y + 0.5 * dt * k2))
    _require_finite(k3, "RK4 stage 3")
    k4 = np.asarray(rhs(y + dt * k3))
    _require_finite(k4, "RK4 stage 4")
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    _require_finite(f0, "SSP-RK3 stage 1")
    y1 = y + dt * f0
    f1 = np.asarray(rhs(y1))
    _require_finite(f1, "SSP-RK3 stage 2")
    y2 = 0.75 * y + 0.25 * (y1 + dt * f1)
    f2 = np.asarray(rhs(y2))
    _require_finite(f2, "SSP-RK3 stage 3")
    return y / 3.0 + (2.0 / 3.0) * (y2 + dt * f2)


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
