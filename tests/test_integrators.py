import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from rons import nls
from rons.errors import DivergenceError, StepCollapseError, ValidationError
from rons.integrators import (
    StepSchedule,
    integrate,
    step_rk4,
    step_ssprk3,
)


def decay(y):
    return -y


def reference_rk4(rhs, y, dt):
    """Oracle: the out-of-place RK4 step, one fresh array per operation."""
    y = np.asarray(y)
    k1 = np.asarray(rhs(y))
    k2 = np.asarray(rhs(y + 0.5 * dt * k1))
    k3 = np.asarray(rhs(y + 0.5 * dt * k2))
    k4 = np.asarray(rhs(y + dt * k3))
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_ssprk3(rhs, y, dt):
    """Oracle: the out-of-place Shu-Osher SSP-RK3 step."""
    y = np.asarray(y)
    f0 = np.asarray(rhs(y))
    y1 = y + dt * f0
    f1 = np.asarray(rhs(y1))
    y2 = 0.75 * y + 0.25 * (y1 + dt * f1)
    f2 = np.asarray(rhs(y2))
    return y / 3.0 + (2.0 / 3.0) * (y2 + dt * f2)


STEPPERS = [(step_rk4, reference_rk4), (step_ssprk3, reference_ssprk3)]


def make_rhs(kind, y):
    """A right-hand side of one kind for states like ``y``: linear, cubic,
    one that returns its input, or one that returns a shared read-only array."""
    y = np.asarray(y)
    if kind == "linear":
        rate = -0.7 + 0.3j if np.iscomplexobj(y) else -0.7
        return lambda v: rate * v
    if kind == "cubic":
        return lambda v: 0.5 * v - v * v * v
    if kind == "identity":
        return lambda v: v
    shared = np.full(y.shape, 0.25 - 0.5j if np.iscomplexobj(y) else 0.25)
    shared.setflags(write=False)
    return lambda v: shared


def recording(rhs):
    """``rhs`` that keeps every array it returned, beside a copy taken then."""
    returned = []

    def wrapped(v):
        out = rhs(v)
        returned.append((out, np.array(out, copy=True)))
        return out

    return wrapped, returned


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def stepper_cases(draw):
    """A state of one of several shapes, real or complex, a right-hand-side
    kind and a step size."""
    shape = draw(st.sampled_from([(), (3,), (2, 5), (4, 2, 7)]))
    parts = draw(hnp.arrays(float, (2,) + shape, elements=st.floats(-2.0, 2.0)))
    y = parts[0] + 1j * parts[1] if draw(st.booleans()) else parts[0]
    kind = draw(st.sampled_from(["linear", "cubic", "identity", "shared"]))
    return y, kind, draw(st.floats(1e-3, 0.5))


class TestInPlaceSteppers:
    """The steppers against their out-of-place oracles, and what they may write."""

    @pytest.mark.parametrize("stepper, reference", STEPPERS)
    @given(case=stepper_cases())
    def test_bitwise_equal_and_write_only_their_own_arrays(self, stepper, reference, case):
        y, kind, dt = case
        y_before = y.copy()
        rhs, returned = recording(make_rhs(kind, y))
        first = stepper(rhs, y, dt)
        assert_bitwise(first, reference(make_rhs(kind, y), y, dt))
        assert_bitwise(y, y_before)
        assert not np.may_share_memory(first, y)

        first_before = np.array(first, copy=True)
        second = stepper(rhs, first, dt)
        assert_bitwise(second, reference(make_rhs(kind, y), first_before, dt))
        assert_bitwise(first, first_before)
        assert not np.may_share_memory(second, first)
        assert not np.may_share_memory(second, y)
        for out, copy in returned:
            assert_bitwise(out, copy)

    @pytest.mark.parametrize("stepper, reference", STEPPERS)
    @pytest.mark.parametrize("kind", ["linear", "identity"])
    def test_integer_state_promoted(self, stepper, reference, kind):
        y = np.arange(6).reshape(2, 3)
        out = stepper(make_rhs(kind, y), y, 0.1)
        assert out.dtype == np.float64
        assert_bitwise(out, reference(make_rhs(kind, y), y, 0.1))
        assert y.dtype.kind == "i" and np.array_equal(y, np.arange(6).reshape(2, 3))

    @pytest.mark.parametrize("stepper, label", [(step_rk4, "RK4"), (step_ssprk3, "SSP-RK3")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_later_stage_reaches_the_one_check(self, stepper, label, bad):
        calls = []

        def rhs(v):
            calls.append(1)
            return np.full_like(v, bad) if len(calls) == 2 else -v

        with pytest.raises(DivergenceError, match=f"{label} step"):
            with np.errstate(invalid="ignore"):
                stepper(rhs, np.array([1.0, 2.0]), 0.1)

    def test_dns_run_batch_matches_reference_rk4_on_stateless_rhs(self):
        # the run's closure reuses its buffers from one evaluation to the next;
        # the reference evaluates with fresh arrays every time
        length, cadence = nls.DEFAULT_LENGTH, 0.5
        ics = [nls.nls_random_ic(s, length, 64) for s in (3, 4)]
        series, diag = nls.dns_run_batch(ics, 2.0, cadence)
        spec = np.stack([ic.coefficients for ic in ics])
        traj = integrate(lambda s: nls._rhs_spectrum(s, length), spec,
                         StepSchedule(t_final=2.0, dt=nls.stable_dt(64, length)),
                         stepper=reference_rk4, observe_every=cadence)
        fields = np.fft.ifft(np.stack(traj.states), axis=-1)
        mass, energy = nls.field_invariants(fields, length)
        for member, run in enumerate(series):
            assert_bitwise(run.times, traj.times)
            assert_bitwise(run.snapshots, fields[:, member])
        assert_bitwise(diag["mass"], mass)
        assert_bitwise(diag["energy"], energy)
        assert diag["n_steps"] == len(traj.dt_history)


class TestSteppers:
    def test_rk4_linear_decay(self):
        # oracle: RK4 on y' = -y gives (1 - h + h^2/2 - h^3/6 + h^4/24) y
        out = step_rk4(decay, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(0.90483750, abs=1e-12)
        assert abs(out[0] - math.exp(-0.1)) < 1e-7

    def test_rk4_zero_rhs(self):
        y = np.array([3.0, -2.0])
        assert np.array_equal(step_rk4(lambda y: np.zeros_like(y), y, 0.5), y)

    def test_rk4_polynomial_exactness(self):
        out = step_rk4(lambda y: np.ones_like(y), np.array([0.0]), 0.5)
        assert out[0] == 0.5

    def test_ssprk3_linear_decay(self):
        # oracle: expanding the three Shu-Osher stages for y' = -y gives
        # (1 - h + h^2/2 - h^3/6) y = 0.9048333... at h = 0.1
        out = step_ssprk3(decay, np.array([1.0]), 0.1)
        assert out[0] == pytest.approx(0.9048333333333333, abs=1e-15)
        assert abs(out[0] - math.exp(-0.1)) < 5e-6  # O(h^4) truncation

    def test_ssprk3_zero_rhs(self):
        y = np.array([1.5])
        assert np.allclose(step_ssprk3(lambda y: np.zeros_like(y), y, 0.3), y)

    def test_ssprk3_order_on_linear_system(self):
        a = np.array([[0.0, 1.0], [-4.0, -0.4]])
        rhs = lambda y: a @ y
        y0 = np.array([1.0, 0.0])

        def err(h):
            y = y0.copy()
            for _ in range(round(1.0 / h)):
                y = step_ssprk3(rhs, y, h)
            from scipy.linalg import expm

            return np.linalg.norm(y - expm(a) @ y0)

        ratio = err(0.02) / err(0.01)
        assert ratio == pytest.approx(8.0, rel=0.15)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValidationError):
            step_rk4(decay, np.array([1.0]), 0.0)

    def test_divergence_detected_per_stage(self):
        def blow_up(y):
            return y / 0.0  # inf

        with pytest.raises(DivergenceError):
            with np.errstate(divide="ignore", invalid="ignore"):
                step_rk4(blow_up, np.array([1.0]), 0.1)


class TestSchedule:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValidationError):
            StepSchedule(t_final=1.0)
        with pytest.raises(ValidationError):
            StepSchedule(t_final=1.0, dt=0.1, cfl=lambda y: 0.1)

    def test_invalid_cfl_output(self):
        schedule = StepSchedule(t_final=1.0, cfl=lambda y: -1.0)
        with pytest.raises(StepCollapseError):
            schedule.step_size(np.zeros(1))


class TestIntegrate:
    def test_fixed_step_times(self):
        traj = integrate(decay, np.array([1.0]), StepSchedule(t_final=1.0, dt=0.25))
        assert np.allclose(traj.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert len(traj.dt_history) == 4

    def test_cfl_clipped_final_step(self):
        traj = integrate(
            decay, np.array([1.0]), StepSchedule(t_final=1.0, cfl=lambda y: 0.3)
        )
        assert np.allclose(traj.dt_history, [0.3, 0.3, 0.3, 0.1])
        assert traj.times[-1] == 1.0

    def test_accuracy_against_exact_solution(self):
        traj = integrate(decay, np.array([1.0]), StepSchedule(t_final=1.0, dt=1e-3))
        assert abs(traj.states[-1][0] - math.exp(-1.0)) < 1e-12

    def test_final_time_exact(self):
        traj = integrate(decay, np.array([1.0]), StepSchedule(t_final=0.7, cfl=lambda y: 0.11))
        assert abs(traj.times[-1] - 0.7) <= 1e-14 * 0.7

    def test_observer_cadence(self):
        seen = []

        def obs(t, y):
            seen.append(t)
            return {"y0": float(y[0])}

        traj = integrate(
            decay,
            np.array([1.0]),
            StepSchedule(t_final=1.0, dt=0.05),
            observers=(obs,),
            observe_every=0.25,
        )
        # observed at start plus the first step boundary past each sample point
        assert seen[0] == 0.0
        assert len(traj.times) == 5
        assert all("y0" in d for d in traj.diagnostics)

    def test_checkpoints_hit_exactly(self):
        traj = integrate(
            decay,
            np.array([1.0]),
            StepSchedule(t_final=1.0, dt=0.3),
            checkpoints=(0.5,),
        )
        assert 0.5 in traj.times.tolist()

    def test_determinism_bitwise(self):
        rhs = lambda y: np.sin(y) - 0.1 * y
        t1 = integrate(rhs, np.array([0.3, 0.7]), StepSchedule(t_final=2.0, dt=0.01))
        t2 = integrate(rhs, np.array([0.3, 0.7]), StepSchedule(t_final=2.0, dt=0.01))
        assert all(np.array_equal(a, b) for a, b in zip(t1.states, t2.states))

    def test_max_steps_guard(self):
        with pytest.raises(StepCollapseError):
            integrate(
                decay,
                np.array([1.0]),
                StepSchedule(t_final=1.0, cfl=lambda y: 1e-9, max_steps=100),
            )

    def test_divergence_carries_time(self):
        def rhs(y):
            return np.array([np.inf]) if y[0] < 0.5 else -y

        with pytest.raises(DivergenceError) as info:
            integrate(rhs, np.array([1.0]), StepSchedule(t_final=10.0, dt=0.25))
        assert info.value.time is not None

    @pytest.mark.parametrize("cadence", [0.0, -1.0, float("nan")])
    def test_non_positive_cadence_rejected_before_stepping(self, cadence):
        calls = []

        def rhs(y):
            calls.append(1)
            return -y

        with pytest.raises(ValidationError, match="observe_every"):
            integrate(rhs, np.array([1.0]), StepSchedule(t_final=1.0, dt=0.5),
                      observe_every=cadence)
        assert not calls

    def test_store_states_off(self):
        traj = integrate(decay, np.array([1.0]), StepSchedule(t_final=1.0, dt=0.5),
                         store_states=False)
        assert traj.states is None


class TestConvergenceOrders:
    """Measured order on y' = -y + sin t via time-augmented state."""

    @staticmethod
    def _exact(t):
        # y(0) = 1: y(t) = 1.5 exp(-t) + (sin t - cos t) / 2
        return 1.5 * math.exp(-t) + 0.5 * (math.sin(t) - math.cos(t))

    @staticmethod
    def _rhs(state):
        y, t = state
        return np.array([-y + math.sin(t), 1.0])

    def _error(self, stepper, h):
        traj = integrate(
            self._rhs, np.array([1.0, 0.0]), StepSchedule(t_final=1.0, dt=h),
            stepper=stepper, store_states=True,
        )
        return abs(traj.states[-1][0] - self._exact(1.0))

    def test_rk4_order(self):
        order = math.log2(self._error(step_rk4, 0.05) / self._error(step_rk4, 0.025))
        assert order >= 3.9

    def test_ssprk3_order(self):
        order = math.log2(
            self._error(step_ssprk3, 0.05) / self._error(step_ssprk3, 0.025)
        )
        assert order >= 2.9
