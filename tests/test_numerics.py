import dataclasses
import itertools
import math
import re
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biosim import aerotaxis, growthcone, kelvin, numerics
from biosim.numerics import (
    Bracket,
    BracketError,
    Grid1D,
    IntegrationError,
    SingularMatrixError,
    StabilityError,
    dopri5_integrate,
    euler_integrate,
    expm,
    ftcs_diffusion_step,
    periodic_solution,
    rk4_integrate,
    run_fields,
    solve_linear_dense,
    solve_linear_ode,
    solve_scalar_root,
    upwind_advection_reaction_step,
)
from biosim.numerics import (  # the Dormand-Prince tableau, for _reference_dopri5
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64,
    _A65, _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _D1, _D3, _D4, _D5, _D6, _D7, _E1,
    _E3, _E4, _E5, _E6, _E7,
)


# ---------------------------------------------------------------- integrators

def test_rk4_zero_rhs_constant():
    traj = rk4_integrate(lambda t, y: np.zeros_like(y), [3.0, -1.0], 0.0, 2.0, 0.1)
    assert np.allclose(traj.states, [3.0, -1.0])
    assert traj.times[0] == 0.0 and traj.times[-1] == 2.0


def test_rk4_exponential_decay():
    # oracle: y(1) = exp(-1) for dy/dt = -y, y(0) = 1
    traj = rk4_integrate(lambda t, y: -y, [1.0], 0.0, 1.0, 0.1)
    assert abs(traj.final()[0] - math.exp(-1.0)) < 1e-6


def _max_err(integrator, h):
    exact = lambda t: math.exp(-t)
    traj = integrator(lambda t, y: -y, [1.0], 0.0, 1.0, h)
    return max(abs(traj.states[i, 0] - exact(t)) for i, t in enumerate(traj.times))


def test_rk4_observed_order():
    e1 = _max_err(rk4_integrate, 0.1)
    e2 = _max_err(rk4_integrate, 0.05)
    order = math.log2(e1 / e2)
    assert order >= 3.9


def test_euler_exponential_decay():
    traj = euler_integrate(lambda t, y: -y, [1.0], 0.0, 1.0, 0.1)
    assert abs(traj.final()[0] - math.exp(-1.0)) < 5e-2


def test_euler_observed_order():
    e1 = _max_err(euler_integrate, 0.1)
    e2 = _max_err(euler_integrate, 0.05)
    order = math.log2(e1 / e2)
    assert order >= 0.95


def test_integrator_aborts_on_nonfinite():
    def blowup(t, y):
        return np.array([float("nan")])

    with pytest.raises(IntegrationError, match="t="):
        rk4_integrate(blowup, [1.0], 0.0, 1.0, 0.1)


@pytest.mark.parametrize("integrate,message", [
    (rk4_integrate, "non-finite state after step at t=0.1"),
    (euler_integrate, "non-finite derivative at t=0.1"),
])
def test_integrator_overflow_raises_without_numpy_warnings(integrate, message):
    # overflow surfaces only as IntegrationError, with a plain float time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as err:
            integrate(lambda t, y: 1e300 * y * y, [1.0], 0.0, 1.0, 0.1)
    assert str(err.value) == message


def test_partial_final_step_lands_on_t1():
    traj = rk4_integrate(lambda t, y: -y, [1.0], 0.0, 0.25, 0.1)
    assert traj.times[-1] == 0.25
    assert abs(traj.final()[0] - math.exp(-0.25)) < 1e-6


def test_step_longer_than_span_keeps_both_ends():
    # a step a billion times the span once replaced t0 by t1
    traj = rk4_integrate(lambda t, y: -y, [1.0], 0.0, 1.0, 1e12)
    assert list(traj.times) == [0.0, 1.0]
    assert traj.states[0, 0] == 1.0
    exact = solve_linear_ode([[1.0]], [[-1.0]], [0.0], [1.0], 1.0, 1e12)
    assert exact.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-14)


@pytest.mark.parametrize("t1,h", [(1.0, math.inf), (1.0, math.nan), (math.inf, 0.1),
                                  (math.nan, 0.1)])
def test_step_grid_rejects_non_finite(t1, h):
    with pytest.raises(ValueError, match="finite"):
        rk4_integrate(lambda t, y: -y, [1.0], 0.0, t1, h)
    with pytest.raises(ValueError, match="finite"):
        solve_linear_ode([[1.0]], [[-1.0]], [0.0], [1.0], t1, h)
    with pytest.raises(ValueError, match="finite"):
        dopri5_integrate(lambda t, a, b: (-a, 0.0), [1.0, 0.0], t1, h)
    with pytest.raises(ValueError, match="finite"):
        rk4_integrate(lambda t, y: -y, [1.0], math.nan, 1.0, 0.1)


def test_step_grid_rejects_oversized_grid_before_allocating(monkeypatch):
    # 1e13 samples would need 80 TB; each sampled kernel refuses at once
    for call in (lambda: rk4_integrate(lambda t, y: -y, [1.0], 0.0, 10.0, 1e-12),
                 lambda: dopri5_integrate(lambda t, a, b: (-a, 0.0), [1.0, 0.0], 10.0, 1e-12),
                 lambda: solve_linear_ode([[1.0]], [[-1.0]], [0.0], [1.0], 10.0, 1e-12)):
        with pytest.raises(ValueError, match="1e\\+13 samples, above the cap of 10000000"):
            call()
    # a step too small for the ratio to be finite
    with pytest.raises(ValueError, match="inf samples"):
        rk4_integrate(lambda t, y: -y, [1.0], 0.0, 10.0, 5e-324)
    # the cap counts samples, a short final step included
    monkeypatch.setattr(numerics, "_MAX_SAMPLES", 11)
    assert len(numerics._step_times(0.0, 1.0, 0.1)) == 11
    for t1 in (1.1, 1.05):
        with pytest.raises(ValueError, match="above the cap of 11"):
            numerics._step_times(0.0, t1, 0.1)



def test_step_count_cap_boundary(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_SAMPLES", 10)
    assert numerics._step_count(1.0, 0.1) == 10
    assert numerics._step_count(1.04, 0.1) == 10    # rounds to the cap
    for t_end, dt in ((1.1, 0.1), (1.0, 5e-324)):
        with pytest.raises(ValueError, match="above the cap of 10"):
            numerics._step_count(t_end, dt)
    # a field run keeps its initial state, every k-th and a final one off
    # the stride, each of n nodes: here 2 x 5 values fit, 3 x 5 do not
    grid = Grid1D(n=5, dx=1.0, dt=0.1)
    # a grid holds at most the cap of nodes
    assert Grid1D(n=10, dx=1.0, dt=0.1).n == 10
    with pytest.raises(ValueError, match="grid of 11 nodes is above the cap of 10"):
        Grid1D(n=11, dx=1.0, dt=0.1)
    assert _count_run(0.1, grid, 1)[0].tolist() == [0.0, 0.1]
    assert _count_run(0.2, grid, 2)[0].tolist() == [0.0, 0.2]
    for t_end, every in ((0.2, 1), (0.3, 2)):
        calls = []
        with pytest.raises(ValueError, match="3 kept states of 5 nodes exceed"):
            _count_run(t_end, grid, every, calls)
        assert calls == []


# ---------------------------------------------------------------- field runs

def _count_run(t_end, grid, every, calls=None):
    """run_fields on one field that gains 1 per step, from 0; the step
    counts handed to advance are appended to calls."""
    calls = [] if calls is None else calls

    def advance(f, steps):
        calls.append(steps)
        return (f + steps,)
    times, blocks = run_fields(advance, (np.zeros(grid.n),), t_end, grid, every, "f")
    return times, blocks, calls


@pytest.mark.parametrize("t_end,every,counts", [
    (2.3, 5, [5, 5, 5, 5, 3]),      # the last interval is the remainder
    (2.0, 5, [5, 5, 5, 5]),
    (0.3, 1, [1, 1, 1]),
    (2.3, 100, [23]),               # a stride past the end keeps both ends
])
def test_field_run_steps_follow_the_stride(t_end, every, counts):
    grid = Grid1D(n=3, dx=1.0, dt=0.1)
    times, blocks, calls = _count_run(t_end, grid, every)
    assert calls == counts and sum(calls) == round(t_end / grid.dt)
    kept = np.cumsum([0, *counts])
    assert times.tolist() == (kept * grid.dt).tolist()
    assert blocks.shape == (1, len(kept), 3)
    assert (blocks[0] == kept[:, None]).all()


@pytest.mark.parametrize("last,every,kept", [
    (10, 4, [0, 4, 8, 10]), (8, 4, [0, 4, 8]), (0, 3, [0]), (5, 100, [0, 5])])
def test_kept_samples_are_every_stride_and_the_last(last, every, kept):
    # the one rule of the field runs and the CLI's strided tables
    assert numerics.kept_samples(last, every).tolist() == kept


@pytest.mark.parametrize("t_end", [0.0, -1.0, 0.04])
def test_field_run_of_no_steps_keeps_the_initial_state(t_end):
    grid = Grid1D(n=4, dx=1.0, dt=0.1)
    start = (np.arange(4.0), np.full(4, 2.0))

    def advance(*fields):
        raise AssertionError("a run of no steps took one")
    times, blocks = run_fields(advance, start, t_end, grid, 3, "f or g")
    assert times.tolist() == [0.0]
    assert blocks.shape == (2, 1, 4)
    assert (blocks[:, 0] == start).all()


def test_field_run_refused_by_its_size_never_advances(monkeypatch):
    # the cap on kept values is tested with the step cap, above
    monkeypatch.setattr(numerics, "_MAX_SAMPLES", 10)
    grid = Grid1D(n=5, dx=1.0, dt=0.1)
    for t_end, every, message in ((1.1, 100, "11 steps, above the cap of 10"),
                                  (0.2, 0, "sample_every must be at least 1, got 0")):
        calls = []
        with pytest.raises(ValueError, match=message):
            _count_run(t_end, grid, every, calls)
        assert calls == []


@pytest.mark.parametrize("bad", [-1e-300, math.nan, math.inf, "overflow"])
@pytest.mark.parametrize("first_bad,reported", [(0, 0.0), (12, 1.5), (15, 1.5), (23, 2.3)])
def test_field_run_names_the_first_bad_sample(bad, first_bad, reported):
    # g turns bad at step first_bad and stays bad; samples are kept every 5 steps
    grid = Grid1D(n=3, dx=1.0, dt=0.1)

    def value(step):
        if step < first_bad:
            return np.ones(3)
        return np.full(3, 1e308) * 10.0 if bad == "overflow" else np.full(3, bad)

    def advance(f, g, steps):
        f = f + steps
        return f, value(f[0])
    # the caller builds the initial fields, and lets them overflow itself
    with np.errstate(over="ignore"):
        start = (np.zeros(3), value(0))
    with pytest.raises(StabilityError, match=rf"f or g is negative or not finite at t = {reported:g}$"):
        run_fields(advance, start, 2.3, grid, 5, "f or g")


@pytest.mark.parametrize("bad_sample", [0, 1, 3, 5])
def test_field_run_stops_at_its_first_bad_sample(bad_sample):
    # kept samples every 5 steps to t = 2.3 (samples 0..5); the one ending
    # interval bad_sample is NaN, so advance runs exactly bad_sample times
    grid = Grid1D(n=3, dx=1.0, dt=0.1)
    calls = []

    def advance(f, steps):
        calls.append(steps)
        return (np.full(3, math.nan) if len(calls) == bad_sample else f + steps,)
    start = np.full(3, math.nan if bad_sample == 0 else 0.0)
    reported = [0.0, 0.5, 1.0, 1.5, 2.0, 2.3][bad_sample]
    with pytest.raises(StabilityError, match=rf"f is negative or not finite at t = {reported:g}$"):
        run_fields(advance, (start,), 2.3, grid, 5, "f")
    assert len(calls) == bad_sample


# ---------------------------------------------------------------- Dormand-Prince 5(4)

def _dop853(rhs, y0, times):
    # test-only oracle: scipy's order-8 Dormand-Prince at a tolerance 100
    # times below the kernel's, on the two-state rhs(t, y1, y2)
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sol = solve_ivp(lambda t, y: rhs(t, *y), (0.0, times[-1]), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, t_eval=times)
    assert sol.success
    return sol.y.T


def _rel_err(states, reference):
    return np.max(np.abs(states - reference) / np.maximum(np.abs(reference), 1e-3))


def test_dopri5_linear_oscillator_matches_closed_form_and_dop853():
    # x'' + 0.2 x' + 4 x = 0, x(0) = 1, x'(0) = 0
    rhs = lambda t, x, v: (v, -4.0 * x - 0.2 * v)
    w = math.sqrt(4.0 - 0.01)
    traj = dopri5_integrate(rhs, [1.0, 0.0], 20.0, 0.01)
    t = traj.times
    exact = np.exp(-0.1 * t)[:, None] * np.column_stack(
        [np.cos(w * t) + 0.1 / w * np.sin(w * t), -(w + 0.01 / w) * np.sin(w * t)])
    assert np.max(np.abs(traj.states - exact)) < 1e-8
    assert np.max(np.abs(traj.states - _dop853(rhs, [1.0, 0.0], t))) < 1e-8


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0, 20.0])
def test_dopri5_switch_matches_dop853(L):
    # every default sample of growthcone-switch; fixed-step RK4 at h = 1e-3
    # is off by 1.5e-7 at L = 10 and 20
    p = growthcone.CaAcParams()
    rhs = lambda t, C, A: growthcone.ca_ac_rhs((C, A), L, p)
    traj = dopri5_integrate(rhs, [p.Cb, 0.0], 10.0, 1e-3)
    assert len(traj) == 10_001
    assert _rel_err(traj.states, _dop853(rhs, [p.Cb, 0.0], traj.times)) < 1e-7


def test_dopri5_switch_rhs_gets_two_python_floats(monkeypatch):
    # the kernel forms no list or array per call: the state reaches the
    # rate law as the two floats it steps
    states = []

    def spy(rhs, y0, t_end, h):
        return dopri5_integrate(lambda t, C, A: states.append((C, A)) or rhs(t, C, A),
                                y0, t_end, h)

    monkeypatch.setattr(growthcone, "dopri5_integrate", spy)
    growthcone.ca_ac_simulate(1.0, t_end=0.1)
    assert states and all(list(map(type, y)) == [float, float] for y in states)


def test_dopri5_samples_on_the_rk4_grid():
    # 1.05 / 0.1 leaves a short last sample interval
    traj = dopri5_integrate(lambda t, a, b: (-a, 0.0), [1.0, 0.0], 1.05, 0.1)
    assert np.array_equal(traj.times, rk4_integrate(lambda t, y: -y, [1.0], 0.0, 1.05, 0.1).times)
    assert traj.times[-1] == 1.05 and traj.states[0, 0] == 1.0
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))) < 1e-9


def test_dopri5_fsal_costs_six_calls_per_attempted_step(monkeypatch):
    p = growthcone.CaAcParams()
    calls = []

    def rhs(t, C, A):
        calls.append(t)
        return growthcone.ca_ac_rhs((C, A), 10.0, p)

    dopri5_integrate(rhs, [p.Cb, 0.0], 10.0, 0.5)
    attempts, rest = divmod(len(calls) - 1, 6)
    assert rest == 0
    # stages 2 and 3 sit at t + h/5 and t + 3h/10, so 3 s2 - 2 s3 is the
    # attempt's start: a repeated start is a rejected step, retried
    starts = {round(3 * calls[1 + 6 * i] - 2 * calls[2 + 6 * i], 9) for i in range(attempts)}
    assert len(starts) < attempts
    # the step budget counts attempts: exactly that many suffice
    monkeypatch.setattr(numerics, "DP5_MAX_STEPS", attempts)
    calls.clear()
    dopri5_integrate(rhs, [p.Cb, 0.0], 10.0, 0.5)
    assert len(calls) == 6 * attempts + 1
    monkeypatch.setattr(numerics, "DP5_MAX_STEPS", attempts - 1)
    calls.clear()
    with pytest.raises(IntegrationError, match=f"out of steps: {attempts - 1} attempted"):
        dopri5_integrate(rhs, [p.Cb, 0.0], 10.0, 0.5)
    assert len(calls) == 6 * (attempts - 1) + 1


def test_dopri5_finite_time_blowup_raises():
    # y' = y^2, y(0) = 1 has y = 1 / (1 - t): no solution past t = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"step size underflow at t=0\.99999"):
            dopri5_integrate(lambda t, a, b: (a * a, 0.0), [1.0, 0.0], 2.0, 0.1)
        with pytest.raises(IntegrationError, match="step size underflow at t=0.0"):
            dopri5_integrate(lambda t, a, b: (1e300 * a * a, 0.0), [1.0, 0.0], 1.0, 0.1)
    with pytest.raises(IntegrationError, match="non-finite derivative at t=0.0"):
        dopri5_integrate(lambda t, a, b: np.array([math.nan, 0.0]), [1.0, 0.0], 1.0, 0.1)


def test_dopri5_initial_arithmetic_error_is_classified():
    # the switch's rate law runs on floats, where C**4 overflows with
    # OverflowError instead of returning inf
    with pytest.raises(IntegrationError, match=r"non-finite derivative at t=0\.0$"):
        growthcone.ca_ac_simulate(1.0, C0=1e100)
    with pytest.raises(IntegrationError, match=r"non-finite derivative at t=0\.0$"):
        dopri5_integrate(lambda t, a, b: (1.0 / 0.0, 0.0), [1.0, 0.0], 1.0, 0.1)


def test_dopri5_rejects_rhs_of_the_wrong_length():
    # one derivative for two states would otherwise pair with the first
    with pytest.raises(ValueError, match="rhs returned 1 derivatives for 2 states"):
        dopri5_integrate(lambda t, a, b: [1.0], [1.0, 2.0], 1.0, 0.1)
    # the kernel steps two states
    with pytest.raises(ValueError, match="dopri5_integrate steps two states, got 1"):
        dopri5_integrate(lambda t, a, b: (1.0, 0.0), [1.0], 1.0, 0.1)


def test_dopri5_arithmetic_error_in_a_stage_rejects_the_step():
    # y' = 1 runs up to y = 1.5, where the rhs overflows: every step that
    # would cross it is rejected and shrunk until the step underflows
    def rhs(t, a, b):
        return (1.0, 0.0) if a < 1.5 else (math.exp(1e6), 0.0)

    with pytest.raises(IntegrationError, match=r"step size underflow at t=1\.4999"):
        dopri5_integrate(rhs, [0.0, 0.0], 2.0, 0.1)


def test_dopri5_non_finite_second_stage_rejects_the_step():
    # the second stage has zero order-5, error and dense-output weights,
    # yet a non-finite value there still rejects the step
    calls = []

    def rhs(t, a, b):
        calls.append(t)
        return (math.inf, 0.0) if len(calls) % 6 == 2 else (1.0, 0.0)

    with pytest.raises(IntegrationError, match="step size underflow at t=0.0"):
        dopri5_integrate(rhs, [0.0, 0.0], 1.0, 0.1)
    # in either component
    calls.clear()
    with pytest.raises(IntegrationError, match="step size underflow at t=0.0"):
        dopri5_integrate(lambda t, a, b: rhs(t, b, a)[::-1], [0.0, 0.0], 1.0, 0.1)


def _reference_dopri5(rhs, y0, t_end, h):
    # test-only n-state Dormand-Prince kernel on rhs(t, y), y a list of floats,
    # stepped by comprehensions over the components: dopri5_integrate writes
    # its expressions out for two states and must match it bit for bit
    times = numerics._step_times(0.0, t_end, h)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    states = np.empty((len(times), y0.size))
    states[0] = y0
    n = y0.size
    rtol, atol = numerics.DP5_RTOL, numerics.DP5_ATOL

    # overflow surfaces as a rejected step, then as IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        y = y0.tolist()
        try:
            k1 = rhs(0.0, y)
            finite = all(map(math.isfinite, k1))
        except ArithmeticError:
            finite = False
        if not finite:
            raise IntegrationError("non-finite derivative at t=0.0")
        if len(k1) != n:
            raise ValueError(f"rhs returned {len(k1)} derivatives for {n} states")
        # first trial step from the scale of y over that of y' (HNW II.4)
        scale = [atol + rtol * abs(v) for v in y]
        d0 = math.sqrt(sum((v / s) * (v / s) for v, s in zip(y, scale)) / n)
        d1 = math.sqrt(sum((v / s) * (v / s) for v, s in zip(k1, scale)) / n)
        step = 0.01 * (d0 / d1) if d0 > 1e-5 and d1 > 1e-5 else 1e-6
        min_step = 10 * np.finfo(float).eps * t_end
        t = 0.0
        err_old, rejected = 1e-4, False
        # per accepted step: its start and size, and the state, derivative
        # and D-weighted stages the continuous extension needs
        starts, sizes, ys, ks, dks = [], [], [y], [k1], []
        for _ in range(numerics.DP5_MAX_STEPS):
            if step < min_step:
                raise IntegrationError(f"step size underflow at t={t!r}")
            last = t + 1.01 * step >= t_end
            if last:
                step = t_end - t
            try:
                k2 = rhs(t + _C2 * step, [a + step * (_A21 * p1) for a, p1 in zip(y, k1)])
                k3 = rhs(t + _C3 * step, [a + step * (_A31 * p1 + _A32 * p2)
                                          for a, p1, p2 in zip(y, k1, k2)])
                k4 = rhs(t + _C4 * step, [a + step * (_A41 * p1 + _A42 * p2 + _A43 * p3)
                                          for a, p1, p2, p3 in zip(y, k1, k2, k3)])
                k5 = rhs(t + _C5 * step,
                         [a + step * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4)
                          for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)])
                k6 = rhs(t + step,
                         [a + step * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4 + _A65 * p5)
                          for a, p1, p2, p3, p4, p5 in zip(y, k1, k2, k3, k4, k5)])
                y_new = [a + step * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
                         for a, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)]
                k7 = rhs(t_end if last else t + step, y_new)
                acc = 0.0
                for a, a_new, p1, p3, p4, p5, p6, p7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
                    q = (step * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6
                                 + _E7 * p7) / (atol + rtol * max(abs(a), abs(a_new))))
                    acc += q * q
                # the error weights skip k2, so test it apart
                err = math.sqrt(acc / n) if all(map(math.isfinite, k2)) else math.inf
            except ArithmeticError:
                err = math.inf
            if not math.isfinite(err):
                err = math.inf
            # PI control: exponents 0.17 and 0.04, safety 0.9, and the step
            # changes by a factor between 0.2 and 10
            gain = err**0.17
            if err > 1.0:
                step /= min(5.0, gain / 0.9)
                rejected = True
                continue
            starts.append(t)
            sizes.append(step)
            ys.append(y_new)
            ks.append(k7)
            dks.append([_D1 * p1 + _D3 * p3 + _D4 * p4 + _D5 * p5 + _D6 * p6 + _D7 * p7
                        for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)])
            if last:
                break
            new_step = step / max(0.1, min(5.0, gain / err_old**0.04 / 0.9))
            t += step
            step = min(new_step, step) if rejected else new_step
            y, k1 = y_new, k7
            err_old, rejected = max(err, 1e-4), False
        else:
            raise IntegrationError(f"out of steps: {numerics.DP5_MAX_STEPS} attempted, at t={t!r}")
    # order-4 continuous extension (HNW II.6, dense output of DOPRI5) of each
    # accepted step, y + th (c1 + th (c2 + th (c3 + th c4))) in the step's
    # fraction th, evaluated at every sample in one pass, one coefficient at
    # a time and in place, so no per-sample copy of every coefficient is held
    start, size = np.array(starts), np.array(sizes)
    ys, ks, h_col = np.array(ys), np.array(ks), size[:, None]
    dy = np.diff(ys, axis=0)
    c1 = h_col * ks[:-1]
    b = c1 - dy
    r4 = dy - h_col * ks[1:] - b
    c4 = h_col * np.array(dks)
    # each sample belongs to the first step that ends at or after it
    idx = np.searchsorted(np.append(start[1:], t_end), times[1:])
    th = ((times[1:] - start[idx]) / size[idx])[:, None]
    out = states[1:]
    np.take(c4, idx, axis=0, out=out)
    for c in (-r4 - 2 * c4, r4 + c4 - b, c1, ys[:-1]):
        out *= th
        out += c[idx]
    return numerics.Trajectory(times, states)


def _outcome(kernel, rhs, y0, t_end, h):
    """(times bytes, states bytes, rhs calls) of a run, or (exception class,
    message, rhs calls) of a refused one."""
    calls = []

    def counted(*args):
        calls.append(None)
        return rhs(*args)

    try:
        traj = kernel(counted, y0, t_end, h)
    except (numerics.NumericsError, ValueError) as err:
        return type(err), str(err), len(calls)
    return traj.times.tobytes(), traj.states.tobytes(), len(calls)


def _same_as_reference(rhs, y0, t_end, h, budget=None):
    """The outcome of dopri5_integrate on rhs(t, y1, y2), asserted equal to
    that of _reference_dopri5 on the same rhs, at the step budget given."""
    with mock.patch.object(numerics, "DP5_MAX_STEPS", budget or numerics.DP5_MAX_STEPS):
        new = _outcome(dopri5_integrate, rhs, y0, t_end, h)
        ref = _outcome(_reference_dopri5, lambda t, y: rhs(t, *y), y0, t_end, h)
    assert new == ref
    if isinstance(new[0], bytes):
        assert (new[2] - 1) % 6 == 0  # 6 calls per attempted step, plus one
    return new


@pytest.mark.parametrize("h", [1e-3, 0.5])
@pytest.mark.parametrize("L", [0.1, 1.0, 10.0, 20.0])
def test_dopri5_matches_the_reference_kernel_on_the_default_switch_runs(L, h):
    p = growthcone.CaAcParams()
    law = growthcone._switch_law(L, p)
    times, states, _ = _same_as_reference(lambda t, C, A: law(C, A), [p.Cb, 0.0], 10.0, h)
    traj = growthcone.ca_ac_simulate(L, h=h)
    assert traj.times.tobytes() == times and traj.states.tobytes() == states


# a step budget below the steps a run needs ends it with "out of steps"
_BUDGETS = st.sampled_from([None, 1, 3, 25])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-30.0, 30.0), min_size=4, max_size=4),
       st.lists(st.floats(-1e300, 1e300) | st.floats(-10.0, 10.0), min_size=2, max_size=2),
       st.floats(0.01, 5.0), st.floats(1e-3, 2.0), _BUDGETS)
def test_dopri5_matches_the_reference_kernel_on_any_linear_system(m, y0, t_end, h, budget):
    # stiff, growing and oscillating systems, and states near the top of
    # the doubles, whose stages overflow and are rejected
    m00, m01, m10, m11 = m
    _same_as_reference(lambda t, a, b: (m00 * a + m01 * b, m10 * a + m11 * b),
                       y0, t_end, h, budget)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 30.0), st.floats(0.0, 10.0) | st.floats(10.0, 1e100),
       st.floats(-1.0, 20.0), st.floats(0.01, 5.0), st.floats(1e-3, 1.0), _BUDGETS)
def test_dopri5_matches_the_reference_kernel_on_any_switch_run(L, C0, A0, t_end, h, budget):
    # past C ~ 1e77 the rate law's C**4 raises OverflowError: at t = 0 the
    # run is refused, in a stage the step is rejected
    law = growthcone._switch_law(L, growthcone.CaAcParams())
    _same_as_reference(lambda t, C, A: law(C, A), [C0, A0], t_end, h, budget)


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0, 20.0])
def test_dopri5_samples_do_not_depend_on_the_sample_grid(L):
    # the steps do not depend on h, so every 500th sample at h = 1e-3 is
    # the sample at h = 0.5, bit for bit: the dense output covers steps
    # holding no sample and steps holding hundreds
    fine = growthcone.ca_ac_simulate(L, h=1e-3)
    coarse = growthcone.ca_ac_simulate(L, h=0.5)
    assert np.array_equal(fine.times[::500], coarse.times)
    assert np.array_equal(fine.states[::500], coarse.states)


# ---------------------------------------------------------------- exact linear kernel

# the adaptation pathway at time-scale ratio 500 and ligand level 1
STIFF = np.array([[-100.0, 100.0], [100.0, -101.0]])


def test_expm_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(4)
    cases = [rng.normal(size=(n, n)) * scale for n in (1, 2, 3, 5, 7)
             for scale in (1e-3, 0.5, 3.0, 20.0)]
    cases += [STIFF * t for t in (1e-4, 0.01, 0.1, 1.0, 10.0)]
    for X in cases:
        want = scipy_linalg.expm(X)
        assert np.allclose(expm(X), want, rtol=1e-12, atol=1e-14 * np.abs(want).max())


def test_expm_zero_is_identity():
    for n in (1, 2, 4):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))


@pytest.mark.parametrize("lam,t", [(-0.5, 0.3), (-2.0, 7.0), (1.5, 2.0), (0.0, 40.0)])
def test_expm_defective_jordan_block(lam, t):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    J = np.array([[lam, 1.0], [0.0, lam]]) * t
    exact = math.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
    assert np.allclose(expm(J), exact, rtol=1e-13, atol=0.0)
    assert np.allclose(expm(J), scipy_linalg.expm(J), rtol=1e-12, atol=0.0)


def test_linear_ode_scalar_closed_forms():
    # y' = -k y + F cos(w t): steady creep for w = 0, phase lag otherwise
    k, F, y0 = 0.7, 2.0, 0.4
    for w in (0.0, 3.0):
        traj = solve_linear_ode([[1.0]], [[-k]], [F], [y0], 5.0, 0.25, w)
        t = traj.times
        gain = F / (k * k + w * w)
        periodic = gain * (k * np.cos(w * t) + w * np.sin(w * t))
        exact = periodic + (y0 - gain * k) * np.exp(-k * t)
        assert np.array_equal(t, rk4_integrate(lambda t, y: -y, [1.0], 0.0, 5.0, 0.25).times)
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-14


def test_linear_ode_matches_rk4_many_samples():
    # enough samples for several blocks of powers, and a short last step
    A = np.array([[2.0, 0.5], [0.0, 1.0]])
    D = np.array([[-1.0, 0.3], [0.2, -0.8]])
    c = np.array([1.0 + 0.5j, -0.3])
    w = 1.3
    traj = solve_linear_ode(A, D, c, [0.2, -0.1], 40.055, 0.01, w)
    Ainv = np.linalg.inv(A)

    def rhs(t, y):
        return Ainv @ (D @ y + np.real(c * np.exp(1j * w * t)))

    ref = rk4_integrate(rhs, [0.2, -0.1], 0.0, 40.055, 0.01)
    assert len(traj) == 4007
    assert np.max(np.abs(traj.states - ref.states)) < 1e-10


def _block_solve(A, D, c, y0, t_end, h, omega):
    """The whole-grid solve, written out, as a bitwise reference."""
    times = numerics._step_times(0.0, t_end, h)
    A, D, y0 = np.asarray(A, float), np.asarray(D, float), np.asarray(y0, float)
    M = solve_linear_dense(A, D)
    Y = solve_linear_dense(1j * omega * A - D, np.asarray(c, dtype=complex))
    states = np.outer(np.cos(omega * times), Y.real)
    states -= np.outer(np.sin(omega * times), Y.imag)
    count = len(times) - 1
    block = math.isqrt(count - 1) + 1
    powers = np.empty((block, len(y0), len(y0)))
    powers[0] = np.eye(len(y0))
    E = expm(M * h)
    for k in range(1, block):
        powers[k] = powers[k - 1] @ E
    jump = powers[-1] @ E
    z = y0 - Y.real
    for start in range(0, count, block):
        stop = min(start + block, count)
        hom = powers[:stop - start] @ z
        states[start:stop] += hom
        z = jump @ z
    states[count] += expm(M * (times[count] - times[count - 1])) @ hom[-1]
    states[0] = y0
    return times, states


# a two-state system with a short last step on its 4007-sample grid
_SYS = (np.array([[2.0, 0.5], [0.0, 1.0]]), np.array([[-1.0, 0.3], [0.2, -0.8]]),
        np.array([1.0 + 0.5j, -0.3]), [0.2, -0.1], 40.055, 0.01)


@pytest.mark.parametrize("omega", [0.0, 1.3])
def test_linear_ode_first_zero_is_the_whole_grid_bitwise(omega):
    times, states = _block_solve(*_SYS, omega)
    traj = solve_linear_ode(*_SYS, omega)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.states, states)


def test_linear_ode_on_a_two_sample_grid():
    # one short step: the last sample follows from y0 by its own exponential
    traj = solve_linear_ode([[1.0]], [[-1.0]], [0.5], [1.0], 0.05, 0.1)
    assert np.array_equal(traj.times, [0.0, 0.05])
    assert traj.states[:, 0] == pytest.approx([1.0, 0.5 + 0.5 * math.exp(-0.05)],
                                              rel=1e-15)


@pytest.mark.parametrize("omega", [0.0, 1.3])
def test_periodic_solution_solves_the_phasor_system(omega):
    A, D, c = _SYS[:3]
    Y = periodic_solution(A, D, c, omega)
    assert np.abs((1j * omega * A - D) @ Y - c).max() < 1e-15
    # the particular solution satisfies the ODE: A y' = D y + Re(c e^{i w t})
    for t in (0.0, 0.7, 3.1):
        rot = np.exp(1j * omega * t)
        y, dy = (Y * rot).real, (1j * omega * Y * rot).real
        assert np.abs(A @ dy - D @ y - (c * rot).real).max() < 1e-14


@pytest.mark.parametrize("omega", [0.0, 1e-4])
def test_periodic_solution_overflow_is_an_integration_error(omega):
    # |Y| = 1e308 / |1e-3 + i omega| overflows, with no numpy warning
    message = f"periodic solution is not finite at omega={omega!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=message):
            periodic_solution([[1.0]], [[-1e-3]], [1e308], omega)
        with pytest.raises(IntegrationError, match=message):
            solve_linear_ode([[1.0]], [[-1e-3]], [1e308], [0.0], 1.0, 0.1, omega)


def test_linear_ode_singular_matrices():
    with pytest.raises(SingularMatrixError):
        solve_linear_ode([[1.0, 2.0], [2.0, 4.0]], np.eye(2), [1.0, 0.0], [0.0, 0.0],
                         1.0, 0.1)
    # no steady state: D singular under constant forcing
    with pytest.raises(SingularMatrixError):
        solve_linear_ode(np.eye(2), [[0.0, 0.0], [0.0, -1.0]], [1.0, 0.0], [0.0, 0.0],
                         1.0, 0.1)
    # resonance: i w is an eigenvalue of D
    with pytest.raises(SingularMatrixError):
        solve_linear_ode(np.eye(2), [[0.0, 2.0], [-2.0, 0.0]], [1.0, 0.0], [0.0, 0.0],
                         1.0, 0.1, omega=2.0)


@pytest.mark.parametrize("l1", [1e-12, 1e-9])
def test_linear_ode_refuses_a_particular_solution_that_dwarfs_the_states(l1):
    # after a step to ligand l1 the steady M = m kd / (r k l1) is 2e11 or 2e8
    # while M stays near 81 over the run: the sum Re Y + E^k (y0 - Re Y)
    # cancels, and its relative error (3.3e-3 at 1e-12 against RK4) would
    # reach count eps max|Re Y| / max|states| = 4.4e-3 or 4.4e-6
    with pytest.raises(IntegrationError, match="cancellation: the particular solution"):
        growthcone.adaptation_simulate(0.1, l1)


def test_linear_ode_below_the_cancellation_limit_matches_rk4():
    # at l1 = 1e-6 the estimate is 4.4e-9: the run is kept, and it is that
    # accurate against RK4 at a tenth of the step
    ap = growthcone.AdaptationParams()
    D, c = growthcone._adaptation_system(ap.ka(1e-6), ap.ka(1e-6), ap,
                                         growthcone.CompartmentCoupling(0.0, 0.0))
    # without exchange, compartment 1 evolves by the upper-left block alone
    D, c = D[:2, :2], c[:2]
    traj = growthcone.adaptation_simulate(0.1, 1e-6, ap)
    ref = rk4_integrate(lambda t, y: D @ y + c, traj.states[0], 0.0, 800.0, 0.01)
    assert len(ref) == 10 * len(traj) - 9
    assert np.abs(traj.states - ref.states[::10]).max() < 1e-8 * np.abs(ref.states).max()


def test_linear_ode_aborts_on_overflow():
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(IntegrationError, match="non-finite"):
        solve_linear_ode([[1.0]], [[1000.0]], [1.0], [1.0], 10.0, 0.1)


@pytest.mark.parametrize("h", [0.1, 10.0])
def test_linear_ode_overflow_raises_without_numpy_warnings(h):
    # overflow in the powers (h = 0.1) or in expm itself (h = 10) surfaces
    # only as IntegrationError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="non-finite"):
            solve_linear_ode([[1.0]], [[1000.0]], [1.0], [1.0], 20.0, h)


# ---------------------------------------------------------------- diffusion

def test_ftcs_uniform_unchanged():
    grid = Grid1D(n=40, dx=1 / 39, dt=0.01)
    f = np.full(40, 2.5)
    out = ftcs_diffusion_step(f, 0.01, grid)
    assert np.array_equal(out, f)


def test_ftcs_mass_conservation_zero_flux():
    # trapezoidal mass (half-weight wall nodes) is the conserved quantity
    # for the mirrored-ghost discretisation
    grid = Grid1D(n=40, dx=1 / 39, dt=0.01)
    f = np.zeros(40)
    f[17] = 1.0
    w = np.ones(40)
    w[0] = w[-1] = 0.5
    m0 = float(w @ f) * grid.dx
    for _ in range(2000):
        f = ftcs_diffusion_step(f, 0.01, grid)
    m1 = float(w @ f) * grid.dx
    assert abs(m1 - m0) <= 1e-12 * m0 * 2000


def test_ftcs_sine_decay_rate():
    # separation of variables: cos(pi x / L) mode decays at D (pi/L)^2
    n, L = 40, 1.0
    dx = L / (n - 1)
    grid = Grid1D(n=n, dx=dx, dt=0.01)
    D = 0.01
    x = grid.x
    f = np.cos(np.pi * x / L)
    steps = 500
    g = f.copy()
    for _ in range(steps):
        g = ftcs_diffusion_step(g, D, grid)
    amp = g[0]  # boundary value tracks the mode amplitude
    rate = -math.log(amp) / (steps * grid.dt)
    exact = D * (math.pi / L) ** 2
    assert abs(rate - exact) / exact < 0.02


def test_ftcs_dirichlet_holds_boundary():
    grid = Grid1D(n=20, dx=0.05, dt=0.01)
    f = np.zeros(20)
    f[0] = 1.0
    out = ftcs_diffusion_step(f, 0.05, grid, bc=("dirichlet", "zero-flux"))
    assert out[0] == 1.0
    assert out[1] > 0


def test_ftcs_matches_zero_filled_reference():
    # the step writes every Laplacian entry itself: bit for bit the
    # zero-filled f + nu * lap, for each pair of boundary kinds
    grid = Grid1D(n=64, dx=0.1, dt=0.01)
    rng = np.random.default_rng(5)
    f = rng.normal(size=64) * 10.0 ** rng.integers(-150, 150, 64)
    f[[0, -1]] = -0.0, 7.25
    before = f.copy()
    nu = 0.37 * grid.dt / grid.dx**2
    for bc in itertools.product(("zero-flux", "dirichlet"), repeat=2):
        lap = np.zeros_like(f)
        lap[1:-1] = f[2:] - 2 * f[1:-1] + f[:-2]
        if bc[0] == "zero-flux":
            lap[0] = 2 * (f[1] - f[0])
        if bc[1] == "zero-flux":
            lap[-1] = 2 * (f[-2] - f[-1])
        out = ftcs_diffusion_step(f, 0.37, grid, bc=bc)
        assert out.tobytes() == (f + nu * lap).tobytes(), bc
    assert f.tobytes() == before.tobytes()


def test_ftcs_stability_guard():
    grid = Grid1D(n=10, dx=0.01, dt=0.01)
    with pytest.raises(StabilityError, match="diffusion number"):
        ftcs_diffusion_step(np.zeros(10), 1.0, grid)


@pytest.mark.parametrize("diffusivity", [-0.3, -1e-300, math.nan])
def test_ftcs_rejects_a_negative_or_nan_diffusion_number(diffusivity):
    # a negative number anti-diffuses: ftcs(f, -0.3) once returned negative values
    grid = Grid1D(n=10, dx=0.1, dt=0.01)
    with pytest.raises(ValueError, match="must be nonnegative"):
        ftcs_diffusion_step(np.ones(10), diffusivity, grid)
    # zero diffusivity is a copy
    f = np.linspace(0.0, 1.0, 10)
    assert ftcs_diffusion_step(f, 0.0, grid).tobytes() == f.tobytes()


@pytest.mark.parametrize("bc", [("periodic", "zero-flux"), ("dirichlet", "open")])
def test_ftcs_rejects_an_unknown_boundary_kind(bc):
    grid = Grid1D(n=10, dx=0.1, dt=0.01)
    with pytest.raises(ValueError, match="unknown boundary kind"):
        ftcs_diffusion_step(np.ones(10), 0.1, grid, bc=bc)


BOUNDARY_PAIRS = list(itertools.product(("zero-flux", "dirichlet"), repeat=2))


def _field(n, seed, e1, e2):
    """n values of random sign and magnitude 10^e, e uniform between e1 and
    e2, about a tenth of them zero."""
    rng = np.random.default_rng(seed)
    f = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(min(e1, e2), max(e1, e2), n)
    f[rng.random(n) < 0.1] = 0.0
    return f


def _wide_fields(n):
    """n-node fields with magnitudes in a drawn part of 1e-150..1e150; the
    values come from a drawn seed, since drawing 128 floats one by one
    costs a hypothesis example tens of milliseconds."""
    exponent = st.integers(min_value=-150, max_value=150)
    return st.builds(_field, st.just(n), st.integers(min_value=0, max_value=2**32 - 1),
                     exponent, exponent)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.floats(min_value=0.0, max_value=0.5), st.sampled_from(BOUNDARY_PAIRS))
def test_ftcs_matches_the_zero_filled_formula_on_any_grid(data, nu, bc):
    f = data.draw(st.integers(min_value=3, max_value=128).flatmap(_wide_fields))
    grid = Grid1D(n=len(f), dx=1.0, dt=1.0)
    lap = np.zeros_like(f)
    lap[1:-1] = f[2:] - 2 * f[1:-1] + f[:-2]
    if bc[0] == "zero-flux":
        lap[0] = 2 * (f[1] - f[0])
    if bc[1] == "zero-flux":
        lap[-1] = 2 * (f[-2] - f[-1])
    assert ftcs_diffusion_step(f, nu, grid, bc=bc).tobytes() == (f + nu * lap).tobytes()


# ---------------------------------------------------------------- upwind

def test_upwind_unit_cfl_exact_shift():
    grid = Grid1D(n=12, dx=0.1, dt=0.1)
    r = np.zeros(12)
    r[4] = 1.0
    l = np.zeros(12)
    zero = np.zeros(12)
    r2, l2 = upwind_advection_reaction_step(r, l, 1.0, zero, zero, grid)
    expect = np.zeros(12)
    expect[5] = 1.0
    assert np.array_equal(r2, expect)
    assert np.array_equal(l2, np.zeros(12))


def test_upwind_symmetric_rates_uniform_fixed_point():
    grid = Grid1D(n=20, dx=0.05, dt=0.01)
    r = np.full(20, 0.5)
    l = np.full(20, 0.5)
    sigma = np.full(20, 3.0)
    r2, l2 = upwind_advection_reaction_step(r, l, 0.2, sigma, sigma, grid)
    assert np.allclose(r2, 0.5, atol=1e-15)
    assert np.allclose(l2, 0.5, atol=1e-15)


def test_upwind_long_run_conservation():
    rng = np.random.default_rng(0)
    grid = Grid1D(n=40, dx=1 / 39, dt=0.01)
    r = rng.random(40)
    l = rng.random(40)
    frl = np.full(40, 2.0)
    flr = np.full(40, 5.0)
    total0 = (r.sum() + l.sum()) * grid.dx
    for _ in range(10_000):
        r, l = upwind_advection_reaction_step(r, l, 0.2, frl, flr, grid)
    total1 = (r.sum() + l.sum()) * grid.dx
    assert abs(total1 - total0) <= 1e-10 * total0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=5, max_size=30),
       st.floats(min_value=0.05, max_value=0.95))
def test_upwind_reaction_free_monotone(values, cfl):
    # transport-only steps never create values outside the initial range
    n = len(values)
    grid = Grid1D(n=max(n, 3), dx=0.1, dt=0.1 * cfl)
    r = np.resize(np.asarray(values), grid.n)
    l = r[::-1].copy()
    zero = np.zeros(grid.n)
    lo = min(r.min(), l.min())
    hi = max(r.max(), l.max())
    for _ in range(20):
        r, l = upwind_advection_reaction_step(r, l, 1.0, zero, zero, grid)
    assert r.min() >= lo - 1e-12 and l.min() >= lo - 1e-12
    assert r.max() <= hi + 1e-12 and l.max() <= hi + 1e-12


@settings(max_examples=100, deadline=None)
@given(st.data(), st.floats(min_value=0.0, max_value=1.0))
def test_upwind_matches_the_zero_filled_formula_on_any_grid(data, cfl):
    n = data.draw(st.integers(min_value=3, max_value=128))
    r, l = data.draw(_wide_fields(n)), data.draw(_wide_fields(n))
    # rates up to 1/dt, the reaction-number limit
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    frl, flr = 100.0 * np.random.default_rng(seed).random((2, n))
    grid = Grid1D(n=n, dx=0.1, dt=0.01)
    v = cfl * grid.dx / grid.dt
    c = v * grid.dt / grid.dx
    rt, lt = np.zeros(n), np.zeros(n)
    rt[1:] = (1 - c) * r[1:] + c * r[:-1]
    rt[0] = (1 - c) * r[0] + c * l[0]
    lt[:-1] = (1 - c) * l[:-1] + c * l[1:]
    lt[-1] = (1 - c) * l[-1] + c * r[-1]
    swap = grid.dt * (frl * r - flr * l)
    got = upwind_advection_reaction_step(r, l, v, frl, flr, grid)
    assert [a.tobytes() for a in got] == [(rt - swap).tobytes(), (lt + swap).tobytes()]


def test_upwind_cfl_guard():
    grid = Grid1D(n=10, dx=0.01, dt=0.1)
    z = np.zeros(10)
    with pytest.raises(StabilityError, match="CFL"):
        upwind_advection_reaction_step(z, z, 1.0, z, z, grid)


def test_upwind_reaction_number_guard():
    grid = Grid1D(n=10, dx=0.1, dt=0.01)
    ones = np.ones(10)
    rates = np.zeros(10)
    rates[3] = 100.0  # dt * rate = 1 is the limit
    upwind_advection_reaction_step(ones, ones, 1.0, rates, 0.0, grid)
    rates[3] = 150.0
    for frl, flr in ((rates, 0.0), (0.0, rates)):
        with pytest.raises(StabilityError, match="reaction number 1.5"):
            upwind_advection_reaction_step(ones, ones, 1.0, frl, flr, grid)


def test_upwind_rejects_nan_rates():
    grid = Grid1D(10, 0.1, 0.01)
    ones, fast = np.ones(10), [500.0] * 10
    rates = np.zeros(10)
    rates[3] = math.nan
    # Python's max and the > test would pass a NaN maximum of frl, and drop
    # one of flr when frl's maximum comes first
    for frl, flr in (([math.nan] * 10, fast), (np.zeros(10), rates), (fast, rates)):
        with pytest.raises(ValueError, match="turning rates must not be NaN"):
            upwind_advection_reaction_step(ones, ones, 1.0, frl, flr, grid)


# ---------------------------------------------------------------- root finding

def test_root_linear():
    root = solve_scalar_root(lambda x: x - 1.0, Bracket(0.0, 2.0), tol=1e-12)
    assert abs(root - 1.0) < 1e-10


def test_root_exp_transcendental():
    # e^z - z - 1.5 = 0 has its positive root near 0.8577
    import scipy.optimize

    f = lambda z: math.exp(z) - z - 1.5
    expected = scipy.optimize.brentq(f, 0.1, 2.0, xtol=1e-14)
    root = solve_scalar_root(f, Bracket(0.1, 2.0), tol=1e-12)
    assert abs(root - expected) < 1e-9
    assert abs(root - 0.85) < 0.01


def test_root_quadratic_positive():
    # y^2 - 2y - 0.1488 = 0, positive root 1 + sqrt(1.1488)
    f = lambda y: y * y - 2 * y - 0.1488
    root = solve_scalar_root(f, Bracket(1.0, 3.0), tol=1e-13)
    assert abs(root - (1 + math.sqrt(1.1488))) < 1e-10


def test_root_requires_sign_change():
    with pytest.raises(BracketError, match="f\\(lo\\)"):
        solve_scalar_root(lambda x: x * x + 1, Bracket(-1.0, 1.0))


def test_root_residual_property():
    for alpha in (1.1, 1.5, 2.0, 5.0):
        f = lambda z: math.exp(z) - z - alpha
        root = solve_scalar_root(f, Bracket(1e-9, 5.0), tol=1e-12)
        assert abs(f(root)) <= 1e-10


def _counted(f):
    """f and a list whose length is the number of calls made to it."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    return counted, calls


@pytest.mark.parametrize("f,lo,hi,tol", [
    pytest.param(lambda x: x - 1.0, 0.0, 2.0, 1e-12, id="linear"),
    pytest.param(lambda z: math.exp(z) - z - 1.5, 0.1, 2.0, 1e-12, id="exp"),
    pytest.param(lambda y: y * y - 2 * y - 0.1488, 1.0, 3.0, 1e-13, id="quadratic"),
    *(pytest.param(lambda z, a=alpha: math.exp(z) - z - a, 1e-9, 5.0, 1e-12,
                   id=f"residual-{alpha}") for alpha in (1.1, 1.5, 2.0, 5.0)),
])
def test_root_converges_superlinearly(f, lo, hi, tol):
    # the problems of the test_root_* functions above: bisection takes 42
    # to 47 evaluations on each but the first
    counted, calls = _counted(f)
    solve_scalar_root(counted, Bracket(lo, hi), tol=tol)
    assert len(calls) <= 16


@pytest.mark.parametrize("f,root,bisection", [
    # regula falsi without a safeguard keeps the end at 1 of this flat root
    # and is still at x = 0.083 after 1,000 steps; bisection stops on
    # |f| <= tol after 6 evaluations, or on the width after 42
    pytest.param(lambda x: (x - 0.3) ** 9, 0.3, 6, id="flat"),
    pytest.param(lambda x: 1e100 * (x - 0.3) ** 9, 0.3, 42, id="flat-scaled"),
    # a step of width 1e-4: the secant point is no better than the midpoint
    pytest.param(lambda x: math.tanh(1e4 * (x - 1 / 3)), 1 / 3, 43, id="tanh"),
])
def test_root_safeguard_bounds_evaluations_by_bisection(f, root, bisection):
    counted, calls = _counted(f)
    x = solve_scalar_root(counted, Bracket(0.0, 1.0), tol=1e-12)
    assert len(calls) <= 2 * bisection
    # the documented bound: ceil(log2(w0 / tol)) + 2 past the two ends
    assert len(calls) <= 2 + math.ceil(math.log2(1e12)) + 2
    # the stopping rule: |f| <= tol, or the root within a bracket of width tol
    assert abs(f(x)) <= 1e-12 or abs(x - root) <= 1e-12


# ---------------------------------------------------------------- linear algebra

def test_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(solve_linear_dense(np.eye(3), b), b)


def test_solve_2x2_hand_inverse():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    # inverse is [[3, -1], [-1, 2]] / 5
    b = np.array([1.0, 2.0])
    expect = np.array([(3 * 1 - 1 * 2) / 5, (-1 * 1 + 2 * 2) / 5])
    assert np.allclose(solve_linear_dense(A, b), expect, atol=1e-12)


def test_solve_hilbert_residual():
    n = 4
    A = np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)])
    b = np.array([1.0, 0.5, -0.25, 2.0])
    x = solve_linear_dense(A, b)
    res = np.abs(A @ x - b).max()
    assert res <= 1e-9 * np.abs(b).max()


def test_solve_complex_matrix_rhs():
    A = np.array([[2.0, 1j], [1.0, 3.0]])
    B = np.array([[1.0, 0.0, 2.0], [0.5j, 1.0, -1.0]])
    assert np.allclose(solve_linear_dense(A, B), np.linalg.solve(A, B), atol=1e-14)


@pytest.mark.parametrize("s", [1e-13, 1e13])
def test_solve_is_scale_free(s):
    # the singularity rule reads the condition number, not the size of the
    # entries: a pivot of 2e-13 used to be refused as singular
    A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    b = np.array([1.0, -2.0, 0.5])
    x = solve_linear_dense(A, b)
    assert np.allclose(solve_linear_dense(s * A, s * b), x, rtol=1e-14, atol=0)


@pytest.mark.parametrize("A,message", [
    ([[1.0, 2.0], [2.0, 4.0]], "exactly singular"),
    # reciprocal condition number about 1.1e-16, below machine epsilon
    ([[1.0, 1.0], [1.0, 1.0 + 4e-16]], "reciprocal condition number 1.1"),
], ids=["exact", "near"])
def test_solve_refuses_a_singular_matrix(A, message):
    with pytest.raises(SingularMatrixError, match=message):
        solve_linear_dense(np.array(A), np.array([1.0, 1.0]))


# ---------------------------------------------------------------- type guards

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n=2, dx=0.1, dt=0.1)
    with pytest.raises(ValueError):
        Grid1D(n=10, dx=-0.1, dt=0.1)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)


# every float field of the parameter types and its declared domain; the
# threshold order bounds l_min and l_max, and makes lt_min and c_low
# nonnegative
_DOMAINS = [
    (aerotaxis.AerotaxisParams(), dict.fromkeys(("v", "D", "kappa", "L0", "b0"), "nonnegative")),
    (aerotaxis.TurningThresholds(), dict(lt_min="nonnegative", l_min="finite", l_max="finite",
                                         lt_max="finite", c_low="nonnegative", c_high="finite")),
    (aerotaxis.MonteCarloConfig(), dict(v="positive", c="nonnegative", t_a="nonnegative",
                                        band_half_width="positive",
                                        wall_half_width="positive")),
    (aerotaxis.PistonParams(), dict(z_f0="finite", delta_z="positive", c0="finite",
                                    c1="finite", k="finite", tau="positive",
                                    lock_tol="positive")),
    # a zero scale used to divide by zero in nondimensionalize
    (aerotaxis.CharacteristicScales(), dict.fromkeys(
        ("length_m", "time_s", "oxygen_uM_per_ml", "bacteria_per_ml"), "positive")),
    (growthcone.CaAcParams(), dict.fromkeys(
        [f.name for f in dataclasses.fields(growthcone.CaAcParams)], "positive")),
    (growthcone.CaAcState(1.0, 1.0), dict.fromkeys(("C", "A"), "nonnegative")),
    (growthcone.AdaptationParams(), dict.fromkeys(("m", "lam", "k", "kd", "r"), "positive")),
    (growthcone.CompartmentCoupling(), dict.fromkeys(("k1", "k2"), "nonnegative")),
    (growthcone.SwitchRateParams(), dict(a="finite", b="positive", c="positive",
                                         ca_b="finite")),
    (kelvin.KelvinBody(1.0, 1.0, 1.0), dict.fromkeys(("eta1", "mu01", "mu11"), "positive")),
    (Grid1D(5, 0.1, 0.01), dict.fromkeys(("dx", "dt"), "positive")),
]
# a float field without a declared domain is a KeyError here
_FLOAT_FIELDS = [(base, f.name, domain[f.name]) for base, domain in _DOMAINS
                 for f in dataclasses.fields(base) if f.type == "float"]


def test_every_declared_domain_is_a_float_field():
    assert len(_FLOAT_FIELDS) == sum(len(domain) for _, domain in _DOMAINS) == 61


@pytest.mark.parametrize("base,name,domain", _FLOAT_FIELDS,
                         ids=[f"{type(b).__name__}.{n}" for b, n, _ in _FLOAT_FIELDS])
def test_parameter_types_refuse_values_outside_their_domain(base, name, domain):
    # NaN, both infinities and the first value past the domain's edge are
    # refused at construction, naming the field; the edge 0.0 of a
    # nonnegative domain constructs
    outside = {"positive": [0.0, -1.0], "nonnegative": [-5e-324, -1.0], "finite": []}[domain]
    for value in (math.nan, math.inf, -math.inf, *outside):
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            dataclasses.replace(base, **{name: value})
    if domain == "nonnegative":
        assert getattr(dataclasses.replace(base, **{name: 0.0}), name) == 0.0


@pytest.mark.parametrize("kwargs,message", [
    (dict(positive=("x",)), "x must be positive, got 0.0"),
    (dict(nonnegative=("x",), positive=("y",)), "y must be finite, got nan"),
    (dict(finite=("y",)), "y must be finite, got nan"),
    (dict(nonnegative=("z",)), "z must be nonnegative, got -1.0"),
])
def test_check_domain_names_the_field_and_its_value(kwargs, message):
    obj = types.SimpleNamespace(x=0.0, y=math.nan, z=-1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        numerics.check_domain(obj, **kwargs)
    numerics.check_domain(obj, nonnegative=("x",))
