import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biosim import growthcone, numerics
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
    rk4_integrate,
    solve_linear_dense,
    solve_linear_ode,
    solve_scalar_root,
    upwind_advection_reaction_step,
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
        dopri5_integrate(lambda t, y: -y, [1.0], t1, h)
    with pytest.raises(ValueError, match="finite"):
        rk4_integrate(lambda t, y: -y, [1.0], math.nan, 1.0, 0.1)


def test_step_grid_rejects_oversized_grid_before_allocating(monkeypatch):
    # 1e13 samples would need 80 TB; each sampled kernel refuses at once
    for call in (lambda: rk4_integrate(lambda t, y: -y, [1.0], 0.0, 10.0, 1e-12),
                 lambda: dopri5_integrate(lambda t, y: -y, [1.0], 10.0, 1e-12),
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
    assert numerics._field_steps(0.1, grid, 1).tolist() == [0, 1]
    assert numerics._field_steps(0.2, grid, 2).tolist() == [0, 2]
    for t_end, every in ((0.2, 1), (0.3, 2)):
        with pytest.raises(ValueError, match="3 kept states of 5 nodes exceed"):
            numerics._field_steps(t_end, grid, every)

# ---------------------------------------------------------------- Dormand-Prince 5(4)

def _dop853(rhs, y0, times):
    # test-only oracle: scipy's order-8 Dormand-Prince at a tolerance 100
    # times below the kernel's
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    sol = solve_ivp(rhs, (0.0, times[-1]), y0, method="DOP853", rtol=1e-12,
                    atol=1e-14, t_eval=times)
    assert sol.success
    return sol.y.T


def _rel_err(states, reference):
    return np.max(np.abs(states - reference) / np.maximum(np.abs(reference), 1e-3))


def test_dopri5_linear_oscillator_matches_closed_form_and_dop853():
    # x'' + 0.2 x' + 4 x = 0, x(0) = 1, x'(0) = 0
    D = np.array([[0.0, 1.0], [-4.0, -0.2]])
    w = math.sqrt(4.0 - 0.01)
    traj = dopri5_integrate(lambda t, y: D @ y, [1.0, 0.0], 20.0, 0.01)
    t = traj.times
    exact = np.exp(-0.1 * t)[:, None] * np.column_stack(
        [np.cos(w * t) + 0.1 / w * np.sin(w * t), -(w + 0.01 / w) * np.sin(w * t)])
    assert np.max(np.abs(traj.states - exact)) < 1e-8
    assert np.max(np.abs(traj.states - _dop853(lambda t, y: D @ y, [1.0, 0.0], t))) < 1e-8


@pytest.mark.parametrize("L", [0.1, 1.0, 10.0, 20.0])
def test_dopri5_switch_matches_dop853(L):
    # every default sample of growthcone-switch; fixed-step RK4 at h = 1e-3
    # is off by 1.5e-7 at L = 10 and 20
    p = growthcone.CaAcParams()
    rhs = lambda t, y: growthcone.ca_ac_rhs(y, L, p)
    traj = dopri5_integrate(rhs, [p.Cb, 0.0], 10.0, 1e-3)
    assert len(traj) == 10_001
    assert _rel_err(traj.states, _dop853(rhs, [p.Cb, 0.0], traj.times)) < 1e-7


def test_dopri5_samples_on_the_rk4_grid():
    # 1.05 / 0.1 leaves a short last sample interval
    traj = dopri5_integrate(lambda t, y: -y, [1.0], 1.05, 0.1)
    assert np.array_equal(traj.times, rk4_integrate(lambda t, y: -y, [1.0], 0.0, 1.05, 0.1).times)
    assert traj.times[-1] == 1.05 and traj.states[0, 0] == 1.0
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))) < 1e-9


def test_dopri5_fsal_costs_six_calls_per_attempted_step(monkeypatch):
    p = growthcone.CaAcParams()
    calls = []

    def rhs(t, y):
        calls.append(t)
        return growthcone.ca_ac_rhs(y, 10.0, p)

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
            dopri5_integrate(lambda t, y: y * y, [1.0], 2.0, 0.1)
        with pytest.raises(IntegrationError, match="step size underflow at t=0.0"):
            dopri5_integrate(lambda t, y: 1e300 * y * y, [1.0], 1.0, 0.1)
    with pytest.raises(IntegrationError, match="non-finite derivative at t=0.0"):
        dopri5_integrate(lambda t, y: np.array([math.nan]), [1.0], 1.0, 0.1)


def test_dopri5_initial_arithmetic_error_is_classified():
    # the switch's rate law runs on floats, where C**4 overflows with
    # OverflowError instead of returning inf
    with pytest.raises(IntegrationError, match=r"non-finite derivative at t=0\.0$"):
        growthcone.ca_ac_simulate(1.0, C0=1e100)
    with pytest.raises(IntegrationError, match=r"non-finite derivative at t=0\.0$"):
        dopri5_integrate(lambda t, y: [1.0 / 0.0], [1.0], 1.0, 0.1)


def test_dopri5_rejects_rhs_of_the_wrong_length():
    # one derivative for two states would otherwise pair with the first
    with pytest.raises(ValueError, match="rhs returned 1 derivatives for 2 states"):
        dopri5_integrate(lambda t, y: [1.0], [1.0, 2.0], 1.0, 0.1)


def test_dopri5_arithmetic_error_in_a_stage_rejects_the_step():
    # y' = 1 runs up to y = 1.5, where the rhs overflows: every step that
    # would cross it is rejected and shrunk until the step underflows
    def rhs(t, y):
        return np.ones(1) if y[0] < 1.5 else [math.exp(1e6)]

    with pytest.raises(IntegrationError, match=r"step size underflow at t=1\.4999"):
        dopri5_integrate(rhs, [0.0], 2.0, 0.1)


def test_dopri5_non_finite_second_stage_rejects_the_step():
    # the second stage has zero order-5, error and dense-output weights,
    # yet a non-finite value there still rejects the step
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [math.inf] if len(calls) % 6 == 2 else [1.0]

    with pytest.raises(IntegrationError, match="step size underflow at t=0.0"):
        dopri5_integrate(rhs, [0.0], 1.0, 0.1)


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
    """The whole-grid solve as written before the windowed one, as the
    bitwise reference for first = 0."""
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
    for traj in (solve_linear_ode(*_SYS, omega), solve_linear_ode(*_SYS, omega, first=0)):
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states)


@pytest.mark.parametrize("omega", [0.0, 1.3])
@pytest.mark.parametrize("first", [1, 2, 37, 1000, 3605, 4005, 4006])
def test_linear_ode_window_is_the_whole_grid_tail(omega, first):
    # the grid ends in a short step; 4006 is its last sample
    whole = solve_linear_ode(*_SYS, omega)
    tail = solve_linear_ode(*_SYS, omega, first=first)
    assert len(tail) == len(whole) - first
    assert np.array_equal(tail.times, whole.times[first:])
    scale = np.abs(whole.states[first:]).max()
    assert np.abs(tail.states - whole.states[first:]).max() <= 1e-14 * scale


def test_linear_ode_window_on_a_two_sample_grid():
    # one short step: the last sample alone follows from y0
    whole = solve_linear_ode([[1.0]], [[-1.0]], [0.5], [1.0], 0.05, 0.1)
    tail = solve_linear_ode([[1.0]], [[-1.0]], [0.5], [1.0], 0.05, 0.1, first=1)
    assert len(whole) == 2
    assert np.array_equal(tail.times, [0.05])
    assert np.array_equal(tail.states, whole.states[1:])


@pytest.mark.parametrize("first", [-1, 4007, 10**9])
def test_linear_ode_first_outside_the_grid_raises_before_allocating(first, monkeypatch):
    # with numpy out of reach, any allocation or matrix work would fail
    # with something other than ValueError
    monkeypatch.setattr(numerics, "np", None)
    with pytest.raises(ValueError, match="outside the grid's 0..4006"):
        solve_linear_ode(*_SYS, first=first)


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


def test_solve_singular_names_pivot():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as err:
        solve_linear_dense(A, np.array([1.0, 1.0]))
    assert err.value.pivot_index == 1


# ---------------------------------------------------------------- type guards

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n=2, dx=0.1, dt=0.1)
    with pytest.raises(ValueError):
        Grid1D(n=10, dx=-0.1, dt=0.1)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)
