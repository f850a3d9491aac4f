import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biosim.numerics import (
    Bracket,
    BracketError,
    Grid1D,
    IntegrationError,
    SingularMatrixError,
    StabilityError,
    eig2,
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
        rk4_integrate(lambda t, y: -y, [1.0], math.nan, 1.0, 0.1)


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


def test_ftcs_stability_guard():
    grid = Grid1D(n=10, dx=0.01, dt=0.01)
    with pytest.raises(StabilityError, match="diffusion number"):
        ftcs_diffusion_step(np.zeros(10), 1.0, grid)


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


# ---------------------------------------------------------------- eig2

def test_eig2_diagonal():
    lam1, lam2, _ = eig2(np.diag([4.0, -2.0]))
    assert {lam1, lam2} == {4.0, -2.0}


def test_eig2_rotation_conjugate_pair():
    lam1, lam2, _ = eig2(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert lam1 == complex(0, 1)
    assert lam2 == complex(0, -1)


def test_eig2_matches_characteristic_polynomial():
    # two-state relaxation matrix at sample rate constants, checked against
    # the quadratic-formula oracle evaluated independently
    r, k1, kd, ka1, ka2 = 1.0, 1.0, 0.2, 0.2, 0.1
    D = np.array(
        [
            [-(r * ka1 + k1 * kd) / (kd + ka1), k1 * kd / (kd + ka1)],
            [k1 * kd / (kd + ka2), -(r * ka2 + k1 * kd) / (kd + ka2)],
        ]
    )
    tr = D[0, 0] + D[1, 1]
    det = D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0]
    roots = np.roots([1.0, -tr, det])
    lam1, lam2, vecs = eig2(D)
    assert np.allclose(sorted([lam1, lam2]), sorted(roots.real), atol=1e-12)
    for lam, v in ((lam1, vecs[:, 0]), (lam2, vecs[:, 1])):
        assert np.allclose(D @ v, lam * v, atol=1e-10)


def test_eig2_eigenvectors_complex_case():
    A = np.array([[1.0, -2.0], [3.0, 1.0]])
    lam1, lam2, vecs = eig2(A)
    for lam, v in ((lam1, vecs[:, 0]), (lam2, vecs[:, 1])):
        assert np.allclose(A @ v, lam * v, atol=1e-10)


# ---------------------------------------------------------------- type guards

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n=2, dx=0.1, dt=0.1)
    with pytest.raises(ValueError):
        Grid1D(n=10, dx=-0.1, dt=0.1)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)
