"""End-to-end acceptance checks, one test per criterion.

Each test pins its tolerances directly; the conftest hook prints a
pass/fail line per criterion after the run.
"""
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from biosim import aerotaxis, growthcone, kelvin
from biosim.cli import EXPERIMENTS, ExperimentConfig, run
from biosim.numerics import (
    Grid1D,
    euler_integrate,
    ftcs_diffusion_step,
    rk4_integrate,
    upwind_advection_reaction_step,
)


@pytest.fixture(scope="module")
def band_run():
    params = aerotaxis.AerotaxisParams()
    times, r, l, L = aerotaxis.simulate_band(params, t_end=30.0, sample_every=100)
    return params, times, r + l


def test_c01_band_formation_and_ratios(band_run):
    params, times, density = band_run
    # a band exists by t = 5 nondim units (50 s)
    t_form = aerotaxis.band_formation_time(times, aerotaxis.band_metrics(density, params.grid))
    assert t_form <= 5.0
    m = aerotaxis.band_metrics(density[-1], params.grid)
    assert m.has_band
    assert m.ratio_front > 100
    assert 5.0 <= m.ratio_behind <= 20.0
    total0 = float(density[0].sum()) * params.grid.dx
    total1 = float(density[-1].sum()) * params.grid.dx
    assert abs(total1 - total0) <= 1e-8 * total0


def test_c02_band_geometry(band_run):
    params, times, density = band_run
    m = aerotaxis.band_metrics(density[-1], params.grid)
    # 0.2 mm is 0.1 of the 2 mm domain; +-50 percent on the coarse grid
    assert 0.05 <= m.width_h <= 0.15
    # front distance grows with the source level; band width does not
    sols = [aerotaxis.steady_state_general(
        aerotaxis.AerotaxisParams(L0=L0, b0=2.0), 0.003, 0.005, k=0.003, s=1.0)
        for L0 in (0.2, 0.5, 1.0)]
    ds = [s.d for s in sols]
    hs = [s.h for s in sols]
    assert ds[0] < ds[1] < ds[2]
    assert (max(hs) - min(hs)) <= 0.2 * min(hs)


def test_c03_steady_state_oracle():
    sol = aerotaxis.steady_state_general(
        aerotaxis.AerotaxisParams(L0=0.2, b0=2.0), 0.003, 0.005, k=0.003, s=1.0)
    assert abs(sol.z - 1.5) <= 0.01
    assert abs(sol.lam - 4.4817) <= 0.01
    assert abs(sol.d - 4.2188) <= 0.05
    # h is the exact positive root of the band-width quadratic
    gamma = (sol.lam - 1) / sol.lam
    u = 2 * (0.005 - 0.003) / (0.003 * 2.0 * sol.lam)
    y = sol.h / sol.s
    assert abs(y * y - 2 * gamma * y - u) < 1e-13
    # the widely quoted truncation 1.8512 is flagged, not matched
    assert abs(sol.h - 1.8512) > 0.05


def test_c04_quasi_steady_oracle():
    k_b0 = 1.0 / 320.0
    q_lo = aerotaxis.quasi_steady_state(0.2, 0.005, k_b0)
    q_hi = aerotaxis.quasi_steady_state(1.0, 0.005, k_b0)
    # one distance unit is 0.1 mm here
    assert abs(0.1 * q_lo["d"] - 0.8) <= 0.05 * 0.8
    assert abs(0.1 * q_hi["d"] - 1.7) <= 0.10 * 1.7
    assert abs(q_lo["h"] - 0.4) <= 0.10 * 0.4
    # the quoted 0.2 for the high source level is the one-significant-figure
    # print of 2 l_max / (k b0 d) = 3.2 / sqrt(320) = 0.1789
    assert q_hi["h"] == pytest.approx(3.2 / math.sqrt(320.0), rel=1e-12)
    assert round(q_hi["h"], 1) == 0.2


def test_c05_monte_carlo_comparator():
    slow = aerotaxis.monte_carlo_slow_adaptation(
        aerotaxis.MonteCarloConfig(n_trials=10_000, seed=0))
    assert abs(slow["inside_outside_ratio"] - 3.0) <= 1.0
    fast = aerotaxis.monte_carlo_slow_adaptation(
        aerotaxis.MonteCarloConfig(n_trials=10_000, seed=0, t_a=0.0))
    assert fast["inside_outside_ratio"] > 20.0


def test_c06_switch_hysteresis():
    p = growthcone.CaAcParams()
    L_up, L_down = growthcone.hysteresis_jumps(p)
    assert abs(L_up - 2.3) <= 0.15
    assert abs(L_down - 0.6) <= 0.15
    below = growthcone.ca_ac_steady_states(L_up - 0.02, p)
    above = growthcone.ca_ac_steady_states(L_up + 0.05, p)
    A_low = min(s.A for s, _ in below)
    A_high = max(s.A for s, _ in above)
    assert abs(A_low - 1.7) <= 0.25 * 1.7
    assert abs(A_high - 12.0) <= 0.25 * 12.0


def test_c07_perfect_adaptation_return():
    p = growthcone.AdaptationParams(m=0.1, lam=5.0, k=0.2, kd=0.2, r=1.0)
    for l0, l1 in ((0.1, 1.0), (1.0, 0.1)):
        traj = growthcone.adaptation_simulate(l0, l1, p, t_end=800.0, h=0.1)
        assert abs(traj.final()[1] - 0.1) <= 1e-3 * 0.1


@pytest.mark.xfail(strict=True, reason=(
    "the two-exponential matched solution uses rates lam (kd + k l1) and "
    "r k l1 / (kd + k l1); at lam = 5 these differ from the exact 2x2 "
    "eigenvalues by up to a factor two (the slow reaction rate lam k l1 "
    "is not large against r), leaving a supremum error of 17-31 percent "
    "of the baseline instead of 5 percent; the bound is met from "
    "time-scale ratios near 50 upward"))
def test_c07_asymptotic_matches_rk4_within_5_percent():
    p = growthcone.AdaptationParams(m=0.1, lam=5.0, k=0.2, kd=0.2, r=1.0)
    for l0, l1 in ((0.1, 1.0), (1.0, 0.1)):
        traj = growthcone.adaptation_simulate(l0, l1, p, t_end=800.0, h=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, A = growthcone.adaptation_asymptotic(l0, l1, p, traj.times)
        err = np.max(np.abs(A - traj.states[:, 1]))
        assert err <= 0.05 * (p.m / p.r)


def test_c08_two_compartment_steady():
    p = growthcone.AdaptationParams()
    cpl = growthcone.CompartmentCoupling(k1=1.0, k2=0.1)
    traj = growthcone.two_compartment_simulate(1.0, 0.5, p, cpl, t_end=400.0)
    A1s, A2s, M1s, M2s = growthcone.two_compartment_steady(p.ka(1.0), p.ka(0.5), p, cpl)
    assert abs(traj.final()[1] - A1s) <= 1e-6
    assert abs(traj.final()[3] - A2s) <= 1e-6
    bound = 2 * p.m / p.r
    cpl0 = growthcone.CompartmentCoupling(k1=1.0, k2=0.0)
    for l1 in np.linspace(0.1, 3.0, 10):
        for l2 in np.linspace(0.1, 3.0, 10):
            A1g, A2g, _, _ = growthcone.two_compartment_steady(p.ka(l1), p.ka(l2), p, cpl)
            assert abs(A1g - A2g) < bound
            A1g, A2g, _, _ = growthcone.two_compartment_steady(p.ka(l1), p.ka(l2), p, cpl0)
            if l1 != l2:
                assert math.copysign(1, A1g - A2g) == math.copysign(1, l1 - l2)
    # no exchange of the modified substance decouples the compartments
    cpl_off = growthcone.CompartmentCoupling(k1=0.0, k2=0.0)
    A1d, A2d, M1d, M2d = growthcone.two_compartment_steady(p.ka(1.0), p.ka(0.5),
                                                           p, cpl_off)
    assert A1d == A2d == p.m / p.r
    assert M1d == pytest.approx(p.m / p.r * (p.r + p.lam * p.kd) / (p.lam * p.ka(1.0)))
    assert M2d == pytest.approx(p.m / p.r * (p.r + p.lam * p.kd) / (p.lam * p.ka(0.5)))


def test_c09_reaction_diffusion_profiles(rd_profiles):
    p = growthcone.AdaptationParams()
    # uniform presentation after adaptation to a gradient flattens out
    _, _, A = rd_profiles["uniform"]
    assert np.max(np.abs(A - p.m / p.r)) < 1e-3
    # graded presentations give co-monotone steady responses
    _, _, A = rd_profiles["linear"]
    assert np.all(np.diff(A) > 0)
    quad, _, A = rd_profiles["quadratic"]
    interior = slice(1, -1)
    assert np.all(np.sign(np.diff(A))[interior] == np.sign(np.diff(quad))[interior])


def test_c10_calcium_switch_flips_gradient():
    sp = growthcone.SwitchRateParams(a=0.01, b=1.0, c=1.0, ca_b=0.2)
    hi = growthcone.switch_gradient(1.0, 0.5, 0.4, sp)[-1]
    lo = growthcone.switch_gradient(1.0, 0.5, 0.1, sp)[-1]
    assert hi == 1.0
    assert lo == -1.0


def test_c11_kelvin_single_body():
    body = kelvin.material_params("actin")
    ts, te = kelvin.relaxation_times(body)
    assert ts == pytest.approx(150.0, abs=1e-12)
    assert te == pytest.approx(50.0, abs=1e-12)
    exact = kelvin.single_body_steady_closed_form(body, 1.0, np.array([0.0, 1e9]))
    assert exact[0] == pytest.approx(1.0 / 150.0, abs=1e-15)
    assert exact[-1] == pytest.approx(0.02, abs=1e-15)
    net = kelvin.KelvinNetwork((("body", body),))
    u = kelvin.network_deform(net, kelvin.Forcing.steady(1.0), 2000.0, 0.1).total_u
    assert u[0] == pytest.approx(1.0 / 150.0, abs=1e-15)
    assert abs(u[-1] - 0.02) <= 1e-6


def test_c12_kelvin_parallel():
    actin = kelvin.material_params("actin")
    g = kelvin.ParallelGroup((actin, actin))
    f = kelvin.Forcing.steady(1.0)
    res = kelvin.network_deform(kelvin.KelvinNetwork((("pair", g),)), f, 2000.0, 0.1)
    assert np.max(np.abs(res.branch_forces["pair/branch1"] - 0.5)) < 1e-9
    assert abs(res.total_u[-1] - 1.0 / 100.0) <= 1e-6
    # the exact kernel against the integrator on the assembled system
    A, D, c, u0 = kelvin.parallel_assemble(g)
    M = np.linalg.solve(A, D)
    b = np.linalg.solve(A, c.real)
    traj = rk4_integrate(lambda t, y: M @ y + b, u0, 0.0, 2000.0, 0.1)
    assert np.max(np.abs(traj.states[:, 0] - res.total_u)) <= 1e-6 * abs(res.total_u[-1])


def test_c13_frequency_sweep():
    actin = kelvin.material_params("actin")
    g = kelvin.ParallelGroup((actin, actin))
    rows = kelvin.frequency_sweep(g, [1e-4, 1e-2, 1e-1, 1.0])
    by_f = {r[0]: r for r in rows}
    assert abs(by_f[1e-4][1] - 1.0) <= 0.02
    for f_hz in (1e-2, 1e-1, 1.0):
        assert abs(by_f[f_hz][1] - 0.333) <= 0.02
    for f_hz in by_f:
        assert abs(by_f[f_hz][2] - 1.0) <= 0.01


@pytest.fixture(scope="module")
def network_runs():
    out = {}
    for name, net in (("I", kelvin.network_one()), ("II", kelvin.network_two())):
        steady = kelvin.network_deform(net, kelvin.Forcing.steady(1.0), 2000.0, 0.1)
        f_osc = kelvin.Forcing.oscillatory(1.0, 2 * math.pi)
        osc = kelvin.network_deform(net, f_osc, 30.0, 0.005)
        out[name] = (steady, osc, f_osc)
    return out


def test_c14_network_ordering_and_forces(network_runs):
    for name, (steady, osc, f_osc) in network_runs.items():
        mask = steady.times > 1.0
        sensor = steady.element_u["sensor"][mask]
        nucleus = steady.element_u["nucleus"][mask]
        for label, u in steady.element_u.items():
            assert np.all(sensor >= u[mask] - 1e-12), (name, label)
            assert np.all(nucleus <= u[mask] + 1e-12), (name, label)
        for key, series in steady.branch_forces.items():
            if "branch" in key:
                assert np.max(np.abs(series - 0.5)) <= 1e-9, (name, key)


@pytest.mark.xfail(strict=True, reason=(
    "every body in the table has mu11 = 2 mu01, so its normalized "
    "oscillatory peak sqrt((1 + w^2 tau_eps^2) / (1 + w^2 tau_sigma^2)) "
    "is strictly above tau_eps / tau_sigma = 1/3 at every finite "
    "frequency and approaches 1/3 only as w -> inf; at 1 Hz the "
    "low-viscosity sensor elements respond almost quasi-statically and "
    "the totals sit near 0.53-0.55 of the steady values"))
def test_c14_network_oscillatory_total_below_one_third(network_runs):
    for name, (steady, osc, f_osc) in network_runs.items():
        peak = kelvin.steady_peak(osc.times, osc.total_u, f_osc)
        assert peak < steady.total_u[-1] / 3.0, name


def test_c15_numerics_kernels():
    # RK4 and Euler observed orders on the exponential test problem
    def err(integrator, h):
        traj = integrator(lambda t, y: -y, [1.0], 0.0, 1.0, h)
        return max(abs(traj.states[i, 0] - math.exp(-t))
                   for i, t in enumerate(traj.times))

    assert math.log2(err(rk4_integrate, 0.1) / err(rk4_integrate, 0.05)) >= 3.9
    assert math.log2(err(euler_integrate, 0.1) / err(euler_integrate, 0.05)) >= 0.95

    grid = Grid1D(n=40, dx=1 / 39, dt=0.01)
    field = np.zeros(40)
    field[20] = 1.0
    w = np.ones(40)
    w[0] = w[-1] = 0.5
    m0 = float(w @ field)
    for _ in range(100):
        field = ftcs_diffusion_step(field, 0.01, grid)
    assert abs(float(w @ field) - m0) <= 1e-12 * 100

    tgrid = Grid1D(n=15, dx=0.1, dt=0.1)
    r = np.zeros(15)
    r[6] = 1.0
    l = np.zeros(15)
    z = np.zeros(15)
    r2, l2 = upwind_advection_reaction_step(r, l, 1.0, z, z, tgrid)
    expected = np.zeros(15)
    expected[7] = 1.0
    assert np.array_equal(r2, expected)


FAST_OVERRIDES = {
    "aerotaxis-band": {"aerotaxis.t_end": 2.0},
    "aerotaxis-montecarlo": {"mc.trials": 200, "mc.t_end": 20.0},
    "growthcone-switch": {"gc.t_end": 0.5},
    "growthcone-bifurcation": {"gc.n": 8, "gc.L_lo": 0.3, "gc.L_hi": 3.0},
    "growthcone-adaptation": {"gc.t_end": 50.0},
    "growthcone-twocomp": {"gc.t_end": 50.0},
    "growthcone-rd": {"gc.t_end": 20.0, "gc.sample_every": 1000},
    "kelvin-single": {"kelvin.t_end": 50.0},
    "kelvin-sweep": {"kelvin.v1": 25.0, "kelvin.v2": 50.0, "kelvin.v3": 100.0},
    "kelvin-freq": {"kelvin.f1": 0.05, "kelvin.f2": 0.1, "kelvin.f3": 0.5,
                    "kelvin.f4": 1.0},
    "kelvin-network-I": {"kelvin.t_end_steady": 50.0, "kelvin.t_end_osc": 5.0},
    "kelvin-network-II": {"kelvin.t_end_steady": 50.0, "kelvin.t_end_osc": 5.0},
}


def test_c16_determinism_of_every_experiment(tmp_path):
    for name in sorted(EXPERIMENTS):
        params = FAST_OVERRIDES.get(name, {})
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            run(ExperimentConfig(name, dict(params), out, seed=3))
            dirs.append(out)
        files_a = {p.name: p.read_bytes() for p in sorted(dirs[0].glob("*.csv"))}
        files_b = {p.name: p.read_bytes() for p in sorted(dirs[1].glob("*.csv"))}
        assert files_a, f"{name} wrote no CSV"
        assert files_a == files_b, f"{name} not byte-identical"
