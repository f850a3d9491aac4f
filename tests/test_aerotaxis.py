import math

import numpy as np
import pytest

from biosim import aerotaxis, growthcone, numerics
from biosim.aerotaxis import (
    AerotaxisParams,
    CharacteristicScales,
    MonteCarloConfig,
    PistonParams,
    TurningThresholds,
    band_formation_time,
    band_metrics,
    keller_segel_coefficients,
    monte_carlo_slow_adaptation,
    nondimensionalize,
    piston_receptor_simulate,
    piston_separation_closed_form,
    quasi_steady_state,
    rear_arrival_time,
    simulate_band,
    steady_state_general,
    steady_state_intermediate,
    steady_state_low,
    turning_rates,
)
from biosim.growthcone import AdaptationParams, default_rd_grid, reaction_diffusion_simulate
from biosim.numerics import Grid1D, rk4_integrate

TH = TurningThresholds(lt_min=0.2, l_min=0.3, l_max=0.5, lt_max=0.7,
                       c_low=1.0, c_high=10.0)


# ---------------------------------------------------------------- turning rates

def test_turning_rates_inside_band():
    assert turning_rates(0.4, TH) == (1.0, 1.0)


def test_turning_rates_deep_region():
    assert turning_rates(0.05, TH) == (10.0, 10.0)


def test_turning_rates_entry_zone_asymmetric():
    assert turning_rates(0.25, TH) == (1.0, 10.0)


def test_turning_rates_exit_zone_and_beyond():
    assert turning_rates(0.6, TH) == (10.0, 1.0)
    assert turning_rates(0.9, TH) == (10.0, 10.0)


def test_turning_rates_half_open_bins():
    # a threshold value belongs to the bin it opens
    assert turning_rates(0.3, TH) == turning_rates(0.4, TH)
    assert turning_rates(0.5, TH) == turning_rates(0.6, TH)


def test_turning_rates_vectorized():
    # NaN oxygen falls outside every bin, so it gets the high rate
    f_rl, f_lr = turning_rates(np.array([0.05, 0.25, 0.4, 0.6, 0.9, np.nan]), TH)
    assert np.array_equal(f_rl, [10, 1, 1, 10, 10, 10])
    assert np.array_equal(f_lr, [10, 10, 1, 1, 10, 10])


def test_threshold_validation():
    with pytest.raises(ValueError):
        TurningThresholds(0.3, 0.2, 0.5, 0.7, 1.0, 10.0)
    with pytest.raises(ValueError):
        TurningThresholds(0.2, 0.3, 0.5, 0.7, 10.0, 1.0)


# ---------------------------------------------------------------- scaling

def test_nondimensionalize_standard_values():
    nd = nondimensionalize(40e-6, 2e-9, 1.0, 3e-11)
    assert nd["v"] == pytest.approx(0.2)
    assert nd["turning"] == pytest.approx(10.0)
    # direct formula results; the companion table rounds these differently
    assert nd["D"] == pytest.approx(5e-3)
    assert nd["kappa"] == pytest.approx(6e-3)


def test_nondimensionalize_rejects_nonpositive():
    with pytest.raises(ValueError):
        nondimensionalize(-1.0, 2e-9, 1.0, 3e-11)


# ---------------------------------------------------------------- band PDE

def test_no_signal_stays_uniform():
    p = AerotaxisParams(kappa=0.0, L0=0.0)
    times, fields = simulate_band(p, t_end=2.0, sample_every=50)
    for cf in fields:
        assert np.allclose(cf.r, p.b0 / 2, atol=1e-12)
        assert np.allclose(cf.l, p.b0 / 2, atol=1e-12)


def test_band_mass_conservation():
    p = AerotaxisParams()
    times, fields = simulate_band(p, t_end=30.0, sample_every=3000)
    total0 = fields[0].total(p.grid.dx)
    total1 = fields[-1].total(p.grid.dx)
    assert abs(total1 - total0) <= 1e-8 * total0


def test_band_appears_and_ratios():
    p = AerotaxisParams()
    times, fields = simulate_band(p, t_end=30.0, sample_every=50)
    # aggregation already visible at t = 1.5 (15 s), full band by t = 5
    i15 = int(np.argmin(np.abs(times - 1.5)))
    assert fields[i15].density.max() / fields[i15].density.mean() >= 2.0
    t_form = band_formation_time(times, fields, p.grid)
    assert t_form <= 5.0
    m = band_metrics(fields[-1], p.grid)
    assert m.has_band
    assert m.ratio_front > 100
    assert 5 <= m.ratio_behind <= 20
    assert 0.05 <= m.width_h <= 0.15


@pytest.mark.parametrize("every", [0, -5])
def test_sample_stride_must_be_positive(every):
    with pytest.raises(ValueError, match="sample_every"):
        simulate_band(AerotaxisParams(), t_end=1.0, sample_every=every)
    p = AdaptationParams()
    grid = default_rd_grid()
    with pytest.raises(ValueError, match="sample_every"):
        reaction_diffusion_simulate(np.full(grid.n, 0.02), p, 0.6, 0.0, grid,
                                    t_end=1.0, sample_every=every)


def _count_ftcs(monkeypatch, module):
    calls = []
    step = module.ftcs_diffusion_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(module, "ftcs_diffusion_step", counted)
    return calls


@pytest.mark.parametrize("t_end,every,message", [
    (1e9, 100, r"1e\+11 steps, above the cap"),
    (3000.0, 1, "kept states of 40 nodes exceed"),
], ids=["steps", "kept-values"])
def test_band_rejects_oversized_run_before_stepping(t_end, every, message, monkeypatch):
    calls = _count_ftcs(monkeypatch, aerotaxis)
    with pytest.raises(ValueError, match=message):
        simulate_band(AerotaxisParams(), t_end=t_end, sample_every=every)
    assert calls == []
    # an accepted run keeps one FTCS call per step
    simulate_band(AerotaxisParams(), t_end=0.5, sample_every=every)
    assert len(calls) == 50


@pytest.mark.parametrize("t_end,every,message", [
    (1e9, 15000, r"1e\+11 steps, above the cap"),
    (2000.0, 1, "kept states of 91 nodes exceed"),
], ids=["steps", "kept-values"])
def test_rd_rejects_oversized_run_before_stepping(t_end, every, message, monkeypatch):
    calls = _count_ftcs(monkeypatch, growthcone)
    p = AdaptationParams()
    grid = default_rd_grid()
    profile = np.full(grid.n, 0.02)
    with pytest.raises(ValueError, match=message):
        reaction_diffusion_simulate(profile, p, 0.6, 0.1, grid, t_end=t_end,
                                    sample_every=every)
    assert calls == []
    # one FTCS call per field per step, with A diffusing too
    reaction_diffusion_simulate(profile, p, 0.6, 0.1, grid, t_end=0.5, sample_every=every)
    assert len(calls) == 2 * 50


def test_band_metrics_uniform_field():
    grid = Grid1D(n=40, dx=1 / 39, dt=0.01)
    from biosim.aerotaxis import CellField

    cf = CellField(np.full(40, 0.5), np.full(40, 0.5), np.zeros(40))
    assert not band_metrics(cf, grid).has_band


def test_long_run_converges_to_steady_state_geometry():
    # configuration where all three analytic regions fit the unit domain
    # and the outer thresholds do not truncate the biased zones; on the
    # coarse grid the band width matches the analytic h to 15 percent and
    # the front length to one cell (the analytic normalization assumes an
    # undepleted far field, so tighter d agreement needs a much longer
    # domain; ~15 s run)
    th = TurningThresholds(1e-4, 0.1, 0.2, 2.0, 0.0, 2.0)
    p = AerotaxisParams(v=0.2, D=0.01, kappa=0.05, L0=0.5, b0=1.0, thresholds=th)
    sol = steady_state_general(p, 0.1, 0.2)
    times, fields = simulate_band(p, t_end=3000.0, sample_every=150000)
    m = band_metrics(fields[-1], p.grid)
    assert m.has_band
    assert abs(m.width_h - sol.h) <= 0.15 * sol.h
    assert abs(m.distance_d - sol.d) <= 1.5 * p.grid.dx


# ---------------------------------------------------------------- steady states

def _params(L0, b0=2.0):
    return AerotaxisParams(L0=L0, b0=b0)


@pytest.mark.parametrize("k,s", [(-1.0, 1.0), (0.0, 1.0), (0.003, 0.0), (0.003, -2.0)])
def test_steady_states_reject_nonpositive_k_and_s(k, s):
    for solve in (lambda: steady_state_general(_params(0.2), 0.003, 0.005, k=k, s=s),
                  lambda: steady_state_intermediate(_params(0.0035), 0.003, 0.005,
                                                    k=k, s=s),
                  lambda: steady_state_low(_params(0.001), 0.003, k=k, s=s)):
        with pytest.raises(ValueError, match="k and s must be positive"):
            solve()


def test_steady_states_reject_zero_bacteria():
    for solve in (lambda: steady_state_general(_params(0.2, b0=0.0), 0.003, 0.005),
                  lambda: steady_state_intermediate(_params(0.0035, b0=0.0), 0.003, 0.005),
                  lambda: steady_state_low(_params(0.001, b0=0.0), 0.003)):
        with pytest.raises(ValueError, match=r"k b0 s\^2 must be positive"):
            solve()


@pytest.mark.parametrize("b0", [1e-320, 1e-308])
def test_steady_states_reject_alpha_out_of_range(b0):
    # alpha = 1 + l / (k b0 s^2) is inf at 1e-320, and e alpha overflows at 1e-308
    for solve in (lambda: steady_state_general(_params(0.2, b0), 0.003, 0.005, k=0.003, s=1.0),
                  lambda: steady_state_intermediate(_params(0.0035, b0), 0.003, 0.005,
                                                    k=0.003, s=1.0)):
        with pytest.raises(ValueError, match="is out of range"):
            solve()


def test_general_rejects_overflowing_band_factor():
    # e^alpha overflows for alpha above about 709.78
    with pytest.raises(ValueError, match=r"e\^alpha overflows at alpha = 1001\.0"):
        steady_state_general(_params(0.2, b0=1e-3), 0.003, 0.005, k=0.003, s=1.0)


@pytest.mark.parametrize("b0", [1e-300, 1e-3, 2.0])
def test_depletion_roots_at_small_bacteria_levels(b0):
    # the closed-form bracket reaches roots near 690.8 at b0 = 1e-300
    k, s = 0.003, 1.0
    sol = steady_state_intermediate(_params(0.0035, b0), 0.003, 0.005, k=k, s=s)
    alpha = 1 + 0.003 / (k * b0 * s**2)
    zeta = sol.z / s
    assert math.exp(zeta) - zeta == pytest.approx(alpha, rel=1e-12)
    low = steady_state_low(_params(0.001, b0), 0.003, k=k, s=s)
    zeta = low.z / s
    assert math.exp(zeta) - zeta == pytest.approx(1 + 0.001 / (k * b0 * s**2), rel=1e-12)
    assert math.isfinite(sol.B) and math.isfinite(low.B)
    if b0 == 1e-300:
        assert sol.z == pytest.approx(690.8, abs=0.05)


def test_general_steady_state_reference_values():
    sol = steady_state_general(_params(0.2), 0.003, 0.005, k=0.003, s=1.0)
    assert sol.z == pytest.approx(1.5, abs=1e-12)
    assert sol.lam == pytest.approx(4.481689, abs=1e-5)
    assert sol.d == pytest.approx(4.21883, abs=1e-4)


def test_general_h_is_exact_quadratic_root():
    sol = steady_state_general(_params(0.2), 0.003, 0.005, k=0.003, s=1.0)
    gamma = (sol.lam - 1) / sol.lam
    u = 2 * (0.005 - 0.003) / (0.003 * 2.0 * sol.lam)
    y = sol.h / sol.s
    assert y * y - 2 * gamma * y - u == pytest.approx(0.0, abs=1e-14)
    assert sol.h > 0
    # the width is the root itself, not its widely-quoted truncation
    assert abs(sol.h - 1.8512) > 0.05


def test_general_constants_satisfy_flux_relations():
    sol = steady_state_general(_params(0.2), 0.003, 0.005, k=0.003, s=1.0)
    kB = sol.k * sol.B
    assert sol.B == pytest.approx(2.0 * sol.lam)
    assert sol.c3 == pytest.approx(0.003 * 2.0 * 1.0)
    assert -sol.c1 + kB * sol.s == pytest.approx(-sol.c2, abs=1e-15)
    assert -sol.c2 + kB * sol.h == pytest.approx(-sol.c3 + kB * sol.s, abs=1e-15)


def test_general_profile_continuity():
    sol = steady_state_general(_params(0.2), 0.003, 0.005, k=0.003, s=1.0)
    x2 = sol.d + sol.h
    left, right = sol.oxygen([x2 - 1e-9, x2 + 1e-9])
    assert left == pytest.approx(0.003, abs=1e-6)
    assert right == pytest.approx(0.003, abs=1e-6)
    # flux continuity across the front band edge
    d = sol.d
    eps = 1e-7
    la, lb = sol.oxygen([d - eps, d])
    ra, rb = sol.oxygen([d + 1e-12, d + eps])
    assert (lb - la) / eps == pytest.approx((rb - ra) / eps, rel=1e-4)


def test_general_d_monotone_h_constant_in_L0():
    sols = [steady_state_general(_params(L0), 0.003, 0.005, k=0.003, s=1.0)
            for L0 in (0.2, 0.5, 1.0)]
    ds = [s.d for s in sols]
    hs = [s.h for s in sols]
    assert ds[0] < ds[1] < ds[2]
    assert max(hs) - min(hs) == pytest.approx(0.0, abs=1e-14)


def test_intermediate_root():
    sol = steady_state_intermediate(_params(0.0035), 0.003, 0.005, k=0.003, s=1.0)
    # e^zeta - zeta = alpha with alpha = 1.5
    zeta = sol.z / sol.s
    assert math.exp(zeta) - zeta == pytest.approx(1.5, abs=1e-10)
    assert zeta == pytest.approx(0.85, abs=0.01)
    assert sol.h > 0


def test_intermediate_h_solves_quadratic_and_shrinks():
    k, s, b0 = 0.003, 1.0, 2.0
    hs = []
    for L0 in (0.0032, 0.0035, 0.004, 0.0045):
        sol = steady_state_intermediate(_params(L0), 0.003, 0.005, k=k, s=s)
        beta = k * b0 * sol.lam
        p = s - s**2 / sol.z + (k * b0 * s**2 + 0.003) / (sol.z * beta)
        q = 2 * (0.003 - L0) / beta
        assert sol.h**2 + 2 * p * sol.h + q == pytest.approx(0.0, abs=1e-12)
        hs.append(sol.h)
    assert hs == sorted(hs)  # band widens with more oxygen
    near = steady_state_intermediate(_params(0.003 + 1e-9), 0.003, 0.005, k=k, s=s)
    assert near.h < 1e-5  # band vanishes at the lower regime edge


def test_intermediate_profile_exact_boundaries():
    sol = steady_state_intermediate(_params(0.0035), 0.003, 0.005, k=0.003, s=1.0)
    at = sol.oxygen(np.array([0.0, sol.h, sol.h + sol.z]))
    assert at[0] == pytest.approx(0.0035, abs=1e-12)
    assert at[1] == pytest.approx(0.003, abs=1e-12)
    assert at[2] == pytest.approx(0.0, abs=1e-12)
    # flux continuity at the band's back edge
    eps = 1e-8
    la, lb = sol.oxygen(np.array([sol.h - eps, sol.h]))
    ra, rb = sol.oxygen(np.array([sol.h + 1e-15, sol.h + eps]))
    assert (lb - la) / eps == pytest.approx((rb - ra) / eps, rel=1e-5)


def test_low_profile_exact_boundaries():
    sol = steady_state_low(_params(0.001), 0.003, k=0.003, s=1.0)
    at = sol.oxygen(np.array([0.0, sol.z / 2, sol.z]))
    assert at[0] == pytest.approx(0.001, abs=1e-15)
    assert at[2] == pytest.approx(0.0, abs=1e-15)
    assert 0.0 < at[1] < 0.001  # monotone depletion layer
    # zero flux at the layer's far edge
    eps = 1e-8
    la, lb = sol.oxygen(np.array([sol.z - eps, sol.z]))
    assert (lb - la) / eps == pytest.approx(0.0, abs=1e-6)


def test_regime_boundaries_give_finite_positive_solutions():
    # leading-order truncations differ per regime, so only existence and
    # positivity are comparable at the regime edges
    lo = steady_state_intermediate(_params(0.005 - 1e-9), 0.003, 0.005, k=0.003, s=1.0)
    hi = steady_state_general(_params(0.005 + 1e-9), 0.003, 0.005, k=0.003, s=1.0)
    assert lo.h > 0 and hi.h > 0
    assert math.isfinite(lo.h) and math.isfinite(hi.h)


def test_low_regime_zero_oxygen():
    sol = steady_state_low(_params(0.0), 0.003, k=0.003, s=1.0)
    assert sol.z == 0.0


def test_low_regime_small_L0_taylor():
    # e^zeta - zeta - 1 ~ zeta^2/2 gives z ~ sqrt(2 L0 / (k b0))
    L0 = 1e-5
    sol = steady_state_low(_params(L0), 0.003, k=0.003, s=1.0)
    assert sol.z == pytest.approx(math.sqrt(2 * L0 / 0.006), rel=1e-2)


def test_low_regime_monotone():
    zs = [steady_state_low(_params(L0), 0.003, k=0.003, s=1.0).z
          for L0 in (1e-4, 5e-4, 1e-3, 2e-3)]
    assert zs == sorted(zs)


# ---------------------------------------------------------------- quasi steady

def test_quasi_steady_reference_values():
    q = quasi_steady_state(0.2, 0.005, 1.0 / 320.0)
    assert q["d"] == pytest.approx(8.0)
    assert q["h"] == pytest.approx(0.4)
    assert q["assumption_ok"]
    q1 = quasi_steady_state(1.0, 0.005, 1.0 / 320.0)
    assert q1["d"] == pytest.approx(math.sqrt(320.0))
    assert q1["h"] == pytest.approx(3.2 / math.sqrt(320.0))


def test_quasi_steady_assumption_flag():
    q = quasi_steady_state(1e-4, 0.005, 1.0 / 320.0)
    assert not q["assumption_ok"]


def test_rear_arrival_time_gate():
    # 1.5 mm at 20 um/s with 0.5/s turning: about 47 minutes
    t = rear_arrival_time(1500.0, 20.0, 0.5)
    assert t == pytest.approx(2812.5)
    assert 45 * 60 < t < 48 * 60


# ---------------------------------------------------------------- drift-diffusion

def test_keller_segel_symmetric_rates():
    mu, chi = keller_segel_coefficients(0.2, 10.0, 10.0)
    assert chi == 0.0
    assert mu == pytest.approx(0.002)


def test_keller_segel_run_diffusivity_scale():
    mu, _ = keller_segel_coefficients(20.0, 0.5, 0.5)
    assert 2 * mu == pytest.approx(800.0)  # v^2 / f


def test_keller_segel_rejects_zero_rate():
    with pytest.raises(ValueError):
        keller_segel_coefficients(1.0, 0.0, 0.0)


# ---------------------------------------------------------------- Monte Carlo

def test_monte_carlo_slow_adaptation_ratio():
    cfg = MonteCarloConfig(n_trials=2000, seed=1)
    ratio = monte_carlo_slow_adaptation(cfg)["inside_outside_ratio"]
    assert 2.0 <= ratio <= 4.0


def test_monte_carlo_instant_adaptation_much_sharper():
    cfg = MonteCarloConfig(n_trials=2000, seed=1, t_a=0.0)
    ratio = monte_carlo_slow_adaptation(cfg)["inside_outside_ratio"]
    assert ratio > 20


def test_monte_carlo_no_turning_uniform():
    cfg = MonteCarloConfig(n_trials=500, seed=2, c=1e-12)
    ratio = monte_carlo_slow_adaptation(cfg)["inside_outside_ratio"]
    assert ratio == pytest.approx(1.0, abs=0.05)


def test_monte_carlo_reproducible():
    cfg = MonteCarloConfig(n_trials=300, seed=7)
    a = monte_carlo_slow_adaptation(cfg)["inside_outside_ratio"]
    b = monte_carlo_slow_adaptation(cfg)["inside_outside_ratio"]
    assert a == b
    other = MonteCarloConfig(n_trials=300, seed=8)
    assert monte_carlo_slow_adaptation(other)["inside_outside_ratio"] != a


def test_monte_carlo_builds_one_generator(monkeypatch):
    made = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    for seed in (0, 3):
        made.clear()
        monte_carlo_slow_adaptation(MonteCarloConfig(n_trials=500, seed=seed), t_end=20.0)
        assert made == [(seed,)]


def test_monte_carlo_instant_adaptation_renewal_oracle():
    # t_a = 0: each excursion is a receding leg cut by a turn at rate c or
    # by the wall, then the same way back, and each band crossing takes
    # 2b/v, so renewal theory gives the time fractions exactly
    v, c, b, w = 1.0, 2.0, 1.0, 2.0
    t_in = 2 * b / v
    t_out = 2 * (1 - math.exp(-c * (w - b) / v)) / c
    oracle = t_in / t_out * (w - b) / b
    assert oracle == pytest.approx(2.3130, abs=5e-5)
    for seed in (0, 1, 2):
        cfg = MonteCarloConfig(v=v, c=c, t_a=0.0, band_half_width=b, wall_half_width=w,
                               n_trials=2000, seed=seed)
        ratio = monte_carlo_slow_adaptation(cfg, t_end=800.0)["inside_outside_ratio"]
        assert ratio == pytest.approx(oracle, rel=0.01), seed


def test_monte_carlo_constant_hazard_uniform():
    # for t_a >> excursion times the rate is c in both directions; a
    # telegraph walker with a reflecting wall then spends on average 2(w-b)/v
    # outside per excursion whatever c, so the density is uniform
    cfg = MonteCarloConfig(c=2.0, t_a=1e9, n_trials=1000, seed=3)
    ratio = monte_carlo_slow_adaptation(cfg, t_end=400.0)["inside_outside_ratio"]
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_monte_carlo_rejects_bad_config():
    for kw in ({"v": 0.0}, {"c": -1.0}, {"t_a": -0.1}):
        with pytest.raises(ValueError):
            MonteCarloConfig(**kw)
    with pytest.raises(ValueError):
        monte_carlo_slow_adaptation(MonteCarloConfig(n_trials=10), dt=0.0)


def test_monte_carlo_walker_cap_boundary(monkeypatch):
    # refused in the config, before any walker state is allocated
    monkeypatch.setattr(numerics, "_MAX_SAMPLES", 50)
    assert MonteCarloConfig(n_trials=50).n_trials == 50
    with pytest.raises(ValueError, match="n_trials 51 is above the cap of 50 walkers"):
        MonteCarloConfig(n_trials=51)


def test_monte_carlo_rejects_oversized_sample_grid():
    # 8e10 occupancy samples: refused before anything is allocated
    with pytest.raises(ValueError, match=r"8e\+10 steps, above the cap"):
        monte_carlo_slow_adaptation(MonteCarloConfig(n_trials=10), dt=1e-9)


def test_monte_carlo_burn_in_count_matches_sample_grid():
    rng = np.random.default_rng(3)
    pairs = [(80.0, 0.01), (1.0, 0.1), (0.3, 0.1), (80.0, 0.03), (10.0, 0.7),
             (7.3, 0.011), (0.04, 0.1), (1e-3, 1e-6)]
    pairs += [(float(t), float(t / n)) for t, n in
              zip(rng.uniform(0.01, 100.0, 200), rng.integers(1, 5000, 200))]
    pairs += list(zip(rng.uniform(0.01, 100.0, 200), rng.uniform(1e-3, 1.0, 200)))
    for t_end, dt in pairs:
        steps = int(round(t_end / dt))
        grid = dt * np.arange(1, steps + 1)   # the grid the count replaces
        want = steps - int(np.count_nonzero(grid > 0.1 * t_end))
        assert aerotaxis._burn_in_samples(steps, dt, t_end) == want, (t_end, dt)


# ---------------------------------------------------------------- piston

def test_piston_constant_signal_keeps_ground_separation():
    p = PistonParams(k=0.0, lock_tol=0.05)
    traj, events = piston_receptor_simulate(p, +1, t_end=5.0)
    sep = traj.states[:, 0] - traj.states[:, 1]
    assert np.allclose(sep, p.delta_z, atol=1e-9)
    assert events == []


def test_piston_up_ramp_smooth_swimming():
    p = PistonParams(k=2.0)
    traj, events = piston_receptor_simulate(p, +1, t_end=6.0)
    sep = traj.states[:, 0] - traj.states[:, 1]
    assert events == []
    assert sep[-1] == pytest.approx(p.delta_z + p.c1 * p.k * p.tau, rel=1e-4)
    assert np.all(np.diff(sep) >= -1e-12)


def test_piston_down_ramp_locks_at_predicted_time():
    p = PistonParams(k=4.0, lock_tol=0.05)  # c1*k*tau = 2 > delta_z
    traj, events = piston_receptor_simulate(p, -1, t_end=4.0)
    lag = p.c1 * p.k * p.tau
    t_star = -p.tau * math.log(1 - (p.delta_z - p.lock_tol) / lag)
    assert len(events) == 1
    assert events[0] == pytest.approx(t_star, abs=2 * p.tau / 50)


def _piston_rk4(p, sign, t_end):
    """The slow part's relaxation toward z_f - delta_z stepped by
    rk4_integrate on the model's grid, as an oracle."""
    target = lambda t: p.z_f0 - p.delta_z + p.c1 * (sign * p.k * t + p.c0)
    return rk4_integrate(lambda t, y: (target(t) - y) / p.tau, [target(0.0)],
                         0.0, t_end, p.tau / 50.0)


def test_piston_matches_closed_form():
    p = PistonParams(k=3.0)
    for sign in (+1, -1):
        ref = _piston_rk4(p, sign, 3.0)
        zf = p.z_f0 + p.c1 * (sign * p.k * ref.times + p.c0)
        sep = zf - ref.states[:, 0]
        exact = piston_separation_closed_form(p, sign, ref.times)
        assert np.max(np.abs(sep - exact)) < 1e-8


def test_piston_samples_the_integrator_grid():
    p = PistonParams(k=4.0)
    for sign, t_end in ((+1, 3.0), (-1, 4.0), (-1, 4.013)):
        traj, _ = piston_receptor_simulate(p, sign, t_end=t_end)
        ref = _piston_rk4(p, sign, t_end)
        assert np.array_equal(traj.times, ref.times)
        assert np.max(np.abs(traj.states[:, 1] - ref.states[:, 0])) < 1e-8
