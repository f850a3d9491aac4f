import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for args in [
        (-1.0, 2e-9, 1.0, 3e-11),
        # NaN passed the old `val <= 0` guard, and an infinite input came out inf
        (math.nan, 2e-9, 1.0, 3e-11),
        (40e-6, math.inf, 1.0, 3e-11),
        (40e-6, 2e-9, -math.inf, 3e-11),
        # finite inputs whose scaled speed overflows
        (1e307, 2e-9, 1.0, 3e-11),
    ]:
        with pytest.raises(ValueError, match="positive and finite"):
            nondimensionalize(*args)


# ---------------------------------------------------------------- band PDE

def test_no_signal_stays_uniform():
    p = AerotaxisParams(kappa=0.0, L0=0.0)
    times, r, l, L = simulate_band(p, t_end=2.0, sample_every=50)
    assert np.allclose(r, p.b0 / 2, atol=1e-12)
    assert np.allclose(l, p.b0 / 2, atol=1e-12)


def test_band_mass_conservation():
    p = AerotaxisParams()
    times, r, l, L = simulate_band(p, t_end=30.0, sample_every=3000)
    total0 = float((r[0] + l[0]).sum()) * p.grid.dx
    total1 = float((r[-1] + l[-1]).sum()) * p.grid.dx
    assert abs(total1 - total0) <= 1e-8 * total0


def test_band_appears_and_ratios():
    p = AerotaxisParams()
    times, r, l, L = simulate_band(p, t_end=30.0, sample_every=50)
    density = r + l
    # aggregation already visible at t = 1.5 (15 s), full band by t = 5
    i15 = int(np.argmin(np.abs(times - 1.5)))
    assert density[i15].max() / density[i15].mean() >= 2.0
    t_form = band_formation_time(times, band_metrics(density, p.grid))
    assert t_form <= 5.0
    m = band_metrics(density[-1], p.grid)
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
    assert not band_metrics(np.full(40, 1.0), grid).has_band


# the long-run test's configuration
LONG_RUN = AerotaxisParams(v=0.2, D=0.01, kappa=0.05, L0=0.5, b0=1.0,
                           thresholds=TurningThresholds(1e-4, 0.1, 0.2, 2.0, 0.0, 2.0))


def _reference_band_metrics(b, grid):
    """The band of one density row by scalar scans, as band_metrics once
    computed it, as (has_band, width_h, distance_d, ratio_front,
    ratio_behind).  A region mean of exactly 0 divides as numpy does, to
    inf, where Python's float division would raise."""
    nan = float("nan")
    bmax = float(b.max())
    mean = float(b.mean())
    if mean <= 0 or bmax / mean < 2:
        return (False, nan, nan, nan, nan)
    am = int(np.argmax(b))
    half = 0.5 * bmax
    lo = am
    while lo > 0 and b[lo - 1] >= half:
        lo -= 1
    hi = am
    while hi < len(b) - 1 and b[hi + 1] >= half:
        hi += 1
    band_mean = float(b[lo:hi + 1].mean())
    front = b[:lo]
    behind = b[hi + 1:]
    with np.errstate(divide="ignore", over="ignore"):
        ratio_front = float(band_mean / front.mean()) if front.size else float("inf")
        ratio_behind = float(band_mean / behind.mean()) if behind.size else float("inf")
    return (True, (hi - lo + 1) * grid.dx, lo * grid.dx, ratio_front, ratio_behind)


def _assert_band_metrics_match_the_scalar_scans(density, grid):
    m = band_metrics(density, grid)
    for i, row in enumerate(density):
        got = (bool(m.has_band[i]), *(float(a[i]) for a in (
            m.width_h, m.distance_d, m.ratio_front, m.ratio_behind)))
        assert repr(got) == repr(_reference_band_metrics(row, grid)), i


@pytest.mark.parametrize("params,t_end", [
    (AerotaxisParams(), 30.0),
    (LONG_RUN, 100.0),
], ids=["defaults", "long-run"])
def test_band_metrics_match_the_scalar_scans_at_every_step(params, t_end):
    times, r, l, L = simulate_band(params, t_end=t_end, sample_every=1)
    _assert_band_metrics_match_the_scalar_scans(r + l, params.grid)


def _rows(n):
    """All-zero rows, rows of a few levels, each half the next, which make
    tied maxima and plateaus exactly at half maximum, and rows of any
    nonnegative floats."""
    levels = st.sampled_from([0.0, 0.0, 1.0, 2.0, 4.0])
    return st.one_of(st.just([0.0] * n), st.lists(levels, min_size=n, max_size=n),
                     st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=12).flatmap(
    lambda n: st.lists(_rows(n), min_size=1, max_size=8)))
def test_band_metrics_match_the_scalar_scans_on_any_block(rows):
    density = np.array(rows)
    grid = Grid1D(n=density.shape[1], dx=0.1, dt=0.01)
    _assert_band_metrics_match_the_scalar_scans(density, grid)
    # a single row gives the same values, 0-d
    last = band_metrics(density[-1], grid)
    assert last.width_h.shape == () and repr(float(last.width_h)) == repr(
        float(band_metrics(density, grid).width_h[-1]))


def test_band_formation_time_is_the_first_sample_with_a_band():
    grid = Grid1D(n=4, dx=0.5, dt=0.01)
    density = np.array([[1.0, 1, 1, 1], [0, 4, 0, 0], [1, 1, 1, 1], [0, 0, 0, 4]])
    m = band_metrics(density, grid)
    assert m.has_band.tolist() == [False, True, False, True]
    assert band_formation_time(np.array([0.0, 0.5, 1.0, 1.5]), m) == 0.5
    assert math.isnan(band_formation_time(np.array([0.0]), band_metrics(density[:1], grid)))


@pytest.mark.parametrize("t_end", [0.0, -1.0])
def test_field_runs_of_no_steps_keep_only_the_initial_state(t_end):
    times, r, l, L = simulate_band(AerotaxisParams(), t_end=t_end)
    assert times.tolist() == [0.0] and r.shape == l.shape == L.shape == (1, 40)
    grid = default_rd_grid()
    times, M, A = reaction_diffusion_simulate(np.full(grid.n, 0.02), AdaptationParams(),
                                              0.6, 0.0, grid, t_end=t_end)
    assert times.tolist() == [0.0] and M.shape == A.shape == (1, grid.n)


def test_band_run_rejects_no_cells_before_stepping(monkeypatch):
    calls = _count_ftcs(monkeypatch, aerotaxis)
    with pytest.raises(ValueError, match="the band run needs b0 > 0"):
        simulate_band(AerotaxisParams(b0=0.0), t_end=0.5)
    assert calls == []


def _reference_band(params, t_end, sample_every):
    """The band step loop written term by term: the turning-rate tables
    rebuilt every step, fresh arrays for every intermediate and a copy of
    each kept field."""
    grid, th = params.grid, params.thresholds
    steps = round(t_end / grid.dt)
    r = np.full(grid.n, params.b0 / 2)
    l = np.full(grid.n, params.b0 / 2)
    L = np.zeros(grid.n)
    L[0] = params.L0
    kept = [(r.copy(), l.copy(), L.copy())]
    for step in range(1, steps + 1):
        bins = np.searchsorted((th.lt_min, th.l_min, th.l_max, th.lt_max), L, side="right")
        f_rl = np.array((th.c_high, th.c_low, th.c_low, th.c_high, th.c_high))[bins]
        f_lr = np.array((th.c_high, th.c_high, th.c_low, th.c_low, th.c_high))[bins]
        r, l = numerics.upwind_advection_reaction_step(r, l, params.v, f_lr, f_rl, grid)
        L = numerics.ftcs_diffusion_step(L, params.D, grid, bc=("dirichlet", "zero-flux"))
        L = np.maximum(L - grid.dt * params.kappa * (r + l), 0.0)
        L[0] = params.L0
        if step % sample_every == 0 or step == steps:
            kept.append((r.copy(), l.copy(), L.copy()))
    return kept


@pytest.mark.parametrize("params,t_end,every", [
    (AerotaxisParams(), 30.0, 100),
    (LONG_RUN, 100.0, 1000),
], ids=["defaults", "long-run-10000-steps"])
def test_band_matches_the_reference_loop_bit_for_bit(params, t_end, every):
    times, r, l, L = simulate_band(params, t_end=t_end, sample_every=every)
    ref = _reference_band(params, t_end, every)
    assert len(r) == len(ref) == round(t_end / params.grid.dt) // every + 1
    # the rows of a block are distinct by construction; comparing each with
    # the reference's copy shows that no kept sample was overwritten later
    for fields, want in zip(zip(r, l, L), ref):
        for got, expected in zip(fields, want):
            assert got.tobytes() == expected.tobytes()


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
    times, r, l, L = simulate_band(p, t_end=3000.0, sample_every=150000)
    m = band_metrics(r[-1] + l[-1], p.grid)
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


def _depletion_reference(l, k, b0, s):
    """The root of e^zeta - 1 - zeta = l / (k b0 s^2) by Newton's method in
    the caller's decimal precision, from the upper bound sqrt(2 target)."""
    t = Decimal(l) / (Decimal(k) * Decimal(b0) * Decimal(s)**2)
    zeta = (2 * t).sqrt()
    for _ in range(100):
        e = zeta.exp()
        step = (e - 1 - zeta - t) / (e - 1)
        zeta -= step
        if abs(step) <= Decimal("1e-30") * zeta:
            return zeta
    raise AssertionError("Newton did not converge")


@pytest.mark.parametrize("l", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
def test_depletion_lengths_keep_a_small_target(l):
    # 1 + l / (k b0 s^2) once rounded the target away: at l = 1e-15 the
    # depletion length was 17% off
    k, b0, s, L0 = 0.003, 2.0, 1.0, 0.004
    with localcontext() as ctx:
        ctx.prec = 60
        zeta = _depletion_reference(l, k, b0, s)
        low = steady_state_low(_params(l, b0), 0.003, k=k, s=s)
        assert low.z / s == pytest.approx(float(zeta), rel=1e-12)
        # the intermediate regime's tail solves the same equation with l_min;
        # its band width and tail slope, from their textbook forms
        mid = steady_state_intermediate(_params(L0, b0), l, 0.005, k=k, s=s)
        assert mid.z / s == pytest.approx(float(zeta), rel=1e-12)
        k, b0, s, l, L0 = map(Decimal, (k, b0, s, l, L0))
        z, lam = zeta * s, zeta.exp()
        beta = k * b0 * lam
        p = s - s**2 / z + (k * b0 * s**2 + l) / (z * beta)
        h = -p + (p * p - 2 * (l - L0) / beta).sqrt()
        assert mid.h == pytest.approx(float(h), rel=1e-12)
        assert mid.c2 == pytest.approx(float((beta * s**2 * (1 - 1 / lam) - l) / z), rel=1e-12)


def test_depletion_length_at_a_vanishing_target():
    # zeta = e (1 - e/6 + ...) with e = sqrt(2 target): e alone to double precision
    sol = steady_state_low(_params(1e-300), 0.003, k=0.003, s=1.0)
    assert sol.z == pytest.approx(math.sqrt(2e-300 / 0.006), rel=1e-15)


@pytest.mark.parametrize("l_min", [0.0, -1e-3])
def test_intermediate_rejects_nonpositive_lower_threshold(l_min):
    # l_min = 0 leaves no depletion tail, and the band-width quadratic divides by it
    with pytest.raises(ValueError, match="intermediate regime needs 0 < l_min < L0 < l_max"):
        steady_state_intermediate(_params(0.004), l_min, 0.005, k=0.003, s=1.0)


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


def _reference_monte_carlo(cfg, t_end=80.0, dt=0.01):
    """The event loop recomputing every walker's geometry, turn age and
    occupancy each round through np.where masks; the ratio is inf when no
    sample falls outside the band."""
    steps = round(t_end / dt)
    first = aerotaxis._burn_in_samples(steps, dt, t_end)
    n_samples = steps - first
    t_stop = steps * dt

    def samples_by(s):
        return np.clip(np.floor(s / dt) - first, 0, n_samples)

    v, c, t_a = cfg.v, cfg.c, cfg.t_a
    band, wall = cfg.band_half_width, cfg.wall_half_width
    n = cfg.n_trials
    rng = np.random.default_rng(cfg.seed)
    t = np.zeros(n)
    y = np.zeros(n)
    outward = np.ones(n, dtype=bool)
    inband = np.ones(n, dtype=bool)
    age = np.zeros(n)
    target = np.zeros(n)
    live = np.full(n, t_stop > 0)
    out_samples = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.any():
            geo = np.where(inband, np.where(outward, band - y, band + y),
                           np.where(outward, wall - y, y - band)) / v
            if t_a > 0:
                turn_age = np.where(target < c * t_a,
                                    -t_a * np.log1p(-target / (c * t_a)), np.inf)
                to_turn = np.where(inband, np.inf, np.maximum(turn_age - age, 0.0))
            else:
                to_turn = np.where(~inband & outward, target / c - age, np.inf)
            step = np.where(live, np.minimum(geo, to_turn), 0.0)
            done = live & (t_stop - t <= step)
            t_new = np.where(done, t_stop, t + step)
            out = live & ~inband
            seen_new = np.where(done[out], n_samples, samples_by(t_new[out]))
            out_samples += int((seen_new - samples_by(t[out])).sum())
            t = t_new
            live &= ~done
            turn = live & (to_turn < geo)
            hit = live & ~turn
            age = np.where(~inband & live, age + step, age)
            y = np.where(turn, np.where(outward, y + v * step, y - v * step), y)
            leave = hit & inband
            wall_hit = hit & ~inband & outward
            enter = hit & ~inband & ~outward
            y[leave | enter] = band
            y[wall_hit] = wall
            age[leave] = 0.0
            idx = np.flatnonzero(leave)
            target[idx] = rng.standard_exponential(idx.size)
            if t_a > 0:
                idx = np.flatnonzero(turn)
                target[idx] += rng.standard_exponential(idx.size)
            outward = (outward ^ (turn | wall_hit)) | leave
            inband = (inband & ~leave) | enter
    dens_in = (n * n_samples - out_samples) * dt / (2.0 * band)
    dens_out = out_samples * dt / (2.0 * (wall - band))
    return dens_in / dens_out if dens_out > 0 else float("inf")


def _assert_matches_reference(cfg, t_end, dt):
    with np.errstate(over="ignore"):  # target / c at a subnormal c
        want = _reference_monte_carlo(cfg, t_end, dt)
    if want == float("inf"):
        with pytest.raises(ValueError, match="occupancy sample"):
            monte_carlo_slow_adaptation(cfg, t_end=t_end, dt=dt)
    else:
        assert monte_carlo_slow_adaptation(cfg, t_end=t_end, dt=dt)["inside_outside_ratio"] == want


@pytest.mark.parametrize("kw,t_end,dt", [
    ({}, 80.0, 0.01),
    ({"seed": 1}, 80.0, 0.01),
    ({"t_a": 0.0}, 80.0, 0.01),
    ({"seed": 7, "n_trials": 300}, 80.0, 0.01),
    *[({"t_a": t_a, "c": c, "n_trials": 300, "seed": 3}, 30.0, 0.01)
      for t_a in (0.0, 0.02, 1.0, 1e9) for c in (0.0, 2.0, 50.0)],
    ({"n_trials": 300}, 7.3, 0.011),
    ({"n_trials": 300}, 80.0, 0.03),
    ({"n_trials": 300}, 10.0, 0.7),
    ({"n_trials": 100}, 800.0, 0.1),
    *[({"t_a": t_a, "c": 5e-324, "n_trials": 50}, 30.0, 0.01) for t_a in (0.0, 0.02)],
    ({"n_trials": 1, "seed": 5}, 40.0, 0.02),
    ({"n_trials": 2, "seed": 5}, 40.0, 0.02),
    ({"n_trials": 500, "seed": 5, "v": 0.7, "band_half_width": 0.4,
      "wall_half_width": 3.1}, 40.0, 0.02),
])
def test_monte_carlo_matches_the_reference_loop_bit_for_bit(kw, t_end, dt):
    _assert_matches_reference(MonteCarloConfig(**kw), t_end, dt)


# the walks take at most a few hundred rounds (events per walker)
@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300),
       st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), st.floats(0.0, 100.0),
       st.floats(0.2, 5.0), st.floats(0.1, 2.0), st.floats(0.05, 2.0),
       st.floats(0.05, 3.0), st.floats(0.005, 0.5))
def test_monte_carlo_matches_the_reference_loop_on_any_config(
        seed, n, t_a, c, v, band, gap, t_end, dt):
    cfg = MonteCarloConfig(v=v, c=c, t_a=t_a, band_half_width=band,
                           wall_half_width=band + gap, n_trials=n, seed=seed)
    _assert_matches_reference(cfg, t_end, dt)


def test_monte_carlo_standard_error_matches_the_seed_spread():
    runs = [monte_carlo_slow_adaptation(MonteCarloConfig(n_trials=400, seed=seed), t_end=40.0)
            for seed in range(40)]
    ratios = np.array([r["inside_outside_ratio"] for r in runs])
    se = np.median([r["inside_outside_se"] for r in runs])
    assert 0.7 * se <= ratios.std(ddof=1) <= 1.4 * se


def test_monte_carlo_standard_error_of_one_walker_is_nan():
    res = monte_carlo_slow_adaptation(MonteCarloConfig(n_trials=1, seed=5), t_end=40.0)
    assert math.isfinite(res["inside_outside_ratio"])
    assert math.isnan(res["inside_outside_se"])


@pytest.mark.parametrize("t_end,message", [
    (0.004, "takes no occupancy sample after the burn-in"),
    (1.0, "no walker was outside the band at any of the 90 occupancy samples"),
])
def test_monte_carlo_rejects_a_run_with_nothing_to_count(t_end, message):
    # at t_end = 1 the walkers leave the band at exactly t = 1, the last sample
    with pytest.raises(ValueError, match=message):
        monte_carlo_slow_adaptation(MonteCarloConfig(n_trials=50), t_end=t_end)


@pytest.mark.parametrize("name", ["v", "c", "t_a", "wall_half_width"])
def test_monte_carlo_rejects_non_finite_config(name):
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value!r}"):
            MonteCarloConfig(**{name: value})


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
