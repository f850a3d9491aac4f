import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biosim import aerotaxis, growthcone, kelvin, numerics
from biosim.growthcone import (
    AdaptationParams,
    CaAcParams,
    CompartmentCoupling,
    SwitchRateParams,
    adaptation_asymptotic,
    adaptation_initial_state,
    adaptation_simulate,
    adaptation_slow_rate,
    bifurcation_scan,
    ca_ac_nullclines,
    ca_ac_rhs,
    ca_ac_simulate,
    ca_ac_steady_states,
    calcium_switch_rate,
    default_rd_grid,
    hysteresis_jumps,
    optimal_ligand_sum,
    reaction_diffusion_simulate,
    switch_gradient,
    two_compartment_matched_asymptotic,
    two_compartment_simulate,
    two_compartment_steady,
)
from biosim.numerics import IntegrationError
from test_cli import _ANY_VALUES

# the uncalibrated constants as printed in the source table; the pump and
# resting-level terms are shared with the defaults
TABLE = dict(kn1=1.0, kf=10.0, ka_ratio=1.0)


# ---------------------------------------------------------------- switch rhs

def test_rhs_decay_only_at_resting_state():
    p = CaAcParams(**TABLE)
    dC, dA = ca_ac_rhs((p.Cb, 0.0), 0.0, p)
    assert dA == 0.0  # no ligand, no activation; no cyclase, no decay


def test_rhs_pump_term_reference_value():
    p = CaAcParams(**TABLE)
    dC, _ = ca_ac_rhs((0.1, 0.0), 0.0, p)
    # only the pump acts: -5 * 0.01 / (0.15^2 + 0.01)
    assert dC == pytest.approx(-5 * 0.01 / 0.0325)
    assert dC == pytest.approx(-1.5385, abs=1e-4)


def test_rhs_store_flux_vanishes_at_store_level():
    p = CaAcParams(**TABLE)
    dC_full, _ = ca_ac_rhs((p.Cer, 5.0), 2.0, p)
    zeroed = CaAcParams(**{**TABLE, "kf": 1e-12, "k3": 1e-12})
    dC_no_store, _ = ca_ac_rhs((p.Cer, 5.0), 2.0, zeroed)
    assert dC_full == pytest.approx(dC_no_store, abs=1e-9)


def test_rhs_guard_at_origin():
    p = CaAcParams()
    dC, dA = ca_ac_rhs((0.0, 0.0), 0.0, p)
    assert math.isfinite(dC) and math.isfinite(dA)


def test_rhs_matches_the_written_out_rates_bit_for_bit():
    # the ligand terms are formed once per level; every value stays the one
    # the rates give written out in full
    p = CaAcParams()
    rng = np.random.default_rng(5)
    for L, C, A in zip(rng.uniform(0, 30, 200), rng.uniform(0, 10, 200), rng.uniform(0, 20, 200)):
        L, C, A = float(L), float(C), float(A)
        dC = (p.k0 * L / (p.kn1 + L) - p.k1 * C * C / (p.Kp * p.Kp + C * C) + p.k2 * (p.Cb - C)
              + (p.kf + p.k3 * A) * L * C * (p.Cer - C) / (C + p.ka_ratio * L))
        gain = p.k4 * L / (p.kn2 + L) * p.Cm * C**4 / (p.Kr**5 + p.Cm * C**4)
        assert ca_ac_rhs((C, A), L, p) == (dC, gain * (p.At - A) - p.k5 * A)


# test-only copies of the switch's rate law as separate functions of the
# ligand terms lig; growthcone._switch_law binds it once per level and must
# give the same values, bit for bit


def _ref_ligand_terms(L, p):
    if not np.all(L >= 0):
        raise ValueError("ligand must be nonnegative")
    return (L, p.k0 * L / (p.kn1 + L), p.Kp * p.Kp, p.ka_ratio * L,
            p.k4 * L / (p.kn2 + L) * p.Cm, p.Kr**5)


def _ref_calcium_terms(C, lig, gate, p):
    L, influx, Kp2, ka_L, _, _ = lig
    q = influx - p.k1 * C * C / (Kp2 + C * C) + p.k2 * (p.Cb - C)
    den = C + ka_L
    if isinstance(den, np.ndarray) or den > 0:
        return q, gate * L * C * (p.Cer - C) / den
    return q, 0.0


def _ref_activation_gain(C, lig, p):
    C4 = C**4
    return lig[4] * C4 / (lig[5] + p.Cm * C4)


def _ref_rates(C, A, lig, p):
    q, release = _ref_calcium_terms(C, lig, p.kf + p.k3 * A, p)
    return q + release, _ref_activation_gain(C, lig, p) * (p.At - A) - p.k5 * A


def _ref_a_nullcline(C, lig, p):
    gain = _ref_activation_gain(C, lig, p)
    return p.At * gain / (gain + p.k5)


def _ref_dc_on_a_nullcline(C, lig, p):
    q, release = _ref_calcium_terms(C, lig, p.kf + p.k3 * _ref_a_nullcline(C, lig, p), p)
    return q + release


def _ref_nullclines(L, p, n):
    C = np.linspace(1e-3, 8.0, n)
    lig = _ref_ligand_terms(L, p)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q, g4 = _ref_calcium_terms(C, lig, 1.0, p)
        a_c = np.where(np.abs(g4) > 1e-300, -q / (p.k3 * g4) - p.kf / p.k3, np.nan)
        a_a = _ref_a_nullcline(C, lig, p)
    return C, np.where(np.isfinite(a_c), a_c, np.nan), a_a


def _bits(*values):
    return [np.asarray(v, dtype=float).tobytes() for v in values]


_LEVELS = st.floats(0.0, 30.0) | st.floats(0.0, 1e-3) | st.floats(30.0, 1e6)
_CALCIUM = st.floats(0.0, 10.0) | st.floats(1e-6, 1e-2) | st.floats(10.0, 1e20)
_CYCLASE = st.floats(0.0, 25.0)


@settings(max_examples=200, deadline=None)
@given(_LEVELS, _CALCIUM, _CYCLASE)
def test_rate_law_matches_the_separate_functions_on_floats(L, C, A):
    p = CaAcParams()
    # a caller may hand the law numpy scalars
    for L_arg, C_arg in ((L, C), (np.float64(L), np.float64(C))):
        law, lig = growthcone._switch_law(L_arg, p), _ref_ligand_terms(L_arg, p)
        assert _bits(*law(C_arg, A)) == _bits(*_ref_rates(C_arg, A, lig, p))
        dC, A_curve, gain, q, release = law(C_arg, None)
        assert _bits(dC, A_curve, gain) == _bits(_ref_dc_on_a_nullcline(C_arg, lig, p),
                                                 _ref_a_nullcline(C_arg, lig, p),
                                                 _ref_activation_gain(C_arg, lig, p))
        assert _bits(q, release) == _bits(
            *_ref_calcium_terms(C_arg, lig, p.kf + p.k3 * A_curve, p))
        assert _bits(*law(C_arg, None, 1.0)[3:]) == _bits(*_ref_calcium_terms(C_arg, lig, 1.0, p))


@settings(max_examples=50, deadline=None)
@given(st.data(), _LEVELS, st.integers(1, 40))
def test_rate_law_matches_the_separate_functions_on_arrays(data, L, n):
    p = CaAcParams()
    C = np.array(data.draw(st.lists(_CALCIUM, min_size=n, max_size=n)))
    A = np.array(data.draw(st.lists(_CYCLASE, min_size=n, max_size=n)))
    levels = np.array(data.draw(st.lists(_LEVELS, min_size=n, max_size=n)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # one level for every C, and a level per C as the curve's check takes them
        for L_arg in (L, levels):
            law, lig = growthcone._switch_law(L_arg, p), _ref_ligand_terms(L_arg, p)
            assert _bits(*law(C, A)) == _bits(*_ref_rates(C, A, lig, p))
            assert _bits(*law(C, None)[:2]) == _bits(_ref_dc_on_a_nullcline(C, lig, p),
                                                     _ref_a_nullcline(C, lig, p))
    assert _bits(*ca_ac_nullclines(L, p, n)) == _bits(*_ref_nullclines(L, p, n))


def test_rate_law_serves_the_default_runs_unchanged():
    # the four default levels, the nullclines at the window's levels and
    # the curve's steady states, pinned by the separate functions
    p = CaAcParams()
    for L in (0.1, 1.0, 10.0, 20.0, 0.6, 2.3):
        assert _bits(*ca_ac_nullclines(L, p)) == _bits(*_ref_nullclines(L, p, 400))
        for st_, stable in ca_ac_steady_states(L, p):
            lig = _ref_ligand_terms(L, p)
            assert _bits(st_.A) == _bits(_ref_a_nullcline(st_.C, lig, p))


# ---------------------------------------------------------------- trajectories

def test_simulate_zero_ligand_keeps_cyclase_off():
    traj = ca_ac_simulate(0.0, t_end=5.0)
    assert np.all(traj.states[:, 1] == 0.0)


def test_simulate_low_and_high_branches():
    ends = {L: ca_ac_simulate(L, t_end=10.0).final() for L in (0.1, 1.0, 10.0, 20.0)}
    p = CaAcParams()
    # low side: both remain far below half activation
    assert ends[0.1][1] < p.At / 4 and ends[1.0][1] < p.At / 4
    # high side: both land close together on the high branch
    assert ends[10.0][1] > p.At / 2 and ends[20.0][1] > p.At / 2
    assert abs(ends[10.0][1] - ends[20.0][1]) < 0.1 * ends[10.0][1]


@pytest.mark.parametrize("h", [0.2, 0.3])
def test_simulate_rejects_negative_concentration(h):
    # h is the sample spacing: at L = 0.1 the fixed steps h = 0.2 and 0.3
    # once drove calcium negative; now only a negative initial state does
    assert ca_ac_simulate(0.1, h=h).states.min() >= 0.0
    for C0, A0 in ((-0.1, 0.0), (0.1, -1.0)):
        with pytest.raises(IntegrationError, match=r"negative concentration at t=0\.0$"):
            ca_ac_simulate(0.1, h=h, C0=C0, A0=A0)


@pytest.mark.parametrize("h", [0.2, 0.3, 0.4, 0.5])
def test_simulate_coarse_sample_spacing_matches_default(h):
    # a fixed step of 0.5 once returned C = 7.0e21 at L = 0.1
    default = ca_ac_simulate(0.1)
    coarse = ca_ac_simulate(0.1, h=h)
    idx = np.rint(coarse.times / 1e-3).astype(int)
    assert np.allclose(default.times[idx], coarse.times, rtol=0.0, atol=1e-12)
    assert np.all(np.abs(coarse.states - default.states[idx])
                  <= 1e-7 * np.abs(default.states[idx]))
    assert coarse.final()[0] == pytest.approx(0.0637, abs=1e-4)


def test_invariant_region_under_parameter_jitter():
    rng = np.random.default_rng(3)
    base = CaAcParams()
    names = [n for n in base.__dataclass_fields__]
    for _ in range(8):
        factors = 1 + 0.2 * (2 * rng.random(len(names)) - 1)
        kw = {n: getattr(base, n) * f for n, f in zip(names, factors)}
        kw["Cer"] = max(kw["Cer"], kw["Cb"] * 2)
        p = CaAcParams(**kw)
        L = float(rng.uniform(0.1, 15.0))
        traj = ca_ac_simulate(L, p, t_end=5.0, h=1e-3)
        assert np.all(traj.states[:, 0] >= 0)
        assert np.all(traj.states[:, 1] >= -1e-12)
        assert np.all(traj.states[:, 1] <= p.At + 1e-9)


# ---------------------------------------------------------------- nullclines

def test_nullcline_intersection_counts():
    for L, expected in ((0.1, 1), (1.0, 3), (10.0, 1)):
        assert len(ca_ac_steady_states(L)) == expected


def _fd_jacobian(C, A, L, p, step=1e-6):
    cols = []
    for dC, dA in ((step, 0.0), (0.0, step)):
        up = np.array(ca_ac_rhs((C + dC, A + dA), L, p))
        dn = np.array(ca_ac_rhs((C - dC, A - dA), L, p))
        cols.append((up - dn) / (2 * step))
    return np.column_stack(cols)


def test_steady_state_stability_labels():
    # the labels the eigenvalue test gave before: stable outer branches
    # around an unstable middle state inside the bistable window
    p = CaAcParams()
    expected = {0.5: [True], 1.0: [True, False, True], 2.0: [True, False, True]}
    for L, labels in expected.items():
        states = ca_ac_steady_states(L, p)
        assert [stable for _, stable in states] == labels
        for st, stable in states:
            lam = np.linalg.eigvals(_fd_jacobian(st.C, st.A, L, p))
            assert (lam.real.max() < 0) == stable


def test_nullcline_curves_cross_at_steady_states():
    L = 1.0
    states = ca_ac_steady_states(L)
    C, a_c, a_a = ca_ac_nullclines(L, n=2000)
    for st, _ in states:
        j = int(np.argmin(np.abs(C - st.C)))
        assert a_a[j] == pytest.approx(st.A, abs=0.05)
        assert a_c[j] == pytest.approx(st.A, abs=0.25)


def test_nullcline_residual_array_matches_scalar_rhs():
    p = CaAcParams()
    C = np.linspace(1e-6, 8.0, 1500)
    for L in (0.0, 0.1, 1.0, 2.3, 10.0):
        law = growthcone._switch_law(L, p)
        res = law(C, None)[0]
        ref = [ca_ac_rhs((c, law(c, None)[1]), L, p)[0] for c in C]
        np.testing.assert_allclose(res, ref, rtol=1e-12, atol=1e-12)
        # the rate law over the whole grid gives the scalar rhs at any
        # cyclase level
        for A in (0.0, 7.5, p.At):
            ref = [ca_ac_rhs((c, A), L, p)[0] for c in C]
            np.testing.assert_allclose(law(C, np.full_like(C, A))[0], ref, rtol=1e-12, atol=1e-12)


def test_state_counts_across_the_folds(jumps):
    # just inside each fold the two merging states are still there, just
    # outside they are gone
    L_up, L_down = jumps
    p = CaAcParams()
    for L, expected in ((L_up * (1 - 1e-8), 3), (L_down * (1 + 1e-8), 3),
                        (L_up * (1 + 1e-8), 1), (L_down * (1 - 1e-8), 1)):
        states = ca_ac_steady_states(L, p)
        assert len(states) == expected, L
        Cs = [st.C for st, _ in states]
        assert Cs == sorted(Cs)


def test_steady_state_roots_converge_superlinearly(monkeypatch):
    # each root of dC/dt on the dA/dt = 0 curve at tol 1e-13 takes about
    # ten evaluations; bisection took about 47
    p = CaAcParams()
    growthcone._folds(p)  # the fold roots are cached apart
    counts = []

    def counting(f, bracket, tol):
        calls = []
        root = numerics.solve_scalar_root(lambda c: calls.append(c) or f(c), bracket, tol)
        counts.append(len(calls))
        return root

    monkeypatch.setattr(growthcone, "solve_scalar_root", counting)
    for L in (0.1, 1.0, 2.0, 10.0):
        ca_ac_steady_states(L, p)
    assert len(counts) == 8 and max(counts) <= 14


def test_state_on_a_shared_piece_edge_counts_once(monkeypatch):
    # a residual whose root lies exactly on a fold edge: the zero counts
    # for the piece above the edge only
    monkeypatch.setattr(growthcone, "_switch_law", lambda L, p: lambda c, A, gate=None: (
        (c - 0.5, 0.0, 0.0, 0.0, 0.0) if A is None else (c - 0.5, -A)))
    monkeypatch.setattr(growthcone, "_folds", lambda p: ((0.5, 1.0),))
    assert [st.C for st, _ in ca_ac_steady_states(1.0)] == [0.5]


def test_folds_are_the_window_edges_to_1e9():
    # the exact folds of the steady-state curve: a sign-change count on a
    # finite calcium grid misses the two merging states next to a fold
    L_up, L_down = hysteresis_jumps()
    assert L_up == pytest.approx(2.2939159255, abs=1e-9)
    assert L_down == pytest.approx(0.6067815518, abs=1e-9)


def test_fold_states_have_a_singular_jacobian():
    p = CaAcParams()
    folds = growthcone._folds(p)
    assert len(folds) == 2
    for C, L in folds:
        dC, A = growthcone._switch_law(L, p)(C, None)[:2]
        assert abs(dC) < 1e-12
        J = _fd_jacobian(C, A, L, p)
        assert abs(np.linalg.det(J)) <= 1e-4 * np.abs(J).max() ** 2


def test_curve_points_are_steady_states():
    # Lambda(C) is a root of the uncleared residual wherever it exists,
    # and the curve exists exactly on its calcium span
    p = CaAcParams()
    C = np.linspace(1e-6, 8.0, 4000)
    L = growthcone._curve_ligand(C, p)
    on = np.isfinite(L)
    span = C[on]
    assert 0.049 < span[0] < 0.051 and 5.09 < span[-1] < 5.11
    assert np.all(on[(C >= span[0]) & (C <= span[-1])])
    ok = on & (L < 100)
    res = growthcone._switch_law(L[ok], p)(C[ok], None)[0]
    scale = p.k0 + p.k1 + p.k2 * C[ok] + (p.kf + p.k3 * p.At) * C[ok] * p.Cer
    assert np.max(np.abs(res) / scale) < 1e-12
    for c, l in zip(C[ok][::97], L[ok][::97]):
        assert min(abs(st.C - c) for st, _ in ca_ac_steady_states(l, p)) < 1e-9


def test_steady_states_reject_negative_ligand():
    with pytest.raises(ValueError, match="ligand must be nonnegative"):
        ca_ac_steady_states(-0.1)


@pytest.mark.parametrize("L_lo,L_hi", [(2.5, 6.0), (0.05, 0.5)])
def test_window_outside_the_range_raises(L_lo, L_hi):
    with pytest.raises(ValueError, match="no bistable window"):
        hysteresis_jumps(CaAcParams(), L_lo, L_hi)


@pytest.mark.parametrize("L_lo,L_hi", [(-0.1, 6.0), (6.0, 0.05), (1.0, 1.0)])
def test_window_range_must_be_ordered_and_nonnegative(L_lo, L_hi):
    with pytest.raises(ValueError, match="need 0 <= L_lo < L_hi"):
        hysteresis_jumps(CaAcParams(), L_lo, L_hi)


def test_window_is_clipped_to_the_range():
    assert hysteresis_jumps(CaAcParams(), 1.0, 2.0) == (2.0, 1.0)


def test_high_state_only_after_jump():
    states = ca_ac_steady_states(10.0)
    assert len(states) == 1
    st, stable = states[0]
    assert stable and st.A > 10.0


# ---------------------------------------------------------------- bifurcation

@pytest.fixture(scope="module")
def jumps():
    return hysteresis_jumps()


def test_hysteresis_window(jumps):
    L_up, L_down = jumps
    assert L_up == pytest.approx(2.3, abs=0.15)
    assert L_down == pytest.approx(0.6, abs=0.15)
    assert L_up > L_down  # sweep directions disagree: hysteresis


def test_branch_levels_at_the_jump(jumps):
    L_up, _ = jumps
    below = ca_ac_steady_states(L_up - 0.02)
    above = ca_ac_steady_states(L_up + 0.05)
    A_low = min(s.A for s, _ in below)
    A_high = max(s.A for s, _ in above)
    assert A_low == pytest.approx(1.7, rel=0.25)
    assert A_high == pytest.approx(12.0, rel=0.25)


def test_bifurcation_scan_branch_structure(jumps):
    L_up, L_down = jumps
    rows = bifurcation_scan(CaAcParams(), [L_down / 2, (L_down + L_up) / 2, L_up + 1.0])
    per_L = {}
    for L, branch, C, A, stable in rows:
        per_L.setdefault(round(L, 6), []).append((branch, stable))
    vals = list(per_L.values())
    assert [b for b, _ in vals[0]] == ["low"]
    assert sorted(b for b, _ in vals[1]) == ["high", "low", "unstable"]
    assert [st for b, st in vals[1] if b == "unstable"] == [False]
    assert [b for b, _ in vals[2]] == ["high"]


def test_bifurcation_scan_on_floats_keeps_the_rows_of_numpy_scalar_levels():
    # the scan steps its levels as Python floats; the states are those found
    # at the numpy scalars of the level array
    p = CaAcParams()
    levels = np.linspace(0.05, 6.0, 60)
    rows = bifurcation_scan(p, levels)
    assert all(type(L) is float for L, *_ in rows)
    ref = [(float(L), s.C, s.A, stable) for L in levels
           for s, stable in ca_ac_steady_states(L, p)[:3]]
    assert [(L, C, A, stable) for L, _, C, A, stable in rows] == ref


def test_branch_variation_small_next_to_jump():
    # steady level drifts much less along a branch than across the jump
    rows = bifurcation_scan(CaAcParams(), np.logspace(-2, 3, 12))
    lows = [A for _, b, _, A, _ in rows if b == "low"]
    highs = [A for _, b, _, A, _ in rows if b == "high"]
    assert max(lows) - min(lows) < min(highs) - max(lows)


# ---------------------------------------------------------------- adaptation

def test_constant_ligand_constant_state():
    p = AdaptationParams()
    traj = adaptation_simulate(1.0, 1.0, p, t_end=50.0)
    # starting from the large-lambda state, A stays within the small
    # correction of order 1/lam and ends back at m/r
    assert abs(traj.final()[1] - 0.1) < 1e-6


@pytest.mark.parametrize("l0", [0.0, -0.1])
def test_initial_state_rejects_nonpositive_ligand(l0):
    with pytest.raises(ValueError, match="l0 must be positive"):
        adaptation_initial_state(l0, AdaptationParams())


def test_initial_state_of_levels_is_the_state_at_each_level():
    p = AdaptationParams()
    levels = np.array([0.01, 0.1, 3.0])
    M, A = adaptation_initial_state(levels, p)
    for level, m, a in zip(levels, M, A):
        assert [m, a] == adaptation_initial_state(float(level), p).tolist()
    # a refusal names one level, the lowest: there M is largest
    with pytest.raises(ValueError, match="at l0 = 1e-320 is not finite$"):
        adaptation_initial_state(np.array([1.0, 1e-320, 5e-310]), p)
    with pytest.raises(ValueError, match="l0 must be positive, got -2.0$"):
        adaptation_initial_state(np.array([1.0, -2.0, 0.0]), p)
    # the reaction-diffusion run starts from it at every node
    grid = default_rd_grid()
    ramp = np.linspace(0.1, 1.0, grid.n)
    _, Ms, As = reaction_diffusion_simulate(np.ones(grid.n), p, 0.6, 0.0, grid, 0.0, l_init=ramp)
    assert np.array_equal([Ms[0], As[0]], adaptation_initial_state(ramp, p))


def test_single_compartment_run_is_the_uncoupled_two_compartment_run():
    p = AdaptationParams()
    one = adaptation_simulate(0.1, 1.0, p, t_end=50.0)
    two = two_compartment_simulate(1.0, 1.0, p, CompartmentCoupling(0.0, 0.0), 50.0, 0.1)
    assert np.array_equal(one.times, two.times)
    assert np.array_equal(one.states, two.states[:, :2])
    assert np.array_equal(two.states[:, :2], two.states[:, 2:])


def test_step_returns_to_baseline_both_directions():
    p = AdaptationParams()
    for l0, l1 in ((0.1, 1.0), (1.0, 0.1)):
        traj = adaptation_simulate(l0, l1, p, t_end=800.0)
        A = traj.states[:, 1]
        assert abs(A[-1] - 0.1) <= 1e-3 * 0.1
        assert np.max(np.abs(A - 0.1)) > 0.01  # but it did respond


def test_step_to_a_tiny_ligand_ends_exactly_at_the_steady_state():
    # the rate matrix is written, not differenced out of the right-hand
    # side: differencing m - lam ka against m lost the digits of lam ka and
    # missed this steady state by 1.7e-7 relative
    p = AdaptationParams(m=10.0)
    M, A = adaptation_simulate(0.1, 1e-8, p, t_end=2e11, h=2e8).final()
    assert A == pytest.approx(p.m / p.r, rel=1e-14, abs=0.0)
    assert M == pytest.approx((p.m / p.lam + p.kd * p.m / p.r) / p.ka(1e-8), rel=1e-14, abs=0.0)


def test_adaptation_slower_at_low_ligand():
    p = AdaptationParams()
    assert adaptation_slow_rate(0.1, p) < adaptation_slow_rate(1.0, p)


def test_asymptotic_endpoints():
    p = AdaptationParams()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        M, A = adaptation_asymptotic(0.1, 1.0, p, np.array([0.0, 1e9]))
    assert A[0] == pytest.approx(p.m / p.r)
    assert A[-1] == pytest.approx(p.m / p.r)
    assert M[-1] == pytest.approx((p.m / p.r) * p.kd / p.ka(1.0))


def test_asymptotic_tracks_integration_at_large_ratio():
    p = AdaptationParams(lam=50.0)
    traj = adaptation_simulate(0.1, 1.0, p, t_end=400.0, h=0.02)
    M, A = adaptation_asymptotic(0.1, 1.0, p, traj.times)
    err = np.max(np.abs(A - traj.states[:, 1]))
    assert err <= 0.05 * np.max(np.abs(traj.states[:, 1]))


def test_asymptotic_warns_at_small_ratio():
    p = AdaptationParams(lam=2.0)
    with pytest.warns(UserWarning):
        adaptation_asymptotic(0.1, 1.0, p, np.array([1.0]))


# (M, A) at t = 0, 0.5, 5, 50, 500 as the single-compartment formula gave
# them before it became compartment 1 of the two-compartment solution
_PINNED_ASYMPTOTIC = [
    ((0.1, 1.0, 5.0),
     [1.0, 0.6160061009092812, 0.1369586793491476, 0.10000000000624959, 0.10000000000000002],
     [0.1, 0.28491460385498313, 0.13691781941236134, 0.10000000000624958, 0.1]),
    ((1.0, 0.1, 5.0),
     [0.10000000000000009, 0.1709707131130005, 0.4803358304766224, 0.99131471653111, 1.0],
     [0.1, 0.06902255424554385, 0.048401392477124, 0.09913147165311101, 0.1]),
    ((0.1, 15.0, 50.0),
     [1.0, 0.04551742392961836, 0.00723843439957969, 0.006666666666666668,
      0.006666666666666668],
     [0.1, 0.6827613589442755, 0.10857651599369533, 0.1, 0.1]),
    ((0.5, 1e-6, 5.0),
     [0.19999999999708962, 0.2893466338136932, 0.799322660692269, 5.299854702752782,
      50.28730184590677],
     [0.1, 0.06065320368530046, 0.0006745893060215169, 5.299854702739415e-06,
      5.028730184590546e-05]),
]


@pytest.mark.parametrize("args,M_pinned,A_pinned", _PINNED_ASYMPTOTIC,
                         ids=["step-up", "step-down", "large-ratio", "tiny-l1"])
def test_asymptotic_matches_the_pinned_single_compartment_values(args, M_pinned, A_pinned):
    l0, l1, lam = args
    M, A = adaptation_asymptotic(l0, l1, AdaptationParams(lam=lam),
                                 np.array([0.0, 0.5, 5.0, 50.0, 500.0]))
    assert np.max(np.abs(M - M_pinned)) <= 1e-12 * np.max(np.abs(M_pinned))
    assert np.max(np.abs(A - A_pinned)) <= 1e-12 * np.max(np.abs(A_pinned))


def test_fast_scale_conserves_total():
    # the leak scales the drift of A + M as 1/lam over the fast window
    p = AdaptationParams(lam=500.0)
    l0, l1 = 0.1, 1.0
    traj = adaptation_simulate(l0, l1, p, t_end=5 / (p.lam * (p.kd + p.ka(l1))),
                               h=1e-5)
    tot = traj.states.sum(axis=1)
    assert np.max(np.abs(tot - tot[0])) < 0.01 * tot[0]
    p = AdaptationParams(lam=50.0)
    traj = adaptation_simulate(l0, l1, p, t_end=5 / (p.lam * (p.kd + p.ka(l1))),
                               h=1e-4)
    tot = traj.states.sum(axis=1)
    assert np.max(np.abs(tot - tot[0])) < 0.1 * tot[0]


# ---------------------------------------------------------------- two compartments

def test_uniform_ligand_adapts_both_compartments():
    traj = two_compartment_simulate(1.0, 1.0, t_end=400.0)
    M1, A1, M2, A2 = traj.final()
    assert A1 == pytest.approx(0.1, abs=1e-6)
    assert A2 == pytest.approx(0.1, abs=1e-6)


def test_gradient_gives_persistent_asymmetry():
    traj = two_compartment_simulate(1.0, 0.5, t_end=1000.0)
    M1, A1, M2, A2 = traj.final()
    assert A1 > A2
    assert M1 < M2


def test_steady_closed_form_matches_simulation():
    p = AdaptationParams()
    cpl = CompartmentCoupling(k1=1.0, k2=0.1)
    traj = two_compartment_simulate(1.0, 0.5, p, cpl, t_end=400.0)
    M1, A1, M2, A2 = traj.final()
    A1s, A2s, M1s, M2s = two_compartment_steady(p.ka(1.0), p.ka(0.5), p, cpl)
    assert A1 == pytest.approx(A1s, abs=1e-6)
    assert A2 == pytest.approx(A2s, abs=1e-6)
    assert M1 == pytest.approx(M1s, abs=1e-6)
    assert M2 == pytest.approx(M2s, abs=1e-6)


def test_equal_ligands_equal_steady():
    p = AdaptationParams()
    cpl = CompartmentCoupling()
    A1s, A2s, M1s, M2s = two_compartment_steady(p.ka(0.7), p.ka(0.7), p, cpl)
    assert A1s == pytest.approx(p.m / p.r)
    assert A2s == pytest.approx(p.m / p.r)
    assert M1s == pytest.approx(p.m / p.r * (p.r + p.lam * p.kd) / (p.lam * p.ka(0.7)))


def test_decoupled_when_k1_zero():
    p = AdaptationParams()
    cpl = CompartmentCoupling(k1=0.0, k2=0.0)
    A1s, A2s, M1s, M2s = two_compartment_steady(p.ka(1.0), p.ka(0.5), p, cpl)
    assert A1s == A2s == p.m / p.r
    assert M1s == pytest.approx(p.m / p.r * (p.r + p.lam * p.kd) / (p.lam * p.ka(1.0)))
    assert M2s == pytest.approx(p.m / p.r * (p.r + p.lam * p.kd) / (p.lam * p.ka(0.5)))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 20.0), st.floats(0.01, 20.0),
       st.floats(0.0, 5.0), st.floats(0.0, 5.0))
def test_gradient_bound_and_sign(l1, l2, k1, k2):
    p = AdaptationParams()
    cpl = CompartmentCoupling(k1=k1, k2=k2)
    A1s, A2s, _, _ = two_compartment_steady(p.ka(l1), p.ka(l2), p, cpl)
    assert abs(A1s - A2s) < 2 * p.m / p.r
    if k1 > 1e-9 and l1 != l2:
        assert math.copysign(1, A1s - A2s) == math.copysign(1, l1 - l2)


def test_optimal_ligand_sum_value_and_falloff():
    p = AdaptationParams()
    cpl = CompartmentCoupling(k1=1.0, k2=0.0)
    ks_star = optimal_ligand_sum(p, cpl)
    assert ks_star == pytest.approx(2.5)
    # past the optimum the response strictly falls with the rate sum
    kdiff = 0.3
    gaps = []
    for ks in (ks_star, 1.5 * ks_star, 3 * ks_star):
        ka1 = (ks + kdiff) / 2
        ka2 = (ks - kdiff) / 2
        A1s, A2s, _, _ = two_compartment_steady(ka1, ka2, p, cpl)
        gaps.append(A1s - A2s)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_response_grows_with_ligand_difference():
    p = AdaptationParams()
    cpl = CompartmentCoupling(k1=1.0, k2=0.0)
    ks = 2.0
    gaps = []
    for kdiff in (0.2, 0.5, 1.0):
        A1s, A2s, _, _ = two_compartment_steady((ks + kdiff) / 2, (ks - kdiff) / 2,
                                                p, cpl)
        gaps.append(A1s - A2s)
    assert gaps == sorted(gaps)


# ---------------------------------------------------------------- matched asymptotic

def test_matched_asymptotic_reduces_to_single_compartment():
    p = AdaptationParams(lam=50.0)
    cpl = CompartmentCoupling(k1=1e-12, k2=0.0)
    t = np.linspace(0, 100, 401)
    out = two_compartment_matched_asymptotic(0.1, 1.0, 0.5, p, cpl, t)
    _, A_single = adaptation_asymptotic(0.1, 1.0, p, t)
    assert np.max(np.abs(out["A1"] - A_single)) < 1e-6


def test_matched_asymptotic_long_time_limit():
    p = AdaptationParams(lam=200.0)
    cpl = CompartmentCoupling(k1=1.0, k2=0.0)
    t = np.array([0.0, 5000.0])
    # rate separation (r + k1)(ka1 - ka2)/k1 = 5.8: inside the valid regime
    out = two_compartment_matched_asymptotic(0.1, 15.0, 0.5, p, cpl, t)
    A1s, A2s, M1s, M2s = two_compartment_steady(p.ka(15.0), p.ka(0.5), p, cpl)
    assert out["A1"][-1] == pytest.approx(A1s, rel=0.02)
    assert out["A2"][-1] == pytest.approx(A2s, rel=0.02)
    assert out["valid"]


def test_matched_asymptotic_initial_values_and_flag():
    p = AdaptationParams()
    cpl = CompartmentCoupling(k1=1.0, k2=0.0)
    out = two_compartment_matched_asymptotic(0.1, 1.0, 0.95, p, cpl, np.array([0.0]))
    assert out["A1"][0] == pytest.approx(p.m / p.r, abs=1e-12)
    assert out["A2"][0] == pytest.approx(p.m / p.r, abs=1e-12)
    assert not out["valid"]  # nearly equal ligands violate the rate separation


def test_matched_asymptotic_slow_limits_solve_the_slow_balance():
    # the slow limits solve m - r A_i + k1 (M_j - M_i) = 0 with M_i = kd A_i / ka_i;
    # at r = 1e-9 that 2x2 system has condition number near 1e9, and a
    # floating-point solve of it lost 7 digits
    p, cpl = AdaptationParams(r=1e-9), CompartmentCoupling(k1=1.0, k2=0.0)
    out = two_compartment_matched_asymptotic(1.0, 0.5, 1e-9, p, cpl, np.array([1e14]))
    m, r, k1, kd = (Fraction(v) for v in (p.m, p.r, cpl.k1, p.kd))
    c1, c2 = (k1 * kd / Fraction(p.ka(l)) for l in (0.5, 1e-9))
    # (r + c1) A1 - c2 A2 = m and -c1 A1 + (r + c2) A2 = m, by Cramer's rule
    det = (r + c1) * (r + c2) - c1 * c2
    A1, A2 = m * (r + 2 * c2) / det, m * (r + 2 * c1) / det
    assert out["A1"][0] == pytest.approx(float(A1), rel=4e-16)
    assert out["A2"][0] == pytest.approx(float(A2), rel=4e-16)


# ---------------------------------------------------------------- reaction-diffusion

# graded responses need the exchange length sqrt(D1 / screening) to cover
# the domain, so ligand levels are kept low enough that the modified
# substance diffuses faster than it is consumed; the three runs are stepped
# once, by the rd_profiles fixture, and the uniform one is checked by
# test_c09_reaction_diffusion_profiles

def test_rd_linear_gradient_comonotone_response(rd_profiles):
    _, M, A = rd_profiles["linear"]
    assert np.all(np.diff(A) > 0)       # A follows the ligand
    assert np.all(np.diff(M) < 0)       # M runs against it


def test_rd_quadratic_gradient_extrema_align(rd_profiles):
    quad, M, A = rd_profiles["quadratic"]  # peak mid-domain
    assert int(np.argmax(A)) == int(np.argmax(quad))
    assert int(np.argmin(M)) == int(np.argmax(quad))


def _reference_rd(l_profile, p, D1, D2, grid, t_end, sample_every):
    """The reaction-diffusion step loop written term by term: an Euler
    reaction step with fresh arrays for every term, added to the FTCS step."""
    steps = round(t_end / grid.dt)
    A = np.full(grid.n, p.m / p.r)
    M = p.m / p.r * p.kd / (p.k * l_profile)
    ka = p.k * l_profile
    Ms, As = [M.copy()], [A.copy()]
    for step in range(1, steps + 1):
        ex = p.lam * (ka * M - p.kd * A)
        dM = p.m - ex
        dA = -p.r * A + ex
        M = numerics.ftcs_diffusion_step(M, D1, grid) + grid.dt * dM
        if D2 > 0:
            A = numerics.ftcs_diffusion_step(A, D2, grid) + grid.dt * dA
        else:
            A = A + grid.dt * dA
        if step % sample_every == 0 or step == steps:
            Ms.append(M.copy())
            As.append(A.copy())
    return Ms, As


@pytest.mark.parametrize("D2", [0.0, 0.1])
def test_rd_matches_the_reference_loop(D2):
    # the dt-scaled reaction coefficients reorder the Euler step's rounding
    # only: every sample agrees with the term-by-term loop to 1e-12
    p = AdaptationParams()
    grid = default_rd_grid()
    lin = np.linspace(0.01, 0.03, grid.n)
    times, Ms, As = reaction_diffusion_simulate(lin, p, 0.6, D2, grid, t_end=20.0,
                                                sample_every=250)
    ref_M, ref_A = _reference_rd(lin, p, 0.6, D2, grid, 20.0, 250)
    assert times.tolist() == [2.5 * i for i in range(9)]
    assert len(Ms) == len(As) == len(ref_M) == 9
    # the rows of a block are distinct by construction; comparing each with
    # the reference's copy shows that no kept sample was overwritten later
    for got, want in zip([*Ms, *As], ref_M + ref_A):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("D1,D2", [(-0.1, 0.0), (0.6, -0.1), (math.nan, 0.0), (0.6, math.nan)])
def test_rd_rejects_negative_diffusivities_before_stepping(D1, D2, monkeypatch):
    calls = []
    monkeypatch.setattr(growthcone, "ftcs_diffusion_step",
                        lambda *args, **kwargs: calls.append(1))
    grid = default_rd_grid()
    with pytest.raises(ValueError, match="diffusivities must be nonnegative"):
        reaction_diffusion_simulate(np.full(grid.n, 0.02), AdaptationParams(), D1, D2,
                                    grid, t_end=1.0)
    assert calls == []


# ---------------------------------------------------------------- calcium switch

def test_switch_rate_baseline_identity():
    sp = SwitchRateParams()
    for l in (0.0, 0.5, 3.0):
        assert calcium_switch_rate(l, sp.ca_b, sp) == 1.0


def test_switch_rate_monotonicity_flips_with_calcium():
    sp = SwitchRateParams()
    ls = np.linspace(0.1, 5.0, 20)
    high = [calcium_switch_rate(l, 0.4, sp) for l in ls]
    low = [calcium_switch_rate(l, 0.1, sp) for l in ls]
    assert all(np.diff(high) > 0)
    assert all(np.diff(low) < 0)


def test_switch_gradient_sign_flips():
    assert switch_gradient(1.0, 0.5, 0.4)[-1] == 1.0
    assert switch_gradient(1.0, 0.5, 0.1)[-1] == -1.0


# ---------------------------------------------------------------- library guards

_P = AdaptationParams()
_T = np.linspace(0.0, 1.0, 3)
_GRID = default_rd_grid()
_ACTIN = kelvin.material_params("actin")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call,message", [
    # each used to overflow, divide by zero or return inf
    (lambda: aerotaxis.keller_segel_coefficients(1e308, 1.0, 1.0), "mu = inf"),
    (lambda: aerotaxis.rear_arrival_time(1.0, 0.0, 1.0), "speed\\^2 must be positive"),
    (lambda: aerotaxis.rear_arrival_time(1.0, 1e-200, 1.0), "speed\\^2 must be positive"),
    (lambda: adaptation_asymptotic(0.0, 1.0, _P, _T), "ligands must be positive"),
    (lambda: adaptation_asymptotic(1.0, 0.0, _P, _T), "ligands must be positive"),
    # these returned NaN or overflowed
    (lambda: adaptation_asymptotic(1e-300, 1e-300, _P, _T), "is not finite"),
    (lambda: adaptation_asymptotic(1e-320, 1e308, _P, _T), "is not finite"),
    # kd / ka divided by zero
    (lambda: two_compartment_matched_asymptotic(0.1, 0.0, 0.5, _P,
                                                CompartmentCoupling(1.0, 0.0), _T),
     "ligands must be positive"),
    # a negative ligand divided by zero or gave rates, and NaN gave NaN curves
    (lambda: ca_ac_rhs((0.1, 0.0), -1.0, CaAcParams()), "ligand must be nonnegative"),
    (lambda: ca_ac_rhs((0.1, 0.0), -3.0, CaAcParams()), "ligand must be nonnegative"),
    (lambda: ca_ac_nullclines(math.nan), "ligand must be nonnegative"),
    (lambda: ca_ac_steady_states(math.nan), "ligand must be nonnegative"),
    # this one warned of overflow
    (lambda: ca_ac_nullclines(1e308), "dA/dt = 0 curve is not finite"),
    # found by the property test below: a division by zero, a negative
    # production rate and an overflowing steady state
    (lambda: adaptation_slow_rate(-1.0, _P), "ligand l1 must be nonnegative"),
    (lambda: two_compartment_steady(-1.0, 2.0, _P, CompartmentCoupling()),
     "must be nonnegative"),
    (lambda: two_compartment_steady(0.0, 1e-320, _P, CompartmentCoupling()), "is not finite"),
    (lambda: ca_ac_nullclines(-1.0), "ligand must be nonnegative"),
    (lambda: ca_ac_simulate(-1.0), "ligand must be nonnegative"),
    # Kr**5 raised a bare OverflowError in the ligand terms
    (lambda: ca_ac_steady_states(1.0, CaAcParams(Kr=1e100)), "Kr\\*\\*5"),
    (lambda: ca_ac_nullclines(1.0, CaAcParams(Kr=1e100)), "Kr\\*\\*5"),
    (lambda: optimal_ligand_sum(_P, CompartmentCoupling(k1=1e-320)), "is not finite"),
    # guards no other test reaches
    (lambda: numerics.Trajectory([0.0, 1.0], [[0.0]]), "must have equal length"),
    (lambda: numerics.Trajectory([0.0, 0.0], [[0.0], [0.0]]), "strictly increasing"),
    (lambda: numerics.Trajectory([0.0, 1.0], [[0.0], [math.nan]]), "non-finite values"),
    (lambda: numerics.rk4_integrate(lambda t, y: -y, [1.0], 0.0, 1.0, 0.0),
     "step size must be positive"),
    (lambda: numerics.rk4_integrate(lambda t, y: -y, [1.0], 0.0, 0.0, 0.1),
     "t1 must exceed t0"),
    (lambda: numerics.solve_linear_dense(np.ones((2, 3)), np.ones(2)), "need square A"),
    (lambda: numerics.expm(np.ones((2, 3))), "expm needs a square matrix"),
    (lambda: numerics.expm([[math.nan, 0.0], [0.0, 0.0]]), "expm needs a finite matrix"),
    (lambda: CaAcParams(k0=0.0), "k0 must be positive"),
    (lambda: CaAcParams(Cb=8.0), "resting calcium must be below store calcium"),
    (lambda: growthcone.CaAcState(-1.0, 0.0), "C must be nonnegative, got -1.0"),
    (lambda: CompartmentCoupling(k1=-1.0), "k1 must be nonnegative, got -1.0"),
    # this one used to divide by zero before it refused the coupling
    (lambda: two_compartment_steady(0.0, 1.0, _P, CompartmentCoupling(k1=0.0)),
     "a zero-rate compartment needs k1 > 0"),
    (lambda: optimal_ligand_sum(_P, CompartmentCoupling(k1=0.0)), "needs k1 > 0"),
    (lambda: reaction_diffusion_simulate(np.ones(5), _P, 0.6, 0.0, _GRID, 1.0),
     "ligand profile must match the grid"),
    (lambda: reaction_diffusion_simulate(np.zeros(_GRID.n), _P, 0.6, 0.0, _GRID, 1.0),
     "ligand must be positive everywhere"),
    (lambda: SwitchRateParams(b=0.0), "b must be positive, got 0.0"),
    (lambda: calcium_switch_rate(-1.0, 0.2, SwitchRateParams()),
     "ligand and calcium must be nonnegative"),
    # and this one divided by a denominator that underflowed to zero
    (lambda: calcium_switch_rate(0.5, 0.0, SwitchRateParams(b=1e-320, c=5e-324)),
     "\\(l \\+ b\\)\\(Ca \\+ c\\) at l = 0.5, Ca = 0.0 is not positive"),
    (lambda: aerotaxis.MonteCarloConfig(n_trials=0), "n_trials must be at least 1"),
    (lambda: aerotaxis.PistonParams(tau=0.0), "tau must be positive, got 0.0"),
    (lambda: aerotaxis.piston_receptor_simulate(aerotaxis.PistonParams(), 0, 1.0),
     "ramp_sign must be \\+1 or -1"),
    (lambda: aerotaxis.steady_state_low(aerotaxis.AerotaxisParams(L0=0.003), 0.003,
                                        k=0.003, s=1.0), "low regime needs L0 < l_min"),
    (lambda: kelvin.convert_micropipette_params(0.0, 1.0, 1.0, 2.0, 1.0),
     "inputs must be positive"),
    (lambda: kelvin.ParallelGroup(()), "a group needs at least one body"),
    (lambda: kelvin.KelvinNetwork(()), "a network needs at least one element"),
    (lambda: kelvin.parameter_sweep(kelvin.ParallelGroup((_ACTIN,) * 3), "mu02", [1.0]),
     "the sweep is defined for two-body groups"),
    # the float C**4 raised a bare OverflowError, and an underflowing Kp^2 a
    # bare ZeroDivisionError
    (lambda: ca_ac_rhs((1e100, 0.0), 1.0, CaAcParams()),
     "the rates at \\(C, A\\) = \\(1e\\+100, 0.0\\) are not finite"),
    (lambda: ca_ac_rhs((0.0, 0.0), 1.0, CaAcParams(Kp=1e-200)),
     "the rates at \\(C, A\\) = \\(0.0, 0.0\\) are not finite"),
    # a zero ligand made the generator singular: M grows without bound
    (lambda: adaptation_simulate(0.1, 0.0),
     "production rates must be nonnegative, not both 0: 0.0, 0.0"),
    (lambda: two_compartment_simulate(0.0, 1.0, cpl=CompartmentCoupling(0.0, 0.1)),
     "a zero-rate compartment needs k1 > 0 to reach steady state"),
    # rear_arrival_time returned nan, inf or a negative time
    (lambda: aerotaxis.rear_arrival_time(math.nan, 1.0, 1.0), "distance must be finite"),
    (lambda: aerotaxis.rear_arrival_time(math.inf, 1.0, 1.0), "distance must be finite"),
    (lambda: aerotaxis.rear_arrival_time(1.0, 1.0, math.nan), "turning_rate nonnegative"),
    (lambda: aerotaxis.rear_arrival_time(1.0, 1.0, math.inf), "turning_rate nonnegative"),
    (lambda: aerotaxis.rear_arrival_time(1.0, 1.0, -1.0), "turning_rate nonnegative"),
    (lambda: aerotaxis.rear_arrival_time(1.0, math.inf, 1.0), "speed\\^2 must be positive"),
    (lambda: aerotaxis.rear_arrival_time(1e200, 1.0, 1.0), "arrival time .* is not finite"),
    # a negative time overflowed to M = 3e86, and the default coupling's k2
    # was ignored
    (lambda: adaptation_asymptotic(0.1, 1.0, _P, [-100.0]),
     "times must be finite and nonnegative"),
    (lambda: adaptation_asymptotic(0.1, 1.0, _P, [math.nan]),
     "times must be finite and nonnegative"),
    (lambda: two_compartment_matched_asymptotic(0.1, 1.0, 0.5, _P, CompartmentCoupling(), _T),
     "needs k2 = 0, got k2 = 0.1"),
    # a negative rate gave coefficients, the piston's closed form took any
    # sign and overflowed or returned NaN before t = 0
    (lambda: aerotaxis.keller_segel_coefficients(1.0, 3.0, -1.0),
     "turning rates must be nonnegative"),
    (lambda: aerotaxis.piston_separation_closed_form(aerotaxis.PistonParams(), 5, _T),
     "ramp_sign must be \\+1 or -1"),
    (lambda: aerotaxis.piston_separation_closed_form(aerotaxis.PistonParams(), 1, [-1e4]),
     "times must be finite and nonnegative"),
    (lambda: aerotaxis.piston_separation_closed_form(aerotaxis.PistonParams(), 1, [math.nan]),
     "times must be finite and nonnegative"),
    # the creep curve overflowed with a RuntimeWarning, returned NaN, or
    # returned 0.00658 below the elastic response 1/150 before t = 0
    (lambda: kelvin.single_body_steady_closed_form(_ACTIN, 1.0, [-1e6]),
     "times must be finite and nonnegative"),
    (lambda: kelvin.single_body_steady_closed_form(_ACTIN, 1.0, [math.nan]),
     "times must be finite and nonnegative"),
    (lambda: kelvin.single_body_steady_closed_form(_ACTIN, 1.0, -1.0),
     "times must be finite and nonnegative"),
    # a numpy-scalar ligand overflowed with a RuntimeWarning
    (lambda: adaptation_slow_rate(np.float64(1e308), AdaptationParams(k=10.0)),
     "the slow rate at l1 = .* is not finite"),
    (lambda: adaptation_slow_rate(1e308, AdaptationParams(k=10.0)),
     "the slow rate at l1 = 1e\\+308 is not finite"),
    (lambda: adaptation_initial_state(np.float64(1e-320), _P),
     "the adapted state M = m kd / \\(r k l0\\) at l0 = 1e-320 is not finite"),
    (lambda: adaptation_initial_state(1e-320, _P),
     "the adapted state M = m kd / \\(r k l0\\) at l0 = 1e-320 is not finite"),
    # both rates are positive, but their product underflowed and the
    # coupling was refused as if one were 0
    (lambda: two_compartment_steady(1e-200, 1e-200, _P, CompartmentCoupling(k1=0.0)),
     "a denominator of the steady state underflows to zero"),
    # each closed form returned B = inf, inf or nan (the creep also with a
    # RuntimeWarning)
    (lambda: aerotaxis.steady_state_intermediate(
        aerotaxis.AerotaxisParams(L0=0.0035, b0=1e308), 0.003, 0.005, k=1e-320, s=1.0),
     "a constant of the intermediate regime is not finite: B=inf"),
    (lambda: aerotaxis.steady_state_low(
        aerotaxis.AerotaxisParams(L0=0.001, b0=1e308), 0.003, k=1e-320, s=1.0),
     "a constant of the low regime is not finite: B=inf"),
    (lambda: aerotaxis.quasi_steady_state(1e300, 1e-10, 1.0),
     "B/b0 = inf and c1 = 1e\\+150 must be finite"),
    (lambda: aerotaxis.piston_separation_closed_form(
        aerotaxis.PistonParams(c1=1e200, k=1e200), 1, [1.0]),
     "the separation with lag c1 k tau = inf is not finite"),
    (lambda: kelvin.single_body_steady_closed_form(
        kelvin.KelvinBody(1e-300, 1e-300, 1.0), 1e300, [0.0, 1.0]),
     "the creep at F0 = 1e\\+300 is not finite"),
    (lambda: kelvin.relaxation_times(kelvin.KelvinBody(1e308, 1e-308, 1.0)),
     "the relaxation times inf, 1e\\+308 are not finite"),
], ids=["keller-segel-v", "rear-speed-0", "rear-speed-underflow", "asymptotic-l0",
        "asymptotic-l1", "asymptotic-nan", "asymptotic-overflow", "matched-l1",
        "rhs-L-pole", "rhs-L-negative", "nullclines-nan", "steady-states-nan",
        "nullclines-overflow", "slow-rate-l1", "two-comp-negative-rate",
        "two-comp-overflow", "nullclines-L", "simulate-L", "steady-states-Kr",
        "nullclines-Kr", "optimal-sum-k1",
        "trajectory-lengths", "trajectory-times", "trajectory-nan", "rk4-h-0",
        "rk4-empty-span", "dense-not-square", "expm-not-square", "expm-nan",
        "ca-ac-k0", "ca-ac-Cb", "ca-ac-state", "coupling-k1", "two-comp-k1-0",
        "optimal-sum-k1-0", "rd-profile-shape", "rd-profile-zero", "switch-b",
        "switch-ligand", "switch-denominator-underflow", "mc-trials", "piston-tau",
        "piston-ramp-sign", "steady-low-L0", "micropipette-zero", "group-empty",
        "network-empty", "sweep-three-bodies", "rhs-state-overflow", "rhs-state-zero-division",
        "adaptation-l1-0", "two-comp-simulate-k1-0", "rear-distance-nan",
        "rear-distance-inf", "rear-rate-nan", "rear-rate-inf", "rear-rate-negative",
        "rear-speed-inf", "rear-time-overflow", "asymptotic-t-negative", "asymptotic-t-nan",
        "matched-k2", "keller-segel-rate-negative", "piston-closed-form-sign",
        "piston-closed-form-t-negative", "piston-closed-form-t-nan", "creep-t-negative",
        "creep-t-nan", "creep-t-minus-1", "slow-rate-numpy-overflow", "slow-rate-overflow",
        "initial-state-numpy-overflow", "initial-state-overflow", "two-comp-rates-underflow",
        "steady-intermediate-B-overflow", "steady-low-B-overflow", "quasi-B-overflow",
        "piston-closed-form-overflow", "creep-overflow", "relaxation-times-overflow"])
def test_library_functions_refuse_inputs_without_a_finite_answer(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------- any values

_PUBLIC = ("ca_ac_rhs", "ca_ac_simulate", "ca_ac_nullclines", "ca_ac_steady_states",
           "bifurcation_scan", "hysteresis_jumps", "adaptation_initial_state",
           "adaptation_simulate", "adaptation_asymptotic", "adaptation_slow_rate",
           "two_compartment_simulate", "two_compartment_steady", "optimal_ligand_sum",
           "two_compartment_matched_asymptotic", "reaction_diffusion_simulate",
           "calcium_switch_rate", "switch_gradient")


def _finite(*arrays, low=-math.inf):
    return all(np.all(np.isfinite(a)) and np.all(np.asarray(a) >= low) for a in arrays)


def _call_any_public_function(data):
    """Call one public growthcone function with its ligand levels, its
    calcium level and up to three fields of each parameter dataclass drawn
    from the CLI test's edge values, and check the result against the
    function's docstring."""
    value = lambda label: data.draw(st.sampled_from(_ANY_VALUES), label=label)

    def params(cls, **fixed):
        names = data.draw(st.lists(st.sampled_from([f.name for f in dataclasses.fields(cls)
                                                    if f.name not in fixed]),
                                   max_size=3, unique=True), label=cls.__name__)
        return cls(**fixed, **{n: value(f"{cls.__name__}.{n}") for n in names})

    name = data.draw(st.sampled_from(_PUBLIC), label="function")
    sw = CaAcParams()
    t = np.linspace(0.0, 10.0, 5)
    if name == "ca_ac_rhs":
        L = value("L")
        rates = ca_ac_rhs((1.0, 1.0), L, sw)
        # an overflowing ligand level overflows the rates
        assert len(rates) == 2 and (_finite(rates) or L > 1e300)
    elif name == "ca_ac_simulate":
        traj = ca_ac_simulate(value("L"), t_end=1.0, h=0.25)
        assert traj.times[-1] == 1.0 and _finite(traj.states, low=0.0)
    elif name == "ca_ac_nullclines":
        C, a_c, a_a = ca_ac_nullclines(value("L"), n=50)
        assert C.shape == a_c.shape == a_a.shape == (50,)
        assert not np.isinf(a_c).any() and _finite(a_a, sw.At - a_a, low=0.0)
    elif name == "ca_ac_steady_states":
        states = ca_ac_steady_states(value("L"))
        assert [st.C for st, _ in states] == sorted(st.C for st, _ in states)
        assert all(1e-6 <= st.C <= 8.0 and 0.0 <= st.A <= sw.At for st, _ in states)
    elif name == "bifurcation_scan":
        rows = bifurcation_scan(sw, [value("L")])
        assert all(b in ("low", "unstable", "high") for _, b, _, _, _ in rows)
    elif name == "hysteresis_jumps":
        L_lo, L_hi = value("L_lo"), value("L_hi")
        up, down = hysteresis_jumps(sw, L_lo, L_hi)
        assert L_lo <= down <= up <= L_hi
    elif name == "adaptation_initial_state":
        assert _finite(adaptation_initial_state(value("l0"), params(AdaptationParams)),
                       low=0.0)
    elif name == "adaptation_simulate":
        traj = adaptation_simulate(value("l0"), value("l1"), params(AdaptationParams),
                                   t_end=10.0, h=2.5)
        assert traj.states.shape == (5, 2)
    elif name == "adaptation_asymptotic":
        M, A = adaptation_asymptotic(value("l0"), value("l1"), params(AdaptationParams), t)
        assert M.shape == A.shape == t.shape and _finite(M, A)
    elif name == "adaptation_slow_rate":
        p = params(AdaptationParams)
        assert 0.0 <= adaptation_slow_rate(value("l1"), p) <= p.r
    elif name == "two_compartment_simulate":
        traj = two_compartment_simulate(value("l1"), value("l2"), params(AdaptationParams),
                                        params(CompartmentCoupling), t_end=10.0,
                                        l0=value("l0"), h=2.5)
        assert traj.states.shape == (5, 4)
    elif name == "two_compartment_steady":
        assert _finite(two_compartment_steady(value("ka1"), value("ka2"),
                                              params(AdaptationParams),
                                              params(CompartmentCoupling)))
    elif name == "optimal_ligand_sum":
        assert _finite(optimal_ligand_sum(params(AdaptationParams),
                                          params(CompartmentCoupling)), low=0.0)
    elif name == "two_compartment_matched_asymptotic":
        out = two_compartment_matched_asymptotic(
            value("l0"), value("l1"), value("l2"), params(AdaptationParams),
            params(CompartmentCoupling, k2=0.0), t)
        assert _finite(out["M1"], out["A1"], out["M2"], out["A2"])
        assert out["valid"] in (True, False)
    elif name == "reaction_diffusion_simulate":
        grid = default_rd_grid()
        times, M, A = reaction_diffusion_simulate(
            np.full(grid.n, value("l")), params(AdaptationParams), 0.6, 0.0, grid,
            t_end=0.05, l_init=np.full(grid.n, value("l0")), sample_every=2)
        assert M.shape == A.shape == (len(times), grid.n) and _finite(M, A, low=0.0)
    elif name == "calcium_switch_rate":
        assert _finite(calcium_switch_rate(value("l"), value("Ca"), params(SwitchRateParams)),
                       low=0.0)
    else:
        ka1, ka2, A1s, A2s, sign = switch_gradient(
            value("l1"), value("l2"), value("Ca"), params(SwitchRateParams),
            params(AdaptationParams), params(CompartmentCoupling))
        assert _finite(ka1, ka2, A1s, A2s) and sign == np.sign(A1s - A2s)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_public_functions_answer_or_raise_a_classified_error(data):
    # a result that breaks its docstring, any exception but ValueError or
    # NumericsError, and any RuntimeWarning fail the test
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "time-scale ratio below 5", UserWarning)
        try:
            _call_any_public_function(data)
        except (ValueError, numerics.NumericsError):
            pass
