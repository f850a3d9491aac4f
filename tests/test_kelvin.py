import math

import numpy as np
import pytest

from biosim.kelvin import (
    DeformationResult,
    KelvinBody,
    KelvinNetwork,
    ParallelGroup,
    convert_micropipette_params,
    frequency_sweep,
    group_steady_metrics,
    material_params,
    network_deform,
    network_one,
    network_two,
    parallel_assemble,
    parameter_sweep,
    relaxation_times,
    single_body_steady_closed_form,
    steady_peak,
)
from biosim import kelvin, numerics
from biosim.cli import ExperimentConfig, run
from biosim.numerics import rk4_integrate, solve_linear_dense

ACTIN = material_params("actin")
NUCLEUS = material_params("nucleus")
TRANS = material_params("transmembrane")


def _deform(elem, omega, t_end, h):
    """One body or group solved as a one-element network labelled "e"."""
    return network_deform(KelvinNetwork((("e", elem),)), omega, t_end, h)


def _rk4_group(g, F0, omega, t_end, h):
    """The assembled group system under the force F0 cos(omega t), stepped
    by rk4_integrate, as an oracle."""
    A, D, c, u0 = parallel_assemble(g, omega)
    Ainv = np.linalg.inv(A)
    M = Ainv @ D

    def rhs(t, y):
        return M @ y + Ainv @ (F0 * (c * np.exp(1j * omega * t)).real)

    return rk4_integrate(rhs, F0 * u0, 0.0, t_end, h)


# ---------------------------------------------------------------- materials

def test_material_table():
    assert ACTIN == KelvinBody(5000.0, 50.0, 100.0)
    assert NUCLEUS == KelvinBody(10000.0, 200.0, 400.0)
    assert TRANS == KelvinBody(7.5, 100.0, 200.0)


def test_material_unknown_kind():
    with pytest.raises(ValueError, match="unknown material"):
        material_params("cytoplasm")


def test_relaxation_times_baseline():
    tau_sigma, tau_epsilon = relaxation_times(ACTIN)
    assert tau_sigma == pytest.approx(150.0)
    assert tau_epsilon == pytest.approx(50.0)


def test_relaxation_time_ordering():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = KelvinBody(*np.exp(rng.uniform(-2, 8, size=3)))
        ts, te = relaxation_times(b)
        assert ts > te


def test_stiff_series_spring_limit():
    b = KelvinBody(5000.0, 50.0, 1e9)
    ts, _ = relaxation_times(b)
    assert ts == pytest.approx(5000.0 / 50.0, rel=1e-6)


def test_micropipette_conversion_roundtrip():
    # inputs back-solved from mu01 = 6.35e-4 Pa m, mu11 = 9.38e-4 Pa m,
    # eta1 = 4.125e-2 Pa m s at F ~ 2500 pN
    F, b = convert_micropipette_params(
        a=2.5e-6, delta_p=127.32395447, L0=1.5894e-6, Ls=3.9370e-6, tau=108.94,
    )
    assert F == pytest.approx(2.5e-9, rel=1e-6)
    assert b.mu01 == pytest.approx(6.35e-4, rel=1e-3)
    assert b.mu11 == pytest.approx(9.38e-4, rel=1e-3)
    assert b.eta1 == pytest.approx(4.125e-2, rel=1e-3)


def test_micropipette_conversion_bead_data():
    # bead-rheometry scale: mu01 = 1.25e-3, mu11 = 1.61e-3, tau = 0.09 s
    F = 2e-9
    a = 1e-6
    delta_p = F / (math.pi * a * a)
    _, b = convert_micropipette_params(a, delta_p, L0=F / 2.86e-3, Ls=F / 1.25e-3,
                                       tau=0.08996)
    assert b.eta1 == pytest.approx(6.33e-5, rel=2e-3)


def test_micropipette_rejects_unphysical_creep():
    with pytest.raises(ValueError, match="steady deformation"):
        convert_micropipette_params(1e-6, 100.0, 2e-6, 1e-6, 10.0)


# ---------------------------------------------------------------- single body

def test_single_body_initial_and_final():
    u = _deform(ACTIN, 0.0, 2000.0, 0.1).total_u
    assert u[0] == pytest.approx(1.0 / 150.0, abs=1e-15)
    assert u[-1] == pytest.approx(0.02, abs=1e-6)


def test_single_body_matches_closed_form():
    res = _deform(ACTIN, 0.0, 500.0, 0.1)
    exact = single_body_steady_closed_form(ACTIN, 1.0, res.times)
    assert np.max(np.abs(res.total_u - exact)) < 1e-9


def test_fast_body_matches_closed_form_at_the_default_step():
    # the transmembrane sensor relaxes in 0.1125 s, about one step of 0.1 s
    res = _deform(TRANS, 0.0, 2.0, 0.1)
    exact = single_body_steady_closed_form(TRANS, 1.0, res.times)
    assert np.max(np.abs(res.total_u - exact)) < 1e-12


# ---------------------------------------------------------------- series

def test_series_single_equals_single():
    # a single body and a one-body group are the same system
    r = _deform(ParallelGroup((ACTIN,)), 0.0, 100.0, 0.1)
    t = _deform(ACTIN, 0.0, 100.0, 0.1)
    assert np.array_equal(r.total_u, t.total_u)


def test_series_two_identical_doubles():
    net = KelvinNetwork((("a", ACTIN), ("b", ACTIN)))
    r = network_deform(net, 0.0, 100.0, 0.1)
    single = _deform(ACTIN, 0.0, 100.0, 0.1)
    assert np.allclose(r.total_u, 2 * single.total_u, rtol=1e-12)


def test_series_steady_sum_of_closed_forms():
    net = KelvinNetwork((("a", ACTIN), ("n", NUCLEUS)))
    r = network_deform(net, 0.0, 3000.0, 0.1)
    assert r.total_u[-1] == pytest.approx(1 / 50 + 1 / 200, rel=1e-5)


# ---------------------------------------------------------------- parallel

def test_assemble_two_body_matrices():
    g = ParallelGroup((ACTIN, NUCLEUS))
    A, D, c, u0 = parallel_assemble(g, 4.0)
    assert np.allclose(A, [[5000 * 1.5, -50.0], [10000 * 1.5, 25.0]])
    assert np.allclose(D, [[-50.0, 1.0], [-200.0, -1.0]])
    assert np.allclose(c, [0.0, 1.0 + 25.0 * 4.0j])


def test_assemble_initial_conditions():
    g = ParallelGroup((ACTIN, ACTIN))
    _, _, _, u0 = parallel_assemble(g)
    assert u0[0] == pytest.approx(1.0 / 300.0)
    assert u0[1] == pytest.approx(150.0 / 300.0)  # branch force, not a fraction


def test_identical_bodies_split_half():
    g = ParallelGroup((ACTIN, ACTIN))
    for omega in (0.0, 2 * math.pi):
        res = _deform(g, omega, 30.0, 0.005)
        aF = res.branch_forces["e/branch1"]
        F = np.cos(omega * res.times)
        assert np.max(np.abs(aF - 0.5 * F)) < 1e-9


def test_parallel_steady_balance():
    g = ParallelGroup((ACTIN, NUCLEUS))
    res = _deform(g, 0.0, 4000.0, 0.1)
    assert res.total_u[-1] == pytest.approx(1.0 / (50 + 200), rel=1e-5)


def test_force_closure_everywhere():
    g = ParallelGroup((ACTIN, NUCLEUS, TRANS))
    omega = 2 * math.pi
    res = _deform(g, omega, 10.0, 0.002)
    total_force = sum(res.branch_forces[k] for k in res.branch_forces)
    assert np.max(np.abs(total_force - np.cos(omega * res.times))) <= 1e-9


def test_permuting_identical_bodies_is_symmetric():
    g1 = ParallelGroup((ACTIN, NUCLEUS))
    g2 = ParallelGroup((NUCLEUS, ACTIN))
    r1 = _deform(g1, 0.0, 200.0, 0.1)
    r2 = _deform(g2, 0.0, 200.0, 0.1)
    assert np.allclose(r1.total_u, r2.total_u, atol=1e-12)
    assert np.allclose(r1.branch_forces["e/branch1"], r2.branch_forces["e/branch2"],
                       atol=1e-10)


def test_stiffer_spring_smaller_faster():
    finals, halfway = [], []
    for mu02 in (5.0, 50.0, 500.0):
        g = ParallelGroup((ACTIN, KelvinBody(5000.0, mu02, 100.0)))
        res = _deform(g, 0.0, 2000.0, 0.1)
        u = res.total_u
        finals.append(u[-1])
        target = u[-1] - u[0]
        halfway.append(res.times[int(np.argmax(u - u[0] >= 0.5 * target))])
    assert finals[0] > finals[1] > finals[2]
    assert halfway[0] > halfway[2]


# ---------------------------------------------------------------- closed forms

def test_steady_offset_is_spring_balance():
    g = ParallelGroup((ACTIN, NUCLEUS))
    _, D, c, _ = parallel_assemble(g)
    y = solve_linear_dense(D, c.real)
    assert -y[0] == pytest.approx(1.0 / (50 + 200))


def test_exact_solution_matches_integrator():
    for g in (ParallelGroup((ACTIN, ACTIN)),
              ParallelGroup((ACTIN, KelvinBody(2000.0, 500.0, 100.0)))):
        res = _deform(g, 0.0, 600.0, 0.1)
        traj = _rk4_group(g, 1.0, 0.0, 600.0, 0.1)
        rel = np.max(np.abs(traj.states[:, 0] - res.total_u)) / abs(res.total_u[-1])
        assert rel < 1e-6


def test_exact_solution_endpoints():
    # one step of 1e6 s lands on the creep limit
    g = ParallelGroup((ACTIN, ACTIN))
    res = _deform(g, 0.0, 1e6, 1e6)
    assert list(res.times) == [0.0, 1e6]
    assert res.total_u[0] == pytest.approx(1.0 / 300.0, abs=1e-12)
    assert res.total_u[-1] == pytest.approx(1.0 / 100.0, abs=1e-9)


@pytest.mark.parametrize("f", [(1.0, 0.0), (-3.0, 0.5)])
def test_exact_solution_matches_integrator_three_bodies(f):
    # f = (F0, omega): the oracle steps the force F0 cos(omega t) itself,
    # and the unit-force solution scaled by F0 must match it
    F0, omega = f
    g = ParallelGroup((ACTIN, NUCLEUS, TRANS))
    res = _deform(g, omega, 20.0, 0.002)
    traj = _rk4_group(g, F0, omega, 20.0, 0.002)
    # the fast transmembrane mode limits the integrator to about 1e-9 here
    assert np.array_equal(res.times, traj.times)
    shares = traj.states[:, 1:]
    for k in range(2):
        assert np.max(np.abs(F0 * res.branch_forces[f"e/branch{k + 1}"] - shares[:, k])) \
            <= 1e-8
    u = F0 * res.total_u
    assert np.max(np.abs(u - traj.states[:, 0])) <= 1e-8 * np.max(np.abs(u))


def test_actin_pair_phasor_amplitude_at_1hz():
    # two identical bodies share the force equally, so the pair is one body
    # of doubled stiffness: amplitude sqrt((1 + (w te)^2) / (1 + (w ts)^2)) / mu0
    g = ParallelGroup((ACTIN, ACTIN))
    ts, te = relaxation_times(ACTIN)
    w = 2 * math.pi
    exact = math.sqrt((1 + (w * te) ** 2) / (1 + (w * ts) ** 2)) / 100.0
    assert exact == pytest.approx(0.0033333483, abs=1e-10)
    # quarter-period samples long after the transient: u = a cos wt + b sin wt
    res = _deform(g, w, 3000.0, 0.25)
    a, minus_b = res.total_u[-1], res.total_u[-2]
    assert math.hypot(a, minus_b) == pytest.approx(exact, rel=1e-9)


def test_deform_rejects_non_finite_inputs():
    with pytest.raises(ValueError, match="finite"):
        _deform(ACTIN, 0.0, 10.0, math.inf)
    with pytest.raises(ValueError, match="finite"):
        _deform(ACTIN, 0.0, math.nan, 0.1)


# ---------------------------------------------------------------- envelopes

def test_steady_peak_reaches_steady_quickly():
    # the last period of a 3-s run, [2, 3] s, peaks within 2% of a 12-s run's
    g = ParallelGroup((ACTIN, ACTIN))
    w = 2 * math.pi
    short, long = (_deform(g, w, t_end, 0.002) for t_end in (3.0, 12.0))
    settled = steady_peak(long.times, long.total_u, w)
    assert steady_peak(short.times, short.total_u, w) == pytest.approx(settled, rel=0.02)


def test_steady_peak_requires_three_periods():
    with pytest.raises(ValueError, match="periods"):
        steady_peak(np.linspace(0, 2.0, 100), np.zeros(100), 2 * math.pi)
    # steady forcing has no period
    with pytest.raises(ValueError, match="needs 0 < omega < inf, got 0.0"):
        steady_peak(np.linspace(0, 2.0, 100), np.zeros(100), 0.0)


def test_steady_peak_constant_signal():
    t = np.linspace(0, 10, 1001)
    assert steady_peak(t, np.full_like(t, 4.2), 2 * math.pi) == 4.2


# ---------------------------------------------------------------- sweeps

def test_mu12_sweep_steady_value_invariant():
    g = ParallelGroup((ACTIN, ACTIN))
    rows = parameter_sweep(g, "mu12", [10.0, 100.0, 1000.0])
    us = [r[2] for r in rows if r[1] == "steady"]
    assert all(u == pytest.approx(0.01, rel=1e-4) for u in us)


def test_eta12_sweep_steady_value_invariant():
    g = ParallelGroup((ACTIN, ACTIN))
    rows = parameter_sweep(g, "eta12", [500.0, 5000.0, 50000.0])
    us = [r[2] for r in rows if r[1] == "steady"]
    assert all(u == pytest.approx(0.01, rel=1e-3) for u in us)


def test_all_factor_sweep_direction():
    g = ParallelGroup((ACTIN, ACTIN))
    rows = parameter_sweep(g, "all", [0.1, 1.0, 10.0])
    by_kind = {}
    for value, kind, u, aF in rows:
        by_kind.setdefault(kind, []).append(u)
    for kind, us in by_kind.items():
        assert us[0] > us[1] > us[2]


def test_sweep_rejects_unknown_param():
    g = ParallelGroup((ACTIN, ACTIN))
    with pytest.raises(ValueError, match="unknown sweep"):
        parameter_sweep(g, "mu99", [1.0])


def test_frequency_sweep_limits():
    g = ParallelGroup((ACTIN, ACTIN))
    rows = frequency_sweep(g, [1e-4, 1e-2, 1e-1, 1.0])
    by_f = {r[0]: r for r in rows}
    assert by_f[1e-4][1] == pytest.approx(1.0, abs=0.02)
    for f in (1e-2, 1e-1, 1.0):
        assert by_f[f][1] == pytest.approx(1.0 / 3.0, abs=0.02)
    for f in by_f:
        assert by_f[f][2] == pytest.approx(1.0, abs=0.01)


# two-body groups of the sweeps, among them the two whose tail-read values
# moved most (eta12 = 5, mu12 = 500), and a three-body group
_GROUPS = [ParallelGroup((ACTIN, ACTIN)),
           ParallelGroup((ACTIN, KelvinBody(5.0, 50.0, 100.0))),
           ParallelGroup((ACTIN, KelvinBody(5000.0, 50.0, 500.0))),
           ParallelGroup((ACTIN, NUCLEUS, TRANS))]


@pytest.mark.parametrize("g", _GROUPS, ids=["actin-pair", "eta12=5", "mu12=500", "three"])
def test_steady_metrics_match_a_long_whole_grid_run(g):
    # the time-domain path as the reference: a whole-grid run of 30 settling
    # times (the largest tau_sigma), whose transient is then below e^-30 of
    # its start, read as the last sample or with steady_peak; sampling a
    # period at 2000 points finds its peak to (pi / 2000)^2 / 2 = 1.2e-6
    settle = 30.0 * max(relaxation_times(b)[0] for b in g.bodies)
    res = _deform(g, 0.0, settle, 1.0)
    m = group_steady_metrics(g)
    assert m["steady_u"] == pytest.approx(res.total_u[-1], rel=1e-10)
    assert m["steady_aF"] == pytest.approx(res.branch_forces["e/branch1"][-1], rel=1e-10)
    for f_hz in (1e-3, 1e-2):
        w = 2 * math.pi * f_hz
        period = 2 * math.pi / w
        res = _deform(g, w, settle + 2 * period, period / 2000)
        m = group_steady_metrics(g, w)
        for key, values in (("steady_u", res.total_u),
                            ("steady_aF", res.branch_forces["e/branch1"])):
            sampled = steady_peak(res.times, values, w)
            assert sampled <= m[key] * (1 + 1e-12)
            assert sampled == pytest.approx(m[key], rel=1.3e-6), (f_hz, key)


def test_frequency_sweep_matches_the_closed_form():
    # identical bodies share the force equally, so the pair responds as one
    # body: |u| / u_steady = sqrt((1 + (w tau_e)^2) / (1 + (w tau_s)^2))
    ts, te = relaxation_times(ACTIN)
    freqs = [1e-4, 3e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0]
    rows = frequency_sweep(ParallelGroup((ACTIN, ACTIN)), freqs)
    for f_hz, norm_u, norm_aF in rows:
        w = 2 * math.pi * f_hz
        exact = math.sqrt((1 + (w * te) ** 2) / (1 + (w * ts) ** 2))
        assert norm_u == pytest.approx(exact, rel=1e-12), f_hz
        assert norm_aF == pytest.approx(1.0, rel=1e-12), f_hz


@pytest.mark.parametrize("F0", [2.0, -2.0])
def test_steady_metrics_of_a_one_body_group(F0):
    # the single-body closed forms under the force F0 cos(omega t); the only
    # branch carries the whole force.  The metrics answer for the unit force:
    # a steady value scales by F0, a peak over a period by |F0|
    ts, te = relaxation_times(ACTIN)
    g = ParallelGroup((ACTIN,))
    m = group_steady_metrics(g)
    assert m["steady_u"] == pytest.approx(1.0 / ACTIN.mu01, rel=1e-14)
    assert F0 * m["steady_u"] == pytest.approx(F0 / ACTIN.mu01, rel=1e-14)
    assert F0 * m["steady_aF"] == F0
    w = 2 * math.pi * 0.01
    m = group_steady_metrics(g, w)
    gain = math.sqrt((1 + (w * te) ** 2) / (1 + (w * ts) ** 2))
    assert m["steady_u"] > 0
    assert abs(F0) * m["steady_u"] == pytest.approx(abs(F0) / ACTIN.mu01 * gain, rel=1e-14)
    assert abs(F0) * m["steady_aF"] == abs(F0)


def _csv_u(path):
    """The u column of a network table."""
    return np.array([float(row.split(",")[2])
                     for row in path.read_text().splitlines()[1:]])


@pytest.mark.parametrize("F0", [1e307, 1e308, -1e308])
def test_huge_forces_scale_the_unit_force_solution(F0, tmp_path):
    # the library answers for the unit force and the CLI applies kelvin.F0
    # once, to what it writes and reports: the forcing phasor
    # F0 (1 + i w eta1 / mu11) alone would overflow at 1 Hz
    runs = [("kelvin-single", {"kelvin.t_end": 30.0}, "traj.csv")]
    if F0 > 0:  # the networks read deformations as sizes
        runs.append(("kelvin-network-I", {"kelvin.t_end_steady": 50.0,
                                          "kelvin.t_end_osc": 5.0}, "oscillatory.csv"))
    for name, params, table in runs:
        unit = run(ExperimentConfig(name, params, tmp_path / name / "unit"))
        got = run(ExperimentConfig(name, {**params, "kelvin.F0": F0}, tmp_path / name / "F0"))
        assert np.array_equal(_csv_u(tmp_path / name / "F0" / table),
                              F0 * _csv_u(tmp_path / name / "unit" / table))
        for key in ("u0", "u_end", "steady_total", "oscillatory_peak_total"):
            if key in unit.metrics:
                assert got.metrics[key] == F0 * unit.metrics[key], key
        if name != "kelvin-single":
            assert got.metrics["osc_over_steady"] == unit.metrics["osc_over_steady"]


def test_a_response_that_overflows_once_scaled_is_an_integration_error(tmp_path):
    # the creep limit F0 / mu01 = 1e311 of a soft body: the CLI refuses the
    # scaled deformations before it writes anything
    params = {"kelvin.F0": 1e308, "kelvin.mu01": 1e-3, "kelvin.eta1": 1.0,
              "kelvin.t_end": 50.0}
    with pytest.raises(numerics.IntegrationError, match=r"deformations at F0 = 1e\+308"):
        run(ExperimentConfig("kelvin-single", params, tmp_path / "out"))
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- networks

def test_network_one_ordering_and_forces():
    net = network_one()
    res = network_deform(net, 0.0, 2000.0, 0.1)
    m = res.times > 1.0
    sensor = res.element_u["sensor"][m]
    nucleus = res.element_u["nucleus"][m]
    for label, u in res.element_u.items():
        assert np.all(sensor >= u[m] - 1e-12)
        assert np.all(nucleus <= u[m] + 1e-12)
    assert np.max(np.abs(res.branch_forces["actin_pair/branch1"] - 0.5)) < 1e-9
    assert np.all(res.branch_forces["sensor"] == 1.0)
    assert np.all(res.branch_forces["nucleus"] == 1.0)


def test_network_two_matches_network_one_ordering():
    net = network_two()
    res = network_deform(net, 0.0, 2000.0, 0.1)
    m = res.times > 1.0
    sensor = res.element_u["sensor"][m]
    nucleus = res.element_u["nucleus"][m]
    for label, u in res.element_u.items():
        assert np.all(sensor >= u[m] - 1e-12)
        assert np.all(nucleus <= u[m] + 1e-12)
    assert res.total_u[-1] == pytest.approx(2 / 100 + 2 / 100 + 1 / 200, rel=1e-4)


def test_network_oscillatory_much_smaller_than_steady():
    # each element's normalized oscillatory peak exceeds one third and
    # approaches it only at high frequency, so the total sits between one
    # third and the quasi-static sensor response
    net = network_one()
    steady = network_deform(net, 0.0, 2000.0, 0.1).total_u[-1]
    w = 2 * math.pi
    osc = network_deform(net, w, 30.0, 0.005)
    peak = steady_peak(osc.times, osc.total_u, w)
    assert peak < 0.6 * steady
    assert peak > steady / 3.0
