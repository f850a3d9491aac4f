"""The benchmark's workloads: which CLI runs each one makes, and how each
run's outputs are checked.

Every workload is a closed loop of one client calling ``biosim.cli.main``
for each step in turn.  The checks reuse the tolerances of
``tests/test_acceptance.py`` and the analytic oracles the library exposes.
A check returns a list of problems; an empty list means the run passed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Step:
    experiment: str
    sets: dict  # --set overrides
    check: object  # check(metrics, config, csv bytes by name) -> problems


@dataclass(frozen=True)
class Workload:
    why: str
    steps: tuple


def _near(problems, label, value, target, tol):
    if value is None or not abs(value - target) <= tol:
        problems.append(f"{label} = {value!r}, want {target!r} +- {tol!r}")


def _true(problems, label, value):
    if value is not True:
        problems.append(f"{label} = {value!r}, want True")


def _csv_rows(data: bytes):
    lines = data.decode().splitlines()
    return [line.split(",") for line in lines[1:]]


def _row_count(problems, label, data: bytes, want: int):
    got = data.count(b"\n") - 1
    if got != want:
        problems.append(f"{label} has {got} rows, want {want}")


def _samples(steps: int, every: int) -> int:
    """Stored states of a run of `steps` sampled every `every` steps,
    counting the initial state and a final state off the stride."""
    return 1 + steps // every + (1 if steps % every else 0)


# --------------------------------------------------------------------------
# linear-ode checks


def check_network_two(m, cfg, csv):
    from biosim import kelvin
    problems = []
    F0, t_end = cfg["kelvin.F0"], cfg["kelvin.t_end_steady"]
    _true(problems, "ordering_holds", m["ordering_holds"])
    _near(problems, "actin_split_dev", m["actin_split_dev"], 0.0, 1e-9)
    # exact creep of the series chain; each group is two identical bodies
    # sharing the force equally
    limit = exact = 0.0
    for _, elem in kelvin.network_two().elements:
        if isinstance(elem, kelvin.ParallelGroup):
            body, force = elem.bodies[0], F0 / len(elem)
            if any(b != body for b in elem.bodies):
                problems.append("network II group bodies differ; no closed form")
        else:
            body, force = elem, F0
        limit += force / body.mu01
        exact += float(kelvin.single_body_steady_closed_form(body, force, t_end))
    _near(problems, "steady_total vs closed-form creep", m["steady_total"], exact, 1e-6)
    # slowest element: actin, tau_sigma = 150; the run is long enough that
    # the remaining creep is below 1e-3 of the limit sum F0/mu0
    _near(problems, "steady_total vs sum F0/mu0", m["steady_total"], limit, 1e-3 * limit)
    if not 1.0 / 3.0 < m["osc_over_steady"] < 1.0:
        problems.append(f"osc_over_steady = {m['osc_over_steady']!r} outside (1/3, 1)")
    return problems


def check_kelvin_freq(m, cfg, csv):
    from biosim import kelvin
    problems = []
    ts, te = kelvin.relaxation_times(kelvin.material_params("actin"))
    rows = _csv_rows(csv["freq.csv"])
    if len(rows) != 4:
        problems.append(f"freq.csv has {len(rows)} rows, want 4")
    for f_hz, norm_u, norm_af in rows:
        w = 2 * math.pi * float(f_hz)
        exact = math.sqrt((1 + (w * te) ** 2) / (1 + (w * ts) ** 2))
        _near(problems, f"norm_u at {f_hz} Hz", float(norm_u), exact, 0.02)
        _near(problems, f"norm_aF at {f_hz} Hz", float(norm_af), 1.0, 0.01)
    return problems


def check_kelvin_single(m, cfg, csv):
    from biosim import kelvin
    problems = []
    body = kelvin.KelvinBody(cfg["kelvin.eta1"], cfg["kelvin.mu01"], cfg["kelvin.mu11"])
    F0 = cfg["kelvin.F0"]
    exact = kelvin.single_body_steady_closed_form(body, F0, [0.0, cfg["kelvin.t_end"]])
    _near(problems, "u0", m["u0"], float(exact[0]), 1e-15)
    _near(problems, "u_end", m["u_end"], float(exact[1]), 1e-6)
    return problems


def check_adaptation(m, cfg, csv):
    problems = []
    base = cfg["gc.m"] / cfg["gc.r"]
    _near(problems, "A_end", m["A_end"], base, 1e-3 * base)
    return problems


def check_twocomp(m, cfg, csv):
    problems = []
    _near(problems, "A1_end", m["A1_end"], m["A1_closed_form"], 1e-6)
    _near(problems, "A2_end", m["A2_end"], m["A2_closed_form"], 1e-6)
    return problems


# --------------------------------------------------------------------------
# fields-io checks


def band_steps(cfg) -> int:
    return int(round(cfg["aerotaxis.t_end"] / cfg["aerotaxis.dt"]))


def rd_steps(cfg) -> int:
    return int(round(cfg["gc.t_end"] / cfg["gc.dt"]))


def rd_nodes(cfg) -> int:
    return int(round(cfg["gc.length"] / cfg["gc.dx"])) + 1


def check_band(m, cfg, csv):
    problems = []
    _near(problems, "mass_drift", m["mass_drift"], 0.0, 1e-8)
    _true(problems, "has_band", m["has_band"])
    if not m["ratio_front"] > 100:
        problems.append(f"ratio_front = {m['ratio_front']!r}, want > 100")
    _near(problems, "ratio_behind", m["ratio_behind"], 12.5, 7.5)
    _near(problems, "width", m["width"], 0.1, 0.05)
    if m["formation_time"] is None or not m["formation_time"] <= 5.0:
        problems.append(f"formation_time = {m['formation_time']!r}, want <= 5")
    samples = _samples(band_steps(cfg), int(cfg["aerotaxis.sample_every"]))
    _row_count(problems, "fields.csv", csv["fields.csv"],
               samples * int(cfg["aerotaxis.nodes"]))
    return problems


def check_rd(m, cfg, csv):
    problems = []
    _true(problems, "A_monotone_up", m["A_monotone_up"])
    if m["argmax_A"] != m["argmax_l"]:
        problems.append(f"argmax_A = {m['argmax_A']}, argmax_l = {m['argmax_l']}")
    samples = _samples(rd_steps(cfg), int(cfg["gc.sample_every"]))
    _row_count(problems, "field.csv", csv["field.csv"], samples * rd_nodes(cfg))
    return problems


# --------------------------------------------------------------------------
# nonlinear-mc checks


def check_switch(m, cfg, csv):
    from biosim import growthcone
    problems = []
    At = growthcone.CaAcParams().At
    for i in (1, 2):
        if not m[f"A_end_{i}"] < At / 4:
            problems.append(f"A_end_{i} = {m[f'A_end_{i}']!r}, want < At/4 = {At / 4}")
    for i in (3, 4):
        if not m[f"A_end_{i}"] > At / 2:
            problems.append(f"A_end_{i} = {m[f'A_end_{i}']!r}, want > At/2 = {At / 2}")
    _near(problems, "A_end_4", m["A_end_4"], m["A_end_3"], 0.1 * m["A_end_3"])
    return problems


def check_bifurcation(m, cfg, csv):
    problems = []
    _near(problems, "L_up", m["L_up"], 2.3, 0.15)
    _near(problems, "L_down", m["L_down"], 0.6, 0.15)
    _near(problems, "A_low_at_jump", m["A_low_at_jump"], 1.7, 0.25 * 1.7)
    _near(problems, "A_high_at_jump", m["A_high_at_jump"], 12.0, 0.25 * 12.0)
    return problems


def check_montecarlo(m, cfg, csv):
    problems = []
    _near(problems, "inside_outside_ratio", m["inside_outside_ratio"], 3.0, 1.0)
    return problems


def check_steady_general(m, cfg, csv):
    problems = []
    _near(problems, "z", m["z"], 1.5, 0.01)
    _near(problems, "lam", m["lam"], 4.4817, 0.01)
    _near(problems, "d", m["d"], 4.2188, 0.05)
    return problems


def _flux_scale(cfg):
    return cfg["aerotaxis.k"] * cfg["aerotaxis.b0"] * cfg["aerotaxis.s"] ** 2


def check_steady_intermediate(m, cfg, csv):
    problems = []
    zeta = m["zeta"]
    alpha = 1.0 + cfg["aerotaxis.l_min"] / _flux_scale(cfg)
    _near(problems, "e^zeta - zeta", math.exp(zeta) - zeta, alpha, 1e-10)
    _near(problems, "zeta", zeta, 0.85, 0.01)
    return problems


def check_steady_low(m, cfg, csv):
    problems = []
    zeta = m["z"] / cfg["aerotaxis.s"]
    target = cfg["aerotaxis.L0"] / _flux_scale(cfg)
    _near(problems, "e^zeta - zeta - 1", math.exp(zeta) - zeta - 1.0, target, 1e-10)
    return problems


def check_quasi(m, cfg, csv):
    problems = []
    _near(problems, "0.1 d_lo", 0.1 * m["d_lo"], 0.8, 0.05 * 0.8)
    _near(problems, "0.1 d_hi", 0.1 * m["d_hi"], 1.7, 0.10 * 1.7)
    _near(problems, "h_lo", m["h_lo"], 0.4, 0.10 * 0.4)
    h_hi = 3.2 / math.sqrt(320.0)
    _near(problems, "h_hi", m["h_hi"], h_hi, 1e-12 * h_hi)
    return problems


def check_ca_switch(m, cfg, csv):
    problems = []
    _near(problems, "sign_hi", m["sign_hi"], 1.0, 0.0)
    _near(problems, "sign_lo", m["sign_lo"], -1.0, 0.0)
    return problems


# --------------------------------------------------------------------------
# the workloads

# Sizes: on a 2-vCPU Xeon VM one pass takes about 11 s for linear-ode,
# 12 s for nonlinear-mc and 5 s for fields-io, so a 30-s run repeats each
# list 2 to 6 times.  kelvin-sweep (117 s) and kelvin-network-I (a subset of
# network II) are left out; the 1 Hz kelvin-freq point alone adds 11 s.
WORKLOADS = {
    "linear-ode": Workload(
        "linear constant-coefficient ODEs stepped by rk4_integrate; "
        "where an exact linear kernel or a per-step RK4 change shows",
        (
            Step("kelvin-network-II",
                 {"kelvin.t_end_steady": 1000, "kelvin.t_end_osc": 10},
                 check_network_two),
            Step("kelvin-freq",
                 {"kelvin.f1": 0.01, "kelvin.f2": 0.02, "kelvin.f3": 0.05,
                  "kelvin.f4": 0.1},
                 check_kelvin_freq),
            Step("kelvin-single", {"kelvin.t_end": 1000}, check_kelvin_single),
            Step("growthcone-adaptation", {}, check_adaptation),
            Step("growthcone-twocomp", {}, check_twocomp),
        )),
    "fields-io": Workload(
        "explicit upwind and FTCS stencils on 40- to 91-node grids plus "
        "10 MB of CSV; never enters kelvin or rk4_integrate",
        (
            Step("aerotaxis-band", {"aerotaxis.sample_every": 1}, check_band),
            Step("growthcone-rd", {}, check_rd),
        )),
    "nonlinear-mc": Workload(
        "scalar nonlinear RHS, bracketing root scans, the 10k-walker "
        "Monte-Carlo and the closed forms; bypasses kelvin and the stencils",
        (
            Step("growthcone-switch", {}, check_switch),
            Step("growthcone-bifurcation", {}, check_bifurcation),
            Step("aerotaxis-montecarlo", {}, check_montecarlo),
            Step("aerotaxis-steady-general", {}, check_steady_general),
            Step("aerotaxis-steady-intermediate", {}, check_steady_intermediate),
            Step("aerotaxis-steady-low", {}, check_steady_low),
            Step("aerotaxis-quasi", {}, check_quasi),
            Step("growthcone-ca-switch", {}, check_ca_switch),
        )),
}


def implied_ftcs_calls(experiment: str, cfg: dict) -> int:
    """FTCS steps a run must take by its config: one per band step, one or
    two (with a diffusing A field) per reaction-diffusion step."""
    if experiment == "aerotaxis-band":
        return band_steps(cfg)
    if experiment == "growthcone-rd":
        return rd_steps(cfg) * (2 if cfg["gc.D2"] > 0 else 1)
    return 0
