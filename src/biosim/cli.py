"""Experiment runner: named experiments, flat key=value configs, CSV output.

Each registered experiment reproduces one reference result with its
defaults and writes deterministic CSV files plus a machine-readable
summary.json.  Identical config and seed give byte-identical CSVs.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import aerotaxis, growthcone, kelvin
from .numerics import Grid1D, NumericsError


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    output_dir: Path = Path("out")
    seed: int = 0


@dataclass
class RunSummary:
    experiment: str
    reference: str
    wall_time_s: float
    seed: int
    config: dict
    metrics: dict


class UsageError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# experiment runners


def _band_params(p):
    grid = Grid1D(n=int(p["aerotaxis.nodes"]),
                  dx=p["aerotaxis.length"] / (int(p["aerotaxis.nodes"]) - 1),
                  dt=p["aerotaxis.dt"])
    th = aerotaxis.TurningThresholds(
        p["aerotaxis.lt_min"], p["aerotaxis.l_min"], p["aerotaxis.l_max"],
        p["aerotaxis.lt_max"], p["aerotaxis.c_low"], p["aerotaxis.c_high"])
    return aerotaxis.AerotaxisParams(
        v=p["aerotaxis.v"], D=p["aerotaxis.D"], kappa=p["aerotaxis.kappa"],
        L0=p["aerotaxis.L0"], b0=p["aerotaxis.b0"],
        domain_length=p["aerotaxis.length"], grid=grid, thresholds=th)


def run_band(p, out: Path, seed: int):
    params = _band_params(p)
    times, fields = aerotaxis.simulate_band(params, t_end=p["aerotaxis.t_end"],
                                            sample_every=int(p["aerotaxis.sample_every"]))
    x = params.grid.x
    rows = []
    for t, cf in zip(times, fields):
        for j in range(params.grid.n):
            rows.append((t, x[j], cf.r[j], cf.l[j], cf.L[j]))
    _write_csv(out / "fields.csv", ["t", "x", "r", "l", "L"], rows)
    mrows = []
    for t, cf in zip(times, fields):
        m = aerotaxis.band_metrics(cf, params.grid)
        if m.has_band:
            mrows.append((t, m.width_h, m.distance_d, m.ratio_front, m.ratio_behind))
    _write_csv(out / "metrics.csv",
               ["t", "width", "distance", "ratio_front", "ratio_behind"], mrows)
    final = aerotaxis.band_metrics(fields[-1], params.grid)
    drift = abs(fields[-1].total(params.grid.dx) - fields[0].total(params.grid.dx)) \
        / fields[0].total(params.grid.dx)
    return {
        "has_band": bool(final.has_band),
        "ratio_front": final.ratio_front,
        "ratio_behind": final.ratio_behind,
        "width": final.width_h,
        "distance": final.distance_d,
        "formation_time": aerotaxis.band_formation_time(times, fields, params.grid),
        "mass_drift": drift,
    }


def _steady_inputs(p):
    ap = aerotaxis.AerotaxisParams(L0=p["aerotaxis.L0"], b0=p["aerotaxis.b0"])
    return ap, p["aerotaxis.l_min"], p["aerotaxis.l_max"], p["aerotaxis.k"], p["aerotaxis.s"]


def _write_steady(sol, out: Path):
    _write_csv(out / "solution.csv",
               ["regime", "B", "c1", "c2", "c3", "d", "h", "z", "s", "k", "lam"],
               [(sol.regime, sol.B, sol.c1, sol.c2, sol.c3, sol.d, sol.h,
                 sol.z, sol.s, sol.k, sol.lam)])
    span = sol.d + sol.h + sol.z
    xs = np.linspace(0.0, span * 1.05 if span > 0 else 1.0, 200)
    Ls = sol.oxygen(xs)
    _write_csv(out / "profile.csv", ["x", "L"], list(zip(xs, Ls)))


def run_steady_general(p, out, seed):
    ap, lmin, lmax, k, s = _steady_inputs(p)
    sol = aerotaxis.steady_state_general(ap, lmin, lmax, k=k, s=s)
    _write_steady(sol, out)
    return {"z": sol.z, "lam": sol.lam, "d": sol.d, "h": sol.h, "B": sol.B}


def run_steady_intermediate(p, out, seed):
    ap, lmin, lmax, k, s = _steady_inputs(p)
    sol = aerotaxis.steady_state_intermediate(ap, lmin, lmax, k=k, s=s)
    _write_steady(sol, out)
    return {"zeta": sol.z / sol.s, "z": sol.z, "h": sol.h, "B": sol.B}


def run_steady_low(p, out, seed):
    ap, lmin, _, k, s = _steady_inputs(p)
    sol = aerotaxis.steady_state_low(ap, lmin, k=k, s=s)
    _write_steady(sol, out)
    return {"z": sol.z, "B": sol.B}


def run_quasi(p, out, seed):
    rows = []
    metrics = {}
    for tag, L0 in (("lo", p["aerotaxis.L0_lo"]), ("hi", p["aerotaxis.L0_hi"])):
        q = aerotaxis.quasi_steady_state(L0, p["aerotaxis.l_max"], p["aerotaxis.k_b0"])
        rows.append((L0, q["d"], q["h"], q["B_over_b0"], q["c1"], q["assumption_ok"]))
        metrics[f"d_{tag}"] = q["d"]
        metrics[f"h_{tag}"] = q["h"]
    _write_csv(out / "quasi.csv", ["L0", "d", "h", "B_over_b0", "c1", "assumption_ok"],
               rows)
    return metrics


def run_montecarlo(p, out, seed):
    cfg = aerotaxis.MonteCarloConfig(
        v=p["mc.v"], c=p["mc.c"], t_a=p["mc.t_a"],
        band_half_width=p["mc.band"], wall_half_width=p["mc.wall"],
        n_trials=int(p["mc.trials"]), seed=seed)
    res = aerotaxis.monte_carlo_slow_adaptation(cfg, t_end=p["mc.t_end"], dt=p["mc.dt"])
    ratio = res["inside_outside_ratio"]
    _write_csv(out / "result.csv", ["t_a", "c", "ratio"], [(cfg.t_a, cfg.c, ratio)])
    return {"inside_outside_ratio": ratio}


def run_gc_switch(p, out, seed):
    params = growthcone.CaAcParams()
    metrics = {}
    for i, key in enumerate(("gc.La", "gc.Lb", "gc.Lc", "gc.Ld")):
        L = p[key]
        traj = growthcone.ca_ac_simulate(L, params, t_end=p["gc.t_end"], h=p["gc.h"])
        stride = max(1, len(traj) // 1000)
        rows = [(traj.times[j], traj.states[j, 0], traj.states[j, 1])
                for j in range(0, len(traj), stride)]
        _write_csv(out / f"traj_{i + 1}.csv", ["t", "C", "A"], rows)
        metrics[f"A_end_{i + 1}"] = float(traj.final()[1])
    return metrics


def run_gc_bifurcation(p, out, seed):
    params = growthcone.CaAcParams()
    L_values = np.linspace(p["gc.L_lo"], p["gc.L_hi"], int(p["gc.n"]))
    rows = growthcone.bifurcation_scan(params, L_values)
    _write_csv(out / "branches.csv", ["L", "branch", "C", "A", "stable"], rows)
    L_up, L_down = growthcone.hysteresis_jumps(params, p["gc.L_lo"], p["gc.L_hi"])
    below = growthcone.ca_ac_steady_states(L_up - 0.02, params)
    above = growthcone.ca_ac_steady_states(L_up + 0.05, params)
    return {
        "L_up": L_up,
        "L_down": L_down,
        "A_low_at_jump": min(s.A for s, _ in below),
        "A_high_at_jump": max(s.A for s, _ in above),
    }


def run_gc_adaptation(p, out, seed):
    ap = growthcone.AdaptationParams(m=p["gc.m"], lam=p["gc.lam"], k=p["gc.k"],
                                     kd=p["gc.kd"], r=p["gc.r"])
    traj = growthcone.adaptation_simulate(p["gc.l0"], p["gc.l1"], ap,
                                          t_end=p["gc.t_end"], h=p["gc.h"])
    stride = max(1, len(traj) // 2000)
    rows = [(traj.times[j], traj.states[j, 0], traj.states[j, 1])
            for j in range(0, len(traj), stride)]
    _write_csv(out / "traj.csv", ["t", "M", "A"], rows)
    A = traj.states[:, 1]
    base = ap.m / ap.r
    return {
        "A_end": float(A[-1]),
        "baseline": base,
        "max_excursion": float(np.max(np.abs(A - base))),
        "slow_rate": growthcone.adaptation_slow_rate(p["gc.l1"], ap),
    }


def run_gc_twocomp(p, out, seed):
    ap = growthcone.AdaptationParams()
    cpl = growthcone.CompartmentCoupling(k1=p["gc.k1"], k2=p["gc.k2"])
    traj = growthcone.two_compartment_simulate(p["gc.l1"], p["gc.l2"], ap, cpl,
                                               t_end=p["gc.t_end"], l0=p["gc.l0"])
    stride = max(1, len(traj) // 2000)
    rows = [tuple([traj.times[j]] + list(traj.states[j]))
            for j in range(0, len(traj), stride)]
    _write_csv(out / "traj.csv", ["t", "M1", "A1", "M2", "A2"], rows)
    A1s, A2s, M1s, M2s = growthcone.two_compartment_steady(p["gc.l1"], p["gc.l2"],
                                                           ap, cpl)
    return {
        "A1_end": float(traj.final()[1]),
        "A2_end": float(traj.final()[3]),
        "A1_closed_form": A1s,
        "A2_closed_form": A2s,
        "gradient": float(traj.final()[1] - traj.final()[3]),
    }


def run_gc_rd(p, out, seed):
    ap = growthcone.AdaptationParams()
    grid = growthcone.default_rd_grid(length=p["gc.length"], dx=p["gc.dx"],
                                      dt=p["gc.dt"])
    x = grid.x
    kind = int(p["gc.profile"])
    lo, hi = p["gc.l_lo"], p["gc.l_hi"]
    if kind == 0:
        profile = np.full(grid.n, hi)
        init = np.linspace(lo, hi, grid.n)
    elif kind == 1:
        profile = np.linspace(lo, hi, grid.n)
        init = None
    elif kind == 2:
        half = grid.x[-1] / 2
        profile = lo + (hi - lo) * (1 - ((x - half) / half) ** 2)
        init = None
    else:
        raise UsageError("gc.profile must be 0 (uniform), 1 (linear) or 2 (quadratic)")
    times, Ms, As = growthcone.reaction_diffusion_simulate(
        profile, ap, p["gc.D1"], p["gc.D2"], grid, t_end=p["gc.t_end"],
        l_init=init, sample_every=int(p["gc.sample_every"]))
    rows = []
    for i, t in enumerate(times):
        for j in range(grid.n):
            rows.append((t, x[j], Ms[i][j], As[i][j]))
    _write_csv(out / "field.csv", ["t", "x", "M", "A"], rows)
    A = As[-1]
    return {
        "A_flat_dev": float(np.max(np.abs(A - ap.m / ap.r))),
        "A_monotone_up": bool(np.all(np.diff(A) > 0)),
        "argmax_A": int(np.argmax(A)),
        "argmax_l": int(np.argmax(profile)),
    }


def run_gc_ca_switch(p, out, seed):
    sp = growthcone.SwitchRateParams(a=p["gc.a"], b=p["gc.b"], c=p["gc.c"],
                                     ca_b=p["gc.ca_b"])
    ap = growthcone.AdaptationParams()
    cpl = growthcone.CompartmentCoupling(k1=p["gc.k1"], k2=p["gc.k2"])
    rows = []
    metrics = {}
    for tag, ca in (("hi", p["gc.ca_hi"]), ("lo", p["gc.ca_lo"])):
        row = (ca, *growthcone.switch_gradient(p["gc.l1"], p["gc.l2"], ca, sp, ap, cpl))
        rows.append(row)
        metrics[f"sign_{tag}"] = row[-1]
    _write_csv(out / "result.csv", ["ca", "ka1", "ka2", "A1s", "A2s", "sign"], rows)
    return metrics


def run_kelvin_single(p, out, seed):
    body = kelvin.KelvinBody(p["kelvin.eta1"], p["kelvin.mu01"], p["kelvin.mu11"])
    f = kelvin.Forcing.steady(p["kelvin.F0"])
    res = kelvin.network_deform(kelvin.KelvinNetwork((("body1", body),)), f,
                                p["kelvin.t_end"], p["kelvin.h"])
    u = res.total_u
    stride = max(1, len(u) // 2000)
    rows = [(res.times[j], "body1", u[j], p["kelvin.F0"])
            for j in range(0, len(u), stride)]
    _write_csv(out / "traj.csv", ["t", "label", "u", "aF"], rows)
    ts, te = kelvin.relaxation_times(body)
    return {
        "u0": float(u[0]),
        "u_end": float(u[-1]),
        "tau_sigma": ts,
        "tau_epsilon": te,
    }


_SWEEP_PARAMS = {0: "mu02", 1: "mu12", 2: "eta12", 3: "all"}


def run_kelvin_sweep(p, out, seed):
    base = kelvin.ParallelGroup((kelvin.material_params("actin"),
                                 kelvin.material_params("actin")))
    param = _SWEEP_PARAMS.get(int(p["kelvin.param"]))
    if param is None:
        raise UsageError("kelvin.param must be 0 (mu02), 1 (mu12), 2 (eta12) or 3 (all)")
    values = [p["kelvin.v1"], p["kelvin.v2"], p["kelvin.v3"]]
    rows = kelvin.parameter_sweep(base, param, values)
    _write_csv(out / "sweep.csv", ["param_value", "flow_kind", "steady_u", "steady_aF"],
               rows)
    steady_us = [r[2] for r in rows if r[1] == "steady"]
    return {"param": param, "steady_u_min": min(steady_us), "steady_u_max": max(steady_us)}


def run_kelvin_freq(p, out, seed):
    g = kelvin.ParallelGroup((kelvin.material_params("actin"),
                              kelvin.material_params("actin")))
    freqs = [p["kelvin.f1"], p["kelvin.f2"], p["kelvin.f3"], p["kelvin.f4"]]
    rows = kelvin.frequency_sweep(g, freqs, F0=p["kelvin.F0"])
    _write_csv(out / "freq.csv", ["freq_hz", "norm_u", "norm_aF"], rows)
    metrics = {"norm_u_lowest": rows[0][1]}
    for f_hz, nu, na in rows:
        if abs(f_hz - 1.0) < 1e-12:
            metrics["norm_u_at_1Hz"] = nu
            metrics["norm_aF_at_1Hz"] = na
    return metrics


def _run_network(net, p, out):
    f_steady = kelvin.Forcing.steady(p["kelvin.F0"])
    res_s = kelvin.network_deform(net, f_steady, p["kelvin.t_end_steady"],
                                  p["kelvin.h_steady"])
    f_osc = kelvin.Forcing.oscillatory(p["kelvin.F0"],
                                       2 * math.pi * p["kelvin.freq_hz"])
    res_o = kelvin.network_deform(net, f_osc, p["kelvin.t_end_osc"], p["kelvin.h_osc"])
    for tag, res in (("steady", res_s), ("oscillatory", res_o)):
        rows = []
        stride = max(1, len(res.times) // 2000)
        for j in range(0, len(res.times), stride):
            for label, u in res.element_u.items():
                force = res.branch_forces.get(label)
                aF = force[j] if force is not None else float("nan")
                rows.append((res.times[j], label, u[j], aF))
        _write_csv(out / f"{tag}.csv", ["t", "label", "u", "aF"], rows)
    mask = res_s.times > 1.0
    sensor = res_s.element_u["sensor"][mask]
    nucleus = res_s.element_u["nucleus"][mask]
    ordering = all(np.all(sensor >= u[mask] - 1e-12) for u in res_s.element_u.values()) \
        and all(np.all(nucleus <= u[mask] + 1e-12) for u in res_s.element_u.values())
    split = res_s.branch_forces["actin_pair/branch1"]
    peak = kelvin.steady_peak(res_o.times, res_o.total_u, f_osc)
    return {
        "ordering_holds": bool(ordering),
        "actin_split_dev": float(np.max(np.abs(split - 0.5 * p["kelvin.F0"]))),
        "steady_total": float(res_s.total_u[-1]),
        "oscillatory_peak_total": peak,
        "osc_over_steady": peak / float(res_s.total_u[-1]),
    }


def run_network_one(p, out, seed):
    return _run_network(kelvin.network_one(), p, out)


def run_network_two(p, out, seed):
    return _run_network(kelvin.network_two(), p, out)


# --------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Experiment:
    runner: object
    defaults: dict
    reference: str


_BAND_DEFAULTS = {
    "aerotaxis.v": 0.2, "aerotaxis.D": 0.01, "aerotaxis.kappa": 0.018,
    "aerotaxis.L0": 1.0, "aerotaxis.b0": 1.0, "aerotaxis.length": 1.0,
    "aerotaxis.nodes": 40, "aerotaxis.dt": 0.01,
    "aerotaxis.lt_min": 0.2, "aerotaxis.l_min": 0.35, "aerotaxis.l_max": 0.45,
    "aerotaxis.lt_max": 0.7, "aerotaxis.c_low": 0.0, "aerotaxis.c_high": 80.0,
    "aerotaxis.t_end": 30.0, "aerotaxis.sample_every": 100,
}

_STEADY_DEFAULTS = {
    "aerotaxis.L0": 0.2, "aerotaxis.b0": 2.0, "aerotaxis.k": 0.003,
    "aerotaxis.s": 1.0, "aerotaxis.l_min": 0.003, "aerotaxis.l_max": 0.005,
}

EXPERIMENTS = {
    "aerotaxis-band": Experiment(run_band, _BAND_DEFAULTS,
                                 "capillary band formation on the coarse grid"),
    "aerotaxis-steady-general": Experiment(
        run_steady_general, _STEADY_DEFAULTS,
        "three-region steady state at the reference constants"),
    "aerotaxis-steady-intermediate": Experiment(
        run_steady_intermediate, {**_STEADY_DEFAULTS, "aerotaxis.L0": 0.0035},
        "two-region steady state with the band at the source"),
    "aerotaxis-steady-low": Experiment(
        run_steady_low, {**_STEADY_DEFAULTS, "aerotaxis.L0": 0.001},
        "bandless depletion layer below the preferred range"),
    "aerotaxis-quasi": Experiment(
        run_quasi,
        {"aerotaxis.L0_lo": 0.2, "aerotaxis.L0_hi": 1.0,
         "aerotaxis.l_max": 0.005, "aerotaxis.k_b0": 1.0 / 320.0},
        "band-building window estimates for two source levels"),
    "aerotaxis-montecarlo": Experiment(
        run_montecarlo,
        {"mc.v": 1.0, "mc.c": 50.0, "mc.t_a": 0.02, "mc.band": 1.0,
         "mc.wall": 2.0, "mc.trials": 10000, "mc.t_end": 80.0, "mc.dt": 0.01},
        "slow-adaptation walker density ratio"),
    "growthcone-switch": Experiment(
        run_gc_switch,
        {"gc.La": 0.1, "gc.Lb": 1.0, "gc.Lc": 10.0, "gc.Ld": 20.0,
         "gc.t_end": 10.0, "gc.h": 1e-3},
        "switch trajectories at four ligand levels"),
    "growthcone-bifurcation": Experiment(
        run_gc_bifurcation,
        {"gc.L_lo": 0.05, "gc.L_hi": 6.0, "gc.n": 60},
        "hysteresis window of the cyclase switch"),
    "growthcone-adaptation": Experiment(
        run_gc_adaptation,
        {"gc.l0": 0.1, "gc.l1": 1.0, "gc.m": 0.1, "gc.lam": 5.0, "gc.k": 0.2,
         "gc.kd": 0.2, "gc.r": 1.0, "gc.t_end": 800.0, "gc.h": 0.1},
        "step response returning to the ligand-free baseline"),
    "growthcone-twocomp": Experiment(
        run_gc_twocomp,
        {"gc.l0": 0.1, "gc.l1": 1.0, "gc.l2": 0.5, "gc.k1": 1.0, "gc.k2": 0.1,
         "gc.t_end": 1000.0},
        "persistent two-compartment gradient response"),
    "growthcone-rd": Experiment(
        run_gc_rd,
        {"gc.profile": 1, "gc.l_lo": 0.01, "gc.l_hi": 0.03, "gc.D1": 0.6,
         "gc.D2": 0.0, "gc.length": 10.0, "gc.dx": 1.0 / 9.0, "gc.dt": 0.01,
         "gc.t_end": 1500.0, "gc.sample_every": 15000},
        "graded spatial response of the diffusing-messenger model"),
    "growthcone-ca-switch": Experiment(
        run_gc_ca_switch,
        {"gc.l1": 1.0, "gc.l2": 0.5, "gc.ca_hi": 0.4, "gc.ca_lo": 0.1,
         "gc.a": 0.01, "gc.b": 1.0, "gc.c": 1.0, "gc.ca_b": 0.2,
         "gc.k1": 1.0, "gc.k2": 0.0},
        "gradient sign reversal with the calcium-modulated rate"),
    "kelvin-single": Experiment(
        run_kelvin_single,
        {"kelvin.eta1": 5000.0, "kelvin.mu01": 50.0, "kelvin.mu11": 100.0,
         "kelvin.F0": 1.0, "kelvin.t_end": 2000.0, "kelvin.h": 0.1},
        "single-body creep to the spring balance"),
    "kelvin-sweep": Experiment(
        run_kelvin_sweep,
        {"kelvin.param": 0, "kelvin.v1": 5.0, "kelvin.v2": 50.0,
         "kelvin.v3": 500.0},
        "two-body sensitivity sweep in both flows"),
    "kelvin-freq": Experiment(
        run_kelvin_freq,
        {"kelvin.f1": 1e-4, "kelvin.f2": 1e-2, "kelvin.f3": 1e-1,
         "kelvin.f4": 1.0, "kelvin.F0": 1.0},
        "normalized peak response versus forcing frequency"),
    "kelvin-network-I": Experiment(
        run_network_one,
        {"kelvin.F0": 1.0, "kelvin.t_end_steady": 2000.0, "kelvin.h_steady": 0.1,
         "kelvin.t_end_osc": 30.0, "kelvin.h_osc": 0.005, "kelvin.freq_hz": 1.0},
        "four-body cell model in both flows"),
    "kelvin-network-II": Experiment(
        run_network_two,
        {"kelvin.F0": 1.0, "kelvin.t_end_steady": 2000.0, "kelvin.h_steady": 0.1,
         "kelvin.t_end_osc": 30.0, "kelvin.h_osc": 0.005, "kelvin.freq_hz": 1.0},
        "seven-body cell model in both flows"),
}


# keys whose values count things or select a variant
_INTEGER_KEYS = frozenset({"aerotaxis.nodes", "aerotaxis.sample_every", "mc.trials",
                           "gc.n", "gc.profile", "gc.sample_every", "kelvin.param"})


# --------------------------------------------------------------------------
# config handling


def _entry(item: str, where: str):
    """(key, value) of a `key = value` entry whose value is a finite number;
    `where` prefixes errors."""
    if "=" not in item:
        raise UsageError(f"{where}expected 'key = value', got {item!r}")
    key, _, text = item.partition("=")
    key, text = key.strip(), text.strip()
    try:
        num = float(text)
    except ValueError:
        raise UsageError(f"{where}value for {key!r} is not a number: {text!r}") from None
    if not math.isfinite(num):
        raise UsageError(f"{where}value for {key!r} must be finite, got {text!r}")
    return key, num


def parse_config(path) -> dict:
    """Read `key = value` lines; '#' starts a comment.  Later duplicates win
    with a warning; malformed lines report their number."""
    out = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, num = _entry(line, f"{path}:{lineno}: ")
        if key in out:
            warnings.warn(f"duplicate config key {key!r}; last value wins")
        out[key] = num
    return out


def run(config: ExperimentConfig) -> RunSummary:
    """Dispatch one experiment, write its CSVs and summary.json."""
    if config.experiment not in EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {config.experiment!r}; registered: "
            + ", ".join(sorted(EXPERIMENTS)))
    exp = EXPERIMENTS[config.experiment]
    unknown = set(config.params) - set(exp.defaults)
    if unknown:
        raise UsageError(
            f"unknown keys for {config.experiment}: {sorted(unknown)}; "
            f"allowed: {sorted(exp.defaults)}")
    for key in sorted(_INTEGER_KEYS & set(config.params)):
        if not float(config.params[key]).is_integer():
            raise UsageError(f"{key} must be an integer, got {config.params[key]!r}")
    params = {**exp.defaults, **config.params}
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    metrics = exp.runner(params, out, config.seed)
    wall = time.perf_counter() - t0
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            metrics[key] = None
    summary = RunSummary(config.experiment, exp.reference, wall, config.seed,
                         params, metrics)
    (out / "summary.json").write_text(json.dumps({
        "experiment": summary.experiment,
        "reference": summary.reference,
        "wall_time_s": summary.wall_time_s,
        "seed": summary.seed,
        "config": summary.config,
        "metrics": summary.metrics,
    }, indent=2, sort_keys=True) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="biosim",
        description="Run a registered simulation experiment and write CSV results.")
    parser.add_argument("experiment", help="experiment name (see --list)")
    parser.add_argument("--config", help="file of key = value lines")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config value (repeatable; wins over --config)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        if args.experiment == "--list" or args.experiment == "list":
            print("\n".join(sorted(EXPERIMENTS)))
            return 0
        params = {}
        if args.config:
            params.update(parse_config(args.config))
        for item in args.set:
            key, num = _entry(item, "--set ")
            params[key] = num
        summary = run(ExperimentConfig(args.experiment, params, Path(args.out),
                                       args.seed))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericsError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    print(f"{summary.experiment}: wall {summary.wall_time_s:.2f}s")
    for key in sorted(summary.metrics):
        print(f"  {key} = {summary.metrics[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
