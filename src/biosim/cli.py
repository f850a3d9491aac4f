"""Experiment runner: named experiments, flat key=value configs, CSV output.

Each registered experiment reproduces one reference result with its
defaults and, only once it has succeeded, writes deterministic CSV files
plus a summary.json.  Identical config and seed give byte-identical CSVs.
"""
from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import aerotaxis, growthcone, kelvin
from .numerics import Grid1D, IntegrationError, NumericsError, kept_samples


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
    # how the run spent its time: runner_s in the runner, csv_s writing
    # the tables; outside metrics, which the golden file records
    diagnostics: dict


class UsageError(ValueError):
    pass


def _fmt(value) -> str:
    """The CSV text of one value of a small mixed table: a str as it is, a
    bool as 1 or 0, an int in decimal, anything else as repr of a float."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# rows per write, and values per float conversion: a few dozen keep the
# per-call overhead small and few texts alive at once; with 128 or more the
# peak RSS of the fields-io benchmark rose by 0.7 MB (2-vCPU VM)
_CHUNK = 32


def _write_csv(path: Path, header, rows):
    """Write a header line and rows of text fields, chunk by chunk, never
    whole.  Every table goes through here; the builders below zip column
    texts into rows, so that each column is formatted in one pass (_floats)
    and a repeated text only once."""
    rows = iter(rows)
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(itertools.islice(rows, _CHUNK)):
            fh.write("\n".join(map(",".join, chunk)))
            fh.write("\n")


# values per block of a column with repeats; each distinct value of a block
# is formatted once
_BLOCK = 1024


def _floats(values):
    """The texts of a float column, made lazily: repr of each value as a
    Python float.  A column of which at least 1/4 of the values repeat an
    earlier value of their block (a run that settles to its steady state, a
    nan column) is made a block at a time, formatting each distinct value of
    the block once; any other a chunk at a time.  Values are told apart by
    their bits, so that -0.0 and 0.0 keep their own texts."""
    a = np.asarray(values, dtype=float)
    bits = a.view(np.int64)
    if len(a) > 4 * _repeats(bits):
        return itertools.chain.from_iterable(map(repr, a[i:i + _CHUNK].tolist())
                                             for i in range(0, len(a), _CHUNK))
    return itertools.chain.from_iterable(map(_block_texts, (bits[i:i + _BLOCK]
                                                            for i in range(0, len(a), _BLOCK))))


def _repeats(bits) -> int:
    """The values of bits that repeat an earlier one of their _BLOCK-value
    block: the repr calls that the block path saves.  Each block is sorted
    on its own, so no copy of the whole column is made."""
    repeats = 0
    for i in range(0, len(bits), _BLOCK):
        s = np.sort(bits[i:i + _BLOCK])
        repeats += np.count_nonzero(s[1:] == s[:-1])
    return repeats


def _block_texts(bits) -> list:
    """The texts of a block of float bit patterns, one repr per distinct one."""
    distinct, inv = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return texts[inv].tolist()


def _rows(header, rows):
    """A small table given row by row, each value through _fmt."""
    return header, (map(_fmt, row) for row in rows)


def _every(n: int, max_rows: int) -> np.ndarray:
    """Every k-th of n samples and the last, k chosen to keep about max_rows."""
    return kept_samples(n - 1, max(1, n // max_rows))


def _traj(header, traj, max_rows: int = 2000):
    """Rows (t, *state) of a strided Trajectory."""
    idx = _every(len(traj), max_rows)
    return header, zip(*map(_floats, (traj.times[idx], *traj.states[idx].T)))


def _long(header, times, keys, *blocks):
    """Rows (t, key, *values), key by key at each time: keys are the texts
    of a node position or label, and each block is a (times, keys) array.
    Each t and key text is made once."""
    keys = list(keys)
    ts = itertools.chain.from_iterable(
        map(itertools.repeat, _floats(times), itertools.repeat(len(keys))))
    return header, zip(ts, itertools.cycle(keys), *(_floats(np.ravel(b)) for b in blocks))


def _network(res, F0: float):
    """Rows (t, label, u, aF) at about 2000 times of a network run at unit
    force, scaled to the force F0; a group has no single force, so its aF is
    nan."""
    if not math.isfinite(F0 * max(float(np.abs(u).max()) for u in res.element_u.values())):
        raise IntegrationError(f"the deformations at F0 = {F0!r} are not finite")
    idx = _every(len(res.times), 2000)
    labels = list(res.element_u)
    nan = np.full(len(res.times), np.nan)
    return _long(["t", "label", "u", "aF"], res.times[idx], labels,
                 F0 * np.column_stack([res.element_u[k][idx] for k in labels]),
                 F0 * np.column_stack([res.branch_forces.get(k, nan)[idx] for k in labels]))


# --------------------------------------------------------------------------
# experiment runners: runner(p, seed) -> (tables, metrics), where tables maps
# each CSV file name to (header, rows) in the order run() writes them; _build
# passes a key named prefix + name as the parameter of that name of a library
# function or parameter type, and the registry reads the key's default from
# there (_defaults) unless the experiment needs another value


def _defaults(fn, prefix: str, *names) -> dict:
    """The keys prefix + name at the defaults of fn's parameters (fn a
    function or a parameter type), for the names given or else for every
    parameter whose default is a number."""
    return {prefix + name: q.default for name, q in inspect.signature(fn).parameters.items()
            if name in names or not names and isinstance(q.default, (int, float))}


@functools.cache
def _parameters(fn) -> tuple:
    """The parameter names of fn, read from its signature once."""
    return tuple(inspect.signature(fn).parameters)


def _build(fn, prefix: str, keys: dict, /, *args, **given):
    """fn(*args), with each parameter that keys holds as prefix + its name
    and the keywords given."""
    named = {name: keys[prefix + name] for name in _parameters(fn) if prefix + name in keys}
    return fn(*args, **{**named, **given})


def run_band(p, seed: int):
    nodes = p["aerotaxis.nodes"]
    # Grid1D refuses fewer than 3 nodes; the max keeps dx defined until it does
    grid = Grid1D(n=nodes, dx=p["aerotaxis.length"] / max(nodes - 1, 1), dt=p["aerotaxis.dt"])
    params = _build(aerotaxis.AerotaxisParams, "aerotaxis.", p, grid=grid,
                    thresholds=_build(aerotaxis.TurningThresholds, "aerotaxis.", p))
    times, r, l, L = _build(aerotaxis.simulate_band, "aerotaxis.", p, params)
    density = r + l
    m = aerotaxis.band_metrics(density, grid)
    has = m.has_band
    total0, total1 = (float(density[i].sum()) * grid.dx for i in (0, -1))
    return {
        "fields.csv": _long(["t", "x", "r", "l", "L"], times, _floats(grid.x), r, l, L),
        "metrics.csv": (["t", "width", "distance", "ratio_front", "ratio_behind"],
                        zip(*(_floats(a[has]) for a in (times, m.width_h, m.distance_d,
                                                        m.ratio_front, m.ratio_behind)))),
    }, {
        "has_band": bool(has[-1]),
        "ratio_front": float(m.ratio_front[-1]),
        "ratio_behind": float(m.ratio_behind[-1]),
        "width": float(m.width_h[-1]),
        "distance": float(m.distance_d[-1]),
        "formation_time": aerotaxis.band_formation_time(times, m),
        "mass_drift": abs(total1 - total0) / total0,
    }


def _steady(solve, p):
    """The steady state that solve finds at the keys, with its solution row
    and its oxygen profile."""
    sol = _build(solve, "aerotaxis.", p, _build(aerotaxis.AerotaxisParams, "aerotaxis.", p))
    return sol, {
        "solution.csv": _rows(["regime", "B", "c1", "c2", "c3", "d", "h", "z", "s", "k", "lam"],
                              [(sol.regime, sol.B, sol.c1, sol.c2, sol.c3, sol.d, sol.h,
                                sol.z, sol.s, sol.k, sol.lam)]),
        "profile.csv": (["x", "L"], zip(*map(_floats, sol.profile()))),
    }


def run_steady_general(p, seed):
    sol, tables = _steady(aerotaxis.steady_state_general, p)
    return tables, {"z": sol.z, "lam": sol.lam, "d": sol.d, "h": sol.h, "B": sol.B}


def run_steady_intermediate(p, seed):
    sol, tables = _steady(aerotaxis.steady_state_intermediate, p)
    return tables, {"zeta": sol.z / sol.s, "z": sol.z, "h": sol.h, "B": sol.B}


def run_steady_low(p, seed):
    sol, tables = _steady(aerotaxis.steady_state_low, p)
    return tables, {"z": sol.z, "B": sol.B}


def run_quasi(p, seed):
    rows = []
    metrics = {}
    for tag, L0 in (("lo", p["aerotaxis.L0_lo"]), ("hi", p["aerotaxis.L0_hi"])):
        q = _build(aerotaxis.quasi_steady_state, "aerotaxis.", p, L0=L0)
        rows.append((L0, q["d"], q["h"], q["B_over_b0"], q["c1"], q["assumption_ok"]))
        metrics[f"d_{tag}"] = q["d"]
        metrics[f"h_{tag}"] = q["h"]
    return {"quasi.csv": _rows(["L0", "d", "h", "B_over_b0", "c1", "assumption_ok"], rows)}, \
        metrics


def run_montecarlo(p, seed):
    cfg = _build(aerotaxis.MonteCarloConfig, "mc.", p, band_half_width=p["mc.band"],
                 wall_half_width=p["mc.wall"], n_trials=p["mc.trials"], seed=seed)
    res = _build(aerotaxis.monte_carlo_slow_adaptation, "mc.", p, cfg)
    ratio = res["inside_outside_ratio"]
    return {"result.csv": _rows(["t_a", "c", "ratio"], [(cfg.t_a, cfg.c, ratio)])}, res


def run_gc_switch(p, seed):
    trajs = [_build(growthcone.ca_ac_simulate, "gc.", p, p[key])
             for key in ("gc.La", "gc.Lb", "gc.Lc", "gc.Ld")]
    # the four runs share gc.t_end and gc.h, so one time grid: its texts
    # are made once for the four tables
    idx = _every(len(trajs[0]), 1000)
    ts = list(_floats(trajs[0].times[idx]))
    return {f"traj_{i}.csv": (["t", "C", "A"], zip(ts, *map(_floats, traj.states[idx].T)))
            for i, traj in enumerate(trajs, start=1)}, \
        {f"A_end_{i}": float(traj.final()[1]) for i, traj in enumerate(trajs, start=1)}


def run_gc_bifurcation(p, seed):
    if p["gc.n"] < 1:
        raise UsageError(f"gc.n must be at least 1, got {p['gc.n']}")
    params = growthcone.CaAcParams()
    L_up, L_down = _build(growthcone.hysteresis_jumps, "gc.", p, params)
    L_values = np.linspace(p["gc.L_lo"], p["gc.L_hi"], p["gc.n"])
    rows = growthcone.bifurcation_scan(params, L_values)
    below = growthcone.ca_ac_steady_states(L_up - 0.02, params)
    above = growthcone.ca_ac_steady_states(L_up + 0.05, params)
    return {"branches.csv": _rows(["L", "branch", "C", "A", "stable"], rows)}, {
        "L_up": L_up,
        "L_down": L_down,
        "A_low_at_jump": min(s.A for s, _ in below),
        "A_high_at_jump": max(s.A for s, _ in above),
    }


def run_gc_adaptation(p, seed):
    ap = _build(growthcone.AdaptationParams, "gc.", p)
    traj = _build(growthcone.adaptation_simulate, "gc.", p, p=ap)
    A = traj.states[:, 1]
    base = ap.m / ap.r
    return {"traj.csv": _traj(["t", "M", "A"], traj)}, {
        "A_end": float(A[-1]),
        "baseline": base,
        "max_excursion": float(np.max(np.abs(A - base))),
        "slow_rate": growthcone.adaptation_slow_rate(p["gc.l1"], ap),
    }


def run_gc_twocomp(p, seed):
    ap = growthcone.AdaptationParams()
    cpl = _build(growthcone.CompartmentCoupling, "gc.", p)
    traj = _build(growthcone.two_compartment_simulate, "gc.", p, p=ap, cpl=cpl)
    A1s, A2s, M1s, M2s = growthcone.two_compartment_steady(
        ap.ka(p["gc.l1"]), ap.ka(p["gc.l2"]), ap, cpl)
    return {"traj.csv": _traj(["t", "M1", "A1", "M2", "A2"], traj)}, {
        "A1_end": float(traj.final()[1]),
        "A2_end": float(traj.final()[3]),
        "A1_closed_form": A1s,
        "A2_closed_form": A2s,
        "gradient": float(traj.final()[1] - traj.final()[3]),
    }


def run_gc_rd(p, seed):
    ap = growthcone.AdaptationParams()
    grid = _build(growthcone.default_rd_grid, "gc.", p)
    x, half = grid.x, grid.x[-1] / 2
    kind, lo, hi = p["gc.profile"], p["gc.l_lo"], p["gc.l_hi"]
    if kind not in (0, 1, 2):
        raise UsageError("gc.profile must be 0 (uniform), 1 (linear) or 2 (quadratic)")
    # the levels, not only the nodes: with no node at the quadratic's peak, a
    # non-positive gc.l_hi would leave every node positive
    if not (lo > 0 and hi > 0):
        raise UsageError(f"gc.l_lo and gc.l_hi must be positive, got {lo!r}, {hi!r}")
    ramp = np.linspace(lo, hi, grid.n)
    profile = (np.full(grid.n, hi), ramp, lo + (hi - lo) * (1 - ((x - half) / half)**2))[kind]
    # the uniform presentation starts from the state adapted to the ramp
    times, Ms, As = _build(growthcone.reaction_diffusion_simulate, "gc.", p, profile, ap,
                           grid=grid, l_init=ramp if kind == 0 else None)
    A = As[-1]
    return {"field.csv": _long(["t", "x", "M", "A"], times, _floats(x), Ms, As)}, {
        "A_flat_dev": float(np.max(np.abs(A - ap.m / ap.r))),
        "A_monotone_up": bool(np.all(np.diff(A) > 0)),
        "argmax_A": int(np.argmax(A)),
        "argmax_l": int(np.argmax(profile)),
    }


def run_gc_ca_switch(p, seed):
    sp = _build(growthcone.SwitchRateParams, "gc.", p)
    cpl = _build(growthcone.CompartmentCoupling, "gc.", p)
    rows = []
    metrics = {}
    for tag, ca in (("hi", p["gc.ca_hi"]), ("lo", p["gc.ca_lo"])):
        row = (ca, *_build(growthcone.switch_gradient, "gc.", p, ca=ca, sp=sp, cpl=cpl))
        rows.append(row)
        metrics[f"sign_{tag}"] = row[-1]
    return {"result.csv": _rows(["ca", "ka1", "ka2", "A1s", "A2s", "sign"], rows)}, metrics


def run_kelvin_single(p, seed):
    body = _build(kelvin.KelvinBody, "kelvin.", p)
    res = _build(kelvin.network_deform, "kelvin.", p,
                 kelvin.KelvinNetwork((("body1", body),)), 0.0)
    F0 = p["kelvin.F0"]
    ts, te = kelvin.relaxation_times(body)
    return {"traj.csv": _network(res, F0)}, {
        "u0": F0 * float(res.total_u[0]),
        "u_end": F0 * float(res.total_u[-1]),
        "tau_sigma": ts,
        "tau_epsilon": te,
    }


_SWEEP_PARAMS = {0: "mu02", 1: "mu12", 2: "eta12", 3: "all"}


def run_kelvin_sweep(p, seed):
    base = kelvin.ParallelGroup((kelvin.material_params("actin"),
                                 kelvin.material_params("actin")))
    param = _SWEEP_PARAMS.get(p["kelvin.param"])
    if param is None:
        raise UsageError("kelvin.param must be 0 (mu02), 1 (mu12), 2 (eta12) or 3 (all)")
    values = [p["kelvin.v1"], p["kelvin.v2"], p["kelvin.v3"]]
    rows = kelvin.parameter_sweep(base, param, values)
    steady_us = [r[2] for r in rows if r[1] == "steady"]
    return {"sweep.csv": _rows(["param_value", "flow_kind", "steady_u", "steady_aF"], rows)}, \
        {"param": param, "steady_u_min": min(steady_us), "steady_u_max": max(steady_us)}


def run_kelvin_freq(p, seed):
    g = kelvin.ParallelGroup((kelvin.material_params("actin"),
                              kelvin.material_params("actin")))
    freqs = [p["kelvin.f1"], p["kelvin.f2"], p["kelvin.f3"], p["kelvin.f4"]]
    rows = kelvin.frequency_sweep(g, freqs)
    metrics = {"norm_u_lowest": rows[0][1]}
    for f_hz, nu, na in rows:
        if abs(f_hz - 1.0) < 1e-12:
            metrics["norm_u_at_1Hz"] = nu
            metrics["norm_aF_at_1Hz"] = na
    return {"freq.csv": _rows(["freq_hz", "norm_u", "norm_aF"], rows)}, metrics


def _run_network(net, p):
    """Both runs are at unit force: the ordering and osc_over_steady read
    them as they are, and the tables and the reported sizes are scaled by
    kelvin.F0."""
    # the peak over a period of F0 u is F0 times the unit peak only if F0 > 0
    F0 = p["kelvin.F0"]
    if not F0 > 0:
        raise UsageError(f"the networks need kelvin.F0 > 0, got {F0!r}")
    omega = 2 * math.pi * p["kelvin.freq_hz"]
    if not 0 < omega < math.inf:
        raise UsageError("kelvin.freq_hz must give 0 < 2 pi freq_hz < inf, "
                         f"got {p['kelvin.freq_hz']!r}")
    res_s = kelvin.network_deform(net, 0.0, p["kelvin.t_end_steady"], p["kelvin.h_steady"])
    res_o = kelvin.network_deform(net, omega, p["kelvin.t_end_osc"], p["kelvin.h_osc"])
    mask = res_s.times > 1.0
    sensor = res_s.element_u["sensor"][mask]
    nucleus = res_s.element_u["nucleus"][mask]
    ordering = all(np.all(sensor >= u[mask] - 1e-12) for u in res_s.element_u.values()) \
        and all(np.all(nucleus <= u[mask] + 1e-12) for u in res_s.element_u.values())
    split = res_s.branch_forces["actin_pair/branch1"]
    steady_total = float(res_s.total_u[-1])
    peak = kelvin.steady_peak(res_o.times, res_o.total_u, omega)
    return {"steady.csv": _network(res_s, F0), "oscillatory.csv": _network(res_o, F0)}, {
        "ordering_holds": bool(ordering),
        "actin_split_dev": F0 * float(np.max(np.abs(split - 0.5))),
        "steady_total": F0 * steady_total,
        "oscillatory_peak_total": F0 * peak,
        "osc_over_steady": peak / steady_total,
    }


# --------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Experiment:
    runner: object
    defaults: dict
    reference: str


_BAND_DEFAULTS = {
    **_defaults(aerotaxis.AerotaxisParams, "aerotaxis."),
    **_defaults(aerotaxis.TurningThresholds, "aerotaxis."),
    "aerotaxis.length": 1.0, "aerotaxis.nodes": 40, "aerotaxis.dt": 0.01,
    **_defaults(aerotaxis.simulate_band, "aerotaxis.", "t_end", "sample_every"),
}

# the bandless regime has no upper preferred level
_LOW_DEFAULTS = {
    "aerotaxis.L0": 0.001, "aerotaxis.b0": 2.0, "aerotaxis.k": 0.003,
    "aerotaxis.s": 1.0, "aerotaxis.l_min": 0.003,
}
_STEADY_DEFAULTS = {**_LOW_DEFAULTS, "aerotaxis.L0": 0.2, "aerotaxis.l_max": 0.005}
_NETWORK_DEFAULTS = {"kelvin.F0": 1.0, "kelvin.t_end_steady": 2000.0, "kelvin.h_steady": 0.1,
                     "kelvin.t_end_osc": 30.0, "kelvin.h_osc": 0.005, "kelvin.freq_hz": 1.0}

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
        run_steady_low, _LOW_DEFAULTS,
        "bandless depletion layer below the preferred range"),
    "aerotaxis-quasi": Experiment(
        run_quasi,
        {"aerotaxis.L0_lo": 0.2, "aerotaxis.L0_hi": 1.0,
         "aerotaxis.l_max": 0.005, "aerotaxis.k_b0": 1.0 / 320.0},
        "band-building window estimates for two source levels"),
    "aerotaxis-montecarlo": Experiment(
        run_montecarlo,
        {**_defaults(aerotaxis.MonteCarloConfig, "mc.", "v", "c", "t_a"), "mc.band": 1.0,
         "mc.wall": 2.0, "mc.trials": 10000,
         **_defaults(aerotaxis.monte_carlo_slow_adaptation, "mc.", "t_end", "dt")},
        "slow-adaptation walker density ratio"),
    "growthcone-switch": Experiment(
        run_gc_switch,
        {"gc.La": 0.1, "gc.Lb": 1.0, "gc.Lc": 10.0, "gc.Ld": 20.0,
         **_defaults(growthcone.ca_ac_simulate, "gc.", "t_end"),
         # the spacing its 1000-row tables keep at t_end = 10, where the
         # library samples every 1e-3
         "gc.h": 0.01},
        "switch trajectories at four ligand levels"),
    "growthcone-bifurcation": Experiment(
        run_gc_bifurcation,
        {**_defaults(growthcone.hysteresis_jumps, "gc.", "L_lo", "L_hi"), "gc.n": 60},
        "hysteresis window of the cyclase switch"),
    "growthcone-adaptation": Experiment(
        run_gc_adaptation,
        {**_defaults(growthcone.AdaptationParams, "gc."), "gc.l0": 0.1, "gc.l1": 1.0,
         **_defaults(growthcone.adaptation_simulate, "gc.", "t_end", "h")},
        "step response returning to the ligand-free baseline"),
    "growthcone-twocomp": Experiment(
        run_gc_twocomp,
        {**_defaults(growthcone.CompartmentCoupling, "gc."), "gc.l1": 1.0, "gc.l2": 0.5,
         **_defaults(growthcone.two_compartment_simulate, "gc.", "l0", "t_end")},
        "persistent two-compartment gradient response"),
    "growthcone-rd": Experiment(
        run_gc_rd,
        {"gc.profile": 1, "gc.l_lo": 0.01, "gc.l_hi": 0.03, "gc.D1": 0.6, "gc.D2": 0.0,
         **_defaults(growthcone.default_rd_grid, "gc.", "length", "dx", "dt"),
         "gc.t_end": 1500.0, "gc.sample_every": 15000},
        "graded spatial response of the diffusing-messenger model"),
    "growthcone-ca-switch": Experiment(
        run_gc_ca_switch,
        {**_defaults(growthcone.SwitchRateParams, "gc."),
         **_defaults(growthcone.CompartmentCoupling, "gc."), "gc.k2": 0.0,
         "gc.l1": 1.0, "gc.l2": 0.5, "gc.ca_hi": 0.4, "gc.ca_lo": 0.1},
        "gradient sign reversal with the calcium-modulated rate"),
    "kelvin-single": Experiment(
        run_kelvin_single,
        {"kelvin.eta1": 5000.0, "kelvin.mu01": 50.0, "kelvin.mu11": 100.0,
         "kelvin.F0": 1.0, "kelvin.t_end": 2000.0,
         **_defaults(kelvin.network_deform, "kelvin.", "h")},
        "single-body creep to the spring balance"),
    "kelvin-sweep": Experiment(
        run_kelvin_sweep,
        {"kelvin.param": 0, "kelvin.v1": 5.0, "kelvin.v2": 50.0,
         "kelvin.v3": 500.0},
        "two-body sensitivity sweep in both flows"),
    "kelvin-freq": Experiment(
        run_kelvin_freq,
        {"kelvin.f1": 1e-4, "kelvin.f2": 1e-2, "kelvin.f3": 1e-1,
         "kelvin.f4": 1.0},
        "normalized peak response versus forcing frequency"),
    "kelvin-network-I": Experiment(
        lambda p, seed: _run_network(kelvin.network_one(), p), _NETWORK_DEFAULTS,
        "four-body cell model in both flows"),
    "kelvin-network-II": Experiment(
        lambda p, seed: _run_network(kelvin.network_two(), p), _NETWORK_DEFAULTS,
        "seven-body cell model in both flows"),
}


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
    """Dispatch one experiment; once its runner has returned, write the
    tables it returned and summary.json."""
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
    params = {**exp.defaults, **config.params}
    # a key whose default is an int counts things or selects a variant
    for key in sorted(config.params):
        if isinstance(exp.defaults[key], int):
            if not float(params[key]).is_integer():
                raise UsageError(f"{key} must be an integer, got {params[key]!r}")
            params[key] = int(params[key])
    t0 = time.perf_counter()
    tables, metrics = exp.runner(params, config.seed)
    t1 = time.perf_counter()
    # nothing is written, and no directory made, before the run succeeded
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
    t2 = time.perf_counter()
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            metrics[key] = None
    summary = RunSummary(config.experiment, exp.reference, t2 - t0, config.seed,
                         params, metrics, {"runner_s": t1 - t0, "csv_s": t2 - t1})
    (out / "summary.json").write_text(
        json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n")
    return summary


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The command line's parser, built on the first call of main."""
    parser = _Parser(
        prog="biosim",
        description="Run a registered simulation experiment and write CSV results.")
    parser.add_argument("experiment", nargs="?",
                        help="experiment name (see --list; 'list' also lists)")
    parser.add_argument("--list", action="store_true",
                        help="print the registered experiment names and exit")
    parser.add_argument("--config", help="file of key = value lines")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config value (repeatable; wins over --config)")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error(f"argument --seed: must be a non-negative integer, got {args.seed}")
        if args.list or args.experiment == "list":
            print("\n".join(sorted(EXPERIMENTS)))
            return 0
        if args.experiment is None:
            parser.error("an experiment name or --list is required")
        params = {}
        if args.config:
            params.update(parse_config(args.config))
        for item in args.set:
            key, num = _entry(item, "--set ")
            params[key] = num
        summary = run(ExperimentConfig(args.experiment, params, Path(args.out),
                                       args.seed))
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
