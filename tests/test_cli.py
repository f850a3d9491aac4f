import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biosim
from biosim import cli, kelvin, numerics
from biosim.cli import (
    _BLOCK,
    _CHUNK,
    EXPERIMENTS,
    ExperimentConfig,
    UsageError,
    _floats,
    _fmt,
    _long,
    _rows,
    _traj,
    _write_csv,
    main,
    parse_config,
    run,
)
from biosim.numerics import Trajectory
from test_acceptance import FAST_OVERRIDES


# ---------------------------------------------------------------- config file

def test_parse_config_empty(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert parse_config(cfg) == {}


def test_parse_config_values_and_comments(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("""
# comment
aerotaxis.L0 = 0.5
mc.trials = 100   # trailing comment
""")
    assert parse_config(cfg) == {"aerotaxis.L0": 0.5, "mc.trials": 100.0}


def test_parse_config_malformed_line_reports_number(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("a.b = 1\nnot a config line\n")
    with pytest.raises(UsageError, match=":2:"):
        parse_config(cfg)


def test_parse_config_non_numeric_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("a.b = twelve\n")
    with pytest.raises(UsageError, match="not a number"):
        parse_config(cfg)


def test_parse_config_duplicate_warns_last_wins(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("a.b = 1\na.b = 2\n")
    with pytest.warns(UserWarning, match="duplicate"):
        out = parse_config(cfg)
    assert out == {"a.b": 2.0}


# ---------------------------------------------------------------- dispatch

def test_unknown_experiment_lists_names(tmp_path):
    with pytest.raises(UsageError, match="aerotaxis-band"):
        run(ExperimentConfig("nope", {}, tmp_path))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(UsageError, match="unknown keys"):
        run(ExperimentConfig("aerotaxis-quasi", {"aerotaxis.bogus": 1.0}, tmp_path))


def test_override_changes_result(tmp_path):
    s1 = run(ExperimentConfig("aerotaxis-quasi", {}, tmp_path / "a"))
    s2 = run(ExperimentConfig("aerotaxis-quasi", {"aerotaxis.L0_lo": 0.4},
                              tmp_path / "b"))
    assert s2.metrics["d_lo"] > s1.metrics["d_lo"]


def test_summary_written_and_recomputable(tmp_path):
    out = tmp_path / "quasi"
    summary = run(ExperimentConfig("aerotaxis-quasi", {}, out))
    data = json.loads((out / "summary.json").read_text())
    assert data["experiment"] == "aerotaxis-quasi"
    assert data["metrics"]["d_lo"] == summary.metrics["d_lo"]
    # the summary metric is recomputable from the CSV alone
    lines = (out / "quasi.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["d"]) == summary.metrics["d_lo"]


def test_every_experiment_has_defaults_and_reference():
    for name, exp in EXPERIMENTS.items():
        assert exp.defaults, name
        assert exp.reference, name


def test_registered_defaults_are_pinned():
    # every experiment's keys, values and int or float types, as recorded in
    # tests/data/registry.json (JSON keeps 40 an int and 40.0 a float); many
    # defaults are read from the library's dataclass fields and function
    # signatures, so a changed library default shows here
    pinned = json.loads((Path(__file__).parent / "data" / "registry.json").read_text())
    assert sorted(pinned) == sorted(EXPERIMENTS)
    for name, exp in EXPERIMENTS.items():
        assert exp.defaults == pinned[name], name
        assert {k: type(v) for k, v in exp.defaults.items()} == \
            {k: type(v) for k, v in pinned[name].items()}, name


# ---------------------------------------------------------------- determinism
# (the exhaustive every-experiment version runs with the acceptance checks)


def _csv_bytes(root: Path):
    return {p.name: p.read_bytes() for p in sorted(root.glob("*.csv"))}


@pytest.mark.parametrize("name,params", [
    ("aerotaxis-band", {"aerotaxis.t_end": 2.0}),
    ("aerotaxis-montecarlo", {"mc.trials": 200, "mc.t_end": 20.0}),
    ("growthcone-adaptation", {"gc.t_end": 50.0}),
])
def test_seeded_runs_byte_identical(name, params, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run(ExperimentConfig(name, dict(params), a, seed=3))
    run(ExperimentConfig(name, dict(params), b, seed=3))
    files_a = _csv_bytes(a)
    files_b = _csv_bytes(b)
    assert files_a, f"{name} wrote no CSV"
    assert files_a == files_b



def test_montecarlo_summary_reports_the_standard_error(tmp_path):
    out = tmp_path / "mc"
    summary = run(ExperimentConfig("aerotaxis-montecarlo",
                                   {"mc.trials": 200, "mc.t_end": 20.0}, out))
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    assert metrics == summary.metrics
    assert metrics.keys() == {"inside_outside_ratio", "inside_outside_se"}
    assert 0 < metrics["inside_outside_se"] < 0.2 * metrics["inside_outside_ratio"]
    assert (out / "result.csv").read_text().splitlines()[0] == "t_a,c,ratio"


def test_montecarlo_standard_error_is_finite_where_the_ratio_is(tmp_path, capsys):
    # the error used to overflow to null in summary.json before the ratio did
    out = tmp_path / "mc"
    code = main(["aerotaxis-montecarlo", "--set", "mc.trials=200", "--set", "mc.t_end=20",
                 "--set", "mc.wall=8e307", "--out", str(out)])
    assert code == 0
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    assert math.isfinite(metrics["inside_outside_ratio"])
    assert math.isfinite(metrics["inside_outside_se"])


# ---------------------------------------------------------------- CSV text

@pytest.mark.parametrize("value,text", [
    (np.float64(0.1), "0.1"), (0.1, "0.1"), (1 / 3, "0.3333333333333333"),
    (-0.0, "-0.0"), (np.float64(-0.0), "-0.0"),
    (float("nan"), "nan"), (np.float64("nan"), "nan"),
    (float("inf"), "inf"), (-np.inf, "-inf"), (5e-324, "5e-324"),
    (np.float64(1e300), "1e+300"), (np.int64(-7), "-7"), (3, "3"),
    (True, "1"), (False, "0"), (np.bool_(True), "1"), (np.bool_(False), "0"),
    ("steady", "steady"),
])
def test_fmt_text_is_unchanged(value, text):
    assert _fmt(value) == text
    if isinstance(value, (float, np.floating)):
        assert _fmt(value) == repr(float(value))


def _reference_fmt(v):
    # the per-value formatting the writers must reproduce byte for byte
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _reference_csv(header, rows) -> bytes:
    lines = [",".join(map(_reference_fmt, row)) for row in [header, *rows]]
    return "".join(line + "\n" for line in lines).encode()


def _wild(rng, shape):
    # normal values spread over the whole float64 exponent range
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


@pytest.mark.parametrize("n,max_rows", [(9, 2000), (50, 7), (2001, 1000),
                                        (_CHUNK - 1, 2000), (_CHUNK, 2000),
                                        (_CHUNK + 1, 2000), (50, 8)])
def test_write_traj_matches_per_value_writer(n, max_rows, tmp_path):
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.uniform(1e-3, 1.0, n))
    traj = Trajectory(times, _wild(rng, (n, 3)))
    path = tmp_path / "traj.csv"
    _write_csv(path, *_traj(["t", "a", "b", "c"], traj, max_rows=max_rows))
    # every stride-th sample and the last, which (50, 8) keeps off the stride
    stride = max(1, n // max_rows)
    rows = [(traj.times[j], *traj.states[j]) for j in [*range(0, n - 1, stride), n - 1]]
    assert path.read_bytes() == _reference_csv(["t", "a", "b", "c"], rows)


def test_write_long_matches_per_value_writer(tmp_path):
    rng = np.random.default_rng(7)
    # the last sample sits off the stride, as a run's final state does
    times = np.array([0.0, 0.3, 0.6, 0.7])
    x = np.arange(6) / 7.0
    f = [_wild(rng, 6) for _ in times]
    g = [_wild(rng, 6) for _ in times]
    f[1][:4] = [-0.0, np.nan, np.inf, 5e-324]
    path = tmp_path / "field.csv"
    _write_csv(path, *_long(["t", "x", "f", "g"], times, _floats(x), f, g))
    rows = [(t, x[k], f[i][k], g[i][k]) for i, t in enumerate(times) for k in range(6)]
    assert path.read_bytes() == _reference_csv(["t", "x", "f", "g"], rows)


def test_write_long_across_chunks_matches_per_value_writer(tmp_path):
    # 100 times of 7 nodes: chunk ends fall inside a time's rows
    rng = np.random.default_rng(8)
    times = np.cumsum(rng.uniform(1e-3, 1.0, 100))
    x = np.arange(7) / 7.0
    f = rng.standard_normal((100, 7))
    path = tmp_path / "field.csv"
    _write_csv(path, *_long(["t", "x", "f"], times, _floats(x), f))
    rows = [(t, x[k], f[i][k]) for i, t in enumerate(times) for k in range(7)]
    assert path.read_bytes() == _reference_csv(["t", "x", "f"], rows)


# -0.0 next to 0.0, NaNs with the sign bit set or a payload (one of them
# signalling), +-inf and the smallest subnormals: bit patterns that a writer
# keyed on float values would merge
_SPECIALS = np.concatenate([
    [-0.0, 0.0, np.inf, -np.inf, 5e-324, -5e-324, np.nan],
    np.array([0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
              0xFFF00000DEADBEEF], dtype=np.uint64).view(float)])


def _column(n, repeated):
    """n floats opening with the specials; then a periodic repeat and a
    constant run (repeated), or values that are all distinct."""
    if repeated:
        col = np.resize([0.1, -0.0, 1 / 3, 0.0], n)
        col[n // 2:] = 2 / 3
    else:
        col = _wild(np.random.default_rng(n), n)
    k = min(n, len(_SPECIALS))
    col[:k] = _SPECIALS[:k]
    return col


def _count_repr(monkeypatch) -> list:
    """The values the writers format from here on, in the order they do."""
    calls = []
    monkeypatch.setattr(cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    return calls


def _distinct_per_block(col) -> int:
    bits = np.asarray(col, dtype=float).view(np.int64)
    return sum(len(np.unique(bits[i:i + _BLOCK])) for i in range(0, len(bits), _BLOCK))


@pytest.mark.parametrize("repeated", [False, True])
@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_float_columns_match_per_value_writer(n, repeated, monkeypatch, tmp_path):
    # the column as it is, and as strided views: a column of a 2-D array and
    # a reversed one
    col = _column(n, repeated)
    pair = np.column_stack([col, col[::-1]])
    calls = _count_repr(monkeypatch)
    path = tmp_path / "cols.csv"
    _write_csv(path, ["a", "b", "c"], zip(*map(_floats, (col, pair[:, 0], pair[::-1, 1]))))
    assert path.read_bytes() == _reference_csv(["a", "b", "c"], [(v, v, v) for v in col])
    # a mostly repeated column formats each distinct bit pattern of a block
    # once, any other column each value: counting the repr calls guards the
    # saving
    assert len(calls) == 3 * (_distinct_per_block(col) if repeated and n > 1 else n)
    if repeated and n > len(_SPECIALS):
        assert len(calls) < 3 * n / 4


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK])
def test_write_rows_matches_per_value_writer(n, tmp_path):
    # float, str, bool, int and numpy-float columns, and one that mixes
    # floats with ints; no rows writes the header alone
    rng = np.random.default_rng(n)
    values = _wild(rng, n)
    values[::5] = np.nan
    rows = [(float(v), f"label{j % 3}", j % 2 == 0, j - 5, v, float(v) if j % 4 else j)
            for j, v in enumerate(values)]
    header = ["a", "b", "c", "d", "e", "f"]
    path = tmp_path / "rows.csv"
    _write_csv(path, *_rows(header, rows))
    assert path.read_bytes() == _reference_csv(header, rows)


def test_network_tables_match_per_value_writer(tmp_path):
    # labels (str) next to an aF column that is nan for a parallel group,
    # strided to about 2000 times
    run(ExperimentConfig("kelvin-network-I", {}, tmp_path, 0))
    p = EXPERIMENTS["kelvin-network-I"].defaults
    assert p["kelvin.F0"] == 1.0  # the unit-force run is the table
    runs = (("steady", 0.0, p["kelvin.t_end_steady"], p["kelvin.h_steady"]),
            ("oscillatory", 2 * np.pi * p["kelvin.freq_hz"],
             p["kelvin.t_end_osc"], p["kelvin.h_osc"]))
    for tag, omega, t_end, h in runs:
        res = kelvin.network_deform(kelvin.network_one(), omega, t_end, h)
        stride = max(1, len(res.times) // 2000)
        nan = np.full(len(res.times), np.nan)
        rows = [(res.times[j], label, u[j], res.branch_forces.get(label, nan)[j])
                for j in range(0, len(res.times), stride)
                for label, u in res.element_u.items()]
        data = (tmp_path / f"{tag}.csv").read_bytes()
        assert b",actin_pair," in data and b",nan\n" in data
        assert data == _reference_csv(["t", "label", "u", "aF"], rows)


@pytest.mark.parametrize("params", [{}, {"kelvin.F0": -0.3, "kelvin.t_end": 30.0},
                                    {"kelvin.F0": 0.0, "kelvin.t_end": 30.0}])
def test_kelvin_single_table_matches_per_value_writer(params, tmp_path):
    # the network table of one body: u is F0 times the unit-force total
    # deformation and aF the steady force F0, strided to about 2000 times
    run(ExperimentConfig("kelvin-single", params, tmp_path, 0))
    p = {**EXPERIMENTS["kelvin-single"].defaults, **params}
    F0 = p["kelvin.F0"]
    body = kelvin.KelvinBody(p["kelvin.eta1"], p["kelvin.mu01"], p["kelvin.mu11"])
    res = kelvin.network_deform(kelvin.KelvinNetwork((("body1", body),)), 0.0,
                                p["kelvin.t_end"], p["kelvin.h"])
    stride = max(1, len(res.times) // 2000)
    rows = [(res.times[j], "body1", F0 * res.total_u[j], F0)
            for j in range(0, len(res.times), stride)]
    assert (tmp_path / "traj.csv").read_bytes() == \
        _reference_csv(["t", "label", "u", "aF"], rows)


def test_band_without_a_band_writes_the_metrics_header_only(tmp_path):
    run(ExperimentConfig("aerotaxis-band", {"aerotaxis.t_end": 0.1}, tmp_path, 0))
    assert (tmp_path / "metrics.csv").read_bytes() == \
        b"t,width,distance,ratio_front,ratio_behind\n"

# ---------------------------------------------------------------- entry point

def test_main_success_and_exit_codes(tmp_path, capsys):
    code = main(["aerotaxis-quasi", "--out", str(tmp_path / "ok")])
    assert code == 0
    out = capsys.readouterr().out
    assert "d_lo" in out

    code = main(["no-such-exp", "--out", str(tmp_path / "x")])
    assert code == 1

    code = main(["aerotaxis-quasi", "--set", "bogus", "--out", str(tmp_path / "y")])
    assert code == 1


def test_main_numerical_failure_exit_code(tmp_path, capsys):
    # an unstable diffusion number trips the in-step guard
    code = main(["growthcone-rd", "--set", "gc.D1=5.0", "--out", str(tmp_path / "n")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    # the band run's CFL number is guarded by the upwind step alone
    (["aerotaxis-band", "--set", "aerotaxis.v=5"], "CFL number 1.95 exceeds 1"),
    # each kernel guard holds, but the upwind step would turn densities
    # negative: the band run refuses the sum before the first step
    (["aerotaxis-band", "--set", "aerotaxis.v=1"],
     "CFL number 0.39 + reaction number 0.8 exceeds 1"),
    # the same with no sample before the blow-up (the densities used to
    # overflow to NaN before the first kept sample)
    (["aerotaxis-band", "--set", "aerotaxis.v=1", "--set", "aerotaxis.sample_every=3000"],
     "CFL number 0.39 + reaction number 0.8 exceeds 1"),
    # the oxygen overflows to NaN next to the source (it used to be written)
    (["aerotaxis-band", "--set", "aerotaxis.L0=1e308"],
     "r, l or L is negative or not finite at t = 3"),
    # an explicit reaction step too long for the binding (lam k l_hi dt =
    # 100) or the decay (r + lam kd) dt = 2 or 3 is refused before the
    # first step; the runs used to step until M or A turned negative or overflowed
    (["growthcone-rd", "--set", "gc.l_hi=1e4", "--set", "gc.t_end=10"],
     "reaction number 100 exceeds 1"),
    (["growthcone-rd", "--set", "gc.D1=0", "--set", "gc.dt=1"], "reaction number 2 exceeds 1"),
    (["growthcone-rd", "--set", "gc.D1=0", "--set", "gc.dt=1.5"], "reaction number 3 exceeds 1"),
    # the uncoupled two-compartment run is the adaptation run, and refuses
    # its cancelling and its ill-conditioned steps (below) the same way
    (["growthcone-twocomp", "--set", "gc.l1=1e-12", "--set", "gc.l2=1e-12", "--set", "gc.k1=0",
      "--set", "gc.k2=0"], "cancellation: the particular solution (max |Re Y| = 2e+11)"),
    (["growthcone-twocomp", "--set", "gc.l1=1e-100", "--set", "gc.l2=1e-100",
      "--set", "gc.k1=0", "--set", "gc.k2=0"],
     "matrix numerically singular: reciprocal condition number"),
    # the deformations, solved at unit force, overflow once scaled by F0
    (["kelvin-single", "--set", "kelvin.F0=1e308", "--set", "kelvin.mu01=1e-3",
      "--set", "kelvin.eta1=1"], "the deformations at F0 = 1e+308 are not finite"),
    # the rate law overflows at the third ligand level: the first two
    # trajectories used to be written before the run failed
    (["growthcone-switch", "--set", "gc.t_end=0.5", "--set", "gc.Lc=1e308"],
     "non-finite derivative at t=0.0"),
    # A^-1 D of a body this stiff and this fast overflows (it used to warn,
    # then fail with a usage error from expm)
    (["kelvin-single", "--set", "kelvin.eta1=1e-09", "--set", "kelvin.mu01=1e308",
      "--set", "kelvin.mu11=1e308"], "the rate matrix A^-1 D is not finite"),
    # the exact solution's particular part 2e11 cancels against itself while
    # M stays near 81 (this exited 0 with M_end 3.3e-3 off), and at 1e-100
    # the generator is refused by its condition number
    (["growthcone-adaptation", "--set", "gc.l1=1e-12"],
     "cancellation: the particular solution (max |Re Y| = 2e+11)"),
    (["growthcone-adaptation", "--set", "gc.l1=1e-100"],
     "matrix numerically singular: reciprocal condition number"),
])
def test_main_unstable_step_exit_code(argv, message, tmp_path, capsys):
    code = main(argv + ["--out", str(tmp_path / "n")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and message in err
    assert not (tmp_path / "n").exists()


@pytest.mark.parametrize("argv,expect", [
    # well-posed linear systems with small entries: the solve refuses by
    # condition, not by scale (each used to exit 2 on a tiny pivot)
    (["kelvin-single", "--set", "kelvin.eta1=1e-13"], {"u0": 1 / 150, "u_end": 0.02}),
    (["kelvin-single", "--set", "kelvin.eta1=1e-13", "--set", "kelvin.mu01=1e-13",
      "--set", "kelvin.mu11=1e-13"], {"u0": 5e12, "u_end": 1e13}),
    # the smallest ligand step of these whose exact solution keeps 1e-8
    # relative accuracy (gc.l1=1e-12 is refused, see the exit-2 cases)
    (["growthcone-adaptation", "--set", "gc.l1=1e-6"], {}),
    # a reaction step within its limit runs, even where the diffusion number
    # adds up past it (2 nu + reaction number = 1.002 at gc.l_hi=3)
    (["growthcone-rd", "--set", "gc.D1=0", "--set", "gc.dt=0.5"], {}),
    (["growthcone-rd", "--set", "gc.l_hi=3", "--set", "gc.t_end=100"], {}),
])
def test_main_runs_next_to_a_refusal_exit_0(argv, expect, tmp_path, capsys):
    out = tmp_path / "ok"
    code = main(argv + ["--out", str(out)])
    assert code == 0, capsys.readouterr().err
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    for key, value in expect.items():
        assert metrics[key] == pytest.approx(value, rel=1e-12, abs=0), key


def test_main_switch_out_of_steps_exit_code(monkeypatch, tmp_path, capsys):
    # the switch's error-controlled integrator gives up after its step budget
    monkeypatch.setattr(numerics, "DP5_MAX_STEPS", 50)
    code = main(["growthcone-switch", "--out", str(tmp_path / "n")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "out of steps: 50 attempted" in err


def test_main_switch_coarse_sample_spacing_matches_defaults(tmp_path):
    # gc.h is the switch's sample spacing, not its step: a coarse grid
    # samples the same solution (a fixed step of 0.2 drove calcium negative)
    ends = []
    for tag, argv in (("default", []), ("coarse", ["--set", "gc.h=0.2"])):
        out = tmp_path / tag
        assert main(["growthcone-switch", *argv, "--out", str(out)]) == 0
        ends.append(json.loads((out / "summary.json").read_text())["metrics"])
    default, coarse = ends
    assert coarse.keys() == default.keys() == {f"A_end_{i}" for i in range(1, 5)}
    for key, value in default.items():
        assert coarse[key] == pytest.approx(value, rel=1e-7)


@pytest.mark.parametrize("argv,message", [
    ([], "an experiment name or --list is required"),
    (["aerotaxis-quasi", "--seed", "abc"], "invalid int value: 'abc'"),
    (["aerotaxis-band", "--set", "aerotaxis.sample_every=0"], "sample_every must be at least 1"),
    (["growthcone-rd", "--set", "gc.sample_every=-5"], "sample_every must be at least 1"),
    (["aerotaxis-steady-general", "--set", "aerotaxis.k=-1"], "k and s must be positive"),
    (["growthcone-adaptation", "--set", "gc.l0=0"], "l0 must be positive"),
    (["growthcone-switch", "--set", "gc.h=1e-12"], "above the cap of 10000000"),
    (["aerotaxis-montecarlo", "--set", "mc.dt=1e-9"], "8e+10 steps, above the cap"),
    (["aerotaxis-band", "--set", "aerotaxis.t_end=1e9"], "1e+11 steps, above the cap"),
    (["growthcone-rd", "--set", "gc.t_end=1e9"], "1e+11 steps, above the cap"),
    (["growthcone-rd", "--set", "gc.sample_every=1", "--set", "gc.t_end=2000"],
     "200001 kept states of 91 nodes exceed the cap"),
    (["aerotaxis-montecarlo", "--set", "mc.trials=100000000"],
     "n_trials 100000000 is above the cap of 10000000 walkers"),
    (["aerotaxis-montecarlo", "--seed", "-1"],
     "argument --seed: must be a non-negative integer, got -1"),
    (["aerotaxis-steady-general", "--set", "aerotaxis.b0=0"], "k b0 s^2 must be positive"),
    (["aerotaxis-steady-intermediate", "--set", "aerotaxis.b0=0"],
     "k b0 s^2 must be positive"),
    (["aerotaxis-steady-low", "--set", "aerotaxis.b0=0"], "k b0 s^2 must be positive"),
    (["aerotaxis-steady-general", "--set", "aerotaxis.b0=1e-3"], "e^alpha overflows"),
    (["growthcone-bifurcation", "--set", "gc.n=0"], "gc.n must be at least 1, got 0"),
    (["growthcone-bifurcation", "--set", "gc.L_lo=6", "--set", "gc.L_hi=0.05"],
     "need 0 <= L_lo < L_hi"),
    (["growthcone-bifurcation", "--set", "gc.L_lo=-0.5"], "need 0 <= L_lo < L_hi"),
    (["growthcone-bifurcation", "--set", "gc.L_lo=2.5"], "no bistable window found"),
    (["growthcone-rd", "--set", "gc.D1=-0.1"], "diffusivities must be nonnegative"),
    (["growthcone-rd", "--set", "gc.D2=-0.1"], "diffusivities must be nonnegative"),
    (["aerotaxis-steady-intermediate", "--set", "aerotaxis.l_min=0"],
     "intermediate regime needs 0 < l_min < L0 < l_max"),
    (["aerotaxis-montecarlo", "--set", "mc.t_end=0.004"],
     "takes no occupancy sample after the burn-in"),
    (["aerotaxis-montecarlo", "--set", "mc.t_end=1"],
     "no walker was outside the band at any of the 90 occupancy samples"),
    # with no cells the mass drift would divide by zero after writing the CSVs
    (["aerotaxis-band", "--set", "aerotaxis.b0=0", "--set", "aerotaxis.t_end=0.5"],
     "the band run needs b0 > 0, got 0.0"),
    (["growthcone-rd", "--set", "gc.dx=0"], "dx must be positive, got 0.0"),
    (["growthcone-rd", "--set", "gc.length=1e9"], "needs 9e+09 nodes, above the cap of 10000000"),
    (["aerotaxis-quasi", "--set", "aerotaxis.L0_lo=1e308"],
     "d = sqrt(L0 / (k b0)) = inf is out of range"),
    # the adaptation run is the two-compartment run at l2 = l1
    (["growthcone-adaptation", "--set", "gc.l1=-1"],
     "ligands l1 and l2 must be nonnegative, got -1.0, -1.0"),
    # the two-compartment run used to write its trajectory first
    (["growthcone-twocomp", "--set", "gc.l1=-1"],
     "ligands l1 and l2 must be nonnegative, got -1.0, 0.5"),
    (["growthcone-ca-switch", "--set", "gc.a=1e308"], "is not finite"),
    # the normalized responses do not depend on the force, which is gone
    (["kelvin-freq", "--set", "kelvin.F0=1"], "unknown keys for kelvin-freq: ['kelvin.F0']"),
    (["kelvin-network-I", "--set", "kelvin.F0=0"], "the networks need kelvin.F0 > 0, got 0.0"),
    # a walk that would never end in practice
    (["aerotaxis-montecarlo", "--set", "mc.v=1e308"],
     "a walker may take inf events by t = 80.0, above the cap of 10000000"),
    # d, k b0 s^2 and c1 overflow; the profile used to be written as NaN
    (["aerotaxis-steady-general", "--set", "aerotaxis.L0=1e308"],
     "a constant of the general regime is not finite"),
    (["aerotaxis-steady-general", "--set", "aerotaxis.k=1e308"],
     "k b0 s^2 must be positive and finite, got inf"),
    (["aerotaxis-steady-general", "--set", "aerotaxis.k=5e307"],
     "a constant of the general regime is not finite"),
    # a negative initial ligand used to give a negative M and exit 0
    (["growthcone-rd", "--set", "gc.profile=0", "--set", "gc.l_lo=-0.01"],
     "gc.l_lo and gc.l_hi must be positive, got -0.01, 0.03"),
    # s**2 raised OverflowError
    (["aerotaxis-steady-low", "--set", "aerotaxis.s=1e200"],
     "k b0 s^2 must be positive and finite, got inf"),
    # the bandless regime has no upper preferred level (the key was ignored)
    (["aerotaxis-steady-low", "--set", "aerotaxis.l_max=0.5"],
     "unknown keys for aerotaxis-steady-low: ['aerotaxis.l_max']"),
    # the oscillatory run is too short for its peak: both network tables
    # used to be written before the run failed
    (["kelvin-network-I", "--set", "kelvin.t_end_steady=50", "--set", "kelvin.t_end_osc=5",
      "--set", "kelvin.freq_hz=0.5"], "need at least 3 periods, got 2.50"),
    # values at the edges of the doubles: each used to end in a traceback
    # (some only under -W error::RuntimeWarning), or (l_min=-1) in negative
    # lengths with exit 0
    (["aerotaxis-band", "--set", "aerotaxis.b0=5e-324"], "the band run needs b0 > 0, got 5e-324"),
    (["aerotaxis-band", "--set", "aerotaxis.b0=1e308", "--set", "aerotaxis.c_high=1"],
     "with b0 / 2 > 0 and b0 * nodes finite"),
    (["aerotaxis-band", "--set", "aerotaxis.length=1e308"], "dx^2 must be a positive finite"),
    (["aerotaxis-montecarlo", "--set", "mc.wall=1e308"],
     "need 0 < band_half_width < wall_half_width, 2 wall finite"),
    (["growthcone-adaptation", "--set", "gc.l0=5e-324"],
     "the adapted state M = m kd / (r k l0) at l0 = 5e-324 is not finite"),
    (["growthcone-adaptation", "--set", "gc.k=1e308"],
     "a rate coefficient of the linear model is not finite"),
    (["growthcone-bifurcation", "--set", "gc.L_hi=1e308"],
     "the calcium rate is not finite at ligand level L = 1.69"),
    (["aerotaxis-steady-general", "--set", "aerotaxis.l_min=-1"],
     "general regime needs 0 <= l_min <= l_max < L0"),
    # B and c1 overflow; the run used to stop only at the profile
    (["aerotaxis-steady-intermediate", "--set", "aerotaxis.k=1e-320",
      "--set", "aerotaxis.b0=1e308"],
     "a constant of the intermediate regime is not finite: B=inf"),
    (["aerotaxis-steady-intermediate", "--set", "aerotaxis.k=5e-324",
      "--set", "aerotaxis.l_min=5e-324"],
     "a constant of the intermediate regime is not finite: B=4.715353347891798, c1=-inf"),
    # the profile used to overflow to NaN nodes, which the library refused
    (["growthcone-rd", "--set", "gc.l_lo=-1e308", "--set", "gc.l_hi=1e308"],
     "gc.l_lo and gc.l_hi must be positive, got -1e+308, 1e+308"),
    # 3e10 forcing periods would have taken 240 GB of period edges
    (["kelvin-network-I", "--set", "kelvin.freq_hz=1e9"],
     "6001 samples do not resolve 30000000000 periods"),
    # a negative force used to exit 0 with ordering_holds false and a
    # negative osc_over_steady
    (["kelvin-network-I", "--set", "kelvin.F0=-1", "--set", "kelvin.t_end_steady=50",
      "--set", "kelvin.t_end_osc=5"], "the networks need kelvin.F0 > 0, got -1.0"),
    # the oscillatory flow needs a finite positive angular frequency
    (["kelvin-network-I", "--set", "kelvin.freq_hz=0"],
     "kelvin.freq_hz must give 0 < 2 pi freq_hz < inf, got 0.0"),
    (["kelvin-network-II", "--set", "kelvin.freq_hz=-1"],
     "kelvin.freq_hz must give 0 < 2 pi freq_hz < inf, got -1.0"),
    (["kelvin-network-I", "--set", "kelvin.freq_hz=1e308"],
     "kelvin.freq_hz must give 0 < 2 pi freq_hz < inf, got 1e+308"),
    (["growthcone-rd", "--set", "gc.profile=3"],
     "gc.profile must be 0 (uniform), 1 (linear) or 2 (quadratic)"),
    (["kelvin-sweep", "--set", "kelvin.param=4"],
     "kelvin.param must be 0 (mu02), 1 (mu12), 2 (eta12) or 3 (all)"),
    # each used to end in a ZeroDivisionError traceback: the steady state
    # divided by a zero denominator before it refused the coupling, and the
    # rate's denominator (l + b)(Ca + c) underflowed to zero
    (["growthcone-ca-switch", "--set", "gc.l2=0", "--set", "gc.a=-1e308",
      "--set", "gc.k1=0"], "a zero-rate compartment needs k1 > 0 to reach steady state"),
    (["growthcone-ca-switch", "--set", "gc.c=5e-324", "--set", "gc.b=1e-320",
      "--set", "gc.ca_lo=0.0"], "(l + b)(Ca + c) at l = 0.5, Ca = 0.0 is not positive"),
    # gc.La=-1 divided by zero in the ligand terms (exit 2), and gc.Lb=-3
    # wrote trajectories for a negative ligand with exit 0
    (["growthcone-switch", "--set", "gc.La=-1"], "ligand must be nonnegative"),
    (["growthcone-switch", "--set", "gc.Lb=-3"], "ligand must be nonnegative"),
    # a zero ligand made the generator singular (exit 2): M grows without bound
    (["growthcone-adaptation", "--set", "gc.l1=0"],
     "production rates must be nonnegative, not both 0: 0.0, 0.0"),
    (["growthcone-twocomp", "--set", "gc.l1=0", "--set", "gc.k1=0"],
     "a zero-rate compartment needs k1 > 0 to reach steady state"),
    # each parameter type refuses a value outside its domain, named by its field
    (["growthcone-adaptation", "--set", "gc.kd=0"], "kd must be positive, got 0.0"),
    (["growthcone-twocomp", "--set", "gc.k2=-1"], "k2 must be nonnegative, got -1.0"),
    (["growthcone-ca-switch", "--set", "gc.b=0"], "b must be positive, got 0.0"),
    (["kelvin-single", "--set", "kelvin.mu01=0"], "mu01 must be positive, got 0.0"),
    (["aerotaxis-band", "--set", "aerotaxis.D=-1"], "D must be nonnegative, got -1.0"),
    (["aerotaxis-band", "--set", "aerotaxis.c_high=0"], "rates must satisfy 0 <= c_low < c_high"),
    (["aerotaxis-montecarlo", "--set", "mc.v=0"], "v must be positive, got 0.0"),
    # one node used to divide the length by zero before the grid could refuse it
    (["aerotaxis-band", "--set", "aerotaxis.nodes=1"], "grid needs at least 3 nodes, got 1"),
    # 10 nodes put none at the quadratic's peak, so every node stayed
    # positive and the run exited 0 with a profile that never reached l_hi
    (["growthcone-rd", "--set", "gc.profile=2", "--set", "gc.l_lo=0.03", "--set",
      "gc.l_hi=-0.0001", "--set", "gc.dx=1.1111111111111112"],
     "gc.l_lo and gc.l_hi must be positive, got 0.03, -0.0001"),
    (["growthcone-rd", "--set", "gc.profile=2", "--set", "gc.l_lo=0.03", "--set",
      "gc.l_hi=0", "--set", "gc.dx=1.1111111111111112"],
     "gc.l_lo and gc.l_hi must be positive, got 0.03, 0.0"),
    # the band-building estimate wrote B/b0 = inf into quasi.csv
    (["aerotaxis-quasi", "--set", "aerotaxis.L0_hi=1e300", "--set", "aerotaxis.l_max=1e-10",
      "--set", "aerotaxis.k_b0=1"], "B/b0 = inf and c1 = 1e+150 must be finite"),
])
def test_main_usage_error_exit_code(argv, message, tmp_path, capsys):
    code = main(argv + ["--out", str(tmp_path / "u")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "u").exists()



@pytest.mark.parametrize("F0", ["1e-320", "5e-324"])
def test_network_ratio_at_a_subnormal_force_is_the_unit_force_ratio(F0, tmp_path, capsys):
    # osc_over_steady is read from the unit-force runs, so a force whose
    # scaled totals lose digits (or underflow to zero) gives the F0 = 1 ratio
    ratios = []
    for force in (F0, "1"):
        out = tmp_path / force
        code = main(["kelvin-network-I", "--set", f"kelvin.F0={force}", "--set",
                     "kelvin.t_end_steady=50", "--set", "kelvin.t_end_osc=5", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        ratios.append(json.loads((out / "summary.json").read_text())["metrics"]["osc_over_steady"])
    assert ratios[0] == ratios[1]


@pytest.mark.parametrize("argv,level", [
    (["growthcone-adaptation", "--set", "gc.l0=1e-320"], "1e-320"),
    (["growthcone-twocomp", "--set", "gc.l0=1e-320"], "1e-320"),
    # the RD runs used to start and exit 2 with "M or A is negative or not
    # finite at t = 0"
    (["growthcone-rd", "--set", "gc.l_lo=1e-320"], "1e-320"),
    (["growthcone-rd", "--set", "gc.l_lo=5e-324"], "5e-324"),
    # the uniform presentation starts adapted to a ramp from l_lo
    (["growthcone-rd", "--set", "gc.l_lo=1e-320", "--set", "gc.profile=0"], "1e-320"),
])
def test_adapted_state_overflow_exits_1_on_one_line(argv, level, tmp_path, capsys):
    # every growth-cone linear run starts from adaptation_initial_state
    code = main(argv + ["--out", str(tmp_path / "u")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: the adapted state M = m kd / (r k l0) at l0 = {level} is not finite\n")
    assert not (tmp_path / "u").exists()


@pytest.mark.parametrize("argv,message", [
    # both used to end otherwise: the ratio overflowed to inf in result.csv
    # and null in summary.json with exit 0, and c t_a = inf made every turn
    # age 0, so that no walker was ever outside the band
    (["--set", "mc.v=0.1", "--set", "mc.wall=8e307", "--set", "mc.trials=200",
      "--set", "mc.t_end=20"], "the inside/outside ratio inf is not finite (band 1.0, wall 8e+307)"),
    (["--set", "mc.t_a=1e307"], "c t_a must be finite, got c = 50.0 and t_a = 1e+307"),
])
def test_montecarlo_overflow_exits_1_on_one_line(argv, message, tmp_path, capsys):
    code = main(["aerotaxis-montecarlo", *argv, "--out", str(tmp_path / "u")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "u").exists()


def test_strided_table_ends_at_the_final_state(tmp_path):
    # 8,011 samples at stride 4 keep 0, 4, ..., 8,008 and the last, 8,010:
    # the table used to end at t = 800.8 while A_end is taken at t = 801
    out = tmp_path / "ga"
    assert main(["growthcone-adaptation", "--set", "gc.t_end=801", "--out", str(out)]) == 0
    rows = [list(map(float, row.split(","))) for row in
            (out / "traj.csv").read_text().splitlines()[1:]]
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    assert len(rows) == 2004
    assert rows[-2][0] == pytest.approx(800.8)
    assert rows[-1][0] == 801.0 and rows[-1][2] == metrics["A_end"]


def test_main_quadratic_ligand_profile(tmp_path):
    # the quadratic profile peaks at the middle node, and so does A
    out = tmp_path / "rd"
    assert main(["growthcone-rd", "--set", "gc.profile=2", "--set", "gc.t_end=20",
                 "--out", str(out)]) == 0
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    assert metrics["argmax_A"] == metrics["argmax_l"] == 45


def test_main_usage_error_in_runner_leaves_no_output_directory(tmp_path, capsys):
    # the walker cap is checked inside the runner, and no directory is
    # made before the runner has returned
    out = tmp_path / "a" / "b"
    code = main(["aerotaxis-montecarlo", "--set", "mc.trials=100000000", "--out", str(out)])
    assert code == 1
    assert "above the cap of 10000000 walkers" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_main_usage_error_in_runner_keeps_existing_directory(tmp_path, capsys):
    out = tmp_path / "x"
    out.mkdir()
    code = main(["aerotaxis-montecarlo", "--set", "mc.trials=100000000", "--out", str(out)])
    assert code == 1
    assert out.is_dir() and not any(out.iterdir())


# values at and past the edges of the doubles, and a few ordinary ones
_ANY_VALUES = (0.0, 1.0, -1.0, 0.5, 2.0, 10.0, 1e-9, 1e9, 1e-320, 5e-324, 1e308, -1e308)
# keys that set a run's length or resolution stay at FAST_OVERRIDES: the
# 10^7-step cap bounds a run's memory, not its time, so such a key set to
# 1e9 could run for minutes
_LENGTH_KEY = re.compile(r"\.(t_end\w*|dt|h\w*|sample_every|trials|n|nodes|dx|length)$")


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_any_values_give_a_complete_run_or_a_classified_error(name, data):
    # one to three keys at any of the values: the run either exits 0 with its
    # summary.json, or exits 1 or 2 with a one-line message and leaves no
    # output directory; any other exception fails the test
    keys = sorted(k for k in EXPERIMENTS[name].defaults if not _LENGTH_KEY.search(k))
    chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
    params = {**FAST_OVERRIDES.get(name, {}),
              **{k: data.draw(st.sampled_from(_ANY_VALUES), label=k) for k in chosen}}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [name, "--out", str(out), *(a for k, v in params.items()
                                           for a in ("--set", f"{k}={v!r}"))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert (out / "summary.json").is_file()
        else:
            assert code in (1, 2)
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert not out.exists()


@pytest.mark.parametrize("argv", [["--list"], ["list"]])
def test_main_lists_experiments(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.split() == sorted(EXPERIMENTS)


def test_main_reaction_number_exit_code(tmp_path, capsys):
    # dt * c_high = 1.5: the upwind step's reaction-number guard trips
    # before any density turns negative
    code = main(["aerotaxis-band", "--set", "aerotaxis.c_high=150",
                 "--out", str(tmp_path / "n")])
    assert code == 2
    assert "reaction number 1.5 exceeds 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_set_rejects_non_finite_value(value, tmp_path, capsys):
    code = main(["kelvin-single", "--set", f"kelvin.h={value}",
                 "--out", str(tmp_path / "n")])
    assert code == 1
    assert "'kelvin.h' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "n").exists()


def test_parse_config_rejects_non_finite_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kelvin.F0 = 1\nkelvin.t_end = inf\n")
    with pytest.raises(UsageError, match=r":2: value for 'kelvin.t_end' must be finite"):
        parse_config(cfg)


def test_integer_key_rejects_fraction(tmp_path, capsys):
    code = main(["aerotaxis-band", "--set", "aerotaxis.nodes=40.7",
                 "--out", str(tmp_path / "f")])
    assert code == 1
    assert "aerotaxis.nodes must be an integer" in capsys.readouterr().err
    # integral values written as floats are accepted and stored as integers
    summary = run(ExperimentConfig("aerotaxis-band", {"aerotaxis.nodes": 40.0,
                                                      "aerotaxis.t_end": 0.5},
                                   tmp_path / "ok"))
    assert type(summary.config["aerotaxis.nodes"]) is int


def test_integer_keys_are_the_ones_the_readme_lists():
    # a key is an integer key when its registered default is an int, and many
    # defaults come from dataclass fields: a field default written 1 for 1.0
    # would make a new integer key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"The integer keys are(.*?)Their values must be integral", readme, re.S)
    keys = {k for exp in EXPERIMENTS.values() for k, v in exp.defaults.items()
            if isinstance(v, int)}
    assert keys == set(re.findall(r"`([\w.]+)`", listed.group(1)))
    assert len(keys) == 7


def test_main_calls_in_a_row_share_no_state(tmp_path):
    # one parser serves every call: a second call sees only its own options
    key, other = "aerotaxis.L0_lo", "aerotaxis.L0_hi"
    defaults = EXPERIMENTS["aerotaxis-quasi"].defaults
    assert main(["aerotaxis-quasi", "--set", f"{key}=0.9", "--seed", "5",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["aerotaxis-quasi", "--set", f"{other}=0.8",
                 "--out", str(tmp_path / "b")]) == 0
    a, b = (json.loads((tmp_path / d / "summary.json").read_text()) for d in "ab")
    assert (a["seed"], a["config"][key], a["config"][other]) == (5, 0.9, defaults[other])
    assert (b["seed"], b["config"][key], b["config"][other]) == (0, defaults[key], 0.8)
    assert main(["aerotaxis-quasi", "--out", str(tmp_path / "c")]) == 0
    c = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert c["config"] == defaults and c["seed"] == 0


def test_summary_diagnostics_time_the_runner_and_the_tables(tmp_path):
    summary = run(ExperimentConfig("growthcone-adaptation", {"gc.t_end": 10.0}, tmp_path, 0))
    data = json.loads((tmp_path / "summary.json").read_text())
    diag = data["diagnostics"]
    assert diag.keys() == {"runner_s", "csv_s"}
    assert all(math.isfinite(v) and v >= 0 for v in diag.values())
    assert diag["runner_s"] + diag["csv_s"] == pytest.approx(data["wall_time_s"])
    assert data["metrics"] == summary.metrics and "runner_s" not in data["metrics"]


def test_main_set_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("aerotaxis.L0_lo = 0.4\n")
    out = tmp_path / "z"
    code = main(["aerotaxis-quasi", "--config", str(cfg),
                 "--set", "aerotaxis.L0_lo=0.9", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "summary.json").read_text())
    assert data["config"]["aerotaxis.L0_lo"] == 0.9


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only oracle; the CLI's import time must not carry it
    src = str(Path(biosim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, biosim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
