import json
from pathlib import Path

import pytest

from biosim.cli import (
    EXPERIMENTS,
    ExperimentConfig,
    UsageError,
    main,
    parse_config,
    run,
)


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
    # integral values written as floats are accepted
    run(ExperimentConfig("aerotaxis-band", {"aerotaxis.nodes": 40.0,
                                            "aerotaxis.t_end": 0.5}, tmp_path / "ok"))


def test_main_set_overrides_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("aerotaxis.L0_lo = 0.4\n")
    out = tmp_path / "z"
    code = main(["aerotaxis-quasi", "--config", str(cfg),
                 "--set", "aerotaxis.L0_lo=0.9", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "summary.json").read_text())
    assert data["config"]["aerotaxis.L0_lo"] == 0.9
