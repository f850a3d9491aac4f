"""Every experiment's CSVs and summary metrics against tests/data/golden.json.

Row counts and texts must match exactly, numbers to a relative 1e-12, and
the CSV bytes too (by sha256) where the platform key matches the one the
file was written on.  tests/golden.py rewrites the file.
"""
import json
import math

import pytest

from golden import GOLDEN, platform_key, record

_GOLDEN = json.loads(GOLDEN.read_text())


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("entry", _GOLDEN["runs"], ids=[e["id"] for e in _GOLDEN["runs"]])
def test_outputs_match_the_golden_file(entry, tmp_path):
    got = record(entry["experiment"], entry["params"], entry["seed"], tmp_path)
    assert got["csv"].keys() == entry["csv"].keys()
    for name, want in entry["csv"].items():
        have = got["csv"][name]
        assert have["rows"] == want["rows"], name
        for col, stats in want["columns"].items():
            assert _same(have["columns"][col], stats), (name, col, have["columns"][col], stats)
        if _GOLDEN["platform"] == platform_key():
            assert have["sha256"] == want["sha256"], name
    for key, want in entry["metrics"].items():
        assert _same(got["metrics"][key], want), (key, got["metrics"][key], want)
    assert got["metrics"].keys() == entry["metrics"].keys()
