"""Fingerprints of every experiment's output, for the golden test.

Each run of RUNS is recorded as its summary.json metrics and, per CSV, the
sha256 of its bytes, its row count and per-column statistics: min, max,
fsum of the finite values and nan count for a numeric column, the sorted
distinct texts for any other.  tests/test_golden.py reruns the recorded
runs and compares.  Rewrite tests/data/golden.json from the current code
with

    PYTHONPATH=src python tests/golden.py

which prints, for each entry, the largest relative change of every metric
and CSV column against the file it replaces.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from biosim.cli import EXPERIMENTS, ExperimentConfig, run

GOLDEN = Path(__file__).parent / "data" / "golden.json"


def platform_key() -> str:
    """Where CSV bytes are expected to repeat: the same Python, numpy and
    machine."""
    return f"python {platform.python_version()}, numpy {np.__version__}, {platform.machine()}"


def runs() -> list:
    """(id, experiment, params, seed): every experiment at the acceptance
    suite's fast overrides, the band at every step to t = 5, and both field
    runs to t = 5 with a final sample off the stride, the messenger model
    with a diffusing A."""
    from test_acceptance import FAST_OVERRIDES
    out = [(name, name, FAST_OVERRIDES.get(name, {}), 0) for name in sorted(EXPERIMENTS)]
    out.append(("aerotaxis-band-every-step", "aerotaxis-band",
                {"aerotaxis.sample_every": 1, "aerotaxis.t_end": 5.0}, 0))
    out.append(("growthcone-rd-off-stride", "growthcone-rd",
                {"gc.D2": 0.1, "gc.t_end": 5.0, "gc.sample_every": 7}, 0))
    out.append(("aerotaxis-band-off-stride", "aerotaxis-band",
                {"aerotaxis.t_end": 5.0, "aerotaxis.sample_every": 7}, 0))
    return out


def _column(texts: list) -> dict:
    try:
        values = [float(t) for t in texts]
    except ValueError:
        return {"values": sorted(set(texts))}
    kept = [v for v in values if not math.isnan(v)]
    return {"min": min(kept, default=None), "max": max(kept, default=None),
            "sum": math.fsum(v for v in kept if math.isfinite(v)),
            "nan": len(values) - len(kept)}


def fingerprint(path: Path) -> dict:
    data = path.read_bytes()
    header, *rows = list(csv.reader(data.decode().splitlines()))
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": len(rows),
            "columns": {name: _column(list(col))
                        for name, col in zip(header, zip(*rows) if rows else [()] * len(header))}}


def record(experiment: str, params: dict, seed: int, out: Path) -> dict:
    """Run one experiment into out and fingerprint what it wrote."""
    run(ExperimentConfig(experiment, dict(params), out, seed=seed))
    summary = json.loads((out / "summary.json").read_text())
    return {"metrics": summary["metrics"],
            "csv": {p.name: fingerprint(p) for p in sorted(out.glob("*.csv"))}}


def _relative_change(old, new) -> float:
    """|new - old| / max(|old|, |new|), the measure test_golden.py bounds by
    1e-12: 0 for equal values, inf for a change of kind or of text."""
    if old == new:
        return 0.0
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers or math.isnan(old) or math.isnan(new):
        return math.inf
    return abs(new - old) / max(abs(old), abs(new))


def _largest_change(old: list, new: list) -> float:
    """The largest relative change between two lists of values, inf when
    their lengths differ (an item or a statistic came or went)."""
    if len(old) != len(new):
        return math.inf
    return max(map(_relative_change, old, new), default=0.0)


def _items(entry: dict) -> dict:
    """Each metric of an entry and each column of its CSVs, by label, as the
    list of its values: the metric, or the column's statistics."""
    items = {f"metric {key}": [value] for key, value in entry["metrics"].items()}
    for name, fp in entry["csv"].items():
        items[f"{name} rows"] = [fp["rows"]]
        for col, stats in fp["columns"].items():
            items[f"{name} {col}"] = [stats[k] for k in sorted(stats)]
    return items


def report(old_runs: list, new_runs: list) -> list:
    """Lines that give, for each new entry, the largest relative change of
    every metric and CSV column against the old entry of its id, with the
    CSVs whose bytes changed; an entry with no change is one line."""
    before = {e["id"]: e for e in old_runs}
    lines = []
    for entry in new_runs:
        old = before.get(entry["id"])
        if old is None:
            lines.append(f"{entry['id']}: new entry")
            continue
        was, now = _items(old), _items(entry)
        change = {label: _largest_change(was.get(label, []), now.get(label, []))
                  for label in sorted(was.keys() | now.keys())}
        bytes_moved = sorted(name for name, fp in entry["csv"].items()
                             if old["csv"].get(name, {}).get("sha256") != fp["sha256"])
        if not bytes_moved and not any(change.values()):
            lines.append(f"{entry['id']}: unchanged")
            continue
        lines.append(f"{entry['id']}: bytes changed in {', '.join(bytes_moved) or 'no CSV'}; "
                     f"largest relative change {max(change.values()):.2g}")
        lines.extend(f"  {label}: {value:.2g}" for label, value in change.items())
    gone = before.keys() - {e["id"] for e in new_runs}
    lines.extend(f"{rid}: removed" for rid in sorted(gone))
    return lines


def main() -> int:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        entries = [{"id": rid, "experiment": exp, "params": params, "seed": seed,
                    **record(exp, params, seed, Path(tmp) / rid)}
                   for rid, exp, params, seed in runs()]
    old = json.loads(GOLDEN.read_text())["runs"] if GOLDEN.exists() else []
    GOLDEN.write_text(json.dumps({"platform": platform_key(), "runs": entries},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} runs to {GOLDEN}")
    print("\n".join(report(old, entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
