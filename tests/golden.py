"""Fingerprints of every experiment's output, for the golden test.

Each run of RUNS is recorded as its summary.json metrics and, per CSV, the
sha256 of its bytes, its row count and per-column statistics: min, max,
fsum of the finite values and nan count for a numeric column, the sorted
distinct texts for any other.  tests/test_golden.py reruns the recorded
runs and compares.  Rewrite tests/data/golden.json from the current code
with

    PYTHONPATH=src python tests/golden.py
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
    suite's fast overrides, and the band at every step to t = 5."""
    from test_acceptance import FAST_OVERRIDES
    out = [(name, name, FAST_OVERRIDES.get(name, {}), 0) for name in sorted(EXPERIMENTS)]
    out.append(("aerotaxis-band-every-step", "aerotaxis-band",
                {"aerotaxis.sample_every": 1, "aerotaxis.t_end": 5.0}, 0))
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


def main() -> int:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        entries = [{"id": rid, "experiment": exp, "params": params, "seed": seed,
                    **record(exp, params, seed, Path(tmp) / rid)}
                   for rid, exp, params, seed in runs()]
    GOLDEN.write_text(json.dumps({"platform": platform_key(), "runs": entries},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} runs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
