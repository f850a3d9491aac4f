"""One workload process: drives ``biosim.cli.main`` through the workload's
experiment list and writes a JSON report.

Usage: python3 child.py MODE WORKLOAD SEED SECONDS WORKDIR REPORT

MODE ``measure`` repeats the list until the run has lasted about SECONDS
(at least twice) with the CPU-speed probe running (``probe.py``);
``plain`` runs it once; ``trace`` runs it once with the layer spans of
``spans.py`` installed.  Only the ``cli.main`` calls are timed; digests and
output checks run between them.  The parent process sets the environment
(single-threaded BLAS, ``PYTHONPATH`` on the checkout's ``src``).
"""
from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from probe import Probe
from spans import Tracer
from workloads import WORKLOADS, implied_ftcs_calls


def _read_csvs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def _digest(csvs: dict) -> str:
    h = hashlib.sha256()
    for name, data in csvs.items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


def run_step(cli, step, seed: int, out: Path, probe) -> dict:
    argv = [step.experiment, "--seed", str(seed), "--out", str(out)]
    for key, value in step.sets.items():
        argv += ["--set", f"{key}={value}"]
    problems = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as err:  # a run that raises is a failed run, not a crash
        rc = None
        problems.append(f"raised {type(err).__name__}: {err}")
    t1 = time.perf_counter()
    cpu = time.process_time() - c0
    work, probing = probe.units(t0, t1) if probe else (None, 0.0)
    result = {"experiment": step.experiment, "wall_s": t1 - t0 - probing,
              "cpu_s": cpu - probing, "work": work,
              "digest": None, "csv_bytes": 0, "config": None}
    if rc is not None and rc != 0:
        problems.append(f"exit code {rc}")
    if not problems:
        csvs = _read_csvs(out)
        summary = json.loads((out / "summary.json").read_text())
        result["digest"] = _digest(csvs)
        result["csv_bytes"] = sum(len(data) for data in csvs.values())
        result["config"] = summary["config"]
        if not csvs:
            problems.append("wrote no CSV")
        try:
            problems += step.check(summary["metrics"], summary["config"], csvs)
        except (KeyError, TypeError, ValueError) as err:
            problems.append(f"check could not read the outputs: {err!r}")
    shutil.rmtree(out, ignore_errors=True)
    result["problems"] = problems
    return result


def run_passes(cli, workload, seed, seconds, min_passes, workdir, probe=None):
    passes = []
    digests = {}
    start = time.perf_counter()
    while True:
        runs = [run_step(cli, step, seed, workdir / f"{len(passes)}-{i}", probe)
                for i, step in enumerate(workload.steps)]
        for r in runs:
            if r["digest"] is None:
                continue
            first = digests.setdefault(r["experiment"], r["digest"])
            if r["digest"] != first:
                r["problems"].append("CSV digest differs from an earlier pass")
        passes.append({"wall_s": sum(r["wall_s"] for r in runs),
                       "cpu_s": sum(r["cpu_s"] for r in runs),
                       "work": sum(r["work"] for r in runs) if probe else None,
                       "runs": runs})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        # stop where the run ends closest to SECONDS
        if len(passes) >= min_passes and elapsed + typical / 2 > seconds:
            return passes


def main(argv) -> int:
    mode, name, seed, seconds, workdir, report = argv
    workload = WORKLOADS[name]
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)

    import biosim.cli as cli
    import numpy
    tracer = None
    if mode == "measure":
        with Probe() as probe:
            passes = run_passes(cli, workload, seed, seconds, 2, workdir, probe)
    else:
        if mode == "trace":
            from biosim import aerotaxis, growthcone, kelvin, numerics
            tracer = Tracer()
            tracer.install(numerics, (kelvin, growthcone, aerotaxis), cli)
        passes = run_passes(cli, workload, seed, 0.0, 1, workdir)

    out = {"passes": passes,
           "biosim": cli.__file__,
           "numpy": numpy.__version__,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        layers = tracer.per_layer()
        layers["cli.csv.bytes"] = sum(r["csv_bytes"] for p in passes for r in p["runs"])
        out["per_layer"] = layers
        out["implied_ftcs_calls"] = sum(
            implied_ftcs_calls(r["experiment"], r["config"])
            for p in passes for r in p["runs"] if r["config"] is not None)
    Path(report).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
