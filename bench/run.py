"""The biosim benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a biosim checkout; the package is imported from that
checkout's ``src``.  Each workload runs in fresh single-threaded Python
processes (``child.py``), so set-up time and peak memory belong to it.

``--trace 0`` measures the end-to-end metrics: the workload's experiment
list is repeated for about S seconds (at least twice) and the median pass
is reported.  Its wall time is gated in probe units (``probe.py``), which
cancel the speed changes a shared host imposes; the raw wall and CPU
seconds are printed next to it, and ``cpu_per_wall`` rises if hidden
threads appear.  ``setup_s`` is the median import time of biosim.cli in
fresh interpreters, and ``peak_rss_mb`` the workload process's peak RSS.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics from spans the benchmark installs around biosim's
layers (``spans.py``); it also checks that tracing changes no CSV byte and
that the span counts agree with each other and with the config.

Every run's outputs are checked (``workloads.py``); a run fails if it
raises, exits non-zero, fails its check, or writes CSVs whose digest
differs from another pass of the same code.  The last line printed is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# each workload's processes must end within this many seconds of its start
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import biosim.cli as cli\n"
    "n = len(cli.EXPERIMENTS)\n"
    "t = time.perf_counter() - t0\n"
    "import json\n"
    "print(json.dumps({'setup_s': t, 'experiments': n, 'biosim': cli.__file__}))\n"
)

END_TO_END = {"wall_probes": "probes", "cpu_per_wall": "ratio", "setup_s": "s",
              "peak_rss_mb": "MB"}
BENCH_EXPERIMENTS = [step.experiment for w in WORKLOADS.values() for step in w.steps]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("BIOSIM_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _timeout(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("out of time before the next process could start")
    return left


def _check_biosim_path(path: str):
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported biosim from {path}, not from {SRC}")


def setup_samples(env, deadline, count, warm=False) -> list:
    """Import times of biosim.cli in `count` fresh interpreters; with
    `warm`, after one unrecorded import that fills the bytecode cache."""
    samples = []
    for i in range(count + warm):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=_timeout(deadline))
        if proc.returncode != 0:
            raise BenchError(f"importing biosim.cli failed:\n{proc.stderr}")
        info = json.loads(proc.stdout)
        _check_biosim_path(info["biosim"])
        if i or not warm:
            samples.append(info["setup_s"])
    return samples


def run_child(mode, name, seed, seconds, env, workdir, deadline) -> dict:
    report = workdir / f"{name}-{mode}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), mode, name, str(seed), str(seconds),
           str(workdir / f"{name}-{mode}"), str(report)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=_timeout(deadline))
    if proc.returncode != 0:
        raise BenchError(f"workload process for {name} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    data = json.loads(report.read_text())
    _check_biosim_path(data["biosim"])
    return data


def _runs(report):
    return [r for p in report["passes"] for r in p["runs"]]


def _spread(values, what):
    return f"median of {len(values)} {what}: min {min(values):.4g}, max {max(values):.4g}"


def measure(name, seed, seconds, env, workdir, deadline):
    """End-to-end metrics with tracing off."""
    # set-up samples on both sides of the workload, so that they see the
    # same machine as the passes do
    before = setup_samples(env, deadline, SETUP_SAMPLES, warm=True)
    report = run_child("measure", name, seed, seconds, env, workdir, deadline)
    after = setup_samples(env, deadline, SETUP_SAMPLES)
    setup = before + after
    passes = report["passes"]
    work = [p["work"] for p in passes]
    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    ratios = [p["cpu_s"] / p["wall_s"] for p in passes]
    metrics = {
        "wall_probes": statistics.median(work),
        "cpu_per_wall": statistics.median(ratios),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "wall_probes": _spread(work, "passes") + "; wall time / probe loop time",
        "cpu_per_wall": _spread(ratios, "passes"),
        "setup_s": _spread(setup, "fresh interpreters"),
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    # raw times, printed but not gated: on a shared host they move with the
    # load of other tenants
    shown = {"wall_s": (statistics.median(walls), "s", _spread(walls, "passes")),
             "cpu_s": (statistics.median(cpus), "s", _spread(cpus, "passes"))}
    return metrics, notes, shown, _runs(report), [], report["numpy"]


def measure_traced(name, seed, env, workdir, deadline):
    """Per-layer metrics from one traced pass, next to one untraced pass."""
    plain = run_child("plain", name, seed, 0, env, workdir, deadline)
    traced = run_child("trace", name, seed, 0, env, workdir, deadline)
    runs = _runs(plain) + _runs(traced)
    for a, b in zip(_runs(plain), _runs(traced)):
        if a["digest"] != b["digest"]:
            b["problems"].append("traced CSV digest differs from the untraced run")
    layers = dict(traced["per_layer"])
    run_wall = {r["experiment"]: r["wall_s"] for r in _runs(traced)}
    for exp in BENCH_EXPERIMENTS:
        layers[f"cli.run.{exp}.wall_s"] = run_wall.get(exp, 0.0)
    layers["trace.overhead_s"] = (traced["passes"][0]["wall_s"]
                                  - plain["passes"][0]["wall_s"])
    selftest = []
    steps, evals = layers["numerics.rk4.steps"], layers["numerics.rk4.rhs_evals"]
    if evals != 4 * steps:
        selftest.append(f"numerics.rk4.rhs_evals = {evals}, want 4 x {steps} steps")
    if layers["numerics.ftcs.calls"] != traced["implied_ftcs_calls"]:
        selftest.append(f"numerics.ftcs.calls = {layers['numerics.ftcs.calls']}, "
                        f"config implies {traced['implied_ftcs_calls']}")
    notes = {"numerics.rk4.us_per_step": "self time / numerics.rk4.steps",
             "numerics.ftcs.us_per_call": "self time / numerics.ftcs.calls",
             "aerotaxis.monte_carlo.ns_per_walker_step":
                 "self time / aerotaxis.monte_carlo.walker_steps",
             "trace.overhead_s": "traced pass - untraced pass"}
    return layers, notes, {}, runs, selftest, traced["numpy"]


def provenance(numpy_version) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
        except OSError:  # no git on this machine
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_biosim_lines": sum(len(p.read_text().splitlines())
                                for p in sorted((SRC / "biosim").glob("*.py"))),
    }


def run_workload(name, args, env, workdir, deadline) -> dict:
    load = os.getloadavg()
    if args.trace:
        metrics, notes, shown, runs, selftest, numpy_version = measure_traced(
            name, args.seed, env, workdir, deadline)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, notes, shown, runs, selftest, numpy_version = measure(
            name, args.seed, args.seconds, env, workdir, deadline)
        units = END_TO_END
    failed = [r for r in runs if r["problems"]]
    info = {**provenance(numpy_version), "loadavg_at_start": load}

    print(f"workload {name}  seed {args.seed}  trace {args.trace}")
    rows = [(k, v, units[k], notes.get(k)) for k, v in metrics.items()]
    rows += [(k, v, unit, note) for k, (v, unit, note) in shown.items()]
    for key, value, unit, note in rows:
        note = f"  ({note})" if note else ""
        print(f"  {key:<44} {value:>14.6g} {unit}{note}")
    print(f"  {'error_rate':<44} {len(failed) / len(runs):>14.6g}"
          f"  ({len(failed)} failed / {len(runs)} attempted runs)")
    for r in failed:
        for problem in r["problems"]:
            print(f"  FAILED {r['experiment']}: {problem}")
    for problem in selftest:
        print(f"  SELF-TEST FAILED: {problem}")
    print("  info: " + json.dumps(info))
    return {
        "correct": not failed and not selftest,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "biosim" / "cli.py").is_file():
        print(f"error: no biosim sources at {SRC}; run from a biosim checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work"))
    try:
        env = _env()
        results = []
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(name, args, env, workdir, deadline))
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
