"""Outside-in span tracing of biosim's layers.

The wrappers are installed from the benchmark, on the names each consumer
module calls through.  ``kelvin``, ``growthcone`` and ``aerotaxis`` bind the
numerics kernels by name (``from .numerics import rk4_integrate``) and
``cli`` calls ``_write_csv`` as a module global, so a wrapper set only on
``biosim.numerics`` would see nothing: each kernel is wrapped on every
module that binds it.  The ``rhs`` and ``f`` callables handed to
``rk4_integrate`` and ``solve_scalar_root`` become child spans named after
the calling layer, so their time is charged to that layer and counted.

Spans are aggregated in memory per name (calls and self time); a
span's self time is its duration minus the time of its child spans.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from collections import defaultdict

# numerics kernel -> span name
KERNELS = {
    "rk4_integrate": "numerics.rk4",
    "euler_integrate": "numerics.euler",
    "ftcs_diffusion_step": "numerics.ftcs",
    "upwind_advection_reaction_step": "numerics.upwind",
    "solve_scalar_root": "numerics.root",
    "solve_linear_dense": "numerics.linsolve",
    "eig2": "numerics.eig2",
}

LAYERS = ("numerics", "kelvin", "growthcone", "aerotaxis", "cli")


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, self_s]
        self.counts = defaultdict(int)
        self._open = []  # child time gathered so far by each open span

    def wrap(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                rec[0] += 1
                rec[1] += dur - child

        return span

    def calls(self, name) -> int:
        return self.spans.get(name, (0, 0.0))[0]

    def self_s(self, name) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def layer_self_s(self, layer) -> float:
        return sum(rec[1] for name, rec in self.spans.items()
                   if name.startswith(layer + "."))

    def calls_ending(self, suffix) -> int:
        return sum(rec[0] for name, rec in self.spans.items() if name.endswith(suffix))

    # ----------------------------------------------------------------------
    # kernels that take callables or need a count from their arguments

    def _kernel(self, fname, fn, layer):
        if fname == "rk4_integrate":
            def rk4(rhs, *args, **kwargs):
                traj = fn(self.wrap(f"{layer}.rk4_rhs", rhs), *args, **kwargs)
                self.counts["numerics.rk4.steps"] += len(traj) - 1
                return traj
            return self.wrap(KERNELS[fname], rk4)
        if fname == "solve_scalar_root":
            def root(f, *args, **kwargs):
                return fn(self.wrap(f"{layer}.root_f", f), *args, **kwargs)
            return self.wrap(KERNELS[fname], root)
        return self.wrap(KERNELS[fname], fn)

    def _monte_carlo(self, fn):
        sig = inspect.signature(fn)

        def monte_carlo(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            self.counts["aerotaxis.monte_carlo.walker_steps"] += \
                a["cfg"].n_trials * int(round(a["t_end"] / a["dt"]))
            return fn(*args, **kwargs)

        return self.wrap("aerotaxis.monte_carlo", monte_carlo)

    def _write_csv(self, fn):
        def write_csv(path, header, rows):
            rows = list(rows)
            self.counts["cli.csv.rows"] += len(rows)
            return fn(path, header, rows)

        return self.wrap("cli.csv", write_csv)

    def install(self, numerics, models, cli):
        """Wrap the kernels on every consuming module, the public functions
        of each model module, and the CLI's dispatch, runners and CSV
        writer."""
        for mod in (*models, cli):
            layer = mod.__name__.rsplit(".", 1)[-1]
            for fname, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj):
                    continue
                if obj.__module__ == numerics.__name__ and fname in KERNELS:
                    setattr(mod, fname, self._kernel(fname, obj, layer))
                elif (mod is not cli and obj.__module__ == mod.__name__
                      and not fname.startswith("_")):
                    if fname == "monte_carlo_slow_adaptation":
                        setattr(mod, fname, self._monte_carlo(obj))
                    else:
                        setattr(mod, fname, self.wrap(f"{layer}.{fname}", obj))
        cli._write_csv = self._write_csv(cli._write_csv)
        cli.run = self.wrap("cli.run", cli.run)
        cli.main = self.wrap("cli.main", cli.main)
        # the registry holds the runners themselves, not their names
        for name, exp in cli.EXPERIMENTS.items():
            cli.EXPERIMENTS[name] = dataclasses.replace(
                exp, runner=self.wrap("cli.runner", exp.runner))

    # ----------------------------------------------------------------------

    def per_layer(self) -> dict:
        """Per-layer metrics, each ratio next to the count it divides by."""
        rk4_steps = self.counts["numerics.rk4.steps"]
        ftcs_calls = self.calls("numerics.ftcs")
        walker_steps = self.counts["aerotaxis.monte_carlo.walker_steps"]
        out = {
            "numerics.rk4.calls": self.calls("numerics.rk4"),
            "numerics.rk4.steps": rk4_steps,
            "numerics.rk4.rhs_evals": self.calls_ending(".rk4_rhs"),
            "numerics.rk4.self_s": self.self_s("numerics.rk4"),
            "numerics.rk4.us_per_step":
                1e6 * self.self_s("numerics.rk4") / rk4_steps if rk4_steps else 0.0,
            "numerics.ftcs.calls": ftcs_calls,
            "numerics.ftcs.self_s": self.self_s("numerics.ftcs"),
            "numerics.ftcs.us_per_call":
                1e6 * self.self_s("numerics.ftcs") / ftcs_calls if ftcs_calls else 0.0,
            "numerics.upwind.calls": self.calls("numerics.upwind"),
            "numerics.upwind.self_s": self.self_s("numerics.upwind"),
            "numerics.root.calls": self.calls("numerics.root"),
            "numerics.root.f_evals": self.calls_ending(".root_f"),
            "numerics.root.self_s": self.self_s("numerics.root"),
            "numerics.linsolve.calls": self.calls("numerics.linsolve"),
            "numerics.linsolve.self_s": self.self_s("numerics.linsolve"),
            "kelvin.parallel_simulate.calls": self.calls("kelvin.parallel_simulate"),
            "kelvin.single_body_deform.calls": self.calls("kelvin.single_body_deform"),
            "kelvin.group_steady_metrics.self_s": self.self_s("kelvin.group_steady_metrics"),
            "kelvin.peak_envelope.self_s": self.self_s("kelvin.peak_envelope"),
            "growthcone.ca_ac_rhs.calls": self.calls("growthcone.ca_ac_rhs"),
            "growthcone.ca_ac_rhs.self_s": self.self_s("growthcone.ca_ac_rhs"),
            "growthcone.ca_ac_steady_states.calls":
                self.calls("growthcone.ca_ac_steady_states"),
            "growthcone.ca_ac_steady_states.self_s":
                self.self_s("growthcone.ca_ac_steady_states"),
            "growthcone.reaction_diffusion_simulate.self_s":
                self.self_s("growthcone.reaction_diffusion_simulate"),
            "aerotaxis.simulate_band.self_s": self.self_s("aerotaxis.simulate_band"),
            "aerotaxis.turning_rates.self_s": self.self_s("aerotaxis.turning_rates"),
            "aerotaxis.monte_carlo.self_s": self.self_s("aerotaxis.monte_carlo"),
            "aerotaxis.monte_carlo.walker_steps": walker_steps,
            "aerotaxis.monte_carlo.ns_per_walker_step":
                1e9 * self.self_s("aerotaxis.monte_carlo") / walker_steps
                if walker_steps else 0.0,
            "cli.csv.calls": self.calls("cli.csv"),
            "cli.csv.rows": self.counts["cli.csv.rows"],
            "cli.csv.self_s": self.self_s("cli.csv"),
            # cli.run outside the runner: config merge, output directory
            # and summary.json
            "cli.summary.self_s": self.self_s("cli.run"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s(layer)
        return out
