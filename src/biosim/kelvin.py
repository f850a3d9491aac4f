"""Viscoelastic Kelvin-body networks under steady and oscillatory forcing.

A Kelvin body is a spring-dashpot pair in series, in parallel with a
second spring.  Bodies compose in series (forces equal, deformations
add) and in parallel (deformations equal, forces split).  A parallel
group has the state (u, a_1 F, ..., a_{n-1} F); the force-times-
coefficient form keeps the system matrix constant even when the forcing
crosses zero.  A single body is a one-body group, and a network is one
block-diagonal linear system solved exactly by numerics.solve_linear_ode.
Each system is linear in F0, so it is solved at unit force and scaled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import IntegrationError, periodic_solution, solve_linear_ode


@dataclass(frozen=True)
class KelvinBody:
    """Dashpot viscosity eta1, isolated spring mu01, series spring mu11."""

    eta1: float
    mu01: float
    mu11: float

    def __post_init__(self):
        if min(self.eta1, self.mu01, self.mu11) <= 0:
            raise ValueError("all three parameters must be positive")

    def scaled(self, factor: float) -> "KelvinBody":
        return KelvinBody(self.eta1 * factor, self.mu01 * factor, self.mu11 * factor)


def material_params(kind: str) -> KelvinBody:
    """Standard bodies: actin, nucleus, or transmembrane."""
    table = {
        "actin": KelvinBody(5000.0, 50.0, 100.0),
        "nucleus": KelvinBody(10000.0, 200.0, 400.0),
        "transmembrane": KelvinBody(7.5, 100.0, 200.0),
    }
    try:
        return table[kind]
    except KeyError:
        raise ValueError(f"unknown material {kind!r}; know {sorted(table)}") from None


def relaxation_times(b: KelvinBody):
    """(tau_sigma, tau_epsilon): creep and strain relaxation times."""
    tau_sigma = b.eta1 / b.mu01 * (1.0 + b.mu01 / b.mu11)
    tau_epsilon = b.eta1 / b.mu11
    return tau_sigma, tau_epsilon


def convert_micropipette_params(a: float, delta_p: float, L0: float, Ls: float,
                                tau: float):
    """Body parameters from aspiration data.

    a: pipette radius, delta_p: applied pressure, L0/Ls: initial and
    steady deformations, tau: observed relaxation time.  Returns
    (force, KelvinBody); spring constants carry the units of
    force/deformation.
    """
    if min(a, delta_p, L0, Ls, tau) <= 0:
        raise ValueError("inputs must be positive")
    if Ls <= L0:
        raise ValueError("steady deformation must exceed the initial one")
    F = delta_p * math.pi * a * a
    mu01 = F / Ls
    mu11 = F / L0 - mu01
    eta1 = tau * mu01 * mu11 / (mu01 + mu11)
    return F, KelvinBody(eta1, mu01, mu11)


# --------------------------------------------------------------------------
# forcing


@dataclass(frozen=True)
class Forcing:
    """The force F0 cos(omega t); omega = 0 is steady forcing."""

    F0: float
    omega: float = 0.0  # rad/s

    def __post_init__(self):
        if not (math.isfinite(self.F0) and math.isfinite(self.omega)):
            raise ValueError("F0 and omega must be finite")
        if self.omega < 0:
            raise ValueError(f"omega must be nonnegative, got {self.omega!r}")

    @property
    def kind(self) -> str:
        return "steady" if self.omega == 0 else "oscillatory"

    @staticmethod
    def steady(F0: float) -> "Forcing":
        return Forcing(F0)

    @staticmethod
    def oscillatory(F0: float, omega: float) -> "Forcing":
        f = Forcing(F0, omega)
        if f.omega == 0:
            raise ValueError("oscillatory forcing needs omega > 0")
        return f

    def value(self, t):
        return self.F0 * np.cos(self.omega * np.asarray(t, dtype=float))

    @property
    def period(self) -> float:
        if self.omega == 0:
            raise ValueError("period is defined for oscillatory forcing only")
        return 2.0 * math.pi / self.omega


# --------------------------------------------------------------------------
# single body


def single_body_steady_closed_form(b: KelvinBody, F0: float, t):
    """Creep solution under constant force."""
    tau_sigma, tau_epsilon = relaxation_times(b)
    t = np.asarray(t, dtype=float)
    return F0 / b.mu01 * (1.0 - (1.0 - tau_epsilon / tau_sigma)
                          * np.exp(-t / tau_sigma))


@dataclass
class DeformationResult:
    """Per-element deformations, per-branch forces, and their sum."""

    times: np.ndarray
    element_u: dict
    branch_forces: dict
    total_u: np.ndarray


# --------------------------------------------------------------------------
# parallel groups


@dataclass(frozen=True)
class ParallelGroup:
    bodies: tuple

    def __post_init__(self):
        if len(self.bodies) < 1:
            raise ValueError("a group needs at least one body")
        object.__setattr__(self, "bodies", tuple(self.bodies))

    def __len__(self):
        return len(self.bodies)

    @property
    def stiff_sum(self) -> float:
        return sum(b.mu01 + b.mu11 for b in self.bodies)


def parallel_assemble(g: ParallelGroup, F_at_0: float):
    """System matrices for the state (u, a_1 F, ..., a_{n-1} F).

    Row i < n couples body i+1's force share; the last row eliminates the
    nth share via force closure, so a one-body group is the single-body
    equation.  Returns (A, D, c_builder, u0) for A y' = D y + c, where
    c_builder(F, dF) gives c from the force and its rate (or their phasors).
    """
    n = len(g)
    A = np.zeros((n, n))
    D = np.zeros((n, n))
    for i, b in enumerate(g.bodies):
        A[i, 0] = b.eta1 * (1.0 + b.mu01 / b.mu11)
        D[i, 0] = -b.mu01
        if i < n - 1:
            A[i, i + 1] = -b.eta1 / b.mu11
            D[i, i + 1] = 1.0
    last = g.bodies[-1]
    A[n - 1, 1:] = last.eta1 / last.mu11
    D[n - 1, 1:] = -1.0
    lead = last.eta1 / last.mu11

    def c_builder(F, dF):
        c = np.zeros(n, dtype=np.result_type(F, dF, float))
        c[-1] = F + lead * dF
        return c

    u0 = np.zeros(n)
    u0[0] = F_at_0 / g.stiff_sum
    for i, b in enumerate(g.bodies[:-1]):
        u0[i + 1] = u0[0] * (b.mu01 + b.mu11)
    return A, D, c_builder, u0


# --------------------------------------------------------------------------
# metrics


def peak_envelope(times, values, f: Forcing):
    """Per-period maxima of an oscillatory response.

    Requires at least three full periods, and fewer periods than samples;
    the steady peak is the maximum over the last complete period.
    """
    T = f.period
    t_end = float(times[-1])
    n_periods = int(t_end / T)
    if n_periods < 3:
        raise ValueError(f"need at least 3 periods, got {t_end / T:.2f}")
    if n_periods >= len(times):
        raise ValueError(f"{len(times)} samples do not resolve {n_periods} periods")
    values = np.asarray(values)
    # period k holds the samples with k T <= t <= (k + 1) T
    edges = T * np.arange(n_periods + 1)
    starts = np.searchsorted(times, edges[:-1], side="left")
    stops = np.searchsorted(times, edges[1:], side="right")
    filled = stops > starts
    peaks = [float(values[a:b].max()) for a, b in zip(starts[filled], stops[filled])]
    return (np.arange(n_periods)[filled] + 0.5) * T, np.array(peaks)


def steady_peak(times, values, f: Forcing) -> float:
    _, peaks = peak_envelope(times, values, f)
    return float(peaks[-1])


def group_steady_metrics(g: ParallelGroup, f: Forcing):
    """Steady deformation and first-branch force for either flow kind, read
    from the periodic particular solution Re(Y e^{i omega t}) of the group's
    system, which is what every run settles to: Re Y under steady flow and
    the peak over a period, |Y|, under oscillatory flow.  The deformation
    is Y[0] and the first branch's force Y[1]; a one-body group's only
    branch carries the whole forcing, F0."""
    A, D, c_builder, _ = parallel_assemble(g, 1.0)
    Y = periodic_solution(A, D, c_builder(1.0, 1j * f.omega), f.omega)
    force = Y[1] if len(g) > 1 else 1.0
    read, scale = (np.real, f.F0) if f.kind == "steady" else (np.abs, abs(f.F0))
    u, aF = (float(read(y)) * scale for y in (Y[0], force))
    if not (math.isfinite(u) and math.isfinite(aF)):
        raise IntegrationError(f"the steady response to F0 = {f.F0!r} is not finite")
    return {"steady_u": u, "steady_aF": aF}


# the field of the second body that each sweep parameter sets
_SWEPT = {"mu02": "mu01", "mu12": "mu11", "eta12": "eta1"}


def parameter_sweep(base: ParallelGroup, param: str, values,
                    forcings=None):
    """Rows (value, flow_kind, steady_u, steady_aF) as one parameter of the
    second body (or all of them at once) sweeps over values."""
    if len(base) != 2:
        raise ValueError("the sweep is defined for two-body groups")
    if param != "all" and param not in _SWEPT:
        raise ValueError(f"unknown sweep parameter {param!r}")
    if forcings is None:
        forcings = (Forcing.steady(1.0), Forcing.oscillatory(1.0, 2 * math.pi))
    b1, b2 = base.bodies
    rows = []
    for value in values:
        g = ParallelGroup((b1, b2.scaled(value) if param == "all"
                           else replace(b2, **{_SWEPT[param]: value})))
        for f in forcings:
            m = group_steady_metrics(g, f)
            rows.append((float(value), f.kind, m["steady_u"], m["steady_aF"]))
    return rows


def frequency_sweep(g: ParallelGroup, freqs_hz):
    """Rows (freq_hz, norm_u, norm_aF): oscillatory steady peaks divided by
    the steady-flow steady values, which do not depend on the force."""
    ref = group_steady_metrics(g, Forcing.steady(1.0))
    u_ref, aF_ref = ref["steady_u"], ref["steady_aF"]
    rows = []
    for f_hz in freqs_hz:
        m = group_steady_metrics(g, Forcing.oscillatory(1.0, 2 * math.pi * f_hz))
        rows.append((float(f_hz), m["steady_u"] / u_ref, m["steady_aF"] / aF_ref))
    return rows


# --------------------------------------------------------------------------
# networks


@dataclass(frozen=True)
class KelvinNetwork:
    """Series chain of single bodies and parallel groups, with labels."""

    elements: tuple  # of (label, KelvinBody | ParallelGroup)

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("a network needs at least one element")
        object.__setattr__(self, "elements", tuple(self.elements))


def network_one() -> KelvinNetwork:
    actin = material_params("actin")
    return KelvinNetwork((
        ("sensor", material_params("transmembrane")),
        ("actin_pair", ParallelGroup((actin, actin))),
        ("nucleus", material_params("nucleus")),
    ))


def network_two() -> KelvinNetwork:
    actin = material_params("actin")
    return KelvinNetwork((
        ("sensor", material_params("transmembrane")),
        ("actin_pair", ParallelGroup((actin, actin))),
        ("nucleus", material_params("nucleus")),
        ("bundle_pair", ParallelGroup((actin, actin))),
        ("attachment", material_params("transmembrane")),
    ))


def network_deform(net: KelvinNetwork, f: Forcing, t_end: float,
                   h: float = 0.1) -> DeformationResult:
    """Deformation of every series element under the shared forcing, and
    their sum, solved exactly as one block-diagonal linear system (a single
    body is a one-body group) and sampled every h.  Branch forces within
    groups are keyed "<label>/branch<i>"; single bodies carry the full
    forcing."""
    groups = [elem if isinstance(elem, ParallelGroup) else ParallelGroup((elem,))
              for _, elem in net.elements]
    n = sum(len(g) for g in groups)
    A = np.zeros((n, n))
    D = np.zeros((n, n))
    c = np.zeros(n, dtype=complex)
    y0 = np.zeros(n)
    starts = []
    i = 0
    for g in groups:
        Ag, Dg, c_builder, u0 = parallel_assemble(g, 1.0)
        j = i + len(g)
        A[i:j, i:j] = Ag
        D[i:j, i:j] = Dg
        # the phasors of cos(w t) and of its rate are 1 and i w
        c[i:j] = c_builder(1.0, 1j * f.omega)
        y0[i:j] = u0
        starts.append(i)
        i = j
    traj = solve_linear_ode(A, D, c, y0, t_end, h, f.omega)
    with np.errstate(over="ignore"):
        traj.states *= f.F0
    if not np.all(np.isfinite(traj.states)):
        raise IntegrationError(f"the deformations at F0 = {f.F0!r} are not finite")
    F = f.value(traj.times)
    element_u = {}
    branch_forces = {}
    for (label, elem), g, i in zip(net.elements, groups, starts):
        element_u[label] = traj.states[:, i]
        if isinstance(elem, ParallelGroup):
            shares = traj.states[:, i + 1:i + len(g)]
            for k in range(len(g) - 1):
                branch_forces[f"{label}/branch{k + 1}"] = shares[:, k]
            branch_forces[f"{label}/branch{len(g)}"] = F - shares.sum(axis=1)
        else:
            branch_forces[label] = F
    total = np.sum(list(element_u.values()), axis=0)
    return DeformationResult(traj.times, element_u, branch_forces, total)
