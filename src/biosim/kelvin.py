"""Viscoelastic Kelvin-body networks under steady and oscillatory forcing.

A Kelvin body is a spring-dashpot pair in series, in parallel with a
second spring.  Bodies compose in series (forces equal, deformations
add) and in parallel (deformations equal, forces split).  A parallel
group has the state (u, a_1 F, ..., a_{n-1} F); the force-times-
coefficient form keeps the system matrix constant even when the forcing
crosses zero.  A single body is a one-body group, and a network is one
block-diagonal linear system solved exactly by numerics.solve_linear_ode.
Each system is linear in the force, so every function here answers for the
unit force cos(omega t), omega = 0 being steady forcing; a caller scales
the answer by its amplitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import check_domain, check_finite, check_times, periodic_solution, solve_linear_ode


@dataclass(frozen=True)
class KelvinBody:
    """Dashpot viscosity eta1, isolated spring mu01, series spring mu11."""

    eta1: float
    mu01: float
    mu11: float

    def __post_init__(self):
        check_domain(self, positive=("eta1", "mu01", "mu11"))

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
    """(tau_sigma, tau_epsilon): creep and strain relaxation times; ValueError
    unless both are finite."""
    tau_sigma = b.eta1 / b.mu01 + b.eta1 / b.mu11
    tau_epsilon = b.eta1 / b.mu11
    check_finite(f"the relaxation times {tau_sigma!r}, {tau_epsilon!r} are not finite",
                 tau_sigma, tau_epsilon)
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
# single body


def single_body_steady_closed_form(b: KelvinBody, F0: float, t):
    """Creep solution under constant force at the times t; ValueError unless
    every time is finite and nonnegative and so is the solution."""
    tau_sigma, tau_epsilon = relaxation_times(b)
    t = check_times(t)
    # t / tau_sigma may overflow (exp(-inf) is 0), and an infinite F0 / mu01
    # times the zero creep at t = 0 is nan
    with np.errstate(over="ignore", invalid="ignore"):
        u = F0 / b.mu01 * (1.0 - (1.0 - tau_epsilon / tau_sigma) * np.exp(-(t / tau_sigma)))
    check_finite(f"the creep at F0 = {F0!r} is not finite", u)
    return u


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


def parallel_assemble(g: ParallelGroup, omega: float = 0.0):
    """System matrices for the state (u, a_1 F, ..., a_{n-1} F) under the
    unit force cos(omega t).

    Row i < n couples body i+1's force share; the last row eliminates the
    nth share via force closure, so a one-body group is the single-body
    equation.  Returns (A, D, c, u0) for A y' = D y + Re(c e^{i omega t}):
    c is the forcing phasor and u0 the elastic response to the unit force.
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
    # the phasors of the force and of its rate are 1 and i omega
    c = np.zeros(n, dtype=complex)
    c[-1] = 1.0 + last.eta1 / last.mu11 * (1j * omega)
    u0 = np.zeros(n)
    u0[0] = 1.0 / sum(b.mu01 + b.mu11 for b in g.bodies)
    for i, b in enumerate(g.bodies[:-1]):
        u0[i + 1] = u0[0] * (b.mu01 + b.mu11)
    return A, D, c, u0


# --------------------------------------------------------------------------
# metrics


def steady_peak(times, values, omega: float) -> float:
    """Maximum of a response to cos(omega t) over its last complete period,
    the samples with (n - 1) T <= t <= n T for n = int(t_end / T).

    Requires 0 < omega < inf, at least three full periods, and fewer
    periods than samples.
    """
    if not 0 < omega < math.inf:
        raise ValueError(f"a forcing period needs 0 < omega < inf, got {omega!r}")
    T = 2.0 * math.pi / omega
    t_end = float(times[-1])
    n_periods = int(t_end / T)
    if n_periods < 3:
        raise ValueError(f"need at least 3 periods, got {t_end / T:.2f}")
    if n_periods >= len(times):
        raise ValueError(f"{len(times)} samples do not resolve {n_periods} periods")
    start = np.searchsorted(times, (n_periods - 1) * T, side="left")
    stop = np.searchsorted(times, n_periods * T, side="right")
    return float(np.asarray(values)[start:stop].max())


def group_steady_metrics(g: ParallelGroup, omega: float = 0.0):
    """Steady deformation and first-branch force under the unit force
    cos(omega t), read from the periodic particular solution
    Re(Y e^{i omega t}) of the group's system, which is what every run
    settles to: Re Y under steady flow (omega = 0) and the peak over a
    period, |Y|, under oscillatory flow.  The deformation is Y[0] and the
    first branch's force Y[1]; a one-body group's only branch carries the
    whole unit force."""
    A, D, c, _ = parallel_assemble(g, omega)
    Y = periodic_solution(A, D, c, omega)
    read = np.real if omega == 0 else np.abs
    return {"steady_u": float(read(Y[0])),
            "steady_aF": float(read(Y[1])) if len(g) > 1 else 1.0}


# the field of the second body that each sweep parameter sets
_SWEPT = {"mu02": "mu01", "mu12": "mu11", "eta12": "eta1"}


def parameter_sweep(base: ParallelGroup, param: str, values):
    """Rows (value, flow_kind, steady_u, steady_aF) under the steady and the
    1 Hz unit force as one parameter of the second body (or all of them at
    once) sweeps over values."""
    if len(base) != 2:
        raise ValueError("the sweep is defined for two-body groups")
    if param != "all" and param not in _SWEPT:
        raise ValueError(f"unknown sweep parameter {param!r}")
    b1, b2 = base.bodies
    rows = []
    for value in values:
        g = ParallelGroup((b1, b2.scaled(value) if param == "all"
                           else replace(b2, **{_SWEPT[param]: value})))
        for kind, omega in (("steady", 0.0), ("oscillatory", 2 * math.pi)):
            m = group_steady_metrics(g, omega)
            rows.append((float(value), kind, m["steady_u"], m["steady_aF"]))
    return rows


def frequency_sweep(g: ParallelGroup, freqs_hz):
    """Rows (freq_hz, norm_u, norm_aF): oscillatory steady peaks divided by
    the steady-flow steady values, which do not depend on the force."""
    ref = group_steady_metrics(g)
    u_ref, aF_ref = ref["steady_u"], ref["steady_aF"]
    rows = []
    for f_hz in freqs_hz:
        m = group_steady_metrics(g, 2 * math.pi * f_hz)
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


def network_deform(net: KelvinNetwork, omega: float, t_end: float,
                   h: float = 0.1) -> DeformationResult:
    """Deformation of every series element under the shared unit force
    cos(omega t), and their sum, solved exactly as one block-diagonal linear
    system (a single body is a one-body group) and sampled every h.  Branch
    forces within groups are keyed "<label>/branch<i>"; single bodies carry
    the whole force."""
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
        j = i + len(g)
        A[i:j, i:j], D[i:j, i:j], c[i:j], y0[i:j] = parallel_assemble(g, omega)
        starts.append(i)
        i = j
    traj = solve_linear_ode(A, D, c, y0, t_end, h, omega)
    F = np.cos(omega * traj.times)
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
