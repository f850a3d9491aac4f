"""Growth-cone gradient-sensing models.

A bistable calcium / adenylate-cyclase switch with nullcline and
bifurcation analysis, a two-state perfect-adaptation pathway with its
matched asymptotic solution, two-compartment and reaction-diffusion
spatial variants, and a calcium-modulated production rate that flips the
sign of the steady gradient response.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    Bracket,
    Grid1D,
    Trajectory,
    eig2,
    ftcs_diffusion_step,
    rk4_integrate,
    solve_linear_dense,
    solve_linear_ode,
    solve_scalar_root,
)


# --------------------------------------------------------------------------
# calcium / adenylate-cyclase switch


@dataclass(frozen=True)
class CaAcParams:
    """Rate constants of the switch model (concentrations in uM, times in s).

    The defaults are calibrated so that an upward ligand sweep loses the
    low branch near L = 2.3 and a downward sweep loses the high branch
    near L = 0.6, with branch levels near 1.5 and 12 uM.
    """

    k0: float = 7.0       # ligand-gated influx amplitude
    kn1: float = 1.65     # influx half-saturation
    k1: float = 5.0       # store pump amplitude
    Kp: float = 0.15      # pump half-saturation
    k2: float = 10.0      # relaxation toward resting calcium
    Cb: float = 0.1       # resting calcium
    kf: float = 0.01      # baseline store-release flux
    k3: float = 1.0       # feedback of active cyclase on store release
    Cer: float = 7.0      # store calcium
    ka_ratio: float = 2.7  # ligand weight in the release denominator
    k4: float = 2.0       # ligand-gated activation amplitude
    kn2: float = 1.0      # activation half-saturation
    Cm: float = 20.0      # calmodulin scale
    Kr: float = 1.0       # calmodulin half-saturation
    At: float = 20.0      # total cyclase
    k5: float = 1.0       # deactivation rate

    def __post_init__(self):
        for name in ("k0", "kn1", "k1", "Kp", "k2", "Cb", "kf", "k3", "Cer",
                     "ka_ratio", "k4", "kn2", "Cm", "Kr", "At", "k5"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not self.Cb < self.Cer:
            raise ValueError("resting calcium must be below store calcium")


@dataclass
class CaAcState:
    C: float
    A: float

    def __post_init__(self):
        if self.C < 0 or self.A < 0:
            raise ValueError("concentrations must be nonnegative")


def ca_ac_rhs(state, L: float, p: CaAcParams):
    """Time derivatives (dC/dt, dA/dt) of the switch at ligand level L."""
    C, A = state
    influx = p.k0 * L / (p.kn1 + L)
    pump = p.k1 * C * C / (p.Kp * p.Kp + C * C)
    leak = p.k2 * (p.Cb - C)
    den = C + p.ka_ratio * L
    store = (p.kf + p.k3 * A) * L * C * (p.Cer - C) / den if den > 0 else 0.0
    activation = (p.k4 * L / (p.kn2 + L)
                  * p.Cm * C**4 / (p.Kr**5 + p.Cm * C**4)
                  * (p.At - A))
    return influx - pump + leak + store, activation - p.k5 * A


def ca_ac_simulate(L: float, p: CaAcParams = CaAcParams(), t_end: float = 10.0,
                   h: float = 1e-3, C0: float | None = None,
                   A0: float = 0.0) -> Trajectory:
    """Integrate the switch from the resting state (C = Cb, A = 0)."""
    y0 = [p.Cb if C0 is None else C0, A0]
    return rk4_integrate(lambda t, y: np.array(ca_ac_rhs(y, L, p)), y0,
                         0.0, t_end, h)


def _activation_gain(C, L, p: CaAcParams):
    return (p.k4 * L / (p.kn2 + L)) * (p.Cm * C**4) / (p.Kr**5 + p.Cm * C**4)


def ca_ac_nullclines(L: float, p: CaAcParams = CaAcParams(),
                     c_range=(1e-3, 8.0), n: int = 400):
    """Both nullclines as A(C) curves on a shared calcium grid.

    The dC/dt = 0 curve is solved for A (the release term is linear in
    A); the dA/dt = 0 curve is closed form.  Where the release term
    vanishes the dC curve has no finite solution and nan is returned.
    """
    C = np.linspace(c_range[0], c_range[1], n)
    influx = p.k0 * L / (p.kn1 + L)
    pump = p.k1 * C * C / (p.Kp * p.Kp + C * C)
    leak = p.k2 * (p.Cb - C)
    g4 = L * C * (p.Cer - C) / (C + p.ka_ratio * L)
    with np.errstate(divide="ignore", invalid="ignore"):
        a_c = np.where(np.abs(g4) > 1e-300,
                       -(influx - pump + leak) / (p.k3 * g4) - p.kf / p.k3,
                       np.nan)
    gain = _activation_gain(C, L, p)
    a_a = p.At * gain / (gain + p.k5)
    return C, a_c, a_a


def _dc_on_a_nullcline(C, L: float, p: CaAcParams):
    """dC/dt of ca_ac_rhs on the dA/dt = 0 curve, elementwise in C > 0;
    the steady states are its roots."""
    gain = _activation_gain(C, L, p)
    A = p.At * gain / (gain + p.k5)
    influx = p.k0 * L / (p.kn1 + L)
    pump = p.k1 * C * C / (p.Kp * p.Kp + C * C)
    leak = p.k2 * (p.Cb - C)
    store = (p.kf + p.k3 * A) * L * C * (p.Cer - C) / (C + p.ka_ratio * L)
    return influx - pump + leak + store


def _root_brackets(L: float, p: CaAcParams, c_max: float, n_scan: int):
    """Calcium grid and the indices i whose cell [C_i, C_i+1] brackets a
    steady state: a sign change of the nullcline residual, or a zero at C_i."""
    if L < 0:
        raise ValueError("ligand must be nonnegative")
    C = np.linspace(1e-6, c_max, n_scan)
    f = _dc_on_a_nullcline(C, L, p)
    return C, np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0))


def ca_ac_steady_states(L: float, p: CaAcParams = CaAcParams(),
                        c_max: float = 8.0, n_scan: int = 4000):
    """All steady states with their linear stability.

    Roots are bracketed on the dA/dt = 0 curve over an n_scan-point
    calcium grid and refined by bisection; stability comes from the
    eigenvalues of a finite-difference Jacobian.
    """
    C, cells = _root_brackets(L, p, c_max, n_scan)
    states = []
    for i in cells:
        root = solve_scalar_root(lambda c: _dc_on_a_nullcline(c, L, p),
                                 Bracket(C[i], C[i + 1]), tol=1e-13)
        gain = _activation_gain(root, L, p)
        A = p.At * gain / (gain + p.k5)
        states.append((CaAcState(root, A), _is_stable(root, A, L, p)))
    return states


def _is_stable(C, A, L, p):
    J = np.empty((2, 2))
    base = np.array([C, A])
    for j in range(2):
        step = 1e-6 * max(abs(base[j]), 1.0)
        up = base.copy()
        up[j] += step
        dn = base.copy()
        dn[j] -= step
        fu = ca_ac_rhs(up, L, p)
        fd = ca_ac_rhs(dn, L, p)
        J[0, j] = (fu[0] - fd[0]) / (2 * step)
        J[1, j] = (fu[1] - fd[1]) / (2 * step)
    lam1, lam2, _ = eig2(J)
    return max(np.real(lam1), np.real(lam2)) < 0


def bifurcation_scan(p: CaAcParams, L_values):
    """Steady-state branches over a ligand sweep.

    Returns rows (L, branch, C, A, stable) with branch in
    {low, unstable, high}; single states are classified by comparison
    with half the total cyclase.
    """
    rows = []
    for L in L_values:
        states = ca_ac_steady_states(L, p)
        if len(states) >= 3:
            order = sorted(states, key=lambda sa: sa[0].C)
            labels = ["low", "unstable", "high"]
            for (st, stable), lab in zip(order[:3], labels):
                rows.append((float(L), lab, st.C, st.A, stable))
        else:
            for st, stable in states:
                lab = "high" if st.A > p.At / 2 else "low"
                rows.append((float(L), lab, st.C, st.A, stable))
    return rows


def hysteresis_jumps(p: CaAcParams = CaAcParams(), L_lo: float = 0.05,
                     L_hi: float = 6.0, n_scan: int = 200):
    """(L_up, L_down): edges of the bistable window.

    An upward sweep leaves the low branch at L_up; a downward sweep
    leaves the high branch at L_down.
    """
    def bistable(L):
        # counts the brackets of ca_ac_steady_states(L, p, n_scan=1500)
        return len(_root_brackets(L, p, 8.0, 1500)[1]) >= 3

    Ls = np.linspace(L_lo, L_hi, n_scan)
    multi = np.array([bistable(L) for L in Ls])
    if not multi.any():
        raise ValueError("no bistable window found in the scanned range")
    idx = np.where(multi)[0]

    def refine(inside, outside):
        for _ in range(30):
            mid = 0.5 * (inside + outside)
            if bistable(mid):
                inside = mid
            else:
                outside = mid
        return 0.5 * (inside + outside)

    L_down = refine(Ls[idx[0]], Ls[idx[0] - 1]) if idx[0] > 0 else Ls[0]
    L_up = refine(Ls[idx[-1]], Ls[idx[-1] + 1]) if idx[-1] + 1 < n_scan else Ls[-1]
    return L_up, L_down


# --------------------------------------------------------------------------
# perfect adaptation


@dataclass(frozen=True)
class AdaptationParams:
    m: float = 0.1      # production of the modified substance
    lam: float = 5.0    # fast/slow time-scale ratio
    k: float = 0.2      # ligand coupling, k_a(l) = k l
    kd: float = 0.2     # deactivation rate
    r: float = 1.0      # recycling rate

    def __post_init__(self):
        for name in ("m", "lam", "k", "kd", "r"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def ka(self, l: float) -> float:
        return self.k * l


def adaptation_initial_state(l0: float, p: AdaptationParams):
    """Large-lambda steady state used as the standard initial condition."""
    return np.array([p.m / p.r * p.kd / p.ka(l0), p.m / p.r])  # (M, A)


def adaptation_rhs(y, l: float, p: AdaptationParams):
    M, A = y
    ex = p.lam * (p.ka(l) * M - p.kd * A)
    return np.array([p.m - ex, -p.r * A + ex])


def _affine_parts(rhs, n: int):
    """(D, c) of a right-hand side affine in the state, rhs(y) = D y + c."""
    c = np.asarray(rhs(np.zeros(n)), dtype=float)
    D = np.column_stack([np.asarray(rhs(e), dtype=float) - c for e in np.eye(n)])
    return D, c


def adaptation_simulate(l0: float, l1: float, p: AdaptationParams = AdaptationParams(),
                        t_end: float = 800.0, h: float = 0.1) -> Trajectory:
    """Response of (M, A) to a ligand step l0 -> l1 at t = 0, solved
    exactly and sampled every h."""
    D, c = _affine_parts(lambda y: adaptation_rhs(y, l1, p), 2)
    return solve_linear_ode(np.eye(2), D, c, adaptation_initial_state(l0, p), t_end, h)


def adaptation_asymptotic(l0: float, l1: float, p: AdaptationParams, t):
    """Matched two-time-scale solution of the step response.

    Valid for a large time-scale ratio; a warning is emitted when
    lam < 5.  Returns (M(t), A(t)).
    """
    if p.lam < 5:
        warnings.warn("time-scale ratio below 5; matched solution is rough")
    t = np.asarray(t, dtype=float)
    ka0, ka1 = p.ka(l0), p.ka(l1)
    As = p.m / p.r
    rf = p.lam * (p.kd + ka1)
    rs = p.r * ka1 / (p.kd + ka1)
    A1 = As * (1 + p.kd / ka0) / (1 + p.kd / ka1)
    M0 = As * p.kd / ka0
    M1 = As * (p.kd / ka1) * (1 + p.kd / ka0) / (1 + p.kd / ka1)
    M2 = As * p.kd / ka1
    M = M2 + (M0 - M1) * np.exp(-rf * t) + (M1 - M2) * np.exp(-rs * t)
    A = As + (A1 - As) * (np.exp(-rs * t) - np.exp(-rf * t))
    return M, A


def adaptation_slow_rate(l1: float, p: AdaptationParams) -> float:
    return p.r * p.ka(l1) / (p.kd + p.ka(l1))


# --------------------------------------------------------------------------
# two compartments


@dataclass(frozen=True)
class CompartmentCoupling:
    k1: float = 1.0  # exchange of the modified substance
    k2: float = 0.1  # exchange of the activated substance

    def __post_init__(self):
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("exchange rates must be nonnegative")


def two_compartment_rhs(y, ka1, ka2, p: AdaptationParams, cpl: CompartmentCoupling):
    M1, A1, M2, A2 = y
    e1 = p.lam * (ka1 * M1 - p.kd * A1)
    e2 = p.lam * (ka2 * M2 - p.kd * A2)
    jM = cpl.k1 * (M2 - M1)
    jA = cpl.k2 * (A2 - A1)
    return np.array([
        p.m - e1 + jM,
        -p.r * A1 + e1 + jA,
        p.m - e2 - jM,
        -p.r * A2 + e2 - jA,
    ])


def two_compartment_simulate(l1: float, l2: float,
                             p: AdaptationParams = AdaptationParams(),
                             cpl: CompartmentCoupling = CompartmentCoupling(),
                             t_end: float = 1000.0, l0: float = 0.1,
                             h: float = 0.1) -> Trajectory:
    """Step both compartments from a common adapted state at l0 to (l1, l2),
    solved exactly and sampled every h.

    States are ordered (M1, A1, M2, A2).
    """
    M0, A0 = adaptation_initial_state(l0, p)
    y0 = np.array([M0, A0, M0, A0])
    ka1, ka2 = p.ka(l1), p.ka(l2)
    D, c = _affine_parts(lambda y: two_compartment_rhs(y, ka1, ka2, p, cpl), 4)
    return solve_linear_ode(np.eye(4), D, c, y0, t_end, h)


def two_compartment_steady_rates(ka1: float, ka2: float, p: AdaptationParams,
                                 cpl: CompartmentCoupling):
    """Exact steady state (A1s, A2s, M1s, M2s) for given production rates."""
    if ka1 + ka2 <= 0:
        raise ValueError("at least one production rate must be positive")
    r1 = p.r + p.lam * p.kd
    r2 = p.r + 2 * cpl.k2
    kdiff = ka1 - ka2
    ks = ka1 + ka2
    kp = ka1 * ka2
    denomA = p.lam * r2 * kp + cpl.k1 * ks * (r2 + p.lam * p.kd)
    base = p.m / p.r
    A1s = base * (1 + r1 * cpl.k1 * kdiff / denomA)
    A2s = base * (1 - r1 * cpl.k1 * kdiff / denomA)
    denomM = r2 * (p.lam * kp + cpl.k1 * ks) + p.lam * p.kd * cpl.k1 * ks
    if cpl.k1 == 0.0 and kp == 0.0:
        raise ValueError("a zero-rate compartment needs k1 > 0 to reach steady state")
    if cpl.k1 == 0.0:
        M1s = base * r1 / (p.lam * ka1)
        M2s = base * r1 / (p.lam * ka2)
    else:
        M1s = (p.m * r1 / (p.lam * p.r)
               * (r2 * (p.lam * ka2 + 2 * cpl.k1) + 2 * p.lam * p.kd * cpl.k1)
               / denomM)
        M2s = (p.m * r1 / (p.lam * p.r)
               * (r2 * (p.lam * ka1 + 2 * cpl.k1) + 2 * p.lam * p.kd * cpl.k1)
               / denomM)
    return A1s, A2s, M1s, M2s


def two_compartment_steady(l1: float, l2: float,
                           p: AdaptationParams = AdaptationParams(),
                           cpl: CompartmentCoupling = CompartmentCoupling()):
    return two_compartment_steady_rates(p.ka(l1), p.ka(l2), p, cpl)


def optimal_ligand_sum(p: AdaptationParams, cpl: CompartmentCoupling) -> float:
    """Production-rate sum lam r / (k1 (r + lam kd)) past which the gradient
    response is guaranteed to fall off with the overall ligand level."""
    if cpl.k1 <= 0:
        raise ValueError("needs k1 > 0")
    return p.lam * p.r / (cpl.k1 * (p.r + p.lam * p.kd))


def two_compartment_matched_asymptotic(l0: float, l1: float, l2: float,
                                       p: AdaptationParams,
                                       cpl: CompartmentCoupling, t):
    """Four-exponential approximation of the k2 = 0 two-compartment step.

    Per-compartment fast relaxations are followed by two coupled slow
    modes; the slow offsets come from a direct 2x2 solve.  Returns a dict
    with M1, A1, M2, A2 arrays and a validity flag that clears when the
    rate separation (r + k1)(ka1 - ka2) / k1 drops below 5.
    """
    t = np.asarray(t, dtype=float)
    ka0, ka1, ka2 = p.ka(l0), p.ka(l1), p.ka(l2)
    kd, r, k1 = p.kd, p.r, cpl.k1
    As = p.m / r
    valid = k1 == 0 or (r + k1) * abs(ka1 - ka2) / k1 >= 5.0

    D = np.array([
        [-(r * ka1 + k1 * kd) / (kd + ka1), k1 * kd / (kd + ka1)],
        [k1 * kd / (kd + ka2), -(r * ka2 + k1 * kd) / (kd + ka2)],
    ])
    hvec = np.array([p.m * kd / (kd + ka1), p.m * kd / (kd + ka2)])
    d1, d2 = solve_linear_dense(D, hvec)

    out = {}
    for tag, ka, dclose in (("1", ka1, d1), ("2", ka2, d2)):
        rf = p.lam * (kd + ka)
        rs = (r * ka + k1 * kd) / (kd + ka)
        A1c = As * (1 + kd / ka0) / (1 + kd / ka)
        M0c = As * kd / ka0
        M1c = As * (kd / ka) * (1 + kd / ka0) / (1 + kd / ka)
        fast = np.exp(-rf * t)
        slow = np.exp(-rs * t)
        out["M" + tag] = (M0c - M1c) * fast + (M1c + dclose) * slow - dclose
        out["A" + tag] = (As - A1c) * fast + (ka / kd) * ((M1c + dclose) * slow - dclose)
    out["valid"] = valid
    return out


# --------------------------------------------------------------------------
# reaction-diffusion


def reaction_diffusion_simulate(l_profile, p: AdaptationParams, D1: float,
                                D2: float, grid: Grid1D, t_end: float,
                                l_init=None, sample_every: int = 1000):
    """Spatial adaptation model with diffusing modified substance.

    l_profile is the ligand level per node during the run; l_init (same
    shape, default l_profile) sets the adapted initial condition.  Both
    fields use zero-flux boundaries.  Returns (times, M list, A list).
    """
    l_run = np.asarray(l_profile, dtype=float)
    if l_run.shape != (grid.n,):
        raise ValueError("ligand profile must match the grid")
    if (l_run <= 0).any():
        raise ValueError("ligand must be positive everywhere")
    l0 = l_run if l_init is None else np.asarray(l_init, dtype=float)
    A = np.full(grid.n, p.m / p.r)
    M = p.m / p.r * p.kd / (p.k * l0)
    ka = p.k * l_run
    steps = int(round(t_end / grid.dt))
    times = [0.0]
    Ms, As = [M.copy()], [A.copy()]
    for step in range(1, steps + 1):
        ex = p.lam * (ka * M - p.kd * A)
        dM = p.m - ex
        dA = -p.r * A + ex
        M = ftcs_diffusion_step(M, D1, grid) + grid.dt * dM
        if D2 > 0:
            A = ftcs_diffusion_step(A, D2, grid) + grid.dt * dA
        else:
            A = A + grid.dt * dA
        if step % sample_every == 0 or step == steps:
            times.append(step * grid.dt)
            Ms.append(M.copy())
            As.append(A.copy())
    return np.array(times), Ms, As


def default_rd_grid(length: float = 10.0, dx: float = 1.0 / 9.0,
                    dt: float = 0.01) -> Grid1D:
    n = int(round(length / dx)) + 1
    return Grid1D(n=n, dx=dx, dt=dt)


# --------------------------------------------------------------------------
# calcium-modulated production rate


@dataclass(frozen=True)
class SwitchRateParams:
    a: float = 0.01
    b: float = 1.0
    c: float = 1.0
    ca_b: float = 0.2  # baseline calcium

    def __post_init__(self):
        if self.b <= 0 or self.c <= 0:
            raise ValueError("b and c must be positive")


def calcium_switch_rate(l: float, ca: float, sp: SwitchRateParams) -> float:
    """Production rate exp(a l (Ca - Ca_b) / ((l + b)(Ca + c))).

    Above baseline calcium the rate grows with ligand; below baseline it
    falls, which reverses the steady gradient of the activated substance.
    """
    if l < 0 or ca < 0:
        raise ValueError("ligand and calcium must be nonnegative")
    return math.exp(sp.a * l * (ca - sp.ca_b) / ((l + sp.b) * (ca + sp.c)))


def switch_gradient(l1: float, l2: float, ca: float,
                    sp: SwitchRateParams = SwitchRateParams(),
                    p: AdaptationParams = AdaptationParams(),
                    cpl: CompartmentCoupling = CompartmentCoupling()):
    """Steady two-compartment response when production follows the
    calcium-modulated rate: (ka1, ka2, A1s, A2s, sign of A1s - A2s)."""
    ka1 = calcium_switch_rate(l1, ca, sp)
    ka2 = calcium_switch_rate(l2, ca, sp)
    A1s, A2s, _, _ = two_compartment_steady_rates(ka1, ka2, p, cpl)
    return ka1, ka2, A1s, A2s, float(np.sign(A1s - A2s))


def switch_gradient_sign(l1: float, l2: float, ca: float,
                         sp: SwitchRateParams = SwitchRateParams(),
                         p: AdaptationParams = AdaptationParams(),
                         cpl: CompartmentCoupling = CompartmentCoupling()) -> float:
    """Sign of A1s - A2s when production follows the calcium-modulated rate."""
    return switch_gradient(l1, l2, ca, sp, p, cpl)[-1]
