"""Growth-cone gradient-sensing models.

A bistable calcium / adenylate-cyclase switch with nullcline and
bifurcation analysis, a two-state perfect-adaptation pathway with its
matched asymptotic solution, two-compartment and reaction-diffusion
spatial variants, and a calcium-modulated production rate that flips the
sign of the steady gradient response.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .numerics import (
    Bracket,
    Grid1D,
    IntegrationError,
    _MAX_SAMPLES,
    StabilityError,
    Trajectory,
    check_domain,
    check_finite,
    check_times,
    dopri5_integrate,
    ftcs_diffusion_step,
    run_fields,
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
        check_domain(self, positive=[f.name for f in fields(self)])
        if not self.Cb < self.Cer:
            raise ValueError("resting calcium must be below store calcium")
        try:
            self.Kr**5
        except OverflowError:
            raise ValueError("Kr**5 must be within the float range") from None


@dataclass
class CaAcState:
    C: float
    A: float

    def __post_init__(self):
        check_domain(self, nonnegative=("C", "A"))


def _switch_law(L, p: CaAcParams):
    """The switch's rate law bound at the ligand level L, a float or an array
    of levels taken elementwise: its ligand terms k0 L / (kn1 + L),
    ka_ratio L and k4 L / (kn2 + L) Cm and the constants of p are formed
    once, and the returned law serves floats and arrays alike.

    law(C, A) is (dC/dt, dA/dt): dC/dt = q + gate L C (Cer - C) / (C + ka_ratio L),
    q the ligand-gated influx minus the store pump plus the relaxation toward
    Cb and the second term the store release at the gate kf + k3 A, and
    dA/dt = gain (At - A) - k5 A.  law(C, None) puts A on the dA/dt = 0 curve,
    At gain / (gain + k5), and returns (dC/dt, A, gain, q, release) there.  A
    gate given as law(C, A, gate) replaces kf + k3 A in the release and dC/dt:
    at gate 1 the release is its coefficient of kf + k3 A.  Where C and L are
    scalars the release is 0 where C + ka_ratio L <= 0; the ndarray callers
    keep C > 0.

    ValueError unless L >= 0 (NaN fails); CaAcParams keeps Kr^5 finite, and
    an overflowing L gives infinite terms."""
    if not np.all(L >= 0):
        raise ValueError("ligand must be nonnegative")
    influx, Kp2, ka_L = p.k0 * L / (p.kn1 + L), p.Kp * p.Kp, p.ka_ratio * L
    act, Kr5 = p.k4 * L / (p.kn2 + L) * p.Cm, p.Kr**5
    k1, k2, k3, k5, kf, Cb, Cer, Cm, At = p.k1, p.k2, p.k3, p.k5, p.kf, p.Cb, p.Cer, p.Cm, p.At
    ndarray = np.ndarray  # a local: the DP5 rhs calls law about 2,000 times per run

    def law(C, A, gate=None):
        C4 = C**4
        gain = act * C4 / (Kr5 + Cm * C4)
        curve = A is None
        if curve:
            A = At * gain / (gain + k5)
        if gate is None:
            gate = kf + k3 * A
        q = influx - k1 * C * C / (Kp2 + C * C) + k2 * (Cb - C)
        den = C + ka_L
        release = (0.0 if den.__class__ is not ndarray and not den > 0
                   else gate * L * C * (Cer - C) / den)
        if curve:
            return q + release, A, gain, q, release
        return q + release, gain * (At - A) - k5 * A

    return law


def ca_ac_rhs(state, L: float, p: CaAcParams):
    """Time derivatives (dC/dt, dA/dt) of the switch at ligand level L, not
    finite where L overflows them; ValueError for a negative or NaN L, or for
    a float state whose rates overflow or divide by zero (C**4, say)."""
    law = _switch_law(L, p)
    C, A = state
    try:
        return law(C, A)
    except ArithmeticError:
        raise ValueError(f"the rates at (C, A) = {tuple(state)!r} are not finite") from None


def ca_ac_simulate(L: float, p: CaAcParams = CaAcParams(), t_end: float = 10.0,
                   h: float = 1e-3, C0: float | None = None,
                   A0: float = 0.0) -> Trajectory:
    """Integrate the switch from the resting state (C = Cb, A = 0) by
    error-controlled Dormand-Prince 5(4), sampled every h: the two-state
    kernel numerics.dopri5_integrate, on the rate law bound once for L.

    Refuses a negative or NaN ligand level L.  Raises IntegrationError naming the
    first sample with a negative concentration; the nonnegative quadrant is
    invariant, so only a negative initial state gets there.
    """
    law = _switch_law(L, p)
    traj = dopri5_integrate(lambda t, C, A: law(C, A),
                            [p.Cb if C0 is None else C0, A0], t_end, h)
    negative = np.flatnonzero((traj.states < 0).any(axis=1))
    if negative.size:
        raise IntegrationError(
            f"negative concentration at t={float(traj.times[negative[0]])!r}")
    return traj


def ca_ac_nullclines(L: float, p: CaAcParams = CaAcParams(), n: int = 400):
    """Both nullclines as A(C) curves on n calcium levels in [1e-3, 8].

    The dC/dt = 0 curve is solved for A (the release term is linear in
    A); the dA/dt = 0 curve is closed form.  The dC curve is nan where it has
    no finite solution (where the release term vanishes, say); ValueError for a
    negative or NaN L or a dA/dt = 0 curve that is not finite.
    """
    C = np.linspace(1e-3, 8.0, n)
    law = _switch_law(L, p)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # q, and at gate 1 the release's coefficient of kf + k3 A
        _, a_a, _, q, g4 = law(C, None, 1.0)
        a_c = np.where(np.abs(g4) > 1e-300, -q / (p.k3 * g4) - p.kf / p.k3, np.nan)
    check_finite(f"the dA/dt = 0 curve is not finite at ligand level L = {L!r}", a_a)
    return C, np.where(np.isfinite(a_c), a_c, np.nan), a_a


def _curve_ligand(C, p: CaAcParams):
    """The steady-state curve L = Lambda(C) over a 1-D array C: the one
    nonnegative root of the cubic in L that is dC/dt on the dA/dt = 0 curve
    times its positive denominators (kn1 + L)(C + ka_ratio L)(kn2 + L)(gain + k5),
    or nan where there is none (at the defaults the curve spans C in
    (0.050, 5.10)).  The cubic's values at L = 0..3 fix its coefficients,
    and its roots are the eigenvalues of its companion matrices."""
    nodes = np.arange(4.0)
    cleared = []
    for L in nodes:
        dC, _, gain, _, _ = _switch_law(L, p)(C, None)
        cleared.append((p.kn1 + L) * (C + p.ka_ratio * L) * (p.kn2 + L) * (gain + p.k5) * dC)
    c = solve_linear_dense(np.vander(nodes, increasing=True), cleared)  # c[k] multiplies L^k
    # near the top of the curve the leading coefficient vanishes: L -> inf
    cubic = np.abs(c[3]) > 1e-14 * np.abs(c).max(axis=0)
    companion = np.tile(np.eye(3, k=-1), (len(C), 1, 1))
    companion[:, :, 2] = -(c[:3] / np.where(cubic, c[3], 1.0)).T
    roots = np.linalg.eigvals(companion)
    # LAPACK returns a real eigenvalue with an imaginary part of exactly 0
    top = np.where((roots.imag == 0) & (roots.real >= 0), roots.real, -np.inf).max(axis=1)
    return np.where(cubic & (top >= 0), top, np.nan)


@functools.cache
def _folds(p: CaAcParams):
    """(C, L) of the folds of the steady-state curve in increasing C: its interior
    extrema on 400 calcium levels, refined as zeros of its central difference."""
    C = np.linspace(1e-6, 8.0, 400)
    dL = np.diff(_curve_ligand(C, p))
    # a nan difference compares false, so an extremum counts only when
    # both its neighbours lie on the curve
    turns = np.flatnonzero(dL[:-1] * dL[1:] < 0) + 1
    slope = lambda c: np.diff(_curve_ligand(np.array([c - 1e-6, c + 1e-6]), p))[0]
    roots = [solve_scalar_root(slope, Bracket(C[i - 1], C[i + 1]), tol=1e-13) for i in turns]
    return tuple((float(c), float(_curve_ligand(np.array([c]), p)[0])) for c in roots)


def ca_ac_steady_states(L: float, p: CaAcParams = CaAcParams()):
    """All steady states with their linear stability, in increasing C.

    The folds of the steady-state curve split [1e-6, 8] into pieces on which
    the curve is monotone, so each holds at most one root of dC/dt on the
    dA/dt = 0 curve; a sign change brackets it (a zero counts at a piece's
    lower end only) and solve_scalar_root refines it.  A state is stable
    when its Jacobian has negative trace and positive determinant.
    """
    edges = [1e-6, *(c for c, _ in _folds(p)), 8.0]
    with np.errstate(over="ignore", invalid="ignore"):
        law = _switch_law(L, p)
        f = lambda c: law(c, None)[0]
        ends = [f(c) for c in edges]
    check_finite(f"the calcium rate is not finite at ligand level L = {float(L)!r}", ends)
    roots = [solve_scalar_root(f, Bracket(lo, hi), tol=1e-13) for lo, hi, f_lo, f_hi
             in zip(edges, edges[1:], ends, ends[1:]) if f_lo == 0.0 or f_lo * f_hi < 0]
    states = [CaAcState(C, law(C, None)[1]) for C in roots]
    return [(st, _is_stable(st.C, st.A, law)) for st in states]


def _is_stable(C, A, law):
    """Both eigenvalues of the 2x2 Jacobian of the rate law at (C, A) have
    negative real part exactly when its trace is negative and its
    determinant positive."""
    columns = []
    for dC, dA in ((1e-6 * max(abs(C), 1.0), 0.0), (0.0, 1e-6 * max(abs(A), 1.0))):
        up, dn = law(C + dC, A + dA), law(C - dC, A - dA)
        columns.append([(u - d) / (2 * (dC + dA)) for u, d in zip(up, dn)])
    (a, c), (b, d) = columns
    return bool(a + d < 0 and a * d - b * c > 0)


def bifurcation_scan(p: CaAcParams, L_values):
    """Steady-state branches over a ligand sweep.

    Returns rows (L, branch, C, A, stable) with branch in
    {low, unstable, high}; single states are classified by comparison
    with half the total cyclase.
    """
    rows = []
    # Python floats: the rate law runs several times faster on them than on
    # numpy scalars, with the same values
    for L in np.asarray(L_values, dtype=float).tolist():
        states = ca_ac_steady_states(L, p)  # in increasing C
        for i, (st, stable) in enumerate(states[:3]):
            lab = (("low", "unstable", "high")[i] if len(states) >= 3
                   else "high" if st.A > p.At / 2 else "low")
            rows.append((L, lab, st.C, st.A, stable))
    return rows


def hysteresis_jumps(p: CaAcParams = CaAcParams(), L_lo: float = 0.05,
                     L_hi: float = 6.0):
    """(L_up, L_down): edges of the bistable window, the highest and lowest
    fold ligand levels of the steady-state curve, clipped to [L_lo, L_hi].

    An upward sweep leaves the low branch at L_up; a downward sweep
    leaves the high branch at L_down.  Raises ValueError unless
    0 <= L_lo < L_hi and the window meets that range.
    """
    if not 0 <= L_lo < L_hi:
        raise ValueError(f"need 0 <= L_lo < L_hi, got L_lo={L_lo!r}, L_hi={L_hi!r}")
    levels = [L for _, L in _folds(p)]
    if len(levels) < 2 or not (min(levels) < L_hi and max(levels) > L_lo):
        raise ValueError("no bistable window found in the scanned range")
    return min(max(levels), L_hi), max(min(levels), L_lo)


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
        check_domain(self, positive=("m", "lam", "k", "kd", "r"))

    def ka(self, l: float) -> float:
        return self.k * l


def adaptation_initial_state(l0, p: AdaptationParams):
    """The standard initial (M, A) = (m kd / (r k l0), m / r), elementwise over an array l0;
    ValueError, naming the lowest level, unless every level is positive with a finite M."""
    l0 = np.asarray(l0, dtype=float)
    low = float(np.min(l0))  # NaN if any level is; M is largest at the lowest level
    if not low > 0:
        raise ValueError(f"initial ligand l0 must be positive, got {low!r}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        M = p.m / p.r * p.kd / p.ka(l0)
    check_finite(f"the adapted state M = m kd / (r k l0) at l0 = {low!r} is not finite", M)
    return np.array([M, np.full_like(M, p.m / p.r)])


def adaptation_simulate(l0: float, l1: float, p: AdaptationParams = AdaptationParams(),
                        t_end: float = 800.0, h: float = 0.1) -> Trajectory:
    """Response of (M, A) to a ligand step l0 -> l1 at t = 0: compartment 1 of
    two_compartment_simulate at l2 = l1 without exchange; raises as it does."""
    traj = two_compartment_simulate(l1, l1, p, CompartmentCoupling(0.0, 0.0), t_end, l0, h)
    return Trajectory(traj.times, traj.states[:, :2])


def adaptation_asymptotic(l0: float, l1: float, p: AdaptationParams, t):
    """Matched two-time-scale solution (M(t), A(t)) of the step response:
    compartment 1 of two_compartment_matched_asymptotic without exchange,
    at l2 = l1 and CompartmentCoupling(0.0, 0.0); warns and raises as it does."""
    out = two_compartment_matched_asymptotic(l0, l1, l1, p, CompartmentCoupling(0.0, 0.0), t)
    return out["M1"], out["A1"]


def adaptation_slow_rate(l1: float, p: AdaptationParams) -> float:
    """Rate r ka / (kd + ka), ka = k l1, at which A returns to m / r after a
    step to l1, in [0, r]; ValueError for l1 < 0 or a rate that is not finite."""
    if not l1 >= 0:
        raise ValueError(f"ligand l1 must be nonnegative, got {l1!r}")
    ka = p.ka(float(l1))  # a Python float overflows to inf without a numpy warning
    rate = p.r * (ka / (p.kd + ka))
    check_finite(f"the slow rate at l1 = {l1!r} is not finite", rate)
    return rate


# --------------------------------------------------------------------------
# two compartments


@dataclass(frozen=True)
class CompartmentCoupling:
    k1: float = 1.0  # exchange of the modified substance
    k2: float = 0.1  # exchange of the activated substance

    def __post_init__(self):
        check_domain(self, nonnegative=("k1", "k2"))


def _adaptation_system(ka1: float, ka2: float, p: AdaptationParams, cpl: CompartmentCoupling):
    """(D, c) of y' = D y + c, the states (M1, A1, M2, A2) at the production rates ka1, ka2:
    M is made at m, M -> A at lam ka, A -> M at lam kd, A decays at r; cpl exchanges the
    two M at k1 and the two A at k2.  ValueError unless every coefficient is finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # a numpy-scalar ka can overflow
        D = np.kron([[-1.0, 1.0], [1.0, -1.0]], np.diag([cpl.k1, cpl.k2]))
        for i, ka in enumerate((ka1, ka2)):
            D[2 * i:2 * i + 2, 2 * i:2 * i + 2] += [[-p.lam * ka, p.lam * p.kd],
                                                    [p.lam * ka, -p.r - p.lam * p.kd]]
    c = np.array([p.m, 0.0, p.m, 0.0])
    check_finite("a rate coefficient of the linear model is not finite", D, c)
    return D, c


def _check_rates(ka1: float, ka2: float, cpl: CompartmentCoupling):
    """ValueError unless the production rates are nonnegative, one is positive
    and a zero-rate compartment has k1 > 0: else an M grows without bound."""
    if not (ka1 >= 0 and ka2 >= 0 and ka1 + ka2 > 0):
        raise ValueError(f"production rates must be nonnegative, not both 0: {ka1!r}, {ka2!r}")
    if cpl.k1 == 0.0 and min(ka1, ka2) == 0.0:
        raise ValueError("a zero-rate compartment needs k1 > 0 to reach steady state")


def two_compartment_simulate(l1: float, l2: float,
                             p: AdaptationParams = AdaptationParams(),
                             cpl: CompartmentCoupling = CompartmentCoupling(),
                             t_end: float = 1000.0, l0: float = 0.1,
                             h: float = 0.1) -> Trajectory:
    """Step both compartments from a common adapted state at l0 to (l1, l2),
    solved exactly and sampled every h.

    States are ordered (M1, A1, M2, A2); ValueError for l1 < 0 or l2 < 0, for rates
    k l1, k l2 that two_compartment_steady refuses and an l0 adaptation_initial_state refuses.
    """
    if not (l1 >= 0 and l2 >= 0):
        raise ValueError(f"ligands l1 and l2 must be nonnegative, got {l1!r}, {l2!r}")
    _check_rates(p.ka(l1), p.ka(l2), cpl)
    y0 = np.tile(adaptation_initial_state(l0, p), 2)  # (M1, A1, M2, A2)
    D, c = _adaptation_system(p.ka(l1), p.ka(l2), p, cpl)
    return solve_linear_ode(np.eye(4), D, c, y0, t_end, h)


def two_compartment_steady(ka1: float, ka2: float, p: AdaptationParams,
                           cpl: CompartmentCoupling):
    """Exact steady state (A1s, A2s, M1s, M2s) for the production rates
    ka1, ka2 >= 0 (at ligand levels pass p.ka(l1), p.ka(l2)); ValueError unless
    one is positive, a zero-rate compartment has k1 > 0 and the state is finite."""
    _check_rates(ka1, ka2, cpl)
    r1 = p.r + p.lam * p.kd
    r2 = p.r + 2 * cpl.k2
    kdiff = ka1 - ka2
    ks = ka1 + ka2
    kp = ka1 * ka2
    denomA = p.lam * r2 * kp + cpl.k1 * ks * (r2 + p.lam * p.kd)
    denomM = r2 * (p.lam * kp + cpl.k1 * ks) + p.lam * p.kd * cpl.k1 * ks
    if not (denomA > 0 and denomM > 0 and p.lam * p.r > 0):
        raise ValueError("a denominator of the steady state underflows to zero")
    base = p.m / p.r
    A1s = base * (1 + r1 * cpl.k1 * kdiff / denomA)
    A2s = base * (1 - r1 * cpl.k1 * kdiff / denomA)
    scale = p.m * r1 / (p.lam * p.r)
    M1s = scale * (r2 * (p.lam * ka2 + 2 * cpl.k1) + 2 * p.lam * p.kd * cpl.k1) / denomM
    M2s = scale * (r2 * (p.lam * ka1 + 2 * cpl.k1) + 2 * p.lam * p.kd * cpl.k1) / denomM
    check_finite(f"the steady state at ka {ka1!r}, {ka2!r} is not finite", A1s, A2s, M1s, M2s)
    return A1s, A2s, M1s, M2s


def optimal_ligand_sum(p: AdaptationParams, cpl: CompartmentCoupling) -> float:
    """Production-rate sum lam r / (k1 (r + lam kd)) past which the gradient
    response is guaranteed to fall off with the overall ligand level."""
    if cpl.k1 <= 0:
        raise ValueError("needs k1 > 0")
    den = cpl.k1 * (p.r + p.lam * p.kd)
    total = p.lam * p.r / den if den > 0 else math.inf
    check_finite(f"the optimal ligand sum at k1 = {cpl.k1!r} is not finite", total)
    return total


def two_compartment_matched_asymptotic(l0: float, l1: float, l2: float,
                                       p: AdaptationParams,
                                       cpl: CompartmentCoupling, t):
    """Four-exponential approximation of the k2 = 0 two-compartment step
    from the adapted state at l0, at the times t >= 0.

    Per-compartment fast relaxations are followed by slow relaxations to
    the limits of the exchange-coupled slow balance.  Valid for a large
    time-scale ratio; a warning is emitted when lam < 5.  Returns a dict
    with M1, A1, M2, A2 arrays and a validity flag that clears when the
    rate separation (r + k1)(ka1 - ka2) / k1 drops below 5; ValueError for
    k2 != 0, a negative or non-finite time, and unless k l0, k l1 and k l2
    are positive and the arrays are finite.
    """
    if cpl.k2 != 0:
        raise ValueError(f"the matched solution needs k2 = 0, got k2 = {cpl.k2!r}")
    t = check_times(t)
    if p.lam < 5:
        warnings.warn("time-scale ratio below 5; matched solution is rough")
    ka0, ka1, ka2 = p.ka(l0), p.ka(l1), p.ka(l2)
    if not (ka0 > 0 and ka1 > 0 and ka2 > 0):
        raise ValueError(f"ligands must be positive, got k l = {(ka0, ka1, ka2)!r}")
    kd, r, k1 = p.kd, p.r, cpl.k1
    valid = k1 == 0 or (r + k1) * abs(ka1 - ka2) / k1 >= 5.0
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        M0, As = adaptation_initial_state(l0, p)
        # the slow balance m - r A_i + k1 (M_j - M_i) = 0 at the fast
        # equilibrium M_i = kd A_i / ka_i gives the slow limits A_end
        c1, c2 = k1 * kd / ka1, k1 * kd / ka2
        for tag, ka, A_end in (("1", ka1, As * ((r + 2 * c2) / (r + c1 + c2))),
                               ("2", ka2, As * ((r + 2 * c1) / (r + c1 + c2)))):
            # the fast transient moves (M0, As) to (M_mid, A_mid)
            A_mid = As * (1 + kd / ka0) / (1 + kd / ka)
            M_mid = As * (kd / ka) * (1 + kd / ka0) / (1 + kd / ka)
            M_end = A_end * kd / ka
            fast = np.exp(-p.lam * (kd + ka) * t)
            slow = np.exp(-(r * ka + k1 * kd) / (kd + ka) * t)
            out["M" + tag] = M_end + (M0 - M_mid) * fast + (M_mid - M_end) * slow
            # A's pulse is grouped as slow - fast so that A(0) = As to rounding
            out["A" + tag] = A_end + (A_mid - A_end) * (slow - fast) + (As - A_end) * fast
    check_finite(f"the matched solution at l = {(l0, l1, l2)!r} is not finite", *out.values())
    out["valid"] = valid
    return out


# --------------------------------------------------------------------------
# reaction-diffusion


def reaction_diffusion_simulate(l_profile, p: AdaptationParams, D1: float,
                                D2: float, grid: Grid1D, t_end: float,
                                l_init=None, sample_every: int = 1000):
    """Spatial adaptation model with diffusing modified substance.

    l_profile is the ligand level per node during the run; l_init (same shape,
    default l_profile) sets the initial (M, A), adaptation_initial_state.  Both
    fields use zero-flux boundaries.  Returns (times, M, A), the fields as
    (samples, nodes) arrays sampled every sample_every steps, always
    including the final state; numerics.run_fields marches and checks
    them, and raises as it says.  Besides, a negative or NaN diffusivity, a
    ligand (l_profile or l_init) not positive everywhere or an initial state
    adaptation_initial_state refuses raises ValueError before the first step,
    and so does StabilityError when the reaction number
    dt * max(r + lam kd, lam k max(l_profile)) exceeds 1.
    """
    if not (D1 >= 0 and D2 >= 0):
        raise ValueError(f"diffusivities must be nonnegative, got D1={D1!r}, D2={D2!r}")
    l_run = np.asarray(l_profile, dtype=float)
    l0 = l_run if l_init is None else np.asarray(l_init, dtype=float)
    if not l_run.shape == l0.shape == (grid.n,):
        raise ValueError("ligand profile must match the grid")
    if not ((l_run > 0).all() and (l0 > 0).all()):
        raise ValueError("ligand must be positive everywhere")
    # dt times the loss rate of M (lam k l) or of A (r + lam kd): past 1, a
    # reaction step can take that field through zero
    rn = grid.dt * max(p.r + p.lam * p.kd, p.lam * p.k * float(l_run.max()))
    if rn > 1 + 1e-12:
        raise StabilityError(f"reaction number {rn:.4g} exceeds 1")
    M, A = adaptation_initial_state(l0, p)
    # dt-scaled coefficients of the Euler step dt (m - ex, ex - r A), ex = lam (k l M - kd A)
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):  # run_fields checks
        bind = dt * p.lam * p.k * l_run
    unbind, make, decay, keep = (np.full(grid.n, c) for c in (
        dt * p.lam * p.kd, dt * p.m, dt * p.r, 1 - dt * p.r))

    def advance(M, A, steps):
        ex, buf = np.empty(grid.n), np.empty(grid.n)
        for _ in range(steps):
            np.multiply(bind, M, ex)
            ex -= np.multiply(unbind, A, buf)
            M = ftcs_diffusion_step(M, D1, grid)
            M += make
            M -= ex
            if D2 > 0:
                np.multiply(decay, A, buf)
                A = ftcs_diffusion_step(A, D2, grid)
                A -= buf
            else:
                A *= keep
            A += ex
        return M, A

    times, (M, A) = run_fields(advance, (M, A), t_end, grid, sample_every, "M or A")
    return times, M, A


def default_rd_grid(length: float = 10.0, dx: float = 1.0 / 9.0,
                    dt: float = 0.01) -> Grid1D:
    """The grid of round(length / dx) + 1 nodes spaced dx; ValueError for
    dx <= 0 or more than numerics._MAX_SAMPLES nodes."""
    if not dx > 0:
        raise ValueError(f"dx must be positive, got {dx!r}")
    # checked before rounding, which fails for an infinite ratio
    if not length / dx < _MAX_SAMPLES:
        raise ValueError(f"length {length!r} at dx {dx!r} needs {length / dx + 1:.3g} "
                         f"nodes, above the cap of {_MAX_SAMPLES}")
    return Grid1D(n=int(round(length / dx)) + 1, dx=dx, dt=dt)


# --------------------------------------------------------------------------
# calcium-modulated production rate


@dataclass(frozen=True)
class SwitchRateParams:
    a: float = 0.01
    b: float = 1.0
    c: float = 1.0
    ca_b: float = 0.2  # baseline calcium

    def __post_init__(self):
        check_domain(self, positive=("b", "c"), finite=("a", "ca_b"))


def calcium_switch_rate(l: float, ca: float, sp: SwitchRateParams) -> float:
    """Production rate exp(a l (Ca - Ca_b) / ((l + b)(Ca + c))).

    Above baseline calcium the rate grows with ligand; below baseline it
    falls, which reverses the steady gradient of the activated substance.
    """
    if l < 0 or ca < 0:
        raise ValueError("ligand and calcium must be nonnegative")
    den = (l + sp.b) * (ca + sp.c)
    if den == 0:  # b, c > 0, but the product can underflow
        raise ValueError(f"(l + b)(Ca + c) at l = {l!r}, Ca = {ca!r} is not positive")
    x = sp.a * l * (ca - sp.ca_b) / den
    # math.exp overflows past the log of the largest float; NaN fails too
    if not x <= math.log(np.finfo(float).max):
        raise ValueError(f"production rate exp({x!r}) is not finite")
    return math.exp(x)


def switch_gradient(l1: float, l2: float, ca: float,
                    sp: SwitchRateParams = SwitchRateParams(),
                    p: AdaptationParams = AdaptationParams(),
                    cpl: CompartmentCoupling = CompartmentCoupling()):
    """Steady two-compartment response when production follows the
    calcium-modulated rate: (ka1, ka2, A1s, A2s, sign of A1s - A2s)."""
    ka1 = calcium_switch_rate(l1, ca, sp)
    ka2 = calcium_switch_rate(l2, ca, sp)
    A1s, A2s, _, _ = two_compartment_steady(ka1, ka2, p, cpl)
    return ka1, ka2, A1s, A2s, float(np.sign(A1s - A2s))

