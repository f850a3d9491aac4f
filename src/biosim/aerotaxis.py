"""Aerotactic band formation in a capillary.

A two-speed advection-reaction model for right- and left-moving bacteria
coupled to a diffusing, consumed oxygen field, plus the matching
steady-state and quasi-steady-state algebra, a Monte-Carlo comparator for
slow turning-rate adaptation, the drift-diffusion reduction of the
telegraph system, and a two-part receptor ("piston") toy model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import (
    Bracket,
    Grid1D,
    Trajectory,
    _field_steps,
    _step_count,
    _step_times,
    ftcs_diffusion_step,
    solve_scalar_root,
    upwind_advection_reaction_step,
)


# --------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class TurningThresholds:
    """Oxygen levels and rates defining the piecewise turning functions.

    The band is preferred between l_min and l_max; lt_min and lt_max are
    the outer detection thresholds.  c_low is the small in-band rate,
    c_high the large out-of-band rate.
    """

    lt_min: float
    l_min: float
    l_max: float
    lt_max: float
    c_low: float
    c_high: float

    def __post_init__(self):
        if not (0 <= self.lt_min < self.l_min < self.l_max < self.lt_max):
            raise ValueError("thresholds must satisfy 0 <= lt_min < l_min < l_max < lt_max")
        if not (0 <= self.c_low < self.c_high):
            raise ValueError("rates must satisfy 0 <= c_low < c_high")


@dataclass(frozen=True)
class AerotaxisParams:
    """Nondimensional parameters of the band-formation run."""

    v: float = 0.2
    D: float = 0.01
    kappa: float = 0.018
    L0: float = 1.0
    b0: float = 1.0
    grid: Grid1D = field(default_factory=lambda: Grid1D(n=40, dx=1.0 / 39.0, dt=0.01))
    thresholds: TurningThresholds = field(
        default_factory=lambda: TurningThresholds(0.2, 0.35, 0.45, 0.7, 0.0, 80.0)
    )

    def __post_init__(self):
        for name in ("v", "D", "kappa", "L0", "b0"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
class CellField:
    """Right-movers, left-movers and oxygen on the grid."""

    r: np.ndarray
    l: np.ndarray
    L: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.l = np.asarray(self.l, dtype=float)
        self.L = np.asarray(self.L, dtype=float)
        if not (len(self.r) == len(self.l) == len(self.L)):
            raise ValueError("fields must share the grid")
        if (self.r < 0).any() or (self.l < 0).any() or (self.L < 0).any():
            raise ValueError("fields must be nonnegative")

    @property
    def density(self) -> np.ndarray:
        return self.r + self.l

    def total(self, dx: float) -> float:
        return float(self.density.sum()) * dx


@dataclass
class BandMetrics:
    has_band: bool
    width_h: float = float("nan")
    distance_d: float = float("nan")
    ratio_front: float = float("nan")
    ratio_behind: float = float("nan")
    formation_time: float = float("nan")


@dataclass
class SteadyStateSolution:
    """Piecewise steady profile constants for one oxygen regime.

    Lengths d (front), h (band) and z (depletion tail) are measured in the
    same unit as the run length s; lam is exp(z / s).
    """

    regime: str
    B: float
    c1: float
    c2: float
    c3: float
    d: float
    h: float
    z: float
    s: float
    k: float
    lam: float
    L0: float
    l_min: float
    l_max: float

    def oxygen(self, x) -> np.ndarray:
        """Evaluate the reconstructed piecewise oxygen profile."""
        x = np.asarray(x, dtype=float)
        kB, s = self.k * self.B, self.s
        d, h, z = self.d, self.h, self.z
        out = np.zeros_like(x)
        if self.regime == "general":
            front = x <= d
            out[front] = (
                self.L0 - self.c1 * x[front]
                + kB * s**2 * (np.exp((x[front] - d) / s) - math.exp(-d / s))
            )
            band = (x > d) & (x <= d + h)
            xi = x[band] - d
            out[band] = self.l_max - self.c2 * xi + 0.5 * kB * xi**2
            tail = (x > d + h) & (x <= d + h + z)
            xi = x[tail] - d - h
            out[tail] = self.l_min - self.c3 * xi + kB * s**2 * (np.exp(-xi / s) - 1.0)
        elif self.regime == "intermediate":
            band = x <= h
            out[band] = self.L0 + self.c1 * x[band] + 0.5 * kB * x[band] ** 2
            tail = (x > h) & (x <= h + z)
            xi = x[tail] - h
            out[tail] = (self.l_min + self.c2 * xi
                         + kB * s**2 * (np.exp(-xi / s) - 1.0))
        else:  # low: a single depletion layer, no band
            layer = x <= z
            out[layer] = (self.L0 + self.c1 * x[layer]
                          + kB * s**2 * (np.exp(-x[layer] / s) - 1.0))
        return out


@dataclass(frozen=True)
class MonteCarloConfig:
    """Biased random-walk comparator settings.

    t_a is the adaptation (memory) time of the turning-rate pulse fired
    when a walker exits the favourable band.  t_a = 0 selects the
    instant-adaptation limit: the rate tracks the current stimulus with
    no lag, so a walker receding from the band turns at rate c and an
    approaching one does not turn at all.
    """

    v: float = 1.0
    c: float = 50.0
    t_a: float = 0.02
    band_half_width: float = 1.0
    wall_half_width: float = 2.0
    n_trials: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.band_half_width < self.wall_half_width:
            raise ValueError("need 0 < band_half_width < wall_half_width")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.n_trials > numerics._MAX_SAMPLES:
            raise ValueError(f"n_trials {self.n_trials} is above the cap of "
                             f"{numerics._MAX_SAMPLES} walkers")
        if not (self.v > 0 and self.c >= 0 and self.t_a >= 0):
            raise ValueError("need v > 0, c >= 0 and t_a >= 0")


@dataclass(frozen=True)
class PistonParams:
    """Two-part receptor: fast part tracks the driving signal, slow part lags."""

    z_f0: float = 0.0
    delta_z: float = 1.0
    c0: float = 1.0
    c1: float = 1.0
    k: float = 1.0
    tau: float = 0.5
    lock_tol: float = 0.05

    def __post_init__(self):
        if self.tau <= 0 or self.delta_z <= 0 or self.lock_tol <= 0:
            raise ValueError("tau, delta_z and lock_tol must be positive")


# --------------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class CharacteristicScales:
    """Unit choices: 2 mm, 10 s, 1 uM/ml oxygen, 2e7 cells/ml bacteria."""

    length_m: float = 2e-3
    time_s: float = 10.0
    oxygen_uM_per_ml: float = 1.0
    bacteria_per_ml: float = 2e7


def nondimensionalize(speed_m_per_s: float, diffusivity_m2_per_s: float,
                      turning_rate_per_s: float, consumption_uM_per_cell_s: float,
                      scales: CharacteristicScales = CharacteristicScales()):
    """Convert dimensional inputs to the model's nondimensional set.

    Speed scales by time/length, diffusivity by time/length^2, rates by
    time, and consumption as kappa = k * t0 * b0 / L0.
    """
    for val in (speed_m_per_s, diffusivity_m2_per_s, turning_rate_per_s,
                consumption_uM_per_cell_s):
        if val <= 0:
            raise ValueError("dimensional inputs must be positive")
    x0, t0 = scales.length_m, scales.time_s
    return {
        "v": speed_m_per_s * t0 / x0,
        "D": diffusivity_m2_per_s * t0 / x0**2,
        "turning": turning_rate_per_s * t0,
        "kappa": consumption_uM_per_cell_s * t0 * scales.bacteria_per_ml
        / scales.oxygen_uM_per_ml,
    }


# --------------------------------------------------------------------------
# turning rates and the PDE run


def turning_rates(L, th: TurningThresholds):
    """Piecewise-constant turning-rate pair (f_rl, f_lr) at oxygen level L.

    Bins are half-open, [lo, hi).  The pair is written for an axis that
    points from the closed end of the capillary toward the oxygen source.
    """
    L = np.asarray(L, dtype=float)
    c, C = th.c_low, th.c_high
    # bin i holds thresholds[i-1] <= L < thresholds[i]; NaN sorts into the last
    bins = np.searchsorted((th.lt_min, th.l_min, th.l_max, th.lt_max), L, side="right")
    f_rl = np.array((C, c, c, C, C), dtype=float)[bins]
    f_lr = np.array((C, C, c, c, C), dtype=float)[bins]
    if L.ndim == 0:
        return float(f_rl), float(f_lr)
    return f_rl, f_lr


def simulate_band(params: AerotaxisParams, t_end: float = 30.0,
                  sample_every: int = 100):
    """Run the band-formation model from the standard initial state.

    Starts from uniform bacteria (r = l = b0/2) and oxygen L0 held at node
    0, zero elsewhere.  Returns (times, list of CellField) sampled every
    sample_every steps, always including the final state.  The upwind and
    FTCS steps raise StabilityError on an unstable grid; more than
    numerics._MAX_SAMPLES steps or kept node values raise ValueError before
    the first step.
    """
    grid = params.grid
    steps = _field_steps(t_end, grid, sample_every)
    n = grid.n
    r = np.full(n, params.b0 / 2)
    l = np.full(n, params.b0 / 2)
    L = np.zeros(n)
    L[0] = params.L0
    times = [0.0]
    fields = [CellField(r.copy(), l.copy(), L.copy())]
    for step in range(1, steps + 1):
        f_rl, f_lr = turning_rates(L, params.thresholds)
        # the grid points the other way (oxygen source at node 0), so the
        # two rates of the threshold table swap roles
        r, l = upwind_advection_reaction_step(r, l, params.v, f_lr, f_rl, grid)
        L = ftcs_diffusion_step(L, params.D, grid, bc=("dirichlet", "zero-flux"))
        L = np.maximum(L - grid.dt * params.kappa * (r + l), 0.0)
        L[0] = params.L0
        if step % sample_every == 0 or step == steps:
            times.append(step * grid.dt)
            fields.append(CellField(r.copy(), l.copy(), L.copy()))
    return np.array(times), fields


def band_metrics(cf: CellField, grid: Grid1D) -> BandMetrics:
    """Locate the band as the contiguous region at or above half maximum.

    Front is the region between the oxygen source (node 0) and the band,
    behind the region past it; ratios are of region means.
    """
    b = cf.density
    bmax = float(b.max())
    mean = float(b.mean())
    if mean <= 0 or bmax / mean < 2:
        return BandMetrics(has_band=False)
    am = int(np.argmax(b))
    half = 0.5 * bmax
    lo = am
    while lo > 0 and b[lo - 1] >= half:
        lo -= 1
    hi = am
    while hi < len(b) - 1 and b[hi + 1] >= half:
        hi += 1
    band_mean = float(b[lo:hi + 1].mean())
    front = b[:lo]
    behind = b[hi + 1:]
    ratio_front = band_mean / float(front.mean()) if front.size else float("inf")
    ratio_behind = band_mean / float(behind.mean()) if behind.size else float("inf")
    return BandMetrics(
        has_band=True,
        width_h=(hi - lo + 1) * grid.dx,
        distance_d=lo * grid.dx,
        ratio_front=ratio_front,
        ratio_behind=ratio_behind,
    )


def band_formation_time(times, fields, grid: Grid1D):
    """First sampled time with a detectable band, or nan."""
    for t, cf in zip(times, fields):
        if band_metrics(cf, grid).has_band:
            return float(t)
    return float("nan")


# --------------------------------------------------------------------------
# steady-state algebra


def _k_and_s(params: AerotaxisParams, k, s, l: float):
    """(k, s, alpha = 1 + l / (k b0 s^2)); ValueError unless k b0 s^2 > 0, e alpha finite."""
    if k is None:
        k = params.kappa / params.D
    if s is None:
        s = params.v / (params.thresholds.c_high - params.thresholds.c_low)
    if not (k > 0 and s > 0):
        raise ValueError(f"k and s must be positive, got k={k!r}, s={s!r}")
    kbs2 = k * params.b0 * s**2
    if not kbs2 > 0:
        raise ValueError(f"k b0 s^2 must be positive, got {kbs2!r}")
    alpha = 1.0 + l / kbs2
    if not math.isfinite(math.e * alpha):
        raise ValueError(f"alpha = 1 + l / (k b0 s^2) = {alpha!r} is out of range")
    return k, s, alpha


def _depletion_root(alpha: float, lo: float, tol: float) -> float:
    """The root zeta in (lo, ln alpha + 1] of e^zeta - zeta = alpha: for zeta >= 0,
    e^zeta - zeta >= (1 - 1/e) e^zeta, so the root lies below ln alpha + 0.46."""
    return solve_scalar_root(lambda zeta: math.exp(zeta) - zeta - alpha,
                             Bracket(lo, math.log(alpha) + 1.0), tol=tol)


def steady_state_general(params: AerotaxisParams, l_min: float, l_max: float,
                         k: float | None = None, s: float | None = None
                         ) -> SteadyStateSolution:
    """Fully developed three-region steady state for L0 > l_max.

    z is the leading-order depletion length alpha*s with
    alpha = 1 + l_min / (k b0 s^2); h is the exact positive root of the
    band-width quadratic y^2 - 2 y (lam-1)/lam - u = 0; d is the
    leading-order front length s (L0 / (k b0 s^2 lam) + 1) / 2.
    """
    k, s, alpha = _k_and_s(params, k, s, l_min)
    L0, b0 = params.L0, params.b0
    if not L0 > l_max:
        raise ValueError("general regime needs L0 > l_max")
    z = alpha * s
    try:
        lam = math.exp(z / s)
    except OverflowError:
        raise ValueError(f"e^alpha overflows at alpha = {alpha!r}") from None
    B = b0 * lam
    gamma = (lam - 1.0) / lam
    u = 2.0 * (l_max - l_min) / (k * b0 * s**2 * lam)
    y = gamma + math.sqrt(gamma * gamma + u)
    h = y * s
    d = s * (L0 / (k * b0 * s**2 * lam) + 1.0) / 2.0
    c3 = k * b0 * s
    c1 = k * b0 * (s + h * lam)
    c2 = c1 - k * B * s
    return SteadyStateSolution("general", B, c1, c2, c3, d, h, z, s, k, lam,
                               L0, l_min, l_max)


def steady_state_intermediate(params: AerotaxisParams, l_min: float,
                              l_max: float, k: float | None = None,
                              s: float | None = None) -> SteadyStateSolution:
    """Two-region steady state for l_min < L0 < l_max: band at the source.

    z solves e^zeta - zeta - alpha = 0; h is the positive root of the
    quadratic obtained from flux matching at the band's back edge, with
    beta = k b0 e^(z/s).
    """
    k, s, alpha = _k_and_s(params, k, s, l_min)
    L0, b0 = params.L0, params.b0
    if not l_min < L0 < l_max:
        raise ValueError("intermediate regime needs l_min < L0 < l_max")
    zeta = _depletion_root(alpha, 1e-12, 1e-12)
    z = zeta * s
    lam = math.exp(zeta)
    beta = k * b0 * lam
    B = b0 * lam
    # h^2 + 2 [s - s^2/z + (k b0 s^2 + l_min)/(z beta)] h + 2 (l_min - L0)/beta = 0
    p = s - s**2 / z + (k * b0 * s**2 + l_min) / (z * beta)
    q = 2.0 * (l_min - L0) / beta
    h = -p + math.sqrt(p * p - q)
    c1 = (l_min - L0) / h - 0.5 * beta * h
    c2 = (beta * s**2 * (1.0 - 1.0 / lam) - l_min) / z
    return SteadyStateSolution("intermediate", B, c1, c2,
                               k * b0 * s, 0.0, h, z, s, k, lam,
                               L0, l_min, l_max)


def steady_state_low(params: AerotaxisParams, l_min: float,
                     k: float | None = None, s: float | None = None
                     ) -> SteadyStateSolution:
    """Single-region steady state for L0 < l_min: no band forms.

    The depletion length solves the flux balance in its primitive form
    e^zeta - zeta - 1 = L0 / (k b0 s^2), which has exactly one
    nonnegative root.
    """
    k, s, alpha = _k_and_s(params, k, s, params.L0)
    L0, b0 = params.L0, params.b0
    if not L0 < l_min:
        raise ValueError("low regime needs L0 < l_min")
    zeta = 0.0 if alpha == 1.0 else _depletion_root(alpha, 1e-15, 1e-13)
    z = zeta * s
    lam = math.exp(zeta)
    return SteadyStateSolution("low", b0 * lam, k * b0 * s, float("nan"),
                               float("nan"), 0.0, 0.0, z, s, k, lam,
                               L0, l_min, l_min)


def quasi_steady_state(L0: float, l_max: float, k_b0: float):
    """Two-region estimate for the band-building window.

    d = sqrt(L0 / (k b0)), h = 2 l_max / (k b0 d), B/b0 = (d + h)/h and
    c1 = (L0 - l_max)/d.  Valid while d >> h; the returned dict carries
    an assumption flag that clears when d < 5 h.
    """
    if L0 <= 0 or l_max <= 0 or k_b0 <= 0:
        raise ValueError("L0, l_max and k*b0 must be positive")
    d = math.sqrt(L0 / k_b0)
    h = 2.0 * l_max / (k_b0 * d)
    B_over_b0 = (d + h) / h
    return {
        "d": d,
        "h": h,
        "B_over_b0": B_over_b0,
        "c1": (L0 - l_max) / d,
        "assumption_ok": d >= 5.0 * h,
    }


def rear_arrival_time(distance: float, speed: float, turning_rate: float) -> float:
    """Diffusive time for rear cells to cover `distance` with run-and-turn
    motility of diffusivity speed^2 / turning_rate."""
    return distance**2 * turning_rate / speed**2


def keller_segel_coefficients(v: float, sigma_plus: float, sigma_minus: float):
    """Drift-diffusion reduction of the telegraph system.

    mu = v^2 / (2 sigma0) and chi = v (sigma+ - sigma-) / (2 sigma0) with
    sigma0 the mean turning rate.
    """
    sigma0 = 0.5 * (sigma_plus + sigma_minus)
    if sigma0 <= 0:
        raise ValueError("mean turning rate must be positive")
    delta = 0.5 * (sigma_plus - sigma_minus)
    return v**2 / (2.0 * sigma0), v * delta / sigma0


# --------------------------------------------------------------------------
# Monte-Carlo comparator


def _burn_in_samples(steps: int, dt: float, t_end: float) -> int:
    """How many of the occupancy times dt k, k = 1..steps, are at or before
    the burn-in end 0.1 t_end, counted with the same float products and test
    as on the grid, without building it.  burn // dt is the floor of the
    exact quotient, so dt k <= burn there; dt k grows with k, and rounding
    can keep a few more products at or below burn."""
    burn = 0.1 * t_end
    k = min(int(burn // dt), steps)
    while k < steps and dt * (k + 1) <= burn:
        k += 1
    return k


def monte_carlo_slow_adaptation(cfg: MonteCarloConfig, t_end: float = 80.0,
                                dt: float = 0.01):
    """Density ratio inside vs outside the favourable band for walkers
    whose turning rate after leaving the band decays as c exp(-age/t_a).

    Walkers start at the centre, move at speed v, never turn inside the
    band, and reflect off the outer walls.  By symmetry a walker is its
    distance |x| from the centre and whether it moves outward.  The walk is
    simulated event by event (leave the band, reflect at the wall,
    re-enter, turn), all walkers at once.  A turn falls where the
    integrated hazard c t_a (1 - exp(-age/t_a)) since leaving the band
    reaches a target that grows by an Exp(1) draw per turn, at age
    -t_a ln(1 - H/(c t_a)); once the target exceeds c t_a the excursion
    has no further turn.  For t_a = 0 the rate is c on receding legs and
    0 on approaching ones, and each receding leg gets a fresh Exp(1)/c.
    The Exp(1) draws come from one stream, default_rng(seed), in event
    order.

    Occupancy is sampled every dt after the first tenth of t_end, up to
    round(t_end/dt) dt; more than numerics._MAX_SAMPLES samples raise
    ValueError.
    """
    if not (dt > 0 and t_end > 0):
        raise ValueError("t_end and dt must be positive")
    steps = _step_count(t_end, dt)
    first = _burn_in_samples(steps, dt, t_end)  # samples are the steps after this one
    n_samples = steps - first
    t_stop = steps * dt

    def samples_by(s):
        """Occupancy samples taken at or before each time in s."""
        return np.clip(np.floor(s / dt) - first, 0, n_samples)

    v, c, t_a = cfg.v, cfg.c, cfg.t_a
    band, wall = cfg.band_half_width, cfg.wall_half_width
    n = cfg.n_trials
    rng = np.random.default_rng(cfg.seed)
    t = np.zeros(n)
    y = np.zeros(n)                     # |x|
    outward = np.ones(n, dtype=bool)
    inband = np.ones(n, dtype=bool)
    age = np.zeros(n)                   # time since leaving the band
    target = np.zeros(n)                # integrated hazard of the next turn
    live = np.full(n, t_stop > 0)      # not yet at t_stop
    out_samples = 0
    # c = 0 divides by zero where the np.where masks discard the result
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.any():
            geo = np.where(inband, np.where(outward, band - y, band + y),
                           np.where(outward, wall - y, y - band)) / v
            if t_a > 0:
                turn_age = np.where(target < c * t_a,
                                    -t_a * np.log1p(-target / (c * t_a)), np.inf)
                to_turn = np.where(inband, np.inf, np.maximum(turn_age - age, 0.0))
            else:
                to_turn = np.where(~inband & outward, target / c - age, np.inf)
            step = np.where(live, np.minimum(geo, to_turn), 0.0)
            done = live & (t_stop - t <= step)
            t_new = np.where(done, t_stop, t + step)
            # samples in (t, t_new] of the walkers outside the band
            out = live & ~inband
            seen_new = np.where(done[out], n_samples, samples_by(t_new[out]))
            out_samples += int((seen_new - samples_by(t[out])).sum())
            t = t_new
            live &= ~done
            turn = live & (to_turn < geo)
            hit = live & ~turn
            age = np.where(~inband & live, age + step, age)
            y = np.where(turn, np.where(outward, y + v * step, y - v * step), y)
            leave = hit & inband
            wall_hit = hit & ~inband & outward
            enter = hit & ~inband & ~outward
            y[leave | enter] = band
            y[wall_hit] = wall
            age[leave] = 0.0
            idx = np.flatnonzero(leave)
            target[idx] = rng.standard_exponential(idx.size)
            if t_a > 0:
                idx = np.flatnonzero(turn)
                target[idx] += rng.standard_exponential(idx.size)
            outward = (outward ^ (turn | wall_hit)) | leave
            inband = (inband & ~leave) | enter
    dens_in = (n * n_samples - out_samples) * dt / (2.0 * band)
    dens_out = out_samples * dt / (2.0 * (wall - band))
    return {"inside_outside_ratio": dens_in / dens_out if dens_out > 0 else float("inf")}


# --------------------------------------------------------------------------
# piston receptor


def piston_separation_closed_form(p: PistonParams, ramp_sign: int, t):
    """Fast-minus-slow position for a linear signal ramp, exactly."""
    t = np.asarray(t, dtype=float)
    lag = ramp_sign * p.c1 * p.k * p.tau
    return p.delta_z + lag * (1.0 - np.exp(-t / p.tau))


def piston_receptor_simulate(p: PistonParams, ramp_sign: int, t_end: float):
    """Positions of the two receptor parts under the driving signal
    c0 +/- k t, sampled every tau/50.

    The fast part sits at its equilibrium z_f0 + c1 signal at all times;
    the slow part relaxes toward z_f - delta_z with time constant tau, so
    z_f - z_s is piston_separation_closed_form.  Returns the (z_f, z_s)
    trajectory and the times at which the two parts first come within
    lock_tol (tumble events).
    """
    if ramp_sign not in (-1, 1):
        raise ValueError("ramp_sign must be +1 or -1")
    times = _step_times(0.0, t_end, p.tau / 50.0)
    zf = p.z_f0 + p.c1 * (ramp_sign * p.k * times + p.c0)
    sep = piston_separation_closed_form(p, ramp_sign, times)
    locked = np.abs(sep) <= p.lock_tol
    events = [float(t) for t in times[1:][locked[1:] & ~locked[:-1]]]
    return Trajectory(times, np.column_stack([zf, zf - sep])), events
