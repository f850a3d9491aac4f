"""Aerotactic band formation in a capillary.

A two-speed advection-reaction model for right- and left-moving bacteria
coupled to a diffusing, consumed oxygen field, plus the matching
steady-state and quasi-steady-state algebra, a Monte-Carlo comparator for
slow turning-rate adaptation, the drift-diffusion reduction of the
telegraph system, and a two-part receptor ("piston") toy model.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .numerics import (
    Bracket,
    Grid1D,
    StabilityError,
    Trajectory,
    _step_count,
    _step_times,
    check_domain,
    ftcs_diffusion_step,
    run_fields,
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

    lt_min: float = 0.2
    l_min: float = 0.35
    l_max: float = 0.45
    lt_max: float = 0.7
    c_low: float = 0.0
    c_high: float = 80.0

    def __post_init__(self):
        check_domain(self, finite=("lt_max", "c_high"))
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
    thresholds: TurningThresholds = field(default_factory=TurningThresholds)

    def __post_init__(self):
        check_domain(self, nonnegative=("v", "D", "kappa", "L0", "b0"))


@dataclass
class BandMetrics:
    """The band of each sample of a (samples, nodes) density block, one
    value per sample (0-d for a single row); width_h, distance_d and the
    ratios are nan where a sample has no band."""

    has_band: np.ndarray
    width_h: np.ndarray
    distance_d: np.ndarray
    ratio_front: np.ndarray
    ratio_behind: np.ndarray


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

    def profile(self, n: int = 200):
        """(x, oxygen(x)) at n points from 0 to 5% past the end of the
        regions (to 1 where they have no length); ValueError unless all are
        finite, which extreme constants can prevent."""
        span = self.d + self.h + self.z
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.linspace(0.0, span * 1.05 if span > 0 else 1.0, n)
            L = self.oxygen(x)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(L))):
            raise ValueError(f"the oxygen profile of the {self.regime} regime is not finite")
        return x, L

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
        check_domain(self, positive=("v", "band_half_width", "wall_half_width"),
                     nonnegative=("c", "t_a"))
        if not (self.band_half_width < self.wall_half_width
                and math.isfinite(2.0 * self.wall_half_width)):
            raise ValueError("need 0 < band_half_width < wall_half_width, 2 wall finite")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.n_trials > numerics._MAX_SAMPLES:
            raise ValueError(f"n_trials {self.n_trials} is above the cap of "
                             f"{numerics._MAX_SAMPLES} walkers")


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
        check_domain(self, positive=("delta_z", "tau", "lock_tol"),
                     finite=("z_f0", "c0", "c1", "k"))


# --------------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class CharacteristicScales:
    """Unit choices: 2 mm, 10 s, 1 uM/ml oxygen, 2e7 cells/ml bacteria."""

    length_m: float = 2e-3
    time_s: float = 10.0
    oxygen_uM_per_ml: float = 1.0
    bacteria_per_ml: float = 2e7

    def __post_init__(self):
        check_domain(self, positive=("length_m", "time_s", "oxygen_uM_per_ml",
                                     "bacteria_per_ml"))


def nondimensionalize(speed_m_per_s: float, diffusivity_m2_per_s: float,
                      turning_rate_per_s: float, consumption_uM_per_cell_s: float,
                      scales: CharacteristicScales = CharacteristicScales()):
    """Convert dimensional inputs to the model's nondimensional set.

    Speed scales by time/length, diffusivity by time/length^2, rates by
    time, and consumption as kappa = k * t0 * b0 / L0.  Each result is one
    input times positive scales, so ValueError unless each result, and with
    it each input, is positive and finite.
    """
    x0, t0 = scales.length_m, scales.time_s
    out = {
        "v": speed_m_per_s * t0 / x0,
        "D": diffusivity_m2_per_s * t0 / x0**2,
        "turning": turning_rate_per_s * t0,
        "kappa": consumption_uM_per_cell_s * t0 * scales.bacteria_per_ml
        / scales.oxygen_uM_per_ml,
    }
    for name, val in out.items():
        if not 0 < val < math.inf:
            raise ValueError("dimensional inputs must give a positive and finite "
                             f"nondimensional set, got {name} = {val!r}")
    return out


# --------------------------------------------------------------------------
# turning rates and the PDE run


def turning_rates(L, th: TurningThresholds):
    """Piecewise-constant turning-rate pair (f_rl, f_lr) at oxygen level L.

    Bins are half-open, [lo, hi).  The pair is written for an axis that
    points from the closed end of the capillary toward the oxygen source.
    """
    edges, rl, lr = _rate_tables(th)
    # bin i holds thresholds[i-1] <= L < thresholds[i]; NaN sorts into the last
    bins = edges.searchsorted(np.asarray(L, dtype=float), "right")
    if bins.ndim == 0:
        return float(rl[bins]), float(lr[bins])
    return rl.take(bins), lr.take(bins)


@functools.cache
def _rate_tables(th: TurningThresholds):
    """The thresholds, and f_rl and f_lr in each of their five bins."""
    c, C = th.c_low, th.c_high
    return (np.array((th.lt_min, th.l_min, th.l_max, th.lt_max), dtype=float),
            np.array((C, c, c, C, C), dtype=float), np.array((C, C, c, c, C), dtype=float))


def simulate_band(params: AerotaxisParams, t_end: float = 30.0,
                  sample_every: int = 100):
    """Run the band-formation model from the standard initial state.

    Starts from uniform bacteria (r = l = b0/2) and oxygen L0 held at node
    0, zero elsewhere.  Returns (times, r, l, L), the fields as (samples,
    nodes) arrays sampled every sample_every steps, always including the
    final state; numerics.run_fields marches and checks them, and raises
    as it says.  Before the first step, b0 / 2 <= 0 or b0 * nodes = inf raises ValueError.
    The upwind and FTCS steps raise StabilityError on an unstable grid, and
    so does this run, before the first step, when CFL + dt * c_high > 1:
    the upwind step keeps r and l nonnegative only while that sum is at
    most 1.  Each step makes one upwind and one FTCS call.
    """
    grid = params.grid
    # r = l = b0 / 2 at first, and the upwind step conserves a row's cell count
    if not (params.b0 / 2 > 0 and math.isfinite(params.b0 * grid.n)):
        raise ValueError(f"the band run needs b0 > 0, got {params.b0!r}, with b0 / 2 > 0 "
                         "and b0 * nodes finite")
    cfl, rn = params.v * grid.dt / grid.dx, grid.dt * params.thresholds.c_high
    # past its own limit, each number is refused by the upwind step itself
    if cfl <= 1 + 1e-12 and rn <= 1 + 1e-12 and cfl + rn > 1 + 1e-12:
        raise StabilityError(
            f"CFL number {cfl:.4g} + reaction number {rn:.4g} exceeds 1: the upwind "
            "step keeps the cell densities nonnegative only while the sum is at most 1")
    n = grid.n
    r, l = np.full((2, n), params.b0 / 2)
    L = np.zeros(n)
    L[0] = params.L0
    uptake, eaten, zero = np.full(n, grid.dt * params.kappa), np.empty(n), np.zeros(n)

    def advance(r, l, L, steps):
        for _ in range(steps):
            f_rl, f_lr = turning_rates(L, params.thresholds)
            # the grid points the other way (oxygen source at node 0), so the
            # two rates of the threshold table swap roles
            r, l = upwind_advection_reaction_step(r, l, params.v, f_lr, f_rl, grid)
            L = ftcs_diffusion_step(L, params.D, grid, bc=("dirichlet", "zero-flux"))
            L -= np.multiply(uptake, np.add(r, l, eaten), eaten)
            np.maximum(L, zero, out=L)
            L[0] = params.L0
        return r, l, L

    times, (r, l, L) = run_fields(advance, (r, l, L), t_end, grid, sample_every,
                                  "r, l or L")
    return times, r, l, L


def band_metrics(density, grid: Grid1D) -> BandMetrics:
    """Locate the band of each row of density, (samples, nodes) or one row,
    as the contiguous run at or above half maximum around the first
    maximum.  A row has no band when its mean is not positive or its
    maximum is below twice its mean.

    Front is the region between the oxygen source (node 0) and the band,
    behind the region past it; ratios are of region means, inf for an
    empty or all-zero region.
    """
    b = np.asarray(density, dtype=float)
    shape = b.shape[:-1]
    b = b.reshape(-1, b.shape[-1])
    rows, n = b.shape
    bmax, mean = b.max(axis=1), b.mean(axis=1)
    # Python's float division, which these once were, gives inf on overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        has = ~((mean <= 0) | (bmax / mean < 2))
    am = b.argmax(axis=1)
    # the band runs from the node after the last one below half maximum
    # before the argmax to the node before the first one after it
    below = ~(b >= (0.5 * bmax)[:, None])
    nodes = np.arange(n)
    pick = (np.arange(rows), am)
    lo = np.maximum.accumulate(np.where(below, nodes, -1), axis=1)[pick] + 1
    hi = np.minimum.accumulate(np.where(below, nodes, n)[:, ::-1], axis=1)[:, ::-1][pick] - 1
    band_mean, front, behind = (np.full(rows, np.nan) for _ in range(3))
    # each group of rows sharing (lo, hi) takes its region means row by row
    for a, z in set(zip(lo[has].tolist(), hi[has].tolist())):
        sel = np.flatnonzero(has & (lo == a) & (hi == z))
        g = b[sel]
        band_mean[sel] = g[:, a:z + 1].mean(axis=1)
        front[sel] = g[:, :a].mean(axis=1) if a else 0.0
        behind[sel] = g[:, z + 1:].mean(axis=1) if z < n - 1 else 0.0
    with np.errstate(divide="ignore", over="ignore"):
        ratio_front, ratio_behind = band_mean / front, band_mean / behind
    width = np.where(has, (hi - lo + 1) * grid.dx, np.nan)
    distance = np.where(has, lo * grid.dx, np.nan)
    return BandMetrics(*(a.reshape(shape) for a in (
        has, width, distance, ratio_front, ratio_behind)))


def band_formation_time(times, metrics: BandMetrics) -> float:
    """First sampled time with a detectable band, or nan."""
    first = np.flatnonzero(metrics.has_band)
    return float(times[first[0]]) if first.size else float("nan")


# --------------------------------------------------------------------------
# steady-state algebra


def _k_and_s(params: AerotaxisParams, k, s, l: float):
    """(k, s, l / (k b0 s^2)); ValueError unless k b0 s^2 is positive and
    finite and e (1 + l / (k b0 s^2)) finite."""
    if k is None:
        k = params.kappa / params.D
    if s is None:
        s = params.v / (params.thresholds.c_high - params.thresholds.c_low)
    if not (k > 0 and s > 0):
        raise ValueError(f"k and s must be positive, got k={k!r}, s={s!r}")
    try:
        kbs2 = k * params.b0 * s**2
    except OverflowError:  # float ** raises where * gives inf
        kbs2 = math.inf
    if not 0 < kbs2 < math.inf:
        raise ValueError(f"k b0 s^2 must be positive and finite, got {kbs2!r}")
    target = l / kbs2
    if not math.isfinite(math.e * (1.0 + target)):
        raise ValueError(f"alpha = 1 + l / (k b0 s^2) = {1.0 + target!r} is out of range")
    return k, s, target


def _depletion_root(target: float) -> float:
    """The root zeta >= 0 of e^zeta - 1 - zeta = target, to 1e-13 relative.

    e^zeta - 1 - zeta lies between zeta^2/2 and e^zeta zeta^2/2 and exceeds
    target at ln(1 + target) + 1, which brackets the root; the bracket below
    has a factor 2 of room at each end.  Below 0.5 the excess is summed as
    its Taylor series, where expm1(zeta) - zeta would cancel digits."""
    excess = lambda z: (math.expm1(z) - z if z > 0.5
                        else z * z * sum(z**k / math.factorial(k + 2) for k in range(15)))
    if target == 0.0:
        return 0.0
    hi = min(2.0 * math.sqrt(2.0 * target), math.log1p(target) + 1.0)
    lo = 0.5 * math.sqrt(2.0 * target) * math.exp(-0.5 * hi)
    return solve_scalar_root(lambda z: excess(z) / target - 1.0, Bracket(lo, hi), tol=1e-13 * lo)


def steady_state_general(params: AerotaxisParams, l_min: float, l_max: float,
                         k: float | None = None, s: float | None = None
                         ) -> SteadyStateSolution:
    """Fully developed three-region steady state for L0 > l_max.

    z is the leading-order depletion length alpha*s with
    alpha = 1 + l_min / (k b0 s^2); h is the exact positive root of the
    band-width quadratic y^2 - 2 y (lam-1)/lam - u = 0; d is the
    leading-order front length s (L0 / (k b0 s^2 lam) + 1) / 2.
    """
    k, s, target = _k_and_s(params, k, s, l_min)
    L0, b0 = params.L0, params.b0
    if not 0 <= l_min <= l_max < L0:
        raise ValueError("general regime needs 0 <= l_min <= l_max < L0")
    z = (1.0 + target) * s
    try:
        lam = math.exp(z / s)
    except OverflowError:
        raise ValueError(f"e^alpha overflows at alpha = {1.0 + target!r}") from None
    B = b0 * lam
    gamma = (lam - 1.0) / lam
    u = 2.0 * (l_max - l_min) / (k * b0 * s**2 * lam)
    y = gamma + math.sqrt(gamma * gamma + u)
    h = y * s
    d = s * (L0 / (k * b0 * s**2 * lam) + 1.0) / 2.0
    c3 = k * b0 * s
    c1 = k * b0 * (s + h * lam)
    c2 = c1 - k * B * s
    if not all(map(math.isfinite, (B, c1, c2, c3, d, h))):
        raise ValueError(f"a constant of the general regime is not finite: B={B!r}, "
                         f"c1={c1!r}, c2={c2!r}, c3={c3!r}, d={d!r}, h={h!r}")
    return SteadyStateSolution("general", B, c1, c2, c3, d, h, z, s, k, lam,
                               L0, l_min, l_max)


def steady_state_intermediate(params: AerotaxisParams, l_min: float,
                              l_max: float, k: float | None = None,
                              s: float | None = None) -> SteadyStateSolution:
    """Two-region steady state for 0 < l_min < L0 < l_max: band at the source.

    z = zeta s, where e^zeta - 1 - zeta = l_min / (k b0 s^2); h is the
    positive root of the quadratic obtained from flux matching at the
    band's back edge, with beta = k b0 e^(z/s).
    """
    k, s, target = _k_and_s(params, k, s, l_min)
    L0, b0 = params.L0, params.b0
    if not 0 < l_min < L0 < l_max:
        raise ValueError("intermediate regime needs 0 < l_min < L0 < l_max")
    zeta = _depletion_root(target)
    z = zeta * s
    lam = math.exp(zeta)
    beta = k * b0 * lam
    B = b0 * lam
    # h^2 + 2 p h + 2 (l_min - L0)/beta = 0 with p = s - s^2/z + (k b0 s^2 + l_min)/(z beta),
    # and c2 = (beta s^2 (1 - 1/lam) - l_min)/z; with lam - 1 = zeta + l_min/(k b0 s^2) at
    # the root these are s (1 - 1/lam) and k b0 s, free of the cancellation at small z
    p = -s * math.expm1(-zeta)
    q = 2.0 * (l_min - L0) / beta
    h = -p + math.sqrt(p * p - q)
    c1 = (l_min - L0) / h - 0.5 * beta * h
    return SteadyStateSolution("intermediate", B, c1, k * b0 * s,
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
    k, s, target = _k_and_s(params, k, s, params.L0)
    L0, b0 = params.L0, params.b0
    if not L0 < l_min:
        raise ValueError("low regime needs L0 < l_min")
    zeta = _depletion_root(target)
    z = zeta * s
    lam = math.exp(zeta)
    return SteadyStateSolution("low", b0 * lam, k * b0 * s, float("nan"),
                               float("nan"), 0.0, 0.0, z, s, k, lam,
                               L0, l_min, l_min)


def quasi_steady_state(L0: float, l_max: float, k_b0: float):
    """Two-region estimate for the band-building window.

    d = sqrt(L0 / (k b0)), h = 2 l_max / (k b0 d), B/b0 = (d + h)/h and
    c1 = (L0 - l_max)/d.  Valid while d >> h; the returned dict carries
    an assumption flag that clears when d < 5 h.  ValueError unless L0,
    l_max and k b0 are positive and d and h positive and finite.
    """
    if L0 <= 0 or l_max <= 0 or k_b0 <= 0:
        raise ValueError("L0, l_max and k*b0 must be positive")
    d = math.sqrt(L0 / k_b0)
    if not 0 < d < math.inf:
        raise ValueError(f"d = sqrt(L0 / (k b0)) = {d!r} is out of range")
    h = 2.0 * l_max / (k_b0 * d)
    if not 0 < h < math.inf:
        raise ValueError(f"h = 2 l_max / (k b0 d) = {h!r} is out of range")
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
    motility of diffusivity speed^2 / turning_rate; ValueError for a distance
    that is not finite, a turning rate that is negative or not finite, a
    speed^2 that is not positive and finite, or a time that overflows."""
    if not 0 < speed * speed < math.inf:
        raise ValueError(f"speed^2 must be positive and finite, got speed = {speed!r}")
    if not (math.isfinite(distance) and 0 <= turning_rate < math.inf):
        raise ValueError("distance must be finite and turning_rate nonnegative and finite, "
                         f"got {distance!r} and {turning_rate!r}")
    t = distance * distance * turning_rate / (speed * speed)
    if not math.isfinite(t):
        raise ValueError(f"arrival time at distance {distance!r} is not finite")
    return t


def keller_segel_coefficients(v: float, sigma_plus: float, sigma_minus: float):
    """Drift-diffusion reduction of the telegraph system.

    mu = v^2 / (2 sigma0) and chi = v (sigma+ - sigma-) / (2 sigma0) with
    sigma0 the mean turning rate.
    """
    sigma0 = 0.5 * (sigma_plus + sigma_minus)
    if sigma0 <= 0:
        raise ValueError("mean turning rate must be positive")
    delta = 0.5 * (sigma_plus - sigma_minus)
    mu, chi = v * v / (2.0 * sigma0), v * delta / sigma0
    if not (math.isfinite(mu) and math.isfinite(chi)):
        raise ValueError(f"mu = {mu!r} and chi = {chi!r} must be finite")
    return mu, chi


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
    round(t_end/dt) dt; more than numerics._MAX_SAMPLES samples or (by the
    bound t (v / min(2 band, wall - band) + 2 c)) events of one walker, no
    sample after the burn-in, or no sample outside the band raise
    ValueError.
    Returns inside_outside_ratio and inside_outside_se, the ratio's
    delta-method standard error over the independent walkers (nan for
    one walker).
    """
    if not (dt > 0 and t_end > 0):
        raise ValueError("t_end and dt must be positive")
    steps = _step_count(t_end, dt)
    first = _burn_in_samples(steps, dt, t_end)  # samples are the steps after this one
    n_samples = steps - first
    if n_samples == 0:
        raise ValueError(f"t_end {t_end!r} at step {dt!r} takes no occupancy sample "
                         "after the burn-in")
    t_stop = steps * dt
    v, c, t_a = cfg.v, cfg.c, cfg.t_a
    band, wall = cfg.band_half_width, cfg.wall_half_width
    # each pass of the loop takes one event of every walker: a boundary at
    # most once per min(2 band, wall - band) / v of travel plus once after
    # each turn, and turns at rate at most c
    events = t_stop * (v / min(2.0 * band, wall - band) + 2.0 * c)
    if not events <= numerics._MAX_SAMPLES:
        raise ValueError(f"a walker may take {events:.3g} events by t = {t_stop!r}, "
                         f"above the cap of {numerics._MAX_SAMPLES}")

    def samples_by(s):
        """Occupancy samples taken at or before each time in s (np.clip
        would go through a Python-level wrapper on every call)."""
        return np.minimum(np.maximum(np.floor(s / dt) - first, 0), n_samples)

    n = cfg.n_trials
    rng = np.random.default_rng(cfg.seed)

    def turn_age(target):
        """Age at which the integrated hazard reaches target: inf past c t_a."""
        if t_a > 0:
            return np.where(target < c * t_a,
                            -t_a * np.log1p(-target / (c * t_a)), np.inf)
        return target / c

    # A walker's next boundary lim is band inside the band (either way),
    # wall moving outward outside it and -band moving inward, so that
    # (lim - sgn y) / v, with heading sgn = +-1, is the time to reach it;
    # lim is nan once the walker reaches t_stop, which makes its step nan
    # and keeps it out of every event.  turn_at is the age of its next
    # turn: inf inside the band, and on approaching legs for t_a = 0.
    t = np.zeros(n)
    y = np.zeros(n)                     # |x|
    sgn = np.ones(n)
    lim = np.full(n, band)
    age = np.zeros(n)                   # time since leaving the band (junk inside)
    target = np.zeros(n)                # integrated hazard of the next turn
    turn_at = np.full(n, np.inf)
    outside = np.zeros(n)               # each walker's samples outside the band
    live = n
    # c = 0 divides by zero, a subnormal c overflows to the same inf (no
    # turn), and log1p(-target/(c t_a)) leaves its domain where np.where
    # discards the result
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while live:
            geo = (lim - sgn * y) / v
            to_turn = np.maximum(turn_at - age, 0.0)
            step = np.minimum(geo, to_turn)
            done = np.flatnonzero(t_stop - t <= step)
            t += step
            age += step
            if done.size:
                live -= done.size
                outside[done[lim[done] != band]] += n_samples
                lim[done] = geo[done] = np.nan
            turn = np.flatnonzero(to_turn < geo)
            hit = geo <= to_turn
            leave = np.flatnonzero(lim == band)
            wall_hit = np.flatnonzero(hit & (lim == wall))
            enter = np.flatnonzero(hit & (lim == -band))
            y[turn] += sgn[turn] * (v * step[turn])
            sgn[turn] = heading = -sgn[turn]
            lim[turn] = np.where(heading > 0, wall, -band)
            y[leave], sgn[leave], lim[leave], age[leave] = band, 1.0, wall, 0.0
            y[wall_hit], sgn[wall_hit], lim[wall_hit] = wall, -1.0, -band
            y[enter], sgn[enter], lim[enter], turn_at[enter] = band, -1.0, band, np.inf
            # the samples outside telescope from leaving to re-entering
            outside[leave] -= samples_by(t[leave])
            outside[enter] += samples_by(t[enter])
            target[leave] = rng.standard_exponential(leave.size)
            turn_at[leave] = turn_age(target[leave])
            if t_a > 0:
                target[turn] += rng.standard_exponential(turn.size)
                turn_at[turn] = turn_age(target[turn])
            else:
                turn_at[turn] = turn_at[wall_hit] = np.inf
    out_samples = int(outside.sum())
    if out_samples == 0:
        raise ValueError(f"no walker was outside the band at any of the {n_samples} "
                         "occupancy samples, so the ratio is undefined")
    dens_in = (n * n_samples - out_samples) * dt / (2.0 * band)
    dens_out = out_samples * dt / (2.0 * (wall - band))
    # ratio = (w - b)/b (n S / O - 1), and O sums n independent counts;
    # grouped so that the error overflows only where the ratio does
    se = ((wall - band) / band * (n * n_samples / out_samples)
          * (math.sqrt(n) * float(outside.std(ddof=1)) / out_samples)
          if n > 1 else float("nan"))
    return {"inside_outside_ratio": dens_in / dens_out, "inside_outside_se": se}


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
