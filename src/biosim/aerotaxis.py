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
    check_finite,
    check_times,
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
    same unit as the run length s; lam is exp(z / s).  regions are the
    exact profile's pieces from the source, (length, L, slope, kB, kind)
    for a front, band or tail that starts at level L.
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
    regions: tuple

    def __post_init__(self):
        # the bandless low regime has no c2 or c3 (nan)
        consts = {n: getattr(self, n) for n in ("B", "c1", "c2", "c3", "d", "h", "z")
                  if self.regime != "low" or n not in ("c2", "c3")}
        if not all(map(math.isfinite, consts.values())):
            raise ValueError(f"a constant of the {self.regime} regime is not finite: "
                             + ", ".join(f"{n}={v!r}" for n, v in consts.items()))

    def profile(self):
        """(x, oxygen(x)) at 200 points from 0 to 5% past the end of the
        regions (to 1 where they have no length); ValueError unless all are
        finite, which extreme constants can prevent."""
        span = sum(length for length, *_ in self.regions)
        with np.errstate(over="ignore", invalid="ignore"):
            x = np.linspace(0.0, span * 1.05 if span > 0 else 1.0, 200)
            L = self.oxygen(x)
        check_finite(f"the oxygen profile of the {self.regime} regime is not finite", x, L)
        return x, L

    def oxygen(self, x) -> np.ndarray:
        """The piecewise profile, region i on end[i-1] < x <= end[i] and 0 past
        them: at xi into a region, L + slope xi plus ½ kB xi² (band), kB s²
        (e^(-xi/s) - 1) (tail) or kB s² (e^((xi - length)/s) - e^(-length/s))."""
        x = np.asarray(x, dtype=float)
        s = self.s
        which = np.cumsum([length for length, *_ in self.regions]).searchsorted(x)
        out, xi = np.zeros_like(x), x
        for i, (length, L, slope, kB, kind) in enumerate(self.regions):
            at = xi[which == i]
            rise = 0.5 * kB * at**2 if kind == "band" else kB * s**2 * (
                np.exp(-at / s) - 1.0 if kind == "tail"
                else np.exp((at - length) / s) - math.exp(-length / s))
            out[which == i] = L + slope * at + rise
            xi = xi - length  # each earlier length in turn, as x - d - h
        return out


@dataclass(frozen=True)
class MonteCarloConfig:
    """Biased random-walk comparator settings.

    t_a is the adaptation (memory) time of the turning-rate pulse fired
    when a walker exits the favourable band.  t_a = 0 selects the
    instant-adaptation limit: the rate tracks the current stimulus with
    no lag, so a walker receding from the band turns at rate c and an
    approaching one does not turn at all.  The hazard's scale c t_a must
    be finite.
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
        # the turn ages scale the hazard by c t_a: at inf every age would be 0
        if not math.isfinite(self.c * self.t_a):
            raise ValueError(f"c t_a must be finite, got c = {self.c!r} and t_a = {self.t_a!r}")
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


def _matched(L0, l_min, l_max, k, b0, s):
    """(lam, regions) of the exact C1 profile of L'' = k b, which ends at 0
    with zero flux where b = b0: a tail from min(L0, l_min), a band from
    top = min(L0, l_max) once L0 >= l_min, and a front from L0 above l_max.
    The band width solves h^2 + 2 p h + 2 (l_min - top)/beta = 0; a band of
    no width takes the tail's starting slope; d solves L(d) = l_max."""
    zeta = _depletion_root(min(L0, l_min) / (k * b0 * s**2))
    lam = math.exp(zeta)
    beta, kB = k * b0 * lam, k * (b0 * lam)  # k B, in the two roundings the CSVs hold
    tail = (zeta * s, min(L0, l_min), k * b0 * s, kB, "tail")
    if L0 < l_min:
        return lam, (tail,)
    top = min(L0, l_max)
    # s - s^2/z + (k b0 s^2 + l_min)/(z beta) at the root, free of its cancellation at small z
    p = -s * math.expm1(-zeta)
    h = -p + math.sqrt(p * p - 2.0 * (l_min - top) / beta)
    slope = (l_min - top) / h - 0.5 * beta * h if h > 0 else k * b0 * s - kB * s
    band = (h, top, slope, kB, "band")
    if L0 <= l_max:
        return lam, (band, tail)
    # L(d) = l_max, divided by the front's source slope c1: a - d + b (1 - e^(-d/s))
    c1 = kB * s - slope
    a, b = (L0 - l_max) / c1, kB * s**2 / c1
    d = solve_scalar_root(lambda d: a - d - b * math.expm1(-d / s), Bracket(0.0, 2.0 * (a + b)),
                          tol=1e-14 * (a + b))
    return lam, ((d, L0, -c1, kB, "front"), band, tail)


def steady_state_general(params: AerotaxisParams, l_min: float, l_max: float,
                         k: float | None = None, s: float | None = None
                         ) -> SteadyStateSolution:
    """Fully developed three-region steady state for L0 > l_max.

    The paper's leading-order constants: z = alpha s with alpha = 1 + l_min /
    (k b0 s^2); h the exact positive root of y^2 - 2 y (lam-1)/lam - u = 0;
    d = s (L0 / (k b0 s^2 lam) + 1) / 2.  oxygen() is the exact profile.
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
    sol = SteadyStateSolution("general", B, c1, c2, c3, d, h, z, s, k, lam, ())
    sol.regions = _matched(L0, l_min, l_max, k, b0, s)[1]  # once those are finite
    return sol


def steady_state_intermediate(params: AerotaxisParams, l_min: float,
                              l_max: float, k: float | None = None,
                              s: float | None = None) -> SteadyStateSolution:
    """Two-region steady state for 0 < l_min < L0 < l_max: band at the source.

    z = zeta s, where e^zeta - 1 - zeta = l_min / (k b0 s^2); h is the
    positive root of the quadratic obtained from flux matching at the
    band's back edge, with beta = k b0 e^(z/s) (see _matched).
    """
    k, s, _ = _k_and_s(params, k, s, l_min)
    L0, b0 = params.L0, params.b0
    if not 0 < l_min < L0 < l_max:
        raise ValueError("intermediate regime needs 0 < l_min < L0 < l_max")
    lam, regions = _matched(L0, l_min, l_max, k, b0, s)
    (h, _, c1, *_), (z, _, c2, *_) = regions
    return SteadyStateSolution("intermediate", b0 * lam, c1, c2, c2, 0.0, h, z, s, k, lam,
                               regions)


def steady_state_low(params: AerotaxisParams, l_min: float,
                     k: float | None = None, s: float | None = None
                     ) -> SteadyStateSolution:
    """Single-region steady state for L0 < l_min: no band forms.

    The depletion length solves the flux balance in its primitive form
    e^zeta - zeta - 1 = L0 / (k b0 s^2), which has exactly one
    nonnegative root.
    """
    k, s, _ = _k_and_s(params, k, s, params.L0)
    if not params.L0 < l_min:
        raise ValueError("low regime needs L0 < l_min")
    lam, regions = _matched(params.L0, l_min, l_min, k, params.b0, s)
    (z, _, c1, *_), = regions
    return SteadyStateSolution("low", params.b0 * lam, c1, float("nan"), float("nan"), 0.0, 0.0, z,
                               s, k, lam, regions)


def quasi_steady_state(L0: float, l_max: float, k_b0: float):
    """Two-region estimate for the band-building window.

    d = sqrt(L0 / (k b0)), h = 2 l_max / (k b0 d), B/b0 = (d + h)/h and
    c1 = (L0 - l_max)/d.  Valid while d >> h; the returned dict carries
    an assumption flag that clears when d < 5 h.  ValueError unless L0,
    l_max and k b0 are positive, d and h positive and finite and B/b0 and c1
    finite.
    """
    if L0 <= 0 or l_max <= 0 or k_b0 <= 0:
        raise ValueError("L0, l_max and k*b0 must be positive")
    d = math.sqrt(L0 / k_b0)
    if not 0 < d < math.inf:
        raise ValueError(f"d = sqrt(L0 / (k b0)) = {d!r} is out of range")
    h = 2.0 * l_max / (k_b0 * d)
    if not 0 < h < math.inf:
        raise ValueError(f"h = 2 l_max / (k b0 d) = {h!r} is out of range")
    B_over_b0, c1 = (d + h) / h, (L0 - l_max) / d
    check_finite(f"B/b0 = {B_over_b0!r} and c1 = {c1!r} must be finite", B_over_b0, c1)
    return {
        "d": d,
        "h": h,
        "B_over_b0": B_over_b0,
        "c1": c1,
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
    check_finite(f"arrival time at distance {distance!r} is not finite", t)
    return t


def keller_segel_coefficients(v: float, sigma_plus: float, sigma_minus: float):
    """Drift-diffusion reduction of the telegraph system.

    mu = v^2 / (2 sigma0) and chi = v (sigma+ - sigma-) / (2 sigma0) with
    sigma0 the mean turning rate; ValueError unless both turning rates are
    nonnegative, sigma0 is positive and mu and chi are finite.
    """
    if not (sigma_plus >= 0 and sigma_minus >= 0):
        raise ValueError(f"turning rates must be nonnegative, got sigma+ = {sigma_plus!r}, "
                         f"sigma- = {sigma_minus!r}")
    sigma0 = 0.5 * (sigma_plus + sigma_minus)
    if sigma0 <= 0:
        raise ValueError("mean turning rate must be positive")
    delta = 0.5 * (sigma_plus - sigma_minus)
    mu, chi = v * v / (2.0 * sigma0), v * delta / sigma0
    check_finite(f"mu = {mu!r} and chi = {chi!r} must be finite", mu, chi)
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
    band, and reflect off the outer walls: a crossing takes 2 band / v,
    and an excursion walks a loop of lap = 2 (wall - band) / v, to the
    wall and back, which a turn reverses.  Each round takes the next event
    of every walker outside the band, a re-entry (it leaves again after
    the crossing) or a turn.  A turn falls where the integrated hazard
    c t_a (1 - exp(-age/t_a)) since leaving the band reaches a target
    that grows by an Exp(1) draw per turn, at age -t_a ln(1 - H/(c t_a));
    past c t_a the excursion has no further turn.  For t_a = 0 the rate
    is c receding and 0 approaching, so an excursion lasts
    min(2 Exp(1)/c, lap).  The Exp(1) draws come from one stream,
    default_rng(seed), in event order: each round the walkers leaving the
    band, then the turning ones, each in walker order.

    Occupancy is sampled every dt after the first tenth of t_end, up to
    round(t_end/dt) dt; more than numerics._MAX_SAMPLES samples or (by the
    bound t (v / min(2 band, wall - band) + 2 c)) events of one walker, no
    sample after the burn-in, or no sample outside the band raise
    ValueError, and so do a ratio and, for more than one walker, a standard
    error that are not finite.
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
    # a walker's events, re-entries at most once per 2 band / v of travel
    # and turns at rate at most c, stay below this bound, which also counts
    # the band exits and the wall reflections
    events = t_stop * (v / min(2.0 * band, wall - band) + 2.0 * c)
    if not events <= numerics._MAX_SAMPLES:
        raise ValueError(f"a walker may take {events:.3g} events by t = {t_stop!r}, "
                         f"above the cap of {numerics._MAX_SAMPLES}")

    def samples_by(s):
        """Occupancy samples taken at or before each time s < t_stop, where
        s / dt rounds to at most steps."""
        return np.maximum(np.floor(s / dt) - first, 0)

    def turn_age(target):
        """Age at which the integrated hazard reaches target: inf from c t_a
        on, where log1p(-1) = -inf."""
        return -t_a * np.log1p(np.fmax(target / -(c * t_a), -1.0))

    n = cfg.n_trials
    rng = np.random.default_rng(cfg.seed)
    cross, lap = 2.0 * band / v, 2.0 * (wall - band) / v
    # The working arrays hold the walkers not yet dropped (ids, in order).
    # One outside the band left it at t0, re-enters at te and turns at tt;
    # on the loop it was or will be at the band at x, and re-enters at
    # x + lap moving forward, at x moving back, so a turn at tt reflects x
    # to 2 tt - x.  Each starts as if re-entering at -band / v; te = nan
    # marks one finished inside.  out telescopes the samples outside.
    ids = np.arange(n)
    te, tt = np.full(n, -band / v), np.full(n, np.inf)
    t0, x, target, out = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    fwd = np.ones(n, dtype=bool)
    outside = np.zeros(n)               # each walker's samples outside the band
    # c = 0 divides by zero (0/0 for a zero draw, which fmin and fmax
    # discard) and a subnormal c overflows to the same inf (no turn), as
    # does log1p(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            nxt = np.minimum(tt, te)
            live = nxt < t_stop
            if 2 * np.count_nonzero(live) <= live.size:
                # drop the finished walkers once they are half the working
                # set; those outside at t_stop count every sample since leaving
                gone = ~live
                outside[ids[gone]] = out[gone] + np.where(nxt[gone] >= t_stop, n_samples, 0)
                ids, te, tt, t0, x, fwd, target, out, live = (
                    a[live] for a in (ids, te, tt, t0, x, fwd, target, out, live))
                if not ids.size:
                    break
            turn = live & (tt < te)
            enter, turn = np.flatnonzero(live ^ turn), np.flatnonzero(turn)
            t_in = te[enter]
            out[enter] += samples_by(t_in)
            t_in += cross
            back = t_in < t_stop
            te[enter[~back]] = np.nan
            leave, t_in = enter[back], t_in[back]
            out[leave] -= samples_by(t_in)
            draw = rng.standard_exponential(leave.size)
            if t_a > 0:
                t0[leave] = x[leave] = t_in
                fwd[leave], target[leave] = True, draw
                te[leave], tt[leave] = t_in + lap, t_in + turn_age(draw)
                x[turn] = xt = 2.0 * tt[turn] - x[turn]
                fwd[turn] = ahead = ~fwd[turn]
                te[turn] = np.where(ahead, xt + lap, xt)
                target[turn] += rng.standard_exponential(turn.size)
                tt[turn] = t0[turn] + turn_age(target[turn])
            else:
                te[leave] = t_in + np.fmin(2.0 * draw / c, lap)
    out_samples = int(outside.sum())
    if out_samples == 0:
        raise ValueError(f"no walker was outside the band at any of the {n_samples} "
                         "occupancy samples, so the ratio is undefined")
    dens_in = (n * n_samples - out_samples) * dt / (2.0 * band)
    dens_out = out_samples * dt / (2.0 * (wall - band))
    # ratio = (w - b)/b (n S / O - 1), and O sums n independent counts;
    # grouped so that the error overflows only where the ratio does
    ratio = dens_in / dens_out
    check_finite(f"the inside/outside ratio {ratio!r} is not finite (band {band!r}, "
                 f"wall {wall!r})", ratio)
    se = ((wall - band) / band * (n * n_samples / out_samples)
          * (math.sqrt(n) * float(outside.std(ddof=1)) / out_samples)
          if n > 1 else float("nan"))
    if n > 1:
        check_finite(f"the ratio's standard error {se!r} is not finite", se)
    return {"inside_outside_ratio": ratio, "inside_outside_se": se}


# --------------------------------------------------------------------------
# piston receptor


def piston_separation_closed_form(p: PistonParams, ramp_sign: int, t):
    """Fast-minus-slow position for a linear signal ramp, exactly, at the
    times t >= 0; ValueError unless ramp_sign is +1 or -1, t is finite and
    so is the separation."""
    if ramp_sign not in (-1, 1):
        raise ValueError("ramp_sign must be +1 or -1")
    t = check_times(t)
    lag = ramp_sign * p.c1 * p.k * p.tau
    # t / tau may overflow, and an infinite lag times the zero pulse at t = 0 is nan
    with np.errstate(over="ignore", invalid="ignore"):
        sep = p.delta_z + lag * (1.0 - np.exp(-t / p.tau))
    check_finite(f"the separation with lag c1 k tau = {lag!r} is not finite", sep)
    return sep


def piston_receptor_simulate(p: PistonParams, ramp_sign: int, t_end: float):
    """Positions of the two receptor parts under the driving signal
    c0 +/- k t, sampled every tau/50.

    The fast part sits at its equilibrium z_f0 + c1 signal at all times;
    the slow part relaxes toward z_f - delta_z with time constant tau, so
    z_f - z_s is piston_separation_closed_form.  Returns the (z_f, z_s)
    trajectory and the times at which the two parts first come within
    lock_tol (tumble events); ValueError for a ramp_sign other than +1 or -1.
    """
    times = _step_times(0.0, t_end, p.tau / 50.0)
    zf = p.z_f0 + p.c1 * (ramp_sign * p.k * times + p.c0)
    sep = piston_separation_closed_form(p, ramp_sign, times)
    locked = np.abs(sep) <= p.lock_tol
    events = [float(t) for t in times[1:][locked[1:] & ~locked[:-1]]]
    return Trajectory(times, np.column_stack([zf, zf - sep])), events
