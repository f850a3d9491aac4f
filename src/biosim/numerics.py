"""Shared low-level numerical kernels.

Fixed-step time integrators, an error-controlled two-state Dormand-Prince 5(4)
integrator, an exact solver for linear constant-coefficient ODEs,
explicit finite-difference steps for 1-D transport and diffusion, a
bracketed scalar root finder, and small dense linear algebra.
Everything here is a pure function of value-semantic inputs and is safe
to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class StabilityError(NumericsError):
    """An explicit scheme was asked to take an unstable step."""


class IntegrationError(NumericsError):
    """A time integrator met a non-finite value or could not meet its error
    tolerance."""


class BracketError(NumericsError):
    """Root bracket does not enclose a sign change."""


class SingularMatrixError(NumericsError):
    """A linear system is exactly singular, or its 1-norm reciprocal
    condition number is below machine epsilon."""


def check_domain(obj, positive=(), nonnegative=(), finite=()):
    """The one domain check of the parameter types: ValueError naming the
    first field of obj, in the order given, that is not finite, or not > 0
    when listed in positive, or not >= 0 when listed in nonnegative."""
    for name in (*positive, *nonnegative, *finite):
        x = getattr(obj, name)
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x!r}")
        if name in positive and not x > 0:
            raise ValueError(f"{name} must be positive, got {x!r}")
        if name in nonnegative and not x >= 0:
            raise ValueError(f"{name} must be nonnegative, got {x!r}")


def check_finite(message: str, *values):
    """ValueError(message) unless every value, a number or an array, is finite.
    Floats take math.isfinite: numpy costs microseconds per scalar."""
    for v in values:
        if not (math.isfinite(v) if isinstance(v, float) else np.all(np.isfinite(v))):
            raise ValueError(message)


def check_times(t) -> np.ndarray:
    """t as a float array; ValueError unless every time is finite and nonnegative."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < math.inf)):
        raise ValueError("times must be finite and nonnegative")
    return t


def kept_samples(last: int, every: int) -> np.ndarray:
    """Indices 0, every, 2 every, ... below last, and last: the kept samples."""
    return np.append(np.arange(0, last, every), last)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid: node count, spacing and time step."""

    n: int
    dx: float
    dt: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got {self.n}")
        if self.n > _MAX_SAMPLES:
            raise ValueError(f"grid of {self.n} nodes is above the cap of {_MAX_SAMPLES}")
        check_domain(self, positive=("dx", "dt"))
        if not 0 < self.dx * self.dx < math.inf:  # the diffusion number divides by it
            raise ValueError(f"dx^2 must be a positive finite number, got dx = {self.dx!r}")

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket must satisfy lo < hi, got [{self.lo}, {self.hi}]")


@dataclass
class Trajectory:
    """Time series of state vectors; times strictly increasing, values finite."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.states))):
            raise ValueError("trajectory contains non-finite values")

    def __len__(self) -> int:
        return len(self.times)

    def final(self) -> np.ndarray:
        return self.states[-1]


# the most samples a time grid may hold (80 MB of times); also the most
# steps of a fixed-step run, nodes of a grid and node values a field run keeps
_MAX_SAMPLES = 10_000_000
_LAPLACIAN = np.array([1.0, -2.0, 1.0])  # np.correlate swaps it with a shorter row


def _step_times(t0: float, t1: float, h: float) -> np.ndarray:
    """Times for fixed steps of h from t0, with a short final step onto t1.

    Raises ValueError, before allocating, for a grid of more than
    _MAX_SAMPLES samples."""
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(h)):
        raise ValueError(f"t0, t1 and h must be finite, got {t0!r}, {t1!r}, {h!r}")
    if h <= 0:
        raise ValueError("step size must be positive")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    steps = (t1 - t0) / h
    if steps > _MAX_SAMPLES - 1:
        raise ValueError(f"step {h!r} on [{t0!r}, {t1!r}] needs {steps + 1:.3g} samples, "
                         f"above the cap of {_MAX_SAMPLES}")
    n_full = int(math.floor(steps + 1e-9))
    times = t0 + h * np.arange(n_full + 1)
    # t1 replaces the last full step's time when within 1e-9 h of it
    if n_full > 0 and times[-1] >= t1 - 1e-9 * h:
        times[-1] = t1
    else:
        times = np.append(times, t1)
    return times


def _step_count(t_end: float, dt: float) -> int:
    """round(t_end / dt), the steps of a fixed-step run.

    Raises ValueError, before the run starts, for more than _MAX_SAMPLES
    steps."""
    ratio = t_end / dt
    if math.isinf(ratio) or round(ratio) > _MAX_SAMPLES:
        raise ValueError(f"t_end {t_end!r} at step {dt!r} needs {ratio:.3g} steps, "
                         f"above the cap of {_MAX_SAMPLES}")
    return round(ratio)


def run_fields(advance, fields, t_end: float, grid: Grid1D, sample_every: int,
               names: str):
    """March fields, a sequence of arrays of grid.n node values, for
    round(t_end / dt) steps (none for t_end <= 0), keeping them at step 0,
    every sample_every-th step and the last.  advance(*fields, steps) takes
    that many steps and returns the new fields; it is called once per kept
    interval, with overflow and invalid operations left to the check below.
    Returns (times, blocks), blocks the kept fields as a (fields, samples,
    nodes) array.

    Raises ValueError, before advance is called, for a stride below 1, more
    than _MAX_SAMPLES steps or more than _MAX_SAMPLES kept node values, and
    StabilityError, naming names and the sample's time, as soon as a kept
    sample of any field is negative or not finite: a bad initial state
    takes no step, and a run stops at its first bad sample."""
    if sample_every < 1:
        raise ValueError(f"sample_every must be at least 1, got {sample_every!r}")
    steps = max(_step_count(t_end, grid.dt), 0)
    samples = 1 + -(-steps // sample_every)
    if samples * grid.n > _MAX_SAMPLES:
        raise ValueError(f"{samples} kept states of {grid.n} nodes exceed the cap of "
                         f"{_MAX_SAMPLES} values")
    kept = kept_samples(steps, sample_every)
    blocks = np.empty((len(fields), samples, grid.n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, taken in enumerate(np.diff(kept, prepend=0).tolist()):
            if k:
                fields = advance(*fields, taken)
            blocks[:, k] = fields
            sample = blocks[:, k]
            # the extremes (a NaN propagates into both) rather than a mask
            if not (sample.min() >= 0 and sample.max() < np.inf):
                raise StabilityError(f"{names} is negative or not finite at t = "
                                     f"{kept[k] * grid.dt:.6g}")
    return kept * grid.dt, blocks


def _fixed_steps(rhs, y0, t0: float, t1: float, h: float, advance) -> Trajectory:
    """Fixed steps of h from t0 with a short final step onto t1, each
    y -> advance(t, dt, y, rhs(t, y)).  Aborts with the offending time if
    the derivative or state turns non-finite."""
    times = _step_times(t0, t1, h)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    states = np.empty((len(times), y.size))
    states[0] = y
    # overflow surfaces as IntegrationError from the finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(times) - 1):
            t = times[i]
            dt = times[i + 1] - t
            k1 = np.asarray(rhs(t, y))
            if not np.all(np.isfinite(k1)):
                raise IntegrationError(f"non-finite derivative at t={float(t)!r}")
            y = advance(t, dt, y, k1)
            if not np.all(np.isfinite(y)):
                raise IntegrationError(
                    f"non-finite state after step at t={float(times[i + 1])!r}")
            states[i + 1] = y
    return Trajectory(times, states)


def rk4_integrate(rhs, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical four-stage Runge-Kutta with a fixed step.

    rhs(t, y) must return dy/dt.  The local truncation error is O(h^5),
    global O(h^4).  Aborts with the offending time if the derivative or
    state turns non-finite.
    """
    def advance(t, dt, y, k1):
        k2 = np.asarray(rhs(t + dt / 2, y + dt / 2 * k1))
        k3 = np.asarray(rhs(t + dt / 2, y + dt / 2 * k2))
        k4 = np.asarray(rhs(t + dt, y + dt * k3))
        return y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return _fixed_steps(rhs, y0, t0, t1, h, advance)


def euler_integrate(rhs, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Explicit Euler with a fixed step; first order."""
    return _fixed_steps(rhs, y0, t0, t1, h, lambda t, dt, y, k: y + dt * k)


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6:19, 1980), unrolled into
# dopri5_integrate: stage nodes _Cs and coefficients _Asj; the order-5
# weights _Bj, which are also the seventh stage's row (that stage is the
# derivative at the new state, so it is the next step's first: FSAL); the
# order-5 minus order-4 error weights _Ej and the order-4 dense-output
# weights _Dj (Hairer, Norsett & Wanner, Solving ODEs I, II.4-6).  The
# second stage's weights B2, E2 and D2 are zero.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200,
                                22 / 525, -1 / 40)
_D1, _D3, _D4, _D5, _D6, _D7 = (-12715105075 / 11282082432, 87487479700 / 32700410799,
                                -10690763975 / 1880347072, 701980252875 / 199316789632,
                                -1453857185 / 822651844, 69997945 / 29380423)
# error tolerances and the step budget of dopri5_integrate
DP5_RTOL = 1e-10
DP5_ATOL = 1e-12
DP5_MAX_STEPS = 100_000


def dopri5_integrate(rhs, y0, t_end: float, h: float) -> Trajectory:
    """Error-controlled Dormand-Prince 5(4) of a two-state system from t = 0,
    sampled on the grid of rk4_integrate(..., 0, t_end, h); h sets the
    sample spacing only.

    Each step keeps the local error estimate below DP5_ATOL + DP5_RTOL |y|
    (root-mean-square over the two components), with a PI step controller
    (Hairer, Norsett & Wanner, II.4).  The samples inside an accepted step
    come from its order-4 continuous extension.  A trial step whose stages
    turn non-finite, or whose rhs calls or arithmetic raise
    ArithmeticError (float overflow, division by zero), is rejected like
    one with too large an error.  Costs 6 rhs calls per attempted step
    plus one.  Raises IntegrationError when the initial derivative is
    non-finite or raises ArithmeticError, when the step size underflows
    and after DP5_MAX_STEPS attempted steps, and ValueError unless y0
    holds two states and rhs returns two derivatives.

    rhs(t, y1, y2) gets the state as two Python floats and returns the two
    derivatives as floats, in any sequence.  Each stage is written out per
    component, so a step forms no list or array: the kernel is sized for
    the calcium/cyclase switch.
    """
    times = _step_times(0.0, t_end, h)
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    if y0.shape != (2,):
        raise ValueError(f"dopri5_integrate steps two states, got {y0.size}")
    states = np.empty((len(times), 2))
    states[0] = y0
    rtol, atol = DP5_RTOL, DP5_ATOL

    # overflow surfaces as a rejected step, then as IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = y0.tolist()
        try:
            k1 = rhs(0.0, a, b)
            finite = all(map(math.isfinite, k1))
        except ArithmeticError:
            finite = False
        if not finite:
            raise IntegrationError("non-finite derivative at t=0.0")
        if len(k1) != 2:
            raise ValueError(f"rhs returned {len(k1)} derivatives for 2 states")
        p1, q1 = k1
        # first trial step from the scale of y over that of y' (HNW II.4)
        sa, sb = atol + rtol * abs(a), atol + rtol * abs(b)
        d0 = math.sqrt(((a / sa) * (a / sa) + (b / sb) * (b / sb)) / 2)
        d1 = math.sqrt(((p1 / sa) * (p1 / sa) + (q1 / sb) * (q1 / sb)) / 2)
        step = 0.01 * (d0 / d1) if d0 > 1e-5 and d1 > 1e-5 else 1e-6
        min_step = 10 * np.finfo(float).eps * t_end
        t = 0.0
        err_old, rejected = 1e-4, False
        # per accepted step: its start and size, and the state, derivative
        # and D-weighted stages the continuous extension needs; p and q are
        # the stages' first and second components
        starts, sizes, ys, ks, dks = [], [], [(a, b)], [(p1, q1)], []
        for _ in range(DP5_MAX_STEPS):
            if step < min_step:
                raise IntegrationError(f"step size underflow at t={t!r}")
            last = t + 1.01 * step >= t_end
            if last:
                step = t_end - t
            try:
                p2, q2 = rhs(t + _C2 * step, a + step * (_A21 * p1), b + step * (_A21 * q1))
                p3, q3 = rhs(t + _C3 * step, a + step * (_A31 * p1 + _A32 * p2),
                             b + step * (_A31 * q1 + _A32 * q2))
                p4, q4 = rhs(t + _C4 * step, a + step * (_A41 * p1 + _A42 * p2 + _A43 * p3),
                             b + step * (_A41 * q1 + _A42 * q2 + _A43 * q3))
                p5, q5 = rhs(t + _C5 * step,
                             a + step * (_A51 * p1 + _A52 * p2 + _A53 * p3 + _A54 * p4),
                             b + step * (_A51 * q1 + _A52 * q2 + _A53 * q3 + _A54 * q4))
                p6, q6 = rhs(t + step,
                             a + step * (_A61 * p1 + _A62 * p2 + _A63 * p3 + _A64 * p4
                                         + _A65 * p5),
                             b + step * (_A61 * q1 + _A62 * q2 + _A63 * q3 + _A64 * q4
                                         + _A65 * q5))
                a_new = a + step * (_B1 * p1 + _B3 * p3 + _B4 * p4 + _B5 * p5 + _B6 * p6)
                b_new = b + step * (_B1 * q1 + _B3 * q3 + _B4 * q4 + _B5 * q5 + _B6 * q6)
                p7, q7 = rhs(t_end if last else t + step, a_new, b_new)
                ea = (step * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6 + _E7 * p7)
                      / (atol + rtol * max(abs(a), abs(a_new))))
                eb = (step * (_E1 * q1 + _E3 * q3 + _E4 * q4 + _E5 * q5 + _E6 * q6 + _E7 * q7)
                      / (atol + rtol * max(abs(b), abs(b_new))))
                # the error weights skip k2, so test it apart
                err = (math.sqrt((ea * ea + eb * eb) / 2)
                       if math.isfinite(p2) and math.isfinite(q2) else math.inf)
            except ArithmeticError:
                err = math.inf
            if not math.isfinite(err):
                err = math.inf
            # PI control: exponents 0.17 and 0.04, safety 0.9, and the step
            # changes by a factor between 0.2 and 10
            gain = err**0.17
            if err > 1.0:
                step /= min(5.0, gain / 0.9)
                rejected = True
                continue
            starts.append(t)
            sizes.append(step)
            ys.append((a_new, b_new))
            ks.append((p7, q7))
            dks.append((_D1 * p1 + _D3 * p3 + _D4 * p4 + _D5 * p5 + _D6 * p6 + _D7 * p7,
                        _D1 * q1 + _D3 * q3 + _D4 * q4 + _D5 * q5 + _D6 * q6 + _D7 * q7))
            if last:
                break
            new_step = step / max(0.1, min(5.0, gain / err_old**0.04 / 0.9))
            t += step
            step = min(new_step, step) if rejected else new_step
            a, b, p1, q1 = a_new, b_new, p7, q7
            err_old, rejected = max(err, 1e-4), False
        else:
            raise IntegrationError(f"out of steps: {DP5_MAX_STEPS} attempted, at t={t!r}")
    # order-4 continuous extension (HNW II.6, dense output of DOPRI5) of each
    # accepted step, y + th (c1 + th (c2 + th (c3 + th c4))) in the step's
    # fraction th, evaluated at every sample in one pass, one coefficient at
    # a time and in place, so no per-sample copy of every coefficient is held
    start, size = np.array(starts), np.array(sizes)
    ys, ks, h_col = np.array(ys), np.array(ks), size[:, None]
    dy = np.diff(ys, axis=0)
    c1 = h_col * ks[:-1]
    b = c1 - dy
    r4 = dy - h_col * ks[1:] - b
    c4 = h_col * np.array(dks)
    # each sample belongs to the first step that ends at or after it
    idx = np.searchsorted(np.append(start[1:], t_end), times[1:])
    th = ((times[1:] - start[idx]) / size[idx])[:, None]
    out = states[1:]
    np.take(c4, idx, axis=0, out=out)
    for c in (-r4 - 2 * c4, r4 + c4 - b, c1, ys[:-1]):
        out *= th
        out += c[idx]
    return Trajectory(times, states)


def ftcs_diffusion_step(field, diffusivity: float, grid: Grid1D,
                        bc=("zero-flux", "zero-flux")) -> np.ndarray:
    """One forward-time centred-space diffusion step.

    field is one row of grid.n nodes, bc the (left, right) boundary kinds,
    each "zero-flux" (mirrored ghost node) or "dirichlet" (value held fixed).
    Raises ValueError for a field of another shape or a negative or NaN
    diffusion number diffusivity*dt/dx^2, and StabilityError for one above 1/2.
    """
    f = np.asarray(field, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"field of shape {f.shape} is not one row of {grid.n} nodes")
    nu = diffusivity * grid.dt / grid.dx**2
    if not nu >= 0:
        raise ValueError(f"diffusion number {nu!r} must be nonnegative")
    if nu > 0.5 + 1e-12:
        raise StabilityError(f"diffusion number {nu:.4g} exceeds the explicit limit 0.5")
    # (f[i-1] - 2 f[i]) + f[i+1], summed in that order, in the result's buffer
    lap = np.correlate(f, _LAPLACIAN, "same")
    for end, inner, kind in ((0, 1, bc[0]), (-1, -2, bc[1])):
        if kind not in ("zero-flux", "dirichlet"):
            raise ValueError(f"unknown boundary kind {kind!r}")
        lap[end] = 2 * (f[inner] - f[end]) if kind == "zero-flux" else 0.0
    lap *= nu
    lap += f
    return lap


def upwind_advection_reaction_step(r, l, v: float, frl, flr, grid: Grid1D):
    """One step of the two-speed advection-reaction system.

    Right-movers r are differenced backward, left-movers l forward
    (upwind for each).  Wall outflow is added to the opposite-direction
    density at the same node, so the total population is conserved
    exactly.  r and l are rows of grid.n nodes, frl and flr per-node rates.
    Requires CFL = v*dt/dx <= 1 and the reaction number dt*max(frl, flr) <= 1;
    a NaN rate, or an r or l of another shape, raises ValueError.
    """
    r, l = np.asarray(r, dtype=float), np.asarray(l, dtype=float)
    if r.shape != (grid.n,) or l.shape != (grid.n,):
        raise ValueError(f"r {r.shape} and l {l.shape} must be rows of {grid.n} nodes")
    c = v * grid.dt / grid.dx
    if c > 1 + 1e-12:
        raise StabilityError(f"CFL number {c:.4g} exceeds 1")
    frl, flr = np.asarray(frl), np.asarray(flr)
    top_rl, top_lr = frl.max(), flr.max()
    # ndarray.max keeps a NaN, but Python's max and the > test below drop it
    if math.isnan(top_rl) or math.isnan(top_lr):
        raise ValueError("turning rates must not be NaN")
    rn = grid.dt * max(top_rl, top_lr)
    if rn > 1 + 1e-12:
        raise StabilityError(f"reaction number {rn:.4g} exceeds 1")
    # (1 - c) times the density plus c times its upwind neighbour, which at
    # a wall is the other direction's density; 0-d weights multiply faster
    stay, c = np.array(1 - c), np.array(c)
    rt, lt, cr, cl = r * stay, l * stay, r * c, l * c
    downstream = rt[1:]
    downstream += cr[:-1]
    rt[0] += cl[0]
    downstream = lt[:-1]
    downstream += cl[1:]
    lt[-1] += cr[-1]
    # the turning exchange dt (frl r - flr l), in place
    np.multiply(frl, r, cr)
    cr -= np.multiply(flr, l, cl)
    cr *= grid.dt
    rt -= cr
    lt += cr
    return rt, lt


def solve_scalar_root(f, bracket: Bracket, tol: float = 1e-12) -> float:
    """Root of f on a sign-changing bracket by the ITP method: interpolate,
    truncate, project (Oliveira & Takahashi, ACM TOMS 47, 2020).

    Each step starts from the secant (regula falsi) point of the bracket
    ends and moves it 0.2 w^2 / w0 toward the midpoint (w the bracket
    width, w0 the first one), so that neither end stalls.  It then projects
    the point onto the interval about the midpoint that keeps the bracket
    within two halvings of bisection's: after step k (from 0) the width is
    at most w0 2^(1 - k).  A point not strictly inside the bracket falls
    back to the midpoint.  So f takes at most ceil(log2(w0 / tol)) + 2
    evaluations besides f(lo) and f(hi), one more than bisection, and a
    smooth simple root converges superlinearly, in about ten at
    tol = 1e-13.

    Returns the end where f is 0; otherwise the last point once |f| <= tol
    or the bracket width is at most tol, or the midpoint after 200 steps.
    Raises BracketError when f(lo) and f(hi) have one sign.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    lo_negative = flo < 0
    w0 = hi - lo
    for k in range(200):
        width = hi - lo
        mid = 0.5 * (lo + hi)
        # flo / (flo - fhi) lies in [0, 1]; a nan secant point ends at mid
        x = lo + width * (flo / (flo - fhi))
        toward = math.copysign(1.0, mid - x)
        shift = 0.2 * width * (width / w0)
        x = x + toward * shift if shift <= abs(mid - x) else mid
        radius = w0 * 2.0 ** (1 - k) - 0.5 * width
        if abs(x - mid) > radius:
            x = mid - toward * radius
        if not lo < x < hi:
            x = mid
        fx = f(x)
        if (fx < 0) == lo_negative:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        if abs(fx) <= tol or hi - lo <= tol:
            return x
    return 0.5 * (lo + hi)


def solve_linear_dense(A, b) -> np.ndarray:
    """Solve Ax = b, b a vector or a matrix of columns, real or complex, by
    LAPACK's LU factorisation with partial pivoting (np.linalg.solve).

    Raises SingularMatrixError when A has an exactly zero pivot or its 1-norm
    reciprocal condition number is below machine epsilon; the rule depends
    on A alone, not on its scale.
    """
    A = np.asarray(A)
    b = np.asarray(b)
    n = A.shape[0]
    if A.shape != (n, n) or b.shape[:1] != (n,) or b.ndim > 2:
        raise ValueError("need square A and matching b")
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is exactly singular") from None
    rcond = 1.0 / np.linalg.cond(A, 1)
    if rcond < np.finfo(float).eps:
        raise SingularMatrixError(f"matrix numerically singular: reciprocal "
                                  f"condition number {rcond:.3e}")
    return x


# Coefficients of the degree-13 Pade approximant to exp and the 1-norm up
# to which it is accurate to double precision (Higham 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the degree-13 Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005); it needs
    no eigenbasis, so defective matrices are handled like any other."""
    X = np.array(A, dtype=float)
    n = X.shape[0]
    if X.shape != (n, n):
        raise ValueError("expm needs a square matrix")
    norm = float(np.abs(X).sum(axis=0).max())
    if not math.isfinite(norm):
        raise ValueError("expm needs a finite matrix")
    if norm == 0:
        # the Pade approximant of exp(0) is exactly I; a solve may round it
        return np.eye(n)
    squarings = max(0, math.ceil(math.log2(norm / _THETA13)))
    X /= 2.0**squarings
    b = _PADE13
    ident = np.eye(n)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident)
    R = solve_linear_dense(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return R


def periodic_solution(A, D, c, omega: float = 0.0) -> np.ndarray:
    """The complex amplitude Y of the periodic particular solution
    Re(Y e^{i omega t}) of A y' = D y + Re(c e^{i omega t}), from
    (i omega A - D) Y = c; omega = 0 gives the steady solution Re Y.

    Raises SingularMatrixError when i omega A - D is singular by the rule of
    solve_linear_dense and IntegrationError when Y is not finite."""
    # i omega A may overflow; the check below reports the non-finite Y
    with np.errstate(over="ignore", invalid="ignore"):
        Y = solve_linear_dense(1j * omega * np.asarray(A, dtype=float)
                               - np.asarray(D, dtype=float),
                               np.asarray(c, dtype=complex))
    if not np.all(np.isfinite(Y)):
        raise IntegrationError(f"periodic solution is not finite at omega={omega!r}")
    return Y


def solve_linear_ode(A, D, c, y0, t_end: float, h: float,
                     omega: float = 0.0) -> Trajectory:
    """Exact solution of A y' = D y + Re(c e^{i omega t}) from y(0) = y0,
    sampled on the grid of rk4_integrate(..., 0, t_end, h); h sets the
    sample spacing only.  c may be complex; omega = 0 is constant forcing.

    The periodic particular solution Re(Y e^{i omega t}) (periodic_solution)
    plus expm(M t) (y0 - Re Y) with M = A^-1 D.  Powers of expm(M h) are
    applied a block of samples at a time, so N samples cost O(sqrt N)
    Python-level operations.  Raises SingularMatrixError when A or
    i omega A - D is singular by the rule of solve_linear_dense, and
    IntegrationError on a non-finite result or where Re Y dwarfs the
    solution: the sum then cancels Re Y against itself, and its relative
    error, about count eps max|Re Y| / max|states| over count steps, would
    exceed 1e-8.
    """
    times = _step_times(0.0, t_end, h)
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    n = len(y0)
    M = solve_linear_dense(A, D)
    if not np.all(np.isfinite(M)):
        raise IntegrationError("the rate matrix A^-1 D is not finite")
    Y = periodic_solution(A, D, c, omega)
    # homogeneous part on the uniform samples; the last sample follows the
    # one before it by its own, possibly short, step
    count = len(times) - 1
    block = math.isqrt(count - 1) + 1
    powers = np.empty((block, n, n))
    powers[0] = np.eye(n)
    # a growing solution may overflow here; the finiteness check below
    # reports it as IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
        wt = omega * times
        states = np.outer(np.cos(wt), Y.real)
        states -= np.outer(np.sin(wt), Y.imag)
        E = expm(M * h)
        for k in range(1, block):
            powers[k] = powers[k - 1] @ E
        jump = powers[-1] @ E
        z = y0 - Y.real
        for start in range(0, count, block):
            stop = min(start + block, count)
            hom = powers[:stop - start] @ z
            states[start:stop] += hom
            z = jump @ z
        states[-1] += expm(M * (times[-1] - times[-2])) @ hom[-1]
    states[0] = y0
    if not np.all(np.isfinite(states)):
        raise IntegrationError(f"linear solution turned non-finite before t={t_end!r}")
    # the states carry the rounding of each step at the size of Re Y
    big, size = float(np.abs(Y.real).max()), float(np.abs(states).max())
    lost = count * np.finfo(float).eps * big
    if lost > 1e-8 * size:
        raise IntegrationError(
            f"cancellation: the particular solution (max |Re Y| = {big:.3g}) dwarfs the "
            f"states (max {size:.3g}); the relative error may reach {lost / size:.1e}")
    return Trajectory(times, states)
