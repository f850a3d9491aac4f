"""Shared low-level numerical kernels.

Fixed-step time integrators, an exact solver for linear constant-
coefficient ODEs, explicit finite-difference steps for 1-D transport and
diffusion, a bracketed scalar root finder, and small dense linear
algebra.  Everything here is a pure function of value-semantic inputs and
is safe to call concurrently.
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
    """A time integrator met a non-finite value."""


class BracketError(NumericsError):
    """Root bracket does not enclose a sign change."""


class SingularMatrixError(NumericsError):
    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix numerically singular: pivot {pivot_index} has magnitude "
            f"{abs(pivot_value):.3e}"
        )


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid: node count, spacing and time step."""

    n: int
    dx: float
    dt: float

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid needs at least 3 nodes, got {self.n}")
        if self.dx <= 0 or self.dt <= 0:
            raise ValueError("dx and dt must be positive")

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


def _step_times(t0: float, t1: float, h: float) -> np.ndarray:
    """Times for fixed steps of h from t0, with a short final step onto t1."""
    if not (math.isfinite(t0) and math.isfinite(t1) and math.isfinite(h)):
        raise ValueError(f"t0, t1 and h must be finite, got {t0!r}, {t1!r}, {h!r}")
    if h <= 0:
        raise ValueError("step size must be positive")
    if not t1 > t0:
        raise ValueError("t1 must exceed t0")
    n_full = int(math.floor((t1 - t0) / h + 1e-9))
    times = t0 + h * np.arange(n_full + 1)
    if n_full > 0 and times[-1] >= t1 - 1e-9 * h:
        times[-1] = t1
    else:
        times = np.append(times, t1)
    return times


def rk4_integrate(rhs, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Classical four-stage Runge-Kutta with a fixed step.

    rhs(t, y) must return dy/dt.  The local truncation error is O(h^5),
    global O(h^4).  Aborts with the offending time if the derivative or
    state turns non-finite.
    """
    times = _step_times(t0, t1, h)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    states = np.empty((len(times), y.size))
    states[0] = y
    for i in range(len(times) - 1):
        t = times[i]
        dt = times[i + 1] - t
        k1 = np.asarray(rhs(t, y))
        if not np.all(np.isfinite(k1)):
            raise IntegrationError(f"non-finite derivative at t={t!r}")
        k2 = np.asarray(rhs(t + dt / 2, y + dt / 2 * k1))
        k3 = np.asarray(rhs(t + dt / 2, y + dt / 2 * k2))
        k4 = np.asarray(rhs(t + dt, y + dt * k3))
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state after step at t={times[i + 1]!r}")
        states[i + 1] = y
    return Trajectory(times, states)


def euler_integrate(rhs, y0, t0: float, t1: float, h: float) -> Trajectory:
    """Explicit Euler with a fixed step; first order."""
    times = _step_times(t0, t1, h)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    states = np.empty((len(times), y.size))
    states[0] = y
    for i in range(len(times) - 1):
        t = times[i]
        dt = times[i + 1] - t
        k = np.asarray(rhs(t, y))
        if not np.all(np.isfinite(k)):
            raise IntegrationError(f"non-finite derivative at t={t!r}")
        y = y + dt * k
        if not np.all(np.isfinite(y)):
            raise IntegrationError(f"non-finite state after step at t={times[i + 1]!r}")
        states[i + 1] = y
    return Trajectory(times, states)


def ftcs_diffusion_step(field, diffusivity: float, grid: Grid1D,
                        bc=("zero-flux", "zero-flux")) -> np.ndarray:
    """One forward-time centred-space diffusion step.

    bc gives the (left, right) boundary kind, each "zero-flux" (mirrored
    ghost node) or "dirichlet" (boundary value held fixed).  Requires the
    diffusion number diffusivity*dt/dx^2 <= 1/2.
    """
    f = np.asarray(field, dtype=float)
    nu = diffusivity * grid.dt / grid.dx**2
    if nu > 0.5 + 1e-12:
        raise StabilityError(
            f"diffusion number {nu:.4g} exceeds the explicit limit 0.5"
        )
    lap = np.zeros_like(f)
    lap[1:-1] = f[2:] - 2 * f[1:-1] + f[:-2]
    left, right = bc
    if left == "zero-flux":
        lap[0] = 2 * (f[1] - f[0])
    elif left != "dirichlet":
        raise ValueError(f"unknown boundary kind {left!r}")
    if right == "zero-flux":
        lap[-1] = 2 * (f[-2] - f[-1])
    elif right != "dirichlet":
        raise ValueError(f"unknown boundary kind {right!r}")
    return f + nu * lap


def upwind_advection_reaction_step(r, l, v: float, frl, flr, grid: Grid1D):
    """One step of the two-speed advection-reaction system.

    Right-movers r are differenced backward, left-movers l forward
    (upwind for each).  Wall outflow is added to the opposite-direction
    density at the same node, so the total population is conserved
    exactly.  frl and flr are per-node turning-rate fields.  Requires
    CFL = v*dt/dx <= 1 and the reaction number dt*max(frl, flr) <= 1.
    """
    r = np.asarray(r, dtype=float)
    l = np.asarray(l, dtype=float)
    c = v * grid.dt / grid.dx
    if c > 1 + 1e-12:
        raise StabilityError(f"CFL number {c:.4g} exceeds 1")
    rn = grid.dt * max(np.max(frl), np.max(flr))
    if rn > 1 + 1e-12:
        raise StabilityError(f"reaction number {rn:.4g} exceeds 1")
    rt = np.empty_like(r)
    lt = np.empty_like(l)
    rt[1:] = (1 - c) * r[1:] + c * r[:-1]
    rt[0] = (1 - c) * r[0] + c * l[0]
    lt[:-1] = (1 - c) * l[:-1] + c * l[1:]
    lt[-1] = (1 - c) * l[-1] + c * r[-1]
    swap = grid.dt * (np.asarray(frl) * r - np.asarray(flr) * l)
    return rt - swap, lt + swap


def solve_scalar_root(f, bracket: Bracket, tol: float = 1e-12,
                      max_iter: int = 200) -> float:
    """Bisection on a sign-changing bracket.

    Stops when |f| <= tol or the bracket width falls below tol.
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
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tol or (hi - lo) <= tol:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def solve_linear_dense(A, b) -> np.ndarray:
    """Solve Ax = b, b a vector or a matrix of columns, real or complex, by
    Gaussian elimination with partial pivoting.

    Raises SingularMatrixError naming the failing pivot when a pivot
    magnitude falls below 1e-12 relative to the matrix scale.
    """
    dtype = np.result_type(np.asarray(A), np.asarray(b), float)
    M = np.array(A, dtype=dtype)
    x = np.array(b, dtype=dtype)
    n = M.shape[0]
    if M.shape != (n, n) or x.shape[:1] != (n,) or x.ndim > 2:
        raise ValueError("need square A and matching b")
    scale = max(np.abs(M).max(), 1.0)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(M[col:, col])))
        if abs(M[piv, col]) <= 1e-12 * scale:
            raise SingularMatrixError(col, M[piv, col])
        if piv != col:
            M[[col, piv]] = M[[piv, col]]
            x[[col, piv]] = x[[piv, col]]
        inv = 1.0 / M[col, col]
        for row in range(col + 1, n):
            factor = M[row, col] * inv
            if factor != 0.0:
                M[row, col:] -= factor * M[col, col:]
                x[row] -= factor * x[col]
    for col in range(n - 1, -1, -1):
        x[col] = (x[col] - M[col, col + 1:] @ x[col + 1:]) / M[col, col]
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
    squarings = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
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


def solve_linear_ode(A, D, c, y0, t_end: float, h: float,
                     omega: float = 0.0) -> Trajectory:
    """Exact solution of A y' = D y + Re(c e^{i omega t}) from y(0) = y0,
    sampled on the grid of rk4_integrate(..., 0, t_end, h); h sets the
    sample spacing only.  c may be complex; omega = 0 is constant forcing.

    The periodic particular solution Re(Y e^{i omega t}), (i omega A - D) Y
    = c, plus expm(M t) (y0 - Re Y) with M = A^-1 D.  Powers of expm(M h)
    are applied a block of samples at a time: N samples cost O(sqrt N)
    Python-level operations.  Raises SingularMatrixError when A or
    i omega A - D is singular and IntegrationError on a non-finite result.
    """
    times = _step_times(0.0, t_end, h)
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    n = len(y0)
    M = solve_linear_dense(A, D)
    Y = solve_linear_dense(1j * omega * A - D, np.asarray(c, dtype=complex))
    wt = omega * times
    states = np.outer(np.cos(wt), Y.real)
    states -= np.outer(np.sin(wt), Y.imag)
    # homogeneous part on the uniform samples; the last sample follows its
    # own, possibly short, step
    count = len(times) - 1
    block = math.isqrt(count - 1) + 1
    powers = np.empty((block, n, n))
    powers[0] = np.eye(n)
    # a growing solution may overflow here; the finiteness check below
    # reports it as IntegrationError
    with np.errstate(over="ignore", invalid="ignore"):
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
        states[count] += expm(M * (times[count] - times[count - 1])) @ hom[-1]
    states[0] = y0
    if not np.all(np.isfinite(states)):
        raise IntegrationError(f"linear solution turned non-finite before t={t_end!r}")
    return Trajectory(times, states)


def eig2(A):
    """Eigenvalues and eigenvectors of a real 2x2 matrix.

    Roots of lambda^2 - tr(A) lambda + det(A); a complex pair is returned
    as conjugates.  Eigenvectors are the columns of the returned matrix.
    """
    M = np.asarray(A, dtype=float)
    a, b = M[0]
    c, d = M[1]
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4 * det
    if disc >= 0:
        root = math.sqrt(disc)
        lam1 = (tr + root) / 2
        lam2 = (tr - root) / 2
        dtype = float
    else:
        root = math.sqrt(-disc)
        lam1 = complex(tr / 2, root / 2)
        lam2 = complex(tr / 2, -root / 2)
        dtype = complex
    vecs = np.zeros((2, 2), dtype=dtype)
    for j, lam in enumerate((lam1, lam2)):
        v1 = np.array([b, lam - a], dtype=dtype)
        v2 = np.array([lam - d, c], dtype=dtype)
        v = v1 if np.abs(v1).sum() >= np.abs(v2).sum() else v2
        norm = np.sqrt(np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2)
        if norm == 0:
            # scaled identity: any direction is an eigenvector
            v = np.array([1.0, 0.0] if j == 0 else [0.0, 1.0], dtype=dtype)
            norm = 1.0
        vecs[:, j] = v / norm
    return lam1, lam2, vecs
