"""Gegenbauer reproducing kernels and Bessel functions.

The central object is the kernel Q_{n,t}, the degree-t Gegenbauer polynomial
with parameter (n-2)/2 rescaled so that Q_{n,t}(1) equals the dimension of
the space of degree-t harmonic homogeneous polynomials on R^n.  On the unit
sphere S^{n-1} this is the reproducing kernel of that space, which is what
makes its sign structure (roots, global minimum) control design bounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import comb, cos, pi
from typing import Iterator

import numpy as np

__all__ = [
    "dim_harmonic",
    "KernelSpec",
    "MinimumReport",
    "q_eval",
    "q_roots",
    "q_min",
    "bessel_j",
    "bessel_first_zero",
]

ROOT_RESIDUAL_TOL = 1e-9  # |Q(root)| below this multiple of Q(1)
ROOT_GRID_DOUBLINGS = 4  # bracketing grids tried after the first, each twice as fine
BESSEL_SCAN_STEP = 1e-2  # smaller than the spacing of low-order Bessel zeros


def dim_harmonic(n: int, t: int) -> int:
    """Dimension of the degree-t harmonic homogeneous polynomials on R^n.

    Equals C(n+t-1, t) - C(n+t-3, t-2); the second term is zero for t < 2.
    """
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    if t < 0:
        raise ValueError(f"degree must be >= 0, got {t}")
    if t < 2:
        return comb(n + t - 1, t)
    return comb(n + t - 1, t) - comb(n + t - 3, t - 2)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel parameters: ambient dimension n >= 2 and degree t >= 0."""

    n: int
    t: int

    def __post_init__(self):
        dim_harmonic(self.n, self.t)  # raises on n < 2 or t < 0

    @property
    def dim(self) -> int:
        return dim_harmonic(self.n, self.t)


@dataclass(frozen=True)
class MinimumReport:
    """Global minimum of Q on [-1,1]: c = -min (positive) and its location."""

    c: float
    argmin: float
    method: str


def _recurrence(n: int, t: int, x: np.ndarray) -> Iterator[np.ndarray]:
    """Yield P_0(x), ..., P_t(x) in one pass, Q_{n,k} = _scale(n, k) * P_k: the
    Chebyshev T_k for n = 2 (the Gegenbauer step degenerates at lambda = 0),
    else the Gegenbauer C_k^lambda with lambda = (n-2)/2.

    Three buffers of x's shape rotate and are updated in place, in the
    operation order of 2*(k+lam-1)*x*P_{k-1} - (k+2*lam-2)*P_{k-2}, then / k:
    a yielded array is overwritten two steps later, so a caller may keep the
    last two.  x itself is never written."""
    lam = (n - 2) / 2
    prev, cur = np.ones_like(x), x.copy() if n == 2 else 2 * lam * x
    yield prev
    if t:
        yield cur
    spare = np.empty_like(x)
    for k in range(2, t + 1):
        if n == 2:
            np.multiply(x, 2, out=spare)
            spare *= cur
            spare -= prev
        else:
            np.multiply(x, 2 * (k + lam - 1), out=spare)
            spare *= cur
            prev *= k + 2 * lam - 2
            spare -= prev
            spare /= k
        prev, cur, spare = cur, spare, prev
        yield cur


def _scale(n: int, k: int) -> float:
    """Q_{n,k}(1) / P_k(1): 2 on the circle, else dim / C(k+n-3, k), exactly."""
    if n == 2:
        return 2.0 if k else 1.0
    return dim_harmonic(n, k) / comb(k + n - 3, k)


def q_eval(spec: KernelSpec, x):
    """Evaluate Q_{n,t} at x (scalar or ndarray).

    Uses the classical three-term recurrence, rescaled by the exact
    normalization so that Q_{n,t}(1) = dim_harmonic(n, t).  Well conditioned
    on [-1,1]; outside that interval the value grows like the unnormalized
    polynomial and loses meaning as a kernel.
    """
    arr = np.asarray(x, dtype=float)
    for last in _recurrence(spec.n, spec.t, np.atleast_1d(arr)):
        pass
    out = last * _scale(spec.n, spec.t)
    return float(out[0]) if arr.ndim == 0 else out


def q_roots(spec: KernelSpec) -> np.ndarray:
    """All t roots of Q_{n,t}, ascending, inside (-1, 1), with no eigen-solver.

    One recurrence pass on a grid uniform in arccos x and symmetric about 0
    brackets the roots: t sign changes, counting exact zeros on the grid
    (0 for odd t), certify one root per bracket; else the grid doubles, at
    most ROOT_GRID_DOUBLINGS times, before a RuntimeError.  Newton's method
    refines each bracket from its chord's zero, with the derivative from the
    same pass, (1-x^2) P_t' = (t+2*lambda-1) P_{t-1} - t*x*P_t (t*(T_{t-1} -
    x*T_t) for n = 2); a step leaving the bracket or not half the previous
    one becomes a bisection, and a root is final when its step is <= 4 ulps.
    """
    n, t = spec.n, spec.t
    if t < 1:
        raise ValueError("root finding needs degree t >= 1")
    size = int(t + (n - 2) / 2 + 1)
    for _ in range(ROOT_GRID_DOUBLINGS + 1):
        half = np.sin(np.linspace(0.0, pi / 2, size + 1))
        grid = np.concatenate([-half[:0:-1], half])
        vals = deque(_recurrence(n, t, grid), maxlen=1)[0]
        sign = np.sign(vals)
        cross = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        if len(cross) + np.count_nonzero(vals == 0) == t:
            break
        size *= 2
    else:
        raise RuntimeError(f"could not isolate the {t} roots of Q_{{{n},{t}}} on {len(grid)} grid points")
    lo, hi, flo, fhi = grid[cross], grid[cross + 1], vals[cross], vals[cross + 1]
    x = lo + (hi - lo) * (flo / (flo - fhi))
    x = np.where(np.isfinite(x), x, (lo + hi) / 2)  # the chord's zero, or the midpoint on overflow
    moved, live = hi - lo, np.arange(len(x))
    a = t if n == 2 else t + n - 3
    while len(live):  # ends: accepted steps halve, and each bisection halves the bracket
        xl = x[live]
        prev, cur = deque(_recurrence(n, t, xl), maxlen=2)
        below = np.sign(cur) == np.sign(flo[live])
        lo[live[below]], hi[live[~below]] = xl[below], xl[~below]
        step = cur * (1 - xl * xl) / (a * prev - t * xl * cur)
        new, tiny = xl - step, 4 * np.spacing(np.abs(xl))
        keep = (lo[live] <= new) & (new <= hi[live]) & (np.abs(step) <= moved[live] / 2)
        new = np.where(keep | (np.abs(step) <= tiny), new, (lo[live] + hi[live]) / 2)
        moved[live], x[live] = np.abs(new - xl), new
        live = live[moved[live] > tiny]
    return np.sort(np.concatenate([x, grid[vals == 0]]))


def q_min(spec: KernelSpec) -> MinimumReport:
    """Global minimum of Q_{n,t} on [-1,1], reported as c = -min > 0.

    Closed forms for n = 2 (2*cos(t*arccos x), c = 2) and t = 1 (linear,
    minimum at -1).  Otherwise Q_{n,t}' is proportional to Q_{n+2,t-1}, so Q
    is evaluated at every root of that kernel, found by q_roots' bracketing
    pass and safeguarded Newton, plus the endpoints; all critical points are
    tried, not only the largest.  Among locations attaining the minimum (even
    t gives a symmetric pair) the largest is reported.
    """
    n, t = spec.n, spec.t
    if t < 1:
        raise ValueError("the degree-0 kernel is constant")
    if n == 2:
        return MinimumReport(c=2.0, argmin=cos(pi / t), method="chebyshev-closed-form")
    if t == 1:
        return MinimumReport(c=float(n), argmin=-1.0, method="linear-closed-form")
    crit = q_roots(KernelSpec(n + 2, t - 1))
    cand = np.concatenate([crit, [-1.0, 1.0]])
    vals = q_eval(spec, cand)
    vmin = vals.min()
    near = cand[vals <= vmin + 1e-12 * abs(vmin)]
    return MinimumReport(c=-float(vmin), argmin=float(near.max()), method="derivative-roots")


def bessel_j(alpha: float, z):
    """Bessel function of the first kind J_alpha(z) for z >= 0.

    Delegates to scipy's jv, which is accurate to well over 10 significant
    digits on the range used here (z up to ~60).
    """
    from scipy.special import jv  # imported on use: only the Bessel functions need it
    if alpha < 0 or not np.isfinite(alpha):
        raise ValueError(f"order must be finite and >= 0, got {alpha}")
    arr = np.asarray(z, dtype=float)
    if np.any(arr < 0):
        raise ValueError("argument must be >= 0")
    out = jv(alpha, arr)
    return float(out) if arr.ndim == 0 else out


def bessel_first_zero(alpha: float) -> float:
    """First positive zero j_{alpha,1} of J_alpha, to better than 1e-9.

    J_alpha is positive on (0, j_{alpha,1}) and j_{alpha,1} < alpha +
    pi*(1+alpha) for the orders used here, so a sign-change scan from
    z = alpha with step 1e-2 brackets the zero; bisection then refines it to
    1e-13, or to adjacent floats for zeros above 512, where one ulp exceeds that.
    """
    from scipy.special import jv
    if alpha < 0 or not np.isfinite(alpha):
        raise ValueError(f"order must be finite and >= 0, got {alpha}")
    start = max(alpha, BESSEL_SCAN_STEP)
    grid = np.arange(start, alpha + pi * (1 + alpha) + BESSEL_SCAN_STEP, BESSEL_SCAN_STEP)
    vals = jv(alpha, grid)
    flips = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
    if len(flips) == 0:
        raise RuntimeError(f"no sign change of J_{alpha} in the scan window (window bug)")
    i = flips[0]
    lo, hi = grid[i], grid[i + 1]
    flo = vals[i]
    while hi - lo > 1e-13:
        m = (lo + hi) / 2
        if m in (lo, hi):
            break
        fm = jv(alpha, m)
        if np.sign(fm) == np.sign(flo):
            lo, flo = m, fm
        else:
            hi = m
    return (lo + hi) / 2
