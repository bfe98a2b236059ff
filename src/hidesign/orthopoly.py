"""Gegenbauer reproducing kernels and Bessel functions.

The central object is the kernel Q_{n,t}, the degree-t Gegenbauer polynomial
with parameter (n-2)/2 rescaled so that Q_{n,t}(1) equals the dimension of
the space of degree-t harmonic homogeneous polynomials on R^n.  On the unit
sphere S^{n-1} this is the reproducing kernel of that space, which is what
makes its sign structure (roots, global minimum) control design bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, cos, pi
from typing import Iterator

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

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
        if self.n < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.n}")
        if self.t < 0:
            raise ValueError(f"degree must be >= 0, got {self.t}")

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
    else the Gegenbauer C_k^lambda with lambda = (n-2)/2."""
    lam = (n - 2) / 2
    prev, cur = np.ones_like(x), x if n == 2 else 2 * lam * x
    yield prev
    if t:
        yield cur
    for k in range(2, t + 1):
        if n == 2:
            prev, cur = cur, 2 * x * cur - prev
        else:
            prev, cur = cur, (2 * (k + lam - 1) * x * cur - (k + 2 * lam - 2) * prev) / k
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


def _jacobi_offdiag(t: int, a: float) -> np.ndarray:
    """Off-diagonal of the symmetric Jacobi matrix for P^(a,a), length t-1."""
    beta = np.empty(t)
    beta[0] = 0.0  # unused
    if t > 1:
        apb2 = 2 + 2 * a
        beta[1] = 4 * (a + 1) ** 2 / ((apb2 + 1) * apb2 * apb2)
        for k in range(2, t):
            apb2 = 2 * k + 2 * a
            beta[k] = (
                4 * k * (k + a) ** 2 * (k + 2 * a)
                / ((apb2 * apb2 - 1) * apb2 * apb2)
            )
    return np.sqrt(beta[1:])


def q_roots(spec: KernelSpec) -> np.ndarray:
    """All t roots of Q_{n,t}, ascending, inside (-1, 1).

    Eigenvalues of the recurrence's symmetric tridiagonal Jacobi matrix give
    the roots to near machine precision; a vectorized bisection polish pins
    each root so |Q(root)| < 1e-9 * Q(1) even at degree ~60.
    """
    n, t = spec.n, spec.t
    if t < 1:
        raise ValueError("root finding needs degree t >= 1")
    if t == 1:
        return np.array([0.0])
    a = (n - 2) / 2 - 0.5
    roots = np.sort(eigvalsh_tridiagonal(np.zeros(t), _jacobi_offdiag(t, a)))
    # brackets: midpoints between adjacent eigenvalue estimates, +-1 outside
    lo = np.empty(t)
    hi = np.empty(t)
    mid = (roots[1:] + roots[:-1]) / 2
    lo[0], hi[-1] = -1.0, 1.0
    lo[1:], hi[:-1] = mid, mid
    flo = q_eval(spec, lo)
    for _ in range(80):
        m = (lo + hi) / 2
        fm = q_eval(spec, m)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, m, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, m)
    return (lo + hi) / 2


def q_min(spec: KernelSpec) -> MinimumReport:
    """Global minimum of Q_{n,t} on [-1,1], reported as c = -min > 0.

    For n = 2 the kernel is 2*cos(t*arccos x) and c = 2 in closed form.  For
    t = 1 the kernel is linear with minimum at -1.  Otherwise the derivative
    of Q_{n,t} is proportional to Q_{n+2,t-1}, so Q is evaluated at every
    root of that kernel plus the endpoints; evaluating all critical points
    instead of only the largest one keeps the routine robust, and agreement
    with the largest root is checked separately as a test invariant.  Among
    locations attaining the minimum (even t gives a symmetric pair) the
    largest is reported.
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
