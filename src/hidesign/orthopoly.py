"""Gegenbauer reproducing kernels: evaluation, roots and minima.

The central object is the kernel Q_{n,t}, the degree-t Gegenbauer polynomial
with parameter (n-2)/2 rescaled so that Q_{n,t}(1) equals the dimension of
the space of degree-t harmonic homogeneous polynomials on R^n.  On the unit
sphere S^{n-1} this is the reproducing kernel of that space, which is what
makes its sign structure (roots, global minimum) control design bounds.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from math import comb, cos, pi
from typing import Iterator

__all__ = [
    "dim_harmonic",
    "KernelSpec",
    "MinimumReport",
    "q_eval",
    "q_roots",
    "q_min",
]

ROOT_RESIDUAL_TOL = 1e-9  # |Q(root)| below this multiple of Q(1)
DEFAULT_VERIFY_TOL = 1e-9  # designs' kernel-sum tolerance, kept here where the CLI parser needs no numpy


def dim_harmonic(n: int, t: int) -> int:
    """Dimension of the degree-t harmonic homogeneous polynomials on R^n.

    Equals C(n+t-1, t) - C(n+t-3, t-2); the second term is zero for t < 2.
    Every kernel path passes here, so this is where n and t must pass operator.index.
    """
    try:
        n, t = operator.index(n), operator.index(t)
    except TypeError:
        raise ValueError(f"dimension and degree must be integers, got n={n!r}, t={t!r}") from None
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
        if max(self.n, self.t) >= 2 ** 1023:  # below it float(n), pi/t and t + n/2 are finite
            raise ValueError(f"float64 kernels take n and t below 2^1023, got n={self.n}, t={self.t}")

    @property
    def dim(self) -> int:
        return dim_harmonic(self.n, self.t)


@dataclass(frozen=True)
class MinimumReport:
    """Global minimum of Q on [-1,1]: c = -min (positive) and its location."""

    c: float
    argmin: float
    method: str


def _recurrence(n: int, t: int, x, _buf=None) -> Iterator:
    """Yield P_0(x), ..., P_t(x) in one pass, Q_{n,k} = _scale(n, k) * P_k: the
    Chebyshev T_k = (2x) T_{k-1} - T_{k-2} for n = 2, 2x formed once (designs takes
    its moments from here), else the Gegenbauer C_k^((n-2)/2), k P_k = (2k+n-4) x
    P_{k-1} - (k+n-4) P_{k-2} from P_1 = (n-2) x.  The coefficients are ints, so x
    may be any scalar (float, Fraction, QuadExt, Decimal; P_0 is 1.0 for a float,
    else x*0 + 1) or a float ndarray of one or more dimensions, whose three rotating
    buffers and 2x are views of _buf (>= 4 x.size float64 entries, reused across
    calls) or of one new array, updated in place: a yielded array is overwritten two
    steps later, so a caller may keep the last two, and x itself is never written."""
    if arr := getattr(x, "ndim", 0) > 0:  # P_1 = (n - 2 or 1) x, a copy of x on the circle
        import numpy as np
        prev, cur, spare, two_x = np.empty((4, *x.shape)) if _buf is None else _buf[:4 * x.size].reshape(4, *x.shape)
        prev.fill(1)
        cur, two_x = np.multiply(x, n - 2 or 1, out=cur), np.multiply(x, 2, out=two_x) if n == 2 else None
    else:  # a scalar's spare is bound in the first step
        prev, spare = 1.0 if isinstance(x, float) else x * 0 + 1, None
        cur, two_x = (n - 2 or 1) * x, 2 * x if n == 2 else None
    yield prev
    if t:
        yield cur
    for k in range(2, t + 1):
        if n == 2:  # two passes
            spare = np.multiply(two_x, cur, out=spare) if arr else two_x * cur
            spare -= prev
        else:
            m = 2 * k + n - 4
            spare = np.multiply(x, m, out=spare) if arr else x * m
            spare *= cur
            prev *= k + n - 4
            spare -= prev
            spare /= k
        prev, cur, spare = cur, spare, prev
        yield cur


def _scale(n: int, k: int) -> float:
    """Q_{n,k}(1) / P_k(1): 2 on the circle (1 at k = 0), else dim / C(k+n-3, k) = (2k+n-2)/(n-2), rounded once."""
    return (2.0 if k else 1.0) if n == 2 else (2 * k + n - 2) / (n - 2)


def _chebyshev_weights(n: int, k: int) -> np.ndarray:
    """c >= 0 summing to 1 with Q_{n,k} = dim_harmonic(n, k) * sum_i c[i] T_{k-2i}, e_0 for n = 2:
    Szego 4.9.19, C_k^lam(cos th) = sum_j a_j a_{k-j} cos((k-2j) th), a_j = (lam)_j / j!, terms
    j and k-j merged, as a running product of ratios (n-2+2j)(k-j) / ((j+1)(n+2k-4-2j)) below
    C_k^lam(1) / a_k, finite while dim is: lam's ratios with both sides doubled, which is exact."""
    import numpy as np
    try:
        j = np.arange(k // 2, dtype=float)
    except (MemoryError, ValueError):  # numpy's texts name neither n nor k
        raise ValueError(f"cannot allocate the {k // 2 + 1} Chebyshev weights of Q_{{{n},{k}}}") from None
    c = np.cumprod(np.concatenate([[1.0], (n - 2 + 2 * j) * (k - j) / ((j + 1) * (n + 2 * k - 4 - 2 * j))]))
    c[:(k + 1) // 2] *= 2
    return c / c.sum()


def q_eval(spec: KernelSpec, x):
    """Evaluate Q_{n,t} at x (scalar or ndarray).

    Uses the classical three-term recurrence, rescaled by the exact
    normalization so that Q_{n,t}(1) = dim_harmonic(n, t).  Well conditioned
    on [-1,1]; outside that interval the value grows like the unnormalized
    polynomial and loses meaning as a kernel.
    """
    import numpy as np
    arr = np.asarray(x, dtype=float)
    for last in _recurrence(spec.n, spec.t, np.atleast_1d(arr)):
        pass
    out = last * _scale(spec.n, spec.t)
    return float(out[0]) if arr.ndim == 0 else out


def _polish(newton, lo, hi, flo, fhi) -> np.ndarray:
    """Roots of f in brackets [lo, hi] (arrays, narrowed in place), f(lo) = flo
    and f(hi) = fhi of opposite signs, by safeguarded Newton: newton(x) gives
    f(x) and f(x)/f'(x); each root starts at its chord's zero (the midpoint on
    overflow), a step leaving the bracket or not half the previous one becomes
    a bisection, and a root is final when its step is <= 4 ulps."""
    import numpy as np
    x = lo + (hi - lo) * (flo / (flo - fhi))
    x = np.where(np.isfinite(x), x, (lo + hi) / 2)
    moved, live = hi - lo, np.arange(len(x))
    while len(live):  # ends: accepted steps halve, and each bisection halves the bracket
        xl = x[live]
        f, step = newton(xl)
        below = np.sign(f) == np.sign(flo[live])
        lo[live[below]], hi[live[~below]] = xl[below], xl[~below]
        new, tiny = xl - step, 4 * np.spacing(np.abs(xl))
        keep = (lo[live] <= new) & (new <= hi[live]) & (np.abs(step) <= moved[live] / 2)
        new = np.where(keep | (np.abs(step) <= tiny), new, (lo[live] + hi[live]) / 2)
        moved[live], x[live] = np.abs(new - xl), new
        live = live[moved[live] > tiny]
    return x


def _roots(n: int, t: int, largest: bool = False) -> np.ndarray:
    """q_roots' bracketing pass and polish, ascending.  With largest, only the
    last bracket is polished, in Python floats: the last entry is then still
    the largest root, and the others are grid zeros."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed recurrence raises below, without warnings
        size = int(t + (n - 2) / 2 + 1) + 1
        try:
            half = np.sin(np.linspace(0.0, pi / 2, size))
            grid = np.concatenate([-half[:0:-1], half])
        except (MemoryError, ValueError):  # numpy's texts name neither n nor t
            raise ValueError(f"cannot allocate the {2 * size - 1}-point root grid of Q_{{{n},{t}}}") from None
        vals = deque(_recurrence(n, t, grid), maxlen=1)[0]
        cross = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(cross) + np.count_nonzero(vals == 0) != t:
            why = ": the recurrence overflowed float64" if not np.isfinite(vals).all() else ""
            raise RuntimeError(f"could not isolate the {t} roots of Q_{{{n},{t}}} on {len(grid)} grid points{why}")
        a = t if n == 2 else t + n - 3

        def newton(x):  # np.divide keeps numpy's division by zero for a float x
            x = x.item() if largest else x
            prev, cur = deque(_recurrence(n, t, x), maxlen=2)
            return cur, np.divide(cur * (1 - x * x), a * prev - t * x * cur)

        cells = cross[-1:] if largest else cross
        x = _polish(newton, grid[cells], grid[cells + 1], vals[cells], vals[cells + 1])
        return np.sort(np.concatenate([x, grid[vals == 0]]))


def q_roots(spec: KernelSpec) -> np.ndarray:
    """All t roots of Q_{n,t}, ascending, inside (-1, 1), with no eigen-solver.

    One recurrence pass brackets the roots on a grid symmetric about 0 with
    step pi/(2*floor(t+lambda+1)) in theta = arccos x, lambda = (n-2)/2: t sign
    changes, counting exact zeros on the grid (0 for odd t).  The grid isolates
    every root.  For n >= 4, Sturm comparison on sin(theta)^lambda
    C_t^lambda(cos theta) puts roots at least pi/(t+lambda) apart, over twice
    the step; for n = 3, Bruns' inequality gives gaps above pi/(2t+1), over
    the step pi/(2t+2); for n = 2 the gap is pi/t.  So a wrong count means
    lost precision and raises RuntimeError.  _polish refines each bracket,
    with (1-x^2) P_t' = (t+2*lambda-1) P_{t-1} - t*x*P_t (t*(T_{t-1} - x*T_t)
    for n = 2) from the same pass.
    """
    if spec.t < 1:
        raise ValueError("root finding needs degree t >= 1")
    return _roots(spec.n, spec.t)


def q_min(spec: KernelSpec) -> MinimumReport:
    """Global minimum of Q_{n,t} on [-1,1], reported as c = -min > 0.

    Closed forms for n = 2 (2*cos(t*arccos x), c = 2) and t = 1 (linear,
    minimum at -1).  Otherwise Q_{n,t}' is proportional to Q_{n+2,t-1}.  Lemma
    (Sonine; Szego 7.3): with lambda = (n-2)/2 > 0 and y = Q_{n,t}, the
    Gegenbauer equation (1-x^2) y'' - (2*lambda+1) x y' + t(t+2*lambda) y = 0
    gives S = y^2 + (1-x^2) y'^2 / (t(t+2*lambda)) the derivative S' =
    4*lambda*x*y'^2 / (t(t+2*lambda)), > 0 on [0, 1] but at finitely many
    points, so S grows strictly there;
    S = y^2 at a critical point, so the extremes of |Q| grow strictly toward 1
    (toward -1 by parity) and stay below Q(1) = dim.  The minimum is Q(+-xi),
    xi the largest root of Q_{n+2,t-1}, for even t, and Q(-1) = -dim for odd
    t.  So only xi is polished (q_roots' last bracket), in both parities, and
    Q is evaluated at -xi, xi, -1 and 1: the same c and argmin, bit for bit,
    as from every root.  Of the locations attaining the minimum (a symmetric
    pair for even t) the largest is reported.
    """
    import numpy as np
    n, t = spec.n, spec.t
    if t < 1:
        raise ValueError("the degree-0 kernel is constant")
    if n == 2:
        return MinimumReport(c=2.0, argmin=cos(pi / t), method="chebyshev-closed-form")
    if t == 1:
        return MinimumReport(c=float(n), argmin=-1.0, method="linear-closed-form")
    xi = _roots(n + 2, t - 1, largest=True)[-1]
    cand = np.array([-xi, xi, -1.0, 1.0])
    vals = q_eval(spec, cand)
    vmin = vals.min()
    near = cand[vals <= vmin + 1e-12 * abs(vmin)]
    return MinimumReport(c=-float(vmin), argmin=float(near.max()), method="derivative-roots")
