"""Point sets on spheres: generators, kernel-criterion verification, lifting.

A finite set X on S^{n-1} annihilates every degree-t harmonic polynomial
exactly when the double kernel sum sum_{x,y in X} Q_{n,t}(<x,y>) vanishes,
since the addition formula writes that sum as a sum of squares.  Everything
here reduces to that one scalar criterion plus explicit coordinate
constructions.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import combinations, pairwise, permutations, product
from typing import Iterable, Optional

import numpy as np

from .exactnum import RationalPoly
from .orthopoly import DEFAULT_VERIFY_TOL, ROOT_RESIDUAL_TOL, KernelSpec, _chebyshev_weights, _recurrence, dim_harmonic, q_eval

__all__ = [
    "InvalidPointSetError",
    "PointSet",
    "KernelCertificate",
    "InnerProductSet",
    "verify_harmonic_index",
    "verify_spherical_design",
    "harmonic_index_spectrum",
    "inner_product_set",
    "lift_design",
    "generate",
    "list_generators",
    "separated_component_sums",
    "eval_h4_basis_sum",
    "FIVE_POINT_Z_OCTICS",
    "FIVE_POINT_Z_MINPOLY",
    "FIVE_POINT_Z_SCALE",
]

NORM_TOL = 1e-12
DISTINCT_TOL = 1e-9
# Gram entries per upper-triangle block: the work arrays of the distinctness
# check, the kernel sums and the inner products, small enough to stay in cache
_GRAM_BLOCK = 1 << 14
GOLDEN = (1 + math.sqrt(5)) / 2


class InvalidPointSetError(ValueError):
    """A point-set invariant (finiteness, unit norm, distinctness, nonemptiness) failed."""


def _gram_blocks(pts: np.ndarray):
    """Walk the upper triangle of the Gram matrix: yield (i, block) where block holds
    rows i..i+s against columns i..m, s = max(1, _GRAM_BLOCK // (m - i)), in one array
    allocated for the walk: the next block overwrites it.  Each unordered pair appears
    once, except in a block's leading s x s square, with both orders and the diagonal."""
    m, i = len(pts), 0
    buf = np.empty(min(m * m, max(m, _GRAM_BLOCK)))  # the largest block
    while i < m:
        rows = pts[i:i + max(1, _GRAM_BLOCK // (m - i))]
        yield i, np.matmul(rows, pts[i:].T, out=buf[:len(rows) * (m - i)].reshape(len(rows), m - i))
        i += len(rows)


@functools.lru_cache(maxsize=32)
def _probe(dim: int) -> np.ndarray:
    """The fixed generic unit vector, read-only, that PointSet projects its points onto: the
    square roots of the first dim primes, normalised, so no rational combination of them vanishes."""
    sieve = np.ones(16 + 2 * dim * dim.bit_length(), dtype=bool)  # the dim-th prime is < dim ln(dim ln dim)
    for p in range(2, math.isqrt(len(sieve)) + 1):
        sieve[p * p::p] &= ~sieve[p]  # clears the multiples of a prime p
    u = np.sqrt(np.flatnonzero(sieve)[2:dim + 2])
    u /= np.linalg.norm(u)
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class PointSet:
    """Finite list of unit vectors in R^dim with optional labels and provenance.

    Invariants checked at construction: nonempty; every point finite with unit
    norm within 1e-12; points pairwise distinct (distance > 1e-9): points whose
    projection on _probe(dim) is within 1e-9 of a sorted neighbour's are screened
    on the upper-triangle Gram blocks of _gram_blocks (entries within rounding of
    1, each block's own diagonal masked), confirmed by the exact difference norm,
    as float64 2 - 2<x,y> cannot resolve distances below about 1e-8.  O(m n +
    m log m); O(m^2 n), no m x m array, if all crowd.  Coordinates become read-only.
    """

    dim: int
    points: np.ndarray
    labels: Optional[tuple[str, ...]] = None
    source: str = ""

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise InvalidPointSetError("point set must be a nonempty list of vectors")
        if pts.shape[1] != self.dim:
            raise InvalidPointSetError(
                f"points have {pts.shape[1]} coordinates, expected dim={self.dim}"
            )
        with np.errstate(over="ignore"):  # an overflowed norm is inf, reported below
            norms = np.linalg.norm(pts, axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= NORM_TOL))  # NaN and inf too
        if len(bad):
            raise InvalidPointSetError(
                f"point {bad[0]} has norm {norms[bad[0]]:.17g}, not 1 within {NORM_TOL:g}")
        # |<x-y,u>| <= |x-y|: a pair closer than DISTINCT_TOL has projections that close,
        # after the two dots' rounding, as has each sorted neighbour between them; with unit
        # norms |x-y|^2 = 2 - 2<x,y>, so its Gram entry is above floor, after the dot's rounding
        order = np.argsort(proj := pts @ _probe(self.dim))
        gap = np.diff(proj[order]) <= DISTINCT_TOL + 2 * (self.dim + 2) * np.finfo(float).eps
        crowd = np.sort(order[np.append(gap, False) | np.insert(gap, 0, False)])
        floor = 1 - 2 * NORM_TOL - DISTINCT_TOL ** 2 - 4 * (self.dim + 2) * np.finfo(float).eps
        for i, block in _gram_blocks(pts[crowd]):
            np.fill_diagonal(block, -np.inf)
            if block.max() < floor:
                continue
            r, c = np.nonzero(block >= floor)
            r, c = crowd[np.minimum(r, c) + i], crowd[np.maximum(r, c) + i]  # the leading square has both orders
            dist = np.linalg.norm(pts[r] - pts[c], axis=1)
            k = np.argmin(dist)
            if dist[k] <= DISTINCT_TOL:
                raise InvalidPointSetError(f"points are not pairwise distinct (points {r[k]} "
                                           f"and {c[k]} at distance {dist[k]:.3e})")
        if self.labels is not None and len(self.labels) != len(pts):
            raise InvalidPointSetError("label count does not match point count")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def gram(self) -> np.ndarray:
        return self.points @ self.points.T

    def transformed(self, rotation: np.ndarray) -> "PointSet":
        """Apply an orthogonal matrix to every point."""
        return PointSet(self.dim, self.points @ np.asarray(rotation).T,
                        self.labels, self.source + "+rotated")

    def with_flipped(self, indices: Iterable[int]) -> "PointSet":
        """Replace the chosen points by their antipodes; 0 - x, so no coordinate becomes -0.0."""
        pts = self.points.copy()
        for i in indices:
            pts[i] = 0.0 - pts[i]
        return PointSet(self.dim, pts, None, self.source + "+flipped")

    def union_with_antipodes(self) -> "PointSet":
        return PointSet(self.dim, np.vstack([self.points, 0.0 - self.points]),
                        None, self.source + "+antipodes")

    # -- JSON file format ---------------------------------------------------
    # {"dim": n, "points": [["...", ...], ...], "labels": [...] | null,
    #  "source": "..."}; coordinates are decimal strings with 17 significant
    # digits so files round-trip bit-exactly.

    def to_json(self) -> str:
        body = {
            "dim": self.dim,
            "points": [[format(v, ".17g") for v in row] for row in self.points],
            "labels": list(self.labels) if self.labels is not None else None,
            "source": self.source,
        }
        return json.dumps(body, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PointSet":
        try:
            body = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidPointSetError(f"not valid JSON: {exc}") from exc
        if not isinstance(body, dict) or "dim" not in body or "points" not in body:
            raise InvalidPointSetError('expected an object with "dim" and "points"')
        try:
            pts = np.array(body["points"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidPointSetError(f"points are not parseable numbers: {exc}") from exc
        dim, labels, source = body["dim"], body.get("labels"), body.get("source", "")
        if type(dim) is not int:  # a JSON integer: no bool, float or string
            raise InvalidPointSetError(f'"dim" must be an integer, got {dim!r:.80}')
        if labels is not None and not (type(labels) is list and all(type(s) is str for s in labels)):
            raise InvalidPointSetError(f'"labels" must be null or a list of strings, got {labels!r:.80}')
        if type(source) is not str:
            raise InvalidPointSetError(f'"source" must be a string, got {source!r:.80}')
        return cls(dim, pts, tuple(labels) if labels is not None else None, source)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "PointSet":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class KernelCertificate:
    """Kernel-sum verification result, one row per checked degree.

    relative_residual = |raw_sum| / (|X| * Q(1)), the raw sum divided by its
    diagonal contribution; a degree passes when the residual is <= tol.
    """

    dim: int
    degrees: tuple[int, ...]
    raw_sums: tuple[float, ...]
    residuals: tuple[float, ...]
    tol: float

    @property
    def passes(self) -> tuple[bool, ...]:
        return tuple(r <= self.tol for r in self.residuals)

    @property
    def passed(self) -> bool:
        return all(self.passes)

    def as_dict(self) -> dict:
        return {
            "dim": self.dim,
            "degrees": list(self.degrees),
            "raw_sums": list(self.raw_sums),
            "relative_residuals": list(self.residuals),
            "tolerance": self.tol,
            "verdicts": ["pass" if p else "fail" for p in self.passes],
            "passed": self.passed,
        }


def _low_moments(pts: np.ndarray) -> tuple[float, float, float]:
    """mu_0..mu_2 of the rows in O(m n min(m, n)): |X|^2, |sum x|^2 and, as T_2 = 2x^2 - 1,
    2 |X^T X|_F^2 - |X|^2, the squared Gram entries summing to |X^T X|_F^2 = |X X^T|_F^2."""
    s, f = pts.sum(axis=0), (pts.T @ pts if len(pts) >= pts.shape[1] else pts @ pts.T)
    return float(len(pts) ** 2), float(s @ s), 2 * float(np.vdot(f, f)) - len(pts) ** 2


def _moments(pts: np.ndarray, need: set, size: int) -> np.ndarray:
    """mu_0..mu_{size-1}, mu_j = sum over pairs of T_j(<x,y>): j <= 2 from _low_moments, j in need by
    T_2k = 2 T_k^2 - 1 and T_2k-1 = 2 T_k T_k-1 - x, else 0.  Each Gram block runs _recurrence(2, ceil(
    max(need) / 2)) on buffers allocated once per walk and adds per j twice a vdot less its leading square's
    (diagonal, both orders), and -1 per pair for even j; odd j end by -mu_1.  O(max(need) m^2 / 2) time."""
    mu = np.concatenate([_low_moments(pts), np.zeros(size - 3)])
    work = np.empty(4 * min(len(pts) ** 2, max(len(pts), _GRAM_BLOCK))) if need else None  # 4 largest blocks
    for _, x in _gram_blocks(pts) if need else ():
        s, pairs = len(x), 2 * x.size - len(x) ** 2
        for k, (prev, tk) in enumerate(pairwise(_recurrence(2, (max(need) + 1) // 2, x, work)), 1):
            for j, other in ((2 * k - 1, prev), (2 * k, tk)):
                if j in need:
                    mu[j] += 4 * np.vdot(tk, other) - 2 * np.vdot(tk[:, :s], other[:, :s]) - (1 - j % 2) * pairs
    mu[[j for j in need if j % 2]] -= mu[1]
    return mu


def _certificate(X: PointSet, degrees, tol: float) -> KernelCertificate:
    """Kernel sums at ascending degrees (a list or a range, its top degree checked first), dim *
    sum_i c_i mu_{k-2i} at degree k: c from _chebyshev_weights, mu from _moments where c != 0."""
    if not degrees or degrees[0] < 1:
        raise ValueError("degree must be >= 1")
    n, top = X.dim, degrees[-1]
    if len(X) ** 2 * dim_harmonic(n, top) > sys.float_info.max:  # |sum| <= m^2 Q(1)
        raise ValueError(f"kernel sums of {len(X)} points at n={n}, t={top} exceed float64")
    weights = {k: _chebyshev_weights(n, k) for k in reversed(degrees)}  # top first: it may not allocate
    need = {k - 2 * i for k, c in weights.items() for i in np.flatnonzero(c).tolist()} - {0, 1, 2}
    mu = _moments(X.points, need, max(top, 2) + 1)
    sums = {k: float(c @ mu[k::-2]) for k, c in reversed(weights.items())}
    return KernelCertificate(n, tuple(sums), tuple(dim_harmonic(n, k) * v for k, v in sums.items()),
                             tuple(abs(v) / len(X) for v in sums.values()), tol)


def verify_harmonic_index(X: PointSet, t: int, tol: float = DEFAULT_VERIFY_TOL) -> KernelCertificate:
    """Check the single-degree kernel criterion for X at degree t."""
    return _certificate(X, [t], tol)


def verify_spherical_design(X: PointSet, t: int, tol: float = DEFAULT_VERIFY_TOL) -> KernelCertificate:
    """Check the kernel criterion at every degree 1..t (full design test): O(m n^2) time
    at t <= 2, else O(t m^2 / 2) time on a few arrays of _GRAM_BLOCK = 16384 entries."""
    return _certificate(X, range(1, t + 1), tol)


def harmonic_index_spectrum(X: PointSet, t_max: int, tol: float = DEFAULT_VERIFY_TOL) -> list[int]:
    """Degrees t <= t_max at which X passes the kernel criterion: the passing
    degrees of :func:`verify_spherical_design` at t_max, at the same cost."""
    cert = _certificate(X, range(1, t_max + 1), tol)
    return [k for k, ok in zip(cert.degrees, cert.passes) if ok]


@dataclass(frozen=True, eq=False)
class InnerProductSet:
    """Distinct off-diagonal inner products of a point set, clustered: read-only
    arrays of the ascending centers (float64) and their multiplicities (int64).
    Two sets are equal when every field is, the arrays element by element."""

    values: np.ndarray
    multiplicities: np.ndarray
    symmetric: bool
    merge_tol: float

    def __eq__(self, other) -> bool:
        return isinstance(other, InnerProductSet) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _product_clusters(pts: np.ndarray, merge_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Centers and sizes of the clusters of the m(m-1)/2 inner products of
    distinct points, gathered from the strict upper triangle of each
    _gram_blocks block and sorted: no m x m array is formed, and the products
    are freed on return."""
    m = len(pts)
    vals, pos = np.empty(m * (m - 1) // 2), 0
    for _, block in _gram_blocks(pts):
        upper = block[~np.tri(*block.shape, dtype=bool)]
        vals[pos:pos + len(upper)] = upper
        pos += len(upper)
    vals.sort()
    # clusters are the runs of sorted values joined by gaps <= merge_tol; each
    # center is its first value plus the mean offset from it, and offsets no
    # wider than the cluster keep the rounding of long sums below its ulp
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > merge_tol)
    counts = np.diff(starts, append=len(vals))
    centers = vals[starts]
    vals -= np.repeat(centers, counts)
    offsets = np.add.reduceat(vals, starts)
    offsets /= counts
    centers += offsets
    return centers, counts


def _mirrored(c: np.ndarray, merge_tol: float) -> bool:
    """Whether each ascending center c has a center within merge_tol of -c.

    -1 counts as self-paired: its mirror +1 cannot occur between distinct
    unit vectors, yet antipodally closed sets always produce -1.  The center
    nearest -c is one of the two that searchsorted puts around it."""
    j = np.searchsorted(c, -c)
    near = np.minimum(np.abs(c + c[np.maximum(j - 1, 0)]), np.abs(c + c[np.minimum(j, len(c) - 1)]))
    return bool(np.all((np.abs(c + 1) <= merge_tol) | (near <= merge_tol)))


def inner_product_set(X: PointSet, merge_tol: float = 1e-8) -> InnerProductSet:
    """Cluster the inner products <x,y>, x != y, at the given tolerance.

    Multiplicities count unordered pairs.  The set is flagged symmetric when
    every value has its negative present (within the merge tolerance).
    """
    c, counts = _product_clusters(X.points, merge_tol)
    c.setflags(write=False)
    counts.setflags(write=False)
    return InnerProductSet(c, counts, _mirrored(c, merge_tol), merge_tol)


def lift_design(base: PointSet, t: int, r: float, root_tol: float = ROOT_RESIDUAL_TOL) -> PointSet:
    """Lift a spherical t-design on S^(n-2) to a harmonic-index set on S^(n-1).

    The lifted set is {(r, sqrt(1-r^2) x) : x in base} where r must be a root
    of Q_{n,t} with n = base.dim + 1; the kernel components separate along a
    product basis and the base design kills every component except the purely
    radial one, which the root condition kills.  The base is trusted to be a
    spherical t-design; only the root condition is checked here, at
    |Q(r)| < root_tol * Q(1).
    """
    n = base.dim + 1
    if not abs(r) <= 1:  # NaN too
        raise ValueError(f"radius must lie in [-1, 1], got {r}")
    spec = KernelSpec(n, t)
    qr = q_eval(spec, r)
    if abs(qr) >= root_tol * dim_harmonic(n, t):
        raise ValueError(
            f"r={r!r} is not a root of the degree-{t} kernel in dimension {n} "
            f"(|Q(r)| = {abs(qr):.3e})"
        )
    scale = math.sqrt(1 - r * r)
    pts = np.hstack([np.full((len(base), 1), float(r)), scale * base.points])
    return PointSet(n, pts, base.labels, f"lift(t={t}, r={r!r}) of {base.source or 'base'}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def regular_polygon(m: int) -> PointSet:
    """Regular m-gon on the unit circle; a spherical (m-1)-design."""
    if m < 2:
        raise ValueError("polygon needs at least 2 vertices")
    ang = 2 * np.pi * np.arange(m) / m
    return PointSet(2, np.column_stack([np.cos(ang), np.sin(ang)]), None, f"regular_polygon({m})")


def two_point_s1(e: int, j: int) -> PointSet:
    """Two unit vectors at angle j*pi/(2e), j odd; a harmonic-index 2e design."""
    if e < 1:
        raise ValueError("e must be >= 1")
    if j % 2 == 0:
        raise ValueError("j must be odd")
    theta = j * math.pi / (2 * e)
    pts = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)]])
    return PointSet(2, pts, None, f"two_point_s1(e={e}, j={j})")


def cross_polytope_half(n: int) -> PointSet:
    """Orthonormal basis e_1..e_n, an antipodal half of the cross-polytope."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    return PointSet(n, np.eye(n), None, f"cross_polytope_half({n})")


def simplex(n: int) -> PointSet:
    """Regular simplex: n+1 unit vectors in R^n with all inner products -1/n."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    # Helmert basis of the hyperplane orthogonal to the all-ones vector
    H = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        H[k - 1, :k] = 1.0
        H[k - 1, k] = -k
        H[k - 1] /= math.sqrt(k * (k + 1))
    pts = (H * math.sqrt((n + 1) / n)).T
    return PointSet(n, pts, None, f"simplex({n})")


def _distinct_permutations(v: tuple) -> list[tuple]:
    """Each distinct rearrangement of v once: a distinct first value, then each of the rest's."""
    if not v:
        return [()]
    return [(x, *tail) for i, x in enumerate(v) if x not in v[:i]
            for tail in _distinct_permutations(v[:i] + v[i + 1:])]


def _signed_orbit(base: tuple, perms=None, even_signs: bool = False) -> list[tuple[float, ...]]:
    """Signed permutations of base (coordinates >= 0): every distinct rearrangement,
    or those in perms (v[i] = base[p[i]]), with either sign on each nonzero
    coordinate, or an even number of minus signs when even_signs; zeros stay +0."""
    arrangements = _distinct_permutations(base) if perms is None else [
        tuple(base[i] for i in p) for p in perms]
    return [w for v in arrangements for w in product(*[(c, -c) if c else (c,) for c in v])
            if not (even_signs and sum(c < 0 for c in w) % 2)]


def _antipodal_half(orbit: list[tuple[float, ...]]) -> np.ndarray:
    """One vector per antipodal pair of an orbit closed under negation: those
    whose first nonzero coordinate is positive, exact duplicates dropped,
    sorted.  No vector is negated, so no coordinate becomes -0.0."""
    return np.array(sorted({v for v in orbit if next(c for c in v if c) > 0}))


def icosahedron_half() -> PointSet:
    """Six vertices of a regular icosahedron, one per antipodal pair: the
    cyclic permutations of (0, +-1, +-phi), scaled to unit norm."""
    half = _antipodal_half(_signed_orbit((0.0, 1.0, GOLDEN), [(0, 1, 2), (2, 0, 1), (1, 2, 0)]))
    return PointSet(3, half / math.sqrt(1 + GOLDEN ** 2), None, "icosahedron_half")


def e8_half() -> PointSet:
    """120 points on S^7: an antipodal half of the 240 unit-scaled E8 roots.

    The full system is the 112 vectors (+-e_i +- e_j)/sqrt(2) and the 128
    vectors with all coordinates +-1/2 and an even number of minus signs,
    scaled to unit norm.
    """
    orbit = _signed_orbit((1.0, 1.0) + (0.0,) * 6) + _signed_orbit((0.5,) * 8, even_signs=True)
    return PointSet(8, _antipodal_half(orbit) / math.sqrt(2), None, "e8_half")


def cell600_half() -> PointSet:
    """60 points on S^3: an antipodal half of the 120 vertices of the 600-cell.

    Standard presentation: 8 permutations of (+-1,0,0,0), the 16 vectors
    (+-1/2,...,+-1/2), and 96 even permutations of
    (+-phi, +-1, +-1/phi, 0)/2, already unit length.
    """
    even = [p for p in permutations(range(4)) if sum(a > b for a, b in combinations(p, 2)) % 2 == 0]
    orbit = (_signed_orbit((1.0, 0.0, 0.0, 0.0)) + _signed_orbit((0.5,) * 4)
             + _signed_orbit((GOLDEN / 2, 0.5, 1 / (2 * GOLDEN), 0.0), even))
    return PointSet(4, _antipodal_half(orbit), None, "cell600_half")


def _x0(sign: int) -> PointSet:
    """The five-point harmonic-index 4-design on S^2 with first coordinate
    sqrt(525 + sign*70*sqrt(30))/35 (sign=+1 gives the small pentagon)."""
    s30 = math.sqrt(30)
    s5 = math.sqrt(5)
    r = math.sqrt(525 + sign * 70 * s30) / 35
    w = math.sqrt(700 - sign * 70 * s30) / 35
    cos72, sin72 = (s5 - 1) / 4, math.sqrt(10 + 2 * s5) / 4
    cos144, sin144 = -(s5 + 1) / 4, math.sqrt(10 - 2 * s5) / 4
    pts = np.array([
        [r, w, 0.0],
        [r, w * cos72, w * sin72],
        [r, w * cos144, w * sin144],
        [r, w * cos144, -w * sin144],
        [r, w * cos72, -w * sin72],
    ])
    return PointSet(3, pts, None, "x0_plus" if sign > 0 else "x0_minus")


def x0_plus() -> PointSet:
    return _x0(+1)


def x0_minus() -> PointSet:
    return _x0(-1)


_GENERATORS = {f.__name__: f for f in (regular_polygon, two_point_s1, cross_polytope_half, simplex,
                                       icosahedron_half, e8_half, cell600_half, x0_plus, x0_minus)}


def list_generators() -> list[str]:
    return sorted(_GENERATORS)


def generate(kind: str, **params) -> PointSet:
    """Build one of the named point sets; hyphens in the name are accepted."""
    key = kind.replace("-", "_")
    if key not in _GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; known: {', '.join(list_generators())}")
    return _GENERATORS[key](**params)


# ---------------------------------------------------------------------------
# separated-basis diagnostics for the lift (base sphere S^1 only)
# ---------------------------------------------------------------------------


def separated_component_sums(base: PointSet, r: float, t: int) -> list[float]:
    """Component magnitudes of the lift of a circle design, one per j = 0..t.

    Lifting X on S^1 to {(r, sqrt(1-r^2) x)} on S^2, the degree-t harmonics
    split into blocks indexed by j: the block-j functions restrict to
    (cos j*theta, sin j*theta) * (1-s^2)^(j/2) * Q_{2j+3, t-j}(s) with s = r
    fixed.  Returned is the Euclidean magnitude of the sum over the lifted
    set for each block; the j = 0 entry equals |X| * |Q_{3,t}(r)|.  The sums
    are raw (unnormalized) magnitudes.
    """
    if base.dim != 2:
        raise ValueError("only a base design on S^1 (dim 2) is supported")
    if not abs(r) <= 1:  # NaN too
        raise ValueError("radius must lie in [-1, 1]")
    theta = np.arctan2(base.points[:, 1], base.points[:, 0])
    out = []
    for j in range(t + 1):
        radial = (1 - r * r) ** (j / 2) * q_eval(KernelSpec(3 + 2 * j, t - j), r)
        # at j = 0 the cosines sum to |X| exactly and the sines to 0
        c = float(np.cos(j * theta).sum())
        s = float(np.sin(j * theta).sum())
        out.append(math.hypot(c, s) * abs(radial))
    return out


# ---------------------------------------------------------------------------
# explicit degree-4 harmonic basis on R^3 (independent verification route)
# ---------------------------------------------------------------------------


def eval_h4_basis_sum(X: PointSet) -> np.ndarray:
    """Sums over X of an explicit 9-element basis of the degree-4 harmonics
    on R^3.  All nine sums vanish exactly when X is a harmonic-index
    4-design, giving an oracle for the kernel criterion at (n, t) = (3, 4).
    """
    if X.dim != 3:
        raise ValueError("the explicit degree-4 basis lives on R^3")
    x, y, z = X.points[:, 0], X.points[:, 1], X.points[:, 2]
    basis = [
        x**3 * y - x * y**3,
        x**3 * z - 3 * x * y**2 * z,
        3 * x**2 * y * z - y**3 * z,
        x**4 - 6 * x**2 * y**2 + y**4,
        4 * x * z**3 - 3 * x**3 * z - 3 * x * y**2 * z,
        4 * y * z**3 - 3 * x**2 * y * z - 3 * y**3 * z,
        6 * x * y * z**2 - x**3 * y - x * y**3,
        6 * x**2 * z**2 - x**4 - 6 * y**2 * z**2 + y**4,
        8 * z**4 - 24 * x**2 * z**2 - 24 * y**2 * z**2 + 3 * x**4 + 6 * x**2 * y**2 + 3 * y**4,
    ]
    return np.array([float(b.sum()) for b in basis])


# ---------------------------------------------------------------------------
# exact data for the five-point analysis on S^2
# ---------------------------------------------------------------------------

# In the normalized position (first point at (1,0,0), second in the xy-plane),
# the z-coordinate of the last point of any 5-point harmonic-index 4-design
# satisfies the monic degree-16 polynomial below.  Over Q it splits into the
# two even octics, each with eight simple real roots.

FIVE_POINT_Z_OCTICS = (
    RationalPoly([9, 0, -126, 0, 627, 0, -1302, 0, 931]),
    RationalPoly([9, 0, -144, 0, 732, 0, -1428, 0, 931]),
)

FIVE_POINT_Z_SCALE = 866761  # = 931^2, the product of the octics' leading terms

FIVE_POINT_Z_MINPOLY = RationalPoly([
    Fraction(81, 866761),
    0,
    Fraction(-2430, 866761),
    0,
    Fraction(30375, 866761),
    0,
    Fraction(-207090, 866761),
    0,
    Fraction(843138, 866761),
    0,
    Fraction(-299970, 123823),
    0,
    Fraction(63765, 17689),
    0,
    Fraction(-390, 133),
    0,
    1,
])
