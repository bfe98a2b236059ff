"""Exact arithmetic substrate.

Rationals (``fractions.Fraction``), real quadratic extensions Q(sqrt(d)),
univariate polynomials over Q with Sturm-sequence root counting, and exact
matrix rank over Q(sqrt(d)) by Bareiss elimination on pairs of ints, once the
denominators are cleared.  Everything in this module is immutable and pure;
no floating point is used except in explicit ``float()`` conversions.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

__all__ = [
    "QuadExt",
    "IncompatibleRadicandError",
    "RationalPoly",
    "poly_gcd",
    "squarefree_part",
    "sturm_count_roots",
    "fraction_free_rank",
    "squarefree_decompose",
]

class IncompatibleRadicandError(ValueError):
    """Raised when two QuadExt values with different irrational parts meet."""


def squarefree_decompose(m: int) -> tuple[int, int]:
    """Write m = s*s*d with d square-free.  Returns (s, d).

    Requires 1 <= m < 2^40: trial division runs to sqrt(m)."""
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    if m >= 2 ** 40:
        raise ValueError(f"radicand {m} is not below 2^40, the limit of trial division")
    s, d = 1, 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * m


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class QuadExt:
    """Exact element a + b*sqrt(d) of a real quadratic field Q(sqrt(d)).

    Normal form: Fractions a and b, a square-free int d >= 1, and d = 1 exactly
    when b = 0.  The constructor, ``sqrt`` and ``parse`` normalise; arithmetic
    builds its results from parts already in that form.  Values with the same
    radicand combine exactly; mixing two distinct irrational radicands raises
    :class:`IncompatibleRadicandError`.  Signs, hence comparisons, are exact.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 1):
        # Fraction would keep a numpy integer, whose comparisons give numpy booleans
        a = Fraction(operator.index(a) if hasattr(a, "__index__") else a)
        b = Fraction(operator.index(b) if hasattr(b, "__index__") else b)
        if d < 1:
            raise ValueError(f"radicand must be positive, got {d}")
        s, d = squarefree_decompose(operator.index(d))
        b *= s
        if d == 1:
            a, b = a + b, Fraction(0)
        if b == 0:
            d = 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def _new(cls, a: Fraction, b: Fraction, d: int) -> "QuadExt":
        """a + b*sqrt(d) from Fractions a, b and a square-free d, with no checks; d drops to 1 when b = 0."""
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d if b else 1)
        return self

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QuadExt is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def sqrt(cls, x) -> "QuadExt":
        """Exact square root of a non-negative rational p/q in lowest terms.

        A square p or q leaves the radicand: sqrt(p)/sqrt(q) is sp/sq, sqrt(p)/sq
        or sp*sqrt(q)/q, and otherwise sqrt(pq)/q."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        p, q = x.numerator, x.denominator
        sp, sq = isqrt(p), isqrt(q)
        if sq * sq == q:
            return cls(Fraction(sp, sq)) if sp * sp == p else cls(0, Fraction(1, sq), p)
        if sp * sp == p:
            return cls(0, Fraction(sp, q), q)
        return cls(0, Fraction(1, q), p * q)

    @classmethod
    def parse(cls, text: str) -> "QuadExt":
        """Parse literals like "2", "7/4", "(7+√33)/4" or "1/2+3/4*sqrt(5)".

        This reads back the text form: ``QuadExt.parse(str(q)) == q``.
        """
        s = text.strip().replace(" ", "").replace("sqrt", "√").replace("*", "")
        s = re.sub(r"√\((\d+)\)", r"√\1", s)
        den = 1
        m = re.fullmatch(r"\((?P<body>[^()]+)\)/(?P<den>\d+)", s)
        if m:
            s, den = m.group("body"), int(m.group("den"))
        if not s:
            raise ValueError(f"cannot parse quadratic-surd literal {text!r}")
        total = cls(0)
        for term in re.findall(r"[+-]?[^+-]+", s):
            tm = re.fullmatch(
                r"(?P<sign>[+-]?)(?P<coef>\d+(?:/\d+)?)?(?:√(?P<rad>\d+))?(?:/(?P<div>\d+))?",
                term,
            )
            if tm is None or (tm.group("coef") is None and tm.group("rad") is None):
                raise ValueError(f"cannot parse quadratic-surd literal {text!r}")
            coef = Fraction(tm.group("coef") or 1)
            if tm.group("sign") == "-":
                coef = -coef
            if tm.group("div"):
                coef /= int(tm.group("div"))
            if tm.group("rad"):
                total = total + cls(0, coef, int(tm.group("rad")))
            else:
                total = total + cls(coef)
        return total / den

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadExt":
        return QuadExt._new(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """Field norm a*a - d*b*b."""
        return self.a * self.a - self.d * self.b * self.b

    def _join(self, other) -> tuple["QuadExt", "QuadExt", int]:
        if not isinstance(other, QuadExt):
            other = QuadExt._new(Fraction(other), _ZERO, 1) if type(other) in (int, Fraction) else QuadExt(other)
        if self.d == other.d:
            return self, other, self.d
        if self.is_rational:
            return self, other, other.d
        if other.is_rational:
            return self, other, self.d
        raise IncompatibleRadicandError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        try:
            x, y, d = self._join(other)
        except TypeError:
            return NotImplemented
        return QuadExt._new(x.a + y.a, x.b + y.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt._new(-self.a, -self.b, self.d)

    def __sub__(self, other):
        try:
            x, y, d = self._join(other)
        except TypeError:
            return NotImplemented
        return QuadExt._new(x.a - y.a, x.b - y.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            x, y, d = self._join(other)
        except TypeError:
            return NotImplemented
        # a rational factor (every 0/1 adjacency entry of L) needs two products, not four
        if not y.b:
            return QuadExt._new(x.a * y.a, x.b * y.a, d)
        if not x.b:
            return QuadExt._new(x.a * y.a, x.a * y.b, d)
        return QuadExt._new(x.a * y.a + d * x.b * y.b, x.a * y.b + x.b * y.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        x, y, d = self._join(other)
        n = y.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return x * QuadExt._new(y.a / n, -y.b / n, y.d)

    def __rtruediv__(self, other):
        return QuadExt(other) / self

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        if self.b == 0:
            return _sign(self.a)
        if self.a == 0:
            return _sign(self.b)
        sa, sb = _sign(self.a), _sign(self.b)
        if sa == sb:
            return sa
        # opposite signs: the term with larger square dominates
        lhs, rhs = self.a * self.a, self.b * self.b * self.d
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a rational value equals its int or Fraction, so it hashes as one
        return hash((self.a, self.b, self.d)) if self.b else hash(self.a)

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * float(self.d) ** 0.5

    def __repr__(self):
        if self.is_rational:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a}, {self.b}, {self.d})"

    def __str__(self):
        if self.is_rational:
            return str(self.a)
        surd = f"√{self.d}" if abs(self.b) == 1 else f"{abs(self.b)}√{self.d}"
        sign = "-" if self.b < 0 else "+"
        if self.a == 0:
            return f"-{surd}" if self.b < 0 else surd
        return f"{self.a} {sign} {surd}"


_ZERO = Fraction(0)


class RationalPoly:
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored in ascending order of degree with the leading
    coefficient nonzero (the zero polynomial has no coefficients).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x):
        """Horner evaluation: exact at a rational or QuadExt point, in floats at a float."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RationalPoly":
        return RationalPoly(k * c for k, c in enumerate(self.coeffs) if k)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RationalPoly(
            [x + y for x, y in zip(a, b)] + list(a[len(b):])
        )

    def __neg__(self):
        return RationalPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly(c * other for c in self.coeffs)
        if not isinstance(other, RationalPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return RationalPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "RationalPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        quo = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
        while len(rem) >= len(den):
            q = rem[-1] / den[-1]
            k = len(rem) - len(den)
            quo[k] = q
            for i, c in enumerate(den):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
        return RationalPoly(quo), RationalPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        return isinstance(other, RationalPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "RationalPoly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "x" if k == 1 else f"x^{k}"
                terms.append(var if c == 1 else f"{c}*{var}")
        return "RationalPoly(" + " + ".join(terms).replace("+ -", "- ") + ")"

    # -- serialization: JSON list of "num/den" strings, ascending ----------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "RationalPoly":
        return cls(Fraction(s) for s in data)


def poly_gcd(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    """Monic gcd over Q (the zero polynomial if both inputs are zero)."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a * (1 / a.leading())


def squarefree_part(p: RationalPoly) -> RationalPoly:
    """p divided by gcd(p, p'), removing repeated roots."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    g = poly_gcd(p, p.derivative())
    return divmod(p, g)[0]


def _sign_changes(values: Iterable[Fraction]) -> int:
    signs = [_sign(v) for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def _chain_signs_at(chain: Sequence[RationalPoly], x: Fraction) -> int:
    return _sign_changes(p(x) for p in chain)


def _chain_signs_at_inf(chain: Sequence[RationalPoly], positive: bool) -> int:
    vals = []
    for p in chain:
        if p.is_zero:
            continue
        s = _sign(p.leading())
        if not positive and p.degree % 2:
            s = -s
        vals.append(s)
    return _sign_changes(vals)


def sturm_count_roots(p: RationalPoly, lo=None, hi=None) -> int:
    """Count distinct real roots of a square-free polynomial in (lo, hi].

    ``lo``/``hi`` are rationals, or None for -infinity / +infinity.  The
    count is exact; intermediate arithmetic never leaves Q.  Callers with a
    possibly non-square-free polynomial should first apply
    :func:`squarefree_part`.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    if p.degree == 0:
        return 0
    chain = [p, p.derivative()]
    while chain[-1].degree >= 1:
        r = chain[-2] % chain[-1]
        if r.is_zero:
            raise ValueError("polynomial is not square-free (apply squarefree_part first)")
        chain.append(-r)
    v_lo = (
        _chain_signs_at_inf(chain, positive=False)
        if lo is None
        else _chain_signs_at(chain, Fraction(lo))
    )
    v_hi = (
        _chain_signs_at_inf(chain, positive=True)
        if hi is None
        else _chain_signs_at(chain, Fraction(hi))
    )
    return v_lo - v_hi


def fraction_free_rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank of a matrix over Q(sqrt(d)) by Bareiss elimination.

    Entries may be ints, Fractions, or QuadExt values sharing one radicand
    (rationals mix freely; two irrational radicands raise
    IncompatibleRadicandError before any elimination).  Scaling by the lcm
    of all denominators makes each entry a pair of ints (A, B) for
    A + B*sqrt(d), and the elimination (Bareiss 1968) runs on those pairs: a
    pivot is the first entry with (A, B) != (0, 0), and each update divides
    by the previous pivot p as x * conj(p) / norm(p).  Every intermediate is
    a minor of the scaled matrix, so lies in Z[sqrt(d)] and that division is
    exact; a remainder raises ArithmeticError.
    """
    rows = [[e if isinstance(e, QuadExt) else QuadExt(e) for e in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix rows have unequal lengths")
    radicands = sorted({e.d for row in rows for e in row} - {1})
    if len(radicands) > 1:
        raise IncompatibleRadicandError(f"cannot combine sqrt(d) for d in {radicands}")
    d = radicands[0] if radicands else 1
    den = lcm(*(x.denominator for row in rows for e in row for x in (e.a, e.b)))
    A = [[e.a.numerator * (den // e.a.denominator) for e in row] for row in rows]
    B = [[e.b.numerator * (den // e.b.denominator) for e in row] for row in rows]
    nrows = len(rows)
    pa, pb, norm = 1, 0, 1  # the previous pivot pa + pb*sqrt(d) and its norm
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if A[i][c] or B[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv], B[r], B[piv] = A[piv], A[r], B[piv], B[r]
        ra, rb, ca, cb = A[r], B[r], A[r][c], B[r][c]
        dcb, dpb = d * cb, d * pb
        for i in range(r + 1, nrows):
            ia, ib = A[i], B[i]
            xa, xb = ia[c], ib[c]
            dxb = d * xb
            for j in range(c + 1, ncols):
                # y = pivot * x_ij - x_ic * x_rj, then x_ij = y * conj(p) / norm(p)
                ya = ca * ia[j] + dcb * ib[j] - xa * ra[j] - dxb * rb[j]
                yb = ca * ib[j] + cb * ia[j] - xa * rb[j] - xb * ra[j]
                ia[j], qa = divmod(ya * pa - yb * dpb, norm)
                ib[j], qb = divmod(yb * pa - ya * pb, norm)
                if qa or qb:
                    raise ArithmeticError(f"Bareiss step at column {c} is not exact")
        pa, pb, norm = ca, cb, ca * ca - cb * dcb
        r += 1
        if r == nrows:
            break
    return r
