"""Fisher-type cardinality lower bound b_{n,t} and its large-t limit.

For a harmonic-index t-design X on S^{n-1}, comparing the double kernel sum
of c + Q_{n,t} with its diagonal part gives |X| >= b_{n,t} := 1 + dim/c,
where c = -min of Q_{n,t} on [-1,1] and dim is the harmonic dimension.
The large-t behaviour is governed by Bessel functions via the Mehler-Heine
scaling of the kernels, evaluated here as a 0F1 series in decimal.
"""

from __future__ import annotations

import io
import json
import math
import operator
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Optional

from .exactnum import QuadExt
from .orthopoly import KernelSpec, dim_harmonic, q_min

__all__ = [
    "BoundReport",
    "AsymptoteReport",
    "fisher_bound",
    "bound_table",
    "asymptotic_bound",
    "tight_inner_product",
    "format_bound",
    "table_text",
    "table_csv",
    "table_json",
]

INTEGRALITY_TOL = 1e-9
ODD_T_NOTE = "odd degree: any antipodal pair is a design, so the minimum size is 2"


@dataclass(frozen=True)
class BoundReport:
    """Fisher-type bound b = 1 + dim/c at one (n, t)."""

    n: int
    t: int
    c: float
    b: float
    argmin: float
    integral: bool
    closed_form: Optional[Fraction]  # exact value, available for t in {2, 4}
    note: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "c": self.c,
            "b": self.b,
            "argmin": self.argmin,
            "integral": self.integral,
            "closed_form": str(self.closed_form) if self.closed_form is not None else None,
            "note": self.note,
        }


def fisher_bound(n: int, t: int) -> BoundReport:
    """Compute b_{n,t}; odd t is allowed and annotated (two points suffice).
    Non-integer n or t and n < 2 raise ValueError in dim_harmonic."""
    if t < 1:
        raise ValueError(f"degree must be >= 1, got {t}")
    report = q_min(KernelSpec(n, t))
    b = 1 + dim_harmonic(n, t) / report.c
    closed: Optional[Fraction] = None
    if t == 2:
        closed = Fraction(n)
    elif t == 4:
        closed = Fraction((n + 1) * (n + 2), 6)
    return BoundReport(
        n=n,
        t=t,
        c=report.c,
        b=b,
        argmin=report.argmin,
        integral=abs(b - round(b)) < INTEGRALITY_TOL,
        closed_form=closed,
        note=ODD_T_NOTE if t % 2 else None,
    )


def bound_table(n_values: Iterable[int], t_values: Iterable[int]) -> list[BoundReport]:
    """Grid of bound reports, iterated with t outermost (one row per degree)."""
    n_list, t_list = list(n_values), list(t_values)
    if not n_list or not t_list:
        raise ValueError("empty range")
    return [fisher_bound(n, t) for t in t_list for n in n_list]


def format_bound(b: float, decimals: int = 2) -> str:
    """Display convention for tabulated bounds.

    Integral values print bare; others are truncated (not rounded) after
    ``decimals`` fractional digits and suffixed with "..".  When the kept
    digits are all zero, more digits are appended until a nonzero one
    appears, so 27.00401... prints as "27.004.." rather than hiding its
    fractional part.  With ``decimals=0`` only the integer part is kept
    ("3.."), and a negative ``decimals`` raises ValueError.
    """
    if decimals < 0:
        raise ValueError(f"decimals must be >= 0, got {decimals}")
    if abs(b - round(b)) < INTEGRALITY_TOL:
        return str(round(b))
    whole = f"{b:.14f}"
    intpart, frac = whole.split(".")
    k = decimals
    while k < len(frac) and set(frac[:k]) == {"0"}:
        k += 1
    return f"{intpart}.{frac[:k]}.." if k else f"{intpart}.."


def table_text(reports: list[BoundReport], truncate: Optional[int] = None) -> str:
    """Render the grid as aligned text, one row per degree t."""
    n_values = sorted({r.n for r in reports})
    t_values = sorted({r.t for r in reports})
    cell = {(r.n, r.t): r for r in reports}

    def show(r: BoundReport) -> str:
        return format_bound(r.b, truncate) if truncate is not None else format(r.b, ".10g")

    header = ["t\\n"] + [str(n) for n in n_values]
    rows = [header]
    for t in t_values:
        rows.append([str(t)] + [show(cell[(n, t)]) for n in n_values])
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in rows]
    notes = sorted({r.note for r in reports if r.note})
    return "\n".join(lines + [f"note: {n}" for n in notes])


def table_csv(reports: list[BoundReport]) -> str:
    """CSV with columns n,t,c,b,b_printed,integral."""
    out = io.StringIO()
    out.write("n,t,c,b,b_printed,integral\n")
    for r in reports:
        out.write(
            f"{r.n},{r.t},{format(r.c, '.17g')},{format(r.b, '.17g')},"
            f"{format_bound(r.b)},{str(r.integral).lower()}\n"
        )
    return out.getvalue()


def table_json(reports: list[BoundReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], indent=2)


@dataclass(frozen=True)
class AsymptoteReport:
    """Large-t description of b_{n,t} in terms of Bessel data.

    With alpha = (n-3)/2, F_n(z) = (z/2)^(-alpha) J_alpha(z) and j1 the
    first positive zero of J_{alpha+1}, the scaled kernel minimum converges
    to F_n(j1) < 0.  ``limit`` is the conventional value 1 - 1/F_n(j1); the
    sequence b_{n,t} itself converges to ``limit_corrected`` =
    1 - 1/(Gamma(alpha+1) * F_n(j1)), because the harmonic dimension grows
    like t^alpha / Gamma(alpha+1) once the binomial C(t+alpha, t) is
    expanded, not like t^alpha.  The two agree exactly when alpha is 0 or 1
    (n = 3 or 5).
    """

    n: int
    j1: float
    Fvalue: float
    limit: float
    limit_corrected: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "j1": self.j1,
            "F": self.Fvalue,
            "limit": self.limit,
            "limit_corrected": self.limit_corrected,
            "equiangular_absolute_bound": self.n * (self.n + 1) // 2,
        }


def _hyp0f1(a: Decimal, w: Decimal) -> Decimal:
    """0F1(; a; w) = sum_k w^k / (k! (a)_k) in the current decimal context, to the first
    term that leaves the sum unchanged (the terms grow only while (k+1)(a+k) < |w|)."""
    k, term, total = 0, Decimal(1), Decimal(0)
    while total + term != total:
        total, k = total + term, k + 1
        term *= w / (k * (a + k - 1))
    return total


def _digits(a: float) -> int:
    """Working precision for 0F1(; a; -z^2/4) up to the top z of _first_zero's scan:
    60 digits plus 3 times log10 of the series' largest term, since the terms cancel."""
    w = (a - 1 + 2 * (a - 1) ** (1 / 3) + 7) ** 2 / 4
    return 60 + int(3 * max(k * math.log10(w) - (math.lgamma(k + 1) + math.lgamma(a + k) - math.lgamma(a))
                            / math.log(10) for k in range(int(w ** 0.5) + 1)))


def _first_zero(a: Decimal) -> Decimal:
    """First positive zero j_{nu,1}, nu = a - 1, of 0F1(; a; -z^2/4), in the current
    decimal context.  J_nu > 0 on (0, j_{nu,1}), max(nu, 1) < j_{nu,1} < nu +
    2*nu^(1/3) + 4 (Qu and Wong, above order 1), and zeros are over 3.115 apart, so
    a scan from max(nu, 1) in steps of 3 ends in [j_{nu,1}, j_{nu,2}).  Safeguarded
    Newton, with d/dz 0F1(; a; -z^2/4) = -z/(2a) 0F1(; a+1; -z^2/4), refines that
    bracket: a step leaving it or not half the previous one becomes a bisection,
    and a step below 1e-40 of z is the last."""
    hi = Decimal(max(a - 1, 1))
    while _hyp0f1(a, -hi * hi / 4) > 0:
        hi += 3
    lo, z, moved = hi - 3, hi - Decimal("1.5"), Decimal(3)
    while moved >= z.scaleb(-40):
        f = _hyp0f1(a, -z * z / 4)
        lo, hi = (z, hi) if f > 0 else (lo, z)
        step = -2 * a * f / (z * _hyp0f1(a + 1, -z * z / 4))
        new = z - step if lo <= z - step <= hi and abs(step) <= moved / 2 else (lo + hi) / 2
        z, moved = new, abs(new - z)
    return z


def asymptotic_bound(n: int) -> AsymptoteReport:
    """Evaluate the Bessel-function limit data of b_{n,t} for fixed integer n >= 3.

    J_alpha(z) = (z/2)^alpha / Gamma(alpha+1) * 0F1(; alpha+1; -z^2/4), so F is
    0F1(; alpha+1; -j1^2/4) / Gamma(alpha+1) and limit_corrected is 1 - 1/0F1(...):
    each value in decimal at _digits precision, rounded once to float64.  As
    |0F1(; a; -z^2/4)| <= 1 for a >= 1/2, |limit - 1| >= Gamma(alpha+1), so from
    n = 345 on the raise comes before any series term.
    """
    try:
        n = operator.index(n)  # as dim_harmonic takes n: a plain int from here on
    except TypeError:
        raise ValueError(f"asymptote requires an integer n, got {n!r}") from None
    if n < 3:
        raise ValueError(f"asymptote requires n >= 3, got {n}")
    if n >= 2 ** 1023:  # (n-3)/2 would overflow float64
        raise ValueError(f"asymptote requires n below 2^1023, got n={n}")
    if math.lgamma(min((n - 1) / 2, 1e300)) > math.log(sys.float_info.max):  # Gamma(alpha + 1); lgamma overflows past 2e305
        raise ValueError(f"asymptote at n = {n}: limit is inf, not finite in float64")
    with localcontext(Context(prec=_digits((n + 1) / 2))):  # default rounding and traps, whatever the caller's
        z = _first_zero(Decimal(n + 1) / 2)
        h = _hyp0f1(Decimal(n - 1) / 2, -z * z / 4)
        root_pi = _first_zero(Decimal(3) / 2).sqrt() if n % 2 == 0 else 1  # Gamma(1/2), as pi = j_{1/2,1}
        gamma = root_pi * math.prod(Decimal(n - 3 - 2 * i) / 2 for i in range((n - 2) // 2))  # Gamma(alpha + 1)
        j1, F, limit, corrected = (float(v) for v in (z, h / gamma, 1 - gamma / h, 1 - 1 / h))
    if not math.isfinite(limit):  # |F| <= 1/Gamma(3/2), and limit_corrected is below 1e28 to n = 344
        raise ValueError(f"asymptote at n = {n}: limit is {limit}, not finite in float64")
    return AsymptoteReport(n=n, j1=j1, Fvalue=F, limit=limit, limit_corrected=corrected)


def tight_inner_product(n: int) -> QuadExt:
    """The only inner product +-alpha a minimum-size degree-4 design can have.

    alpha = sqrt(3/(n+4)), returned exactly in Q(sqrt(d)), for integers 2 <= n < 2^32;
    larger n raise ValueError before d is found by trial division of 3(n+4).
    """
    dim_harmonic(n, 4)  # a ValueError naming n unless it is an integer >= 2
    n = operator.index(n)
    if n >= 2 ** 32:
        raise ValueError(f"the exact tightness path takes n < 2^32, got n={n}")
    return QuadExt.sqrt(Fraction(3, n + 4))
