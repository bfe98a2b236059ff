"""Oracles independent of hidesign, used only outside the timed region.

- Bounds: a stored mpmath table (``bound_reference.json``, rebuilt by
  ``make_reference.py``) read as decimal strings.
- Kernel sums: ``scipy.special.eval_gegenbauer`` on Gram blocks read from
  the point-set files with ``json``, not through ``PointSet``.
- Exact rank: the Einhorn-Schoenberg matrix built from the adjacency the
  benchmark generated, each entry a + b*sqrt(d) replaced by its 2x2 regular
  representation [[a, b*d], [b, a]] over Q; rank over Q(sqrt d) is half the
  rank of that rational matrix.
"""

from __future__ import annotations

import json
import math
import re
from decimal import ROUND_DOWN, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.special import eval_gegenbauer

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "bound_reference.json"
BOUND_REL_TOL = 1e-10


# -- bounds -------------------------------------------------------------------


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    """{(n, t): (Decimal b, is_integer)} from the stored mpmath table."""
    body = json.loads(path.read_text(encoding="utf-8"))
    return {
        (cell["n"], cell["t"]): (Decimal(cell["b"]), bool(cell["integer"]))
        for cell in body["cells"]
    }


def printed_contradicts(printed: str, ref: Decimal, ref_is_integer: bool) -> bool:
    """True when a displayed bound disagrees with the reference digits.

    "I.F.." claims the value truncated to len(F) decimals; a bare "I" claims
    an integer.
    """
    if printed.endswith(".."):
        body = printed[:-2]
        decimals = len(body.split(".", 1)[1]) if "." in body else 0
        return Decimal(body) != ref.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_DOWN)
    return not (ref_is_integer and Decimal(printed) == ref)


def bound_violations(ref, b: float, integral: bool, printed: str) -> list[str]:
    """The three rules a bound cell must satisfy; empty when it passes."""
    ref_b, ref_int = ref
    out = []
    if not math.isfinite(b) or abs(Decimal(b) - ref_b) > Decimal(BOUND_REL_TOL) * abs(ref_b):
        out.append(f"b = {b!r} differs from the reference {ref_b:.20g} by more than {BOUND_REL_TOL:g} relative")
    if integral and not ref_int:
        out.append(f"integral=True, but the reference {ref_b:.20g} is not an integer")
    if printed_contradicts(printed, ref_b, ref_int):
        out.append(f"printed {printed!r} contradicts the reference {ref_b:.20g}")
    return out


_TABLE_ROW = re.compile(r"^\s*(\d+)\s+(.*)$")


def table_violations(reference: dict, text: str, n_values: list[int], t_values: list[int]) -> list[str]:
    """Check a rendered text table, one row per degree, cell by cell."""
    rows = [line for line in text.splitlines() if line.strip() and not line.startswith("note:")]
    header = rows[0].split()
    if header[1:] != [str(n) for n in n_values]:
        return [f"table header {header!r} does not list n = {n_values}"]
    out = []
    seen = []
    for line in rows[1:]:
        m = _TABLE_ROW.match(line)
        if not m:
            return [f"unparseable table row {line!r}"]
        t = int(m.group(1))
        seen.append(t)
        cells = m.group(2).split()
        if len(cells) != len(n_values):
            out.append(f"row t={t} has {len(cells)} cells, expected {len(n_values)}")
            continue
        for n, printed in zip(n_values, cells):
            ref_b, ref_int = reference[(n, t)]
            if printed_contradicts(printed, ref_b, ref_int):
                out.append(f"table cell (n={n}, t={t}) printed {printed!r} contradicts {ref_b:.20g}")
    if seen != t_values:
        out.append(f"table rows t = {seen}, expected {t_values}")
    return out


# -- kernel sums --------------------------------------------------------------


def dim_harmonic(n: int, t: int) -> int:
    return math.comb(n + t - 1, t) - (math.comb(n + t - 3, t - 2) if t >= 2 else 0)


def read_points(path: Path) -> np.ndarray:
    body = json.loads(path.read_text(encoding="utf-8"))
    return np.array([[float(v) for v in row] for row in body["points"]])


def kernel_sum(points: np.ndarray, t: int, block: int = 256) -> float:
    """sum_{x,y} Q_{n,t}(<x,y>) with Q normalised so Q(1) = dim_harmonic(n, t)."""
    m, n = points.shape
    lam = (n - 2) / 2
    total = 0.0
    for i in range(0, m, block):
        gram = np.clip(points[i:i + block] @ points.T, -1.0, 1.0)
        total += float(eval_gegenbauer(t, lam, gram).sum())
    return total * dim_harmonic(n, t) / math.comb(t + n - 3, t)


def certificate(points: np.ndarray, degrees: list[int], tol: float) -> dict:
    """Raw sums, relative residuals |sum| / (m * dim) and the verdict."""
    m, n = points.shape
    raws = [kernel_sum(points, t) for t in degrees]
    residuals = [abs(r) / (m * dim_harmonic(n, t)) for r, t in zip(raws, degrees)]
    return {"degrees": list(degrees), "raw": raws, "residuals": residuals,
            "passed": all(r <= tol for r in residuals)}


def certificate_violations(oracle: dict, degrees, raws, passed: bool, m: int, n: int) -> list[str]:
    out = []
    if list(degrees) != oracle["degrees"]:
        return [f"degrees {list(degrees)} differ from {oracle['degrees']}"]
    for t, got, want in zip(degrees, raws, oracle["raw"]):
        # each of the m^2 terms is at most dim in size
        if not abs(got - want) <= 1e-10 * m * m * dim_harmonic(n, t):
            out.append(f"degree {t}: kernel sum {got!r} differs from the oracle {want!r}")
    if passed != oracle["passed"]:
        out.append(f"verdict {'pass' if passed else 'fail'} differs from the oracle")
    return out


# -- exact rank ---------------------------------------------------------------


def parse_surd(text: str) -> tuple[Fraction, Fraction, int]:
    """The two literals used here: an integer, or "(p+sqrt(d))/q"."""
    m = re.fullmatch(r"\((\d+)\+√(\d+)\)/(\d+)", text)
    if m:
        p, d, q = (int(g) for g in m.groups())
        return Fraction(p, q), Fraction(1, q), d
    return Fraction(int(text)), Fraction(0), 1


def rational_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(r) for r in rows]
    rank, ncols = 0, len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / p[c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def es_rank(adjacency, b2: tuple[Fraction, Fraction, int]) -> int:
    """Rank over Q(sqrt d) of the Einhorn-Schoenberg matrix of a 2-distance graph.

    Squared distances are 1 on non-edges and b2 on edges; L[i][j] =
    C[0][i] + C[0][j] - C[i][j] for vertices i, j >= 1.
    """
    a2, b2s, d = b2
    m = len(adjacency)

    def c(i, j):
        if i == j:
            return Fraction(0), Fraction(0)
        return (a2, b2s) if adjacency[i][j] else (Fraction(1), Fraction(0))

    big = []
    for i in range(1, m):
        top, bottom = [], []
        for j in range(1, m):
            (x1, y1), (x2, y2), (x3, y3) = c(0, i), c(0, j), c(i, j)
            a, b = x1 + x2 - x3, y1 + y2 - y3
            top += [a, b * d]
            bottom += [b, a]
        big += [top, bottom]
    r = rational_rank(big)
    if r % 2:
        raise ArithmeticError("regular representation has odd rank")
    return r // 2
