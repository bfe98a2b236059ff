"""Feasibility machinery for minimum-size degree-4 designs.

A design meeting the Fisher-type bound has exactly two inner products
+-alpha with alpha = sqrt(3/(n+4)), hence is a 2-distance set; this module
implements the exact necessary conditions that rule such sets out: the
one-point sphere reduction of the inner products and the degree-3 Delsarte
linear-programming bound on the reduced set, which decides every n >= 3,
the Larman-Rogers-Seidel integrality of the squared distance ratio, and the
Einhorn-Schoenberg rank test for isometric embeddability of a candidate
2-distance graph.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .bounds import tight_inner_product
from .exactnum import QuadExt, fraction_free_rank
from .orthopoly import _recurrence

__all__ = [
    "GraphFormatError",
    "TwoDistGraph",
    "MusinReduction",
    "musin_reduce",
    "lrs_check",
    "es_matrices",
    "EmbedResult",
    "es_embeddable",
    "ScanRecord",
    "scan_graph_corpus",
    "read_graph6",
    "read_adjacency_json",
    "Verdict",
    "TightnessDossier",
    "tightness_dossier",
]


class GraphFormatError(ValueError):
    """A graph record in a corpus could not be parsed or validated."""


def _check_adjacency(adj) -> tuple[tuple[int, ...], ...]:
    """adj as a new tuple of int tuples.  Entries must pass operator.index, so 0.9, 1.7 and "1"
    raise; an array goes through tolist, as numpy's bools do not pass it but Python's do."""
    try:
        a = tuple(map(tuple, adj.tolist() if hasattr(adj, "tolist") else adj))
    except TypeError:
        raise GraphFormatError("adjacency matrix must be square") from None
    if any(len(row) != len(a) for row in a):
        raise GraphFormatError("adjacency matrix must be square")
    if len(a) < 2:
        raise GraphFormatError(f"a 2-distance graph needs at least 2 vertices, got {len(a)}")
    try:
        a = tuple(tuple(map(operator.index, row)) for row in a)
    except TypeError:
        raise GraphFormatError("adjacency entries must be 0 or 1") from None
    if a != tuple(zip(*a)):
        raise GraphFormatError("adjacency matrix must be symmetric")
    if any(row[i] for i, row in enumerate(a)):
        raise GraphFormatError("adjacency matrix must have a zero diagonal")
    if not all(v in (0, 1) for row in a for v in row):
        raise GraphFormatError("adjacency entries must be 0 or 1")
    return a


@dataclass(frozen=True)
class TwoDistGraph:
    """A candidate 2-distance set: which pairs realize the larger distance.

    Distances are normalized so the smaller one is 1; ``b2`` is the exact
    squared larger distance, required to satisfy b2 > 1.  Edges join the
    pairs at the larger distance.  ``adjacency``, rows of 0/1 integers or a
    2-d array, is stored as a tuple of int tuples, not the caller's object.
    """

    adjacency: tuple[tuple[int, ...], ...]
    b2: QuadExt

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _check_adjacency(self.adjacency))
        if (self.b2 - 1).sign() <= 0:
            raise ValueError(f"squared distance ratio must exceed 1, got {self.b2}")

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)


@dataclass(frozen=True)
class MusinReduction:
    """Inner products of the one-point sphere reduction of a +-alpha set.

    A set on S^(n-1) with inner products {+-alpha} and N points exists
    exactly when a set on S^(n-2) with N-1 points exists whose inner
    products lie in {alpha/(1+alpha), -alpha/(1-alpha)}.  When alpha > 1/2
    the second value drops below -1 and only the first can occur; at
    alpha = 1/2 the second value degenerates to -1 (antipodal pairs).
    """

    plus: QuadExt
    minus: QuadExt
    only_plus: bool
    degenerate: bool


def _unit_interval_alpha(alpha) -> QuadExt:
    """alpha as a QuadExt, checked to lie strictly between 0 and 1."""
    alpha = alpha if isinstance(alpha, QuadExt) else QuadExt(alpha)
    if alpha.sign() <= 0 or (alpha - 1).sign() >= 0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return alpha


def musin_reduce(alpha: QuadExt) -> MusinReduction:
    """Reduce inner products +-alpha (0 < alpha < 1, exactly) by one sphere."""
    alpha = _unit_interval_alpha(alpha)
    plus = alpha / (1 + alpha)
    minus = (-alpha) / (1 - alpha)
    half = Fraction(1, 2)
    return MusinReduction(
        plus=plus,
        minus=minus,
        only_plus=(alpha - half).sign() > 0,
        degenerate=minus == -1,
    )


def lrs_check(alpha: QuadExt) -> Optional[int]:
    """Larman-Rogers-Seidel integrality test for inner products +-alpha.

    A large 2-distance set has squared distance ratio (k-1)/k for an integer
    k >= 2; on the sphere with inner products +-alpha the ratio condition
    becomes k = (1+alpha)/(2*alpha).  Returns k when that value is exactly
    an integer >= 2, else None.  Applicability (the set must have more than
    2n+3 points) is the caller's concern.
    """
    alpha = _unit_interval_alpha(alpha)
    k = (1 + alpha) / (2 * alpha)
    if not k.is_rational:
        return None
    frac = k.as_fraction()
    if frac.denominator != 1 or frac < 2:
        return None
    return int(frac)


def es_matrices(g: TwoDistGraph) -> list[list[QuadExt]]:
    """The Einhorn-Schoenberg L matrix of a 2-distance graph, exactly.

    With C = (b2 - 1) B + J - I (squared distances between vertex pairs),
    L[i-1][j-1] = C[0][i] + C[0][j] - C[i][j] for i, j >= 1, which equals
    twice the Gram matrix of the difference vectors when the set is
    realizable.
    """
    m = g.vertex_count
    one, zero = QuadExt(1), QuadExt(0)
    bm1 = g.b2 - 1

    def C(i: int, j: int) -> QuadExt:
        if i == j:
            return zero
        return bm1 * g.adjacency[i][j] + one

    return [
        [C(0, i) + C(0, j) - C(i, j) for j in range(1, m)]
        for i in range(1, m)
    ]


@dataclass(frozen=True)
class EmbedResult:
    """Outcome of the rank-based embeddability test."""

    embeddable: bool  # False certifies non-embeddability; True only fails to exclude
    rank: int
    n: int


def es_embeddable(g: TwoDistGraph, n: int) -> EmbedResult:
    """Necessary condition for isometric embeddability of g in R^n.

    The set embeds only if rank(L) <= n.  A False result is a certificate of
    non-embeddability; True means the rank test does not exclude it.
    """
    rank = fraction_free_rank(es_matrices(g))
    return EmbedResult(embeddable=rank <= n, rank=rank, n=n)


@dataclass(frozen=True)
class ScanRecord:
    index: int
    vertex_count: int
    rank: int
    feasible: bool

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "vertices": self.vertex_count,
            "rank": self.rank,
            "feasible": self.feasible,
        }


def scan_graph_corpus(graphs: Iterable, b2: QuadExt, n: int) -> Iterator[ScanRecord]:
    """Run the rank test over a stream of adjacency matrices.

    Yields one record per graph in input order; ``feasible`` marks graphs
    the test does not exclude from embedding in R^n with squared ratio b2.
    Malformed records raise :class:`GraphFormatError` carrying the index.
    """
    if (b2 - 1).sign() <= 0:
        raise ValueError(f"squared distance ratio must exceed 1, got {b2}")
    for idx, item in enumerate(graphs):
        try:
            g = TwoDistGraph(item, b2)
        except ValueError as exc:  # a GraphFormatError, or b2 at most 1
            raise GraphFormatError(f"graph #{idx}: {exc}") from exc
        res = es_embeddable(g, n)
        yield ScanRecord(idx, g.vertex_count, res.rank, res.embeddable)


def _decode_graph6(record: bytes) -> tuple[tuple[int, ...], ...]:
    """Adjacency matrix of one graph6 record (McKay's format): N(n) as one
    byte n+63 (n <= 62) or 126 and three bytes (n <= 258047), then the upper
    triangle column by column, six bits per byte, each byte + 63."""
    data = [byte - 63 for byte in record]
    if min(data) < 0 or max(data) > 63:
        raise GraphFormatError("each input character must be in range(63, 127)")
    if data[0] < 63:
        n, data = data[0], data[1:]
    elif len(data) > 1 and data[1] == 63:
        raise GraphFormatError("8-byte vertex counts (more than 258047 vertices) are not supported")
    elif len(data) < 4:
        raise GraphFormatError("4-byte vertex count cut short")
    else:
        n, data = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    pairs = n * (n - 1) // 2
    if len(data) != (pairs + 5) // 6:
        raise GraphFormatError(f"Expected {pairs} bits but got {len(data) * 6} in graph6")
    bits = iter([d >> s & 1 for d in data for s in range(5, -1, -1)])
    upper = [[next(bits) for _ in range(j)] for j in range(n)]  # column j: (0,j), (1,j), ..., (j-1,j)
    return tuple(tuple(upper[j][i] if i < j else upper[i][j] if j < i else 0 for j in range(n)) for i in range(n))


def read_graph6(source: Union[str, Path, Iterable[str]]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield adjacency matrices, each a tuple of int tuples, from graph6 text, one graph per line.

    ``source`` is a path or an iterable of lines.  The optional
    ">>graph6<<" header is skipped; a malformed line raises
    :class:`GraphFormatError` naming its 1-based line number.
    """
    if isinstance(source, (str, Path)):
        # a non-ASCII byte then fails its own line's encode below, by number
        with open(source, "r", encoding="ascii", errors="surrogateescape") as fh:
            yield from read_graph6(fh)
        return
    for lineno, line in enumerate(source, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith(">>graph6<<"):
            text = text[len(">>graph6<<"):]
            if not text:
                continue
        try:
            adj = _decode_graph6(text.encode("ascii"))
        except (GraphFormatError, UnicodeEncodeError) as exc:
            raise GraphFormatError(f"line {lineno}: invalid graph6 record: {exc}") from exc
        yield adj


def read_adjacency_json(text: str) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield adjacency matrices, as read_graph6 does, from a JSON list (or {"graphs": [...]});
    an entry other than the integers 0 and 1 (or false and true) raises GraphFormatError."""
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if isinstance(body, dict):
        body = body.get("graphs")
    if not isinstance(body, list):
        raise GraphFormatError('expected a JSON list of adjacency matrices or {"graphs": [...]}')
    for idx, adj in enumerate(body):
        try:
            yield _check_adjacency(adj)
        except GraphFormatError as exc:
            raise GraphFormatError(f"graph #{idx}: {exc}") from exc


@dataclass(frozen=True)
class Verdict:
    criterion: str
    status: str  # "pass" | "fail" | "inapplicable"
    note: str

    def as_dict(self) -> dict:
        return {"criterion": self.criterion, "status": self.status, "note": self.note}


@dataclass(frozen=True)
class TightnessDossier:
    """Everything the implemented criteria say about a minimum-size degree-4
    design on S^(n-1).  ``status`` is "exists", "excluded", or "open";
    ``delsarte_bound`` is the reduced-set bound 1 + y of the
    "delsarte-reduced" verdict, None where that verdict does not run."""

    n: int
    t: int
    b: float
    b_exact: Fraction
    integral: bool
    alpha: QuadExt
    two_distance_ratio_sq: QuadExt
    lrs_applicable: bool
    lrs_k: Optional[int]
    p: Optional[int]
    absolute_bound: int
    min_lines: Optional[int]
    delsarte_bound: Optional[QuadExt]
    verdicts: tuple[Verdict, ...]
    status: str

    def as_dict(self) -> dict:
        body = {
            "n": self.n,
            "t": self.t,
            "b": self.b,
            "b_exact": str(self.b_exact),
            "integral": self.integral,
            "alpha": str(self.alpha),
            "two_distance_ratio_sq": str(self.two_distance_ratio_sq),
            "lrs_applicable": self.lrs_applicable,
            "lrs_k": self.lrs_k,
            "p": self.p,
            "absolute_bound": self.absolute_bound,
            "min_lines": self.min_lines,
        }
        if self.delsarte_bound is not None:  # left out when None: 3 | n serializes as before
            body["delsarte_bound"] = str(self.delsarte_bound)
        body.update(verdicts=[v.as_dict() for v in self.verdicts], status=self.status)
        return body


def tightness_dossier(n: int) -> TightnessDossier:
    """Assemble the degree-4 feasibility verdicts for 2 <= n < 2^32, the limit of tight_inner_product."""
    alpha = tight_inner_product(n)  # a ValueError unless n is an integer in [2, 2^32)
    n, t = int(n), 4
    b_exact = Fraction((n + 1) * (n + 2), 6)
    integral = n % 3 != 0
    ratio_sq = (1 + alpha) / (1 - alpha)
    absolute_bound = n * (n + 1) // 2
    verdicts: list[Verdict] = []
    lrs_applicable = False
    lrs_k: Optional[int] = None
    p: Optional[int] = None
    min_lines: Optional[int] = None
    delsarte_bound: Optional[QuadExt] = None
    exists = False

    verdicts.append(Verdict(
        "cardinality-integrality",
        "pass" if integral else "fail",
        f"b = {b_exact}" + ("" if integral else " is not an integer, so no design can meet it"),
    ))

    if integral:
        min_lines = int(b_exact) // 2 + 1

        if n == 2:
            exists = True
            verdicts.append(Verdict(
                "construction",
                "pass",
                "two points at angle pi/4 meet the bound b = 2",
            ))

        if n >= 3:
            # Delsarte-Goethals-Seidel (1977) on the one-point reduction: the
            # b-1 reduced points on S^(n-2) have inner products in V, so
            # f = 1 + y*P_3 with f <= 0 on V bounds their number by f(1) = 1 + y
            red = musin_reduce(alpha)
            V = [red.plus] if red.only_plus else [red.plus, red.minus]
            m = n - 1  # P_3 is the degree-3 Gegenbauer polynomial on R^m over its value at 1
            p3 = [[*_recurrence(m, 3, v)][-1] / [*_recurrence(m, 3, Fraction(1))][-1] for v in V]
            reduced = (f"{int(b_exact) - 1} points on S^{n - 2} with inner products "
                       f"{', '.join(map(str, V))}")
            # P_3(x) < 0 iff (m+2)x^2 < 3 for x > 0, > 3 for x < 0.  With
            # alpha^2 = 3/(m+5) both hold for every m: plus < alpha, and for
            # minus the condition reduces to alpha^2 < alpha: an invariant, checked here.
            if not all(x.sign() < 0 for x in p3):
                raise ArithmeticError(f"P_3 is not negative on the reduced inner products at n = {n}")
            delsarte_bound = 1 + max(-1 / x for x in p3)
            verdicts.append(Verdict(
                "delsarte-reduced",
                "fail" if (delsarte_bound - (b_exact - 1)).sign() < 0 else "pass",
                f"reduction to {reduced}; the degree-3 Delsarte bound allows "
                f"at most {delsarte_bound} of them, against b - 1 = {b_exact - 1}",
            ))

        lrs_applicable = b_exact > 2 * n + 3
        if lrs_applicable:
            lrs_k = lrs_check(alpha)
            if lrs_k is None:
                verdicts.append(Verdict(
                    "lrs-integrality",
                    "fail",
                    f"(1+alpha)/(2*alpha) is not an integer for alpha = {alpha}",
                ))
            else:
                p = 2 * lrs_k - 1
                verdicts.append(Verdict(
                    "lrs-integrality",
                    "pass",
                    f"k = {lrs_k}, p = 2k-1 = {p}, and n = 3p^2-4 = {3 * p * p - 4}",
                ))
        else:
            verdicts.append(Verdict(
                "lrs-integrality",
                "inapplicable",
                f"needs more than 2n+3 = {2 * n + 3} points, but b = {b_exact}",
            ))

        over_absolute = min_lines > absolute_bound
        verdicts.append(Verdict(
            "equiangular-absolute-bound",
            "fail" if over_absolute else "pass",
            f"a design of size {b_exact} spans at least {min_lines} equiangular "
            f"lines; the absolute bound in R^{n} is {absolute_bound}",
        ))

    if exists:
        status = "exists"
    elif any(v.status == "fail" for v in verdicts):
        status = "excluded"
    else:
        status = "open"

    return TightnessDossier(
        n=n,
        t=t,
        b=float(b_exact),
        b_exact=b_exact,
        integral=integral,
        alpha=alpha,
        two_distance_ratio_sq=ratio_sq,
        lrs_applicable=lrs_applicable,
        lrs_k=lrs_k,
        p=p,
        absolute_bound=absolute_bound,
        min_lines=min_lines,
        delsarte_bound=delsarte_bound,
        verdicts=tuple(verdicts),
        status=status,
    )
