"""Can a degree-4 design meet the bound b_{n,4} = (n+1)(n+2)/6 exactly?

A design of exactly that size has inner products +-sqrt(3/(n+4)) and is a
2-distance set, which makes several exact necessary conditions available:
integrality of the bound, the degree-3 Delsarte bound on the one-point
sphere reduction, the Larman-Rogers-Seidel integrality of the squared
distance ratio, the absolute bound on equiangular lines, and the
Einhorn-Schoenberg rank test on candidate graphs.
"""

import networkx as nx
import numpy as np

from hidesign import (
    QuadExt,
    TwoDistGraph,
    es_embeddable,
    scan_graph_corpus,
    tightness_dossier,
)

print("=" * 72)
print("Dossiers for n = 2..30")
print("=" * 72)
print(f"{'n':>3} {'b':>8} {'alpha':>12} {'k':>4} {'p':>4}  status and deciding criterion")
for n in range(2, 31):
    d = tightness_dossier(n)
    deciding = next((v.criterion for v in d.verdicts if v.status == "fail"), "-")
    k = d.lrs_k if d.lrs_k is not None else "-"
    p = d.p if d.p is not None else "-"
    print(f"{n:>3} {str(d.b_exact):>8} {str(d.alpha):>12} {k:>4} {p:>4}  {d.status} ({deciding})")

print()
print("Only n = 2 admits one (two points on the circle).  Every other")
print("dimension is excluded: by integrality when 3 divides n, else by the")
print("reduced Delsarte bound.  The dimensions")
print("n = 3p^2-4 with odd p >= 3 pass every other test; p = 5 gives n = 71,")
print("excluded by this certificate:")
d71 = tightness_dossier(71)
v71 = next(v for v in d71.verdicts if v.criterion == "delsarte-reduced")
print(f"  n=71: status {d71.status}, k={d71.lrs_k}, p={d71.p}, "
      f"needs {d71.min_lines} equiangular lines (absolute bound {d71.absolute_bound})")
print(f"  [{v71.status:>12}] {v71.criterion}: {v71.note}")
print()
print("For n = 3p^2-4 (alpha = 1/p) the bound has the closed form")
print("1 + (p+1)^2 (p^2-2)/2, which is p(p-1)(p^2-2) below b - 1:")
print(f"{'p':>4} {'n':>6} {'bound':>8} {'b - 1':>8} {'gap':>8}")
for p in range(2, 12):
    n = 3 * p * p - 4
    d = tightness_dossier(n)
    closed = 1 + (p + 1) ** 2 * (p * p - 2) // 2
    assert d.delsarte_bound == closed and d.b_exact - 1 - closed == p * (p - 1) * (p * p - 2)
    print(f"{p:>4} {n:>6} {str(d.delsarte_bound):>8} {str(d.b_exact - 1):>8} "
          f"{str(d.b_exact - 1 - closed):>8}  {d.status}")

print()
print("=" * 72)
print("The n = 23 story in detail")
print("=" * 72)
d = tightness_dossier(23)
for v in d.verdicts:
    print(f"  [{v.status:>12}] {v.criterion}: {v.note}")

print()
print("=" * 72)
print("Einhorn-Schoenberg rank test")
print("=" * 72)
square = TwoDistGraph(np.array([
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
]), QuadExt(2))
print("unit square (edges on the diagonals, squared ratio 2):")
for n in (1, 2, 3):
    res = es_embeddable(square, n)
    print(f"  embeds in R^{n}? rank {res.rank} <= {n}: {res.embeddable}")

print()
print("Scanning all 11 graphs on 4 vertices against the plane (b^2 = 2):")
graphs = [nx.to_numpy_array(g, dtype=int) for g in nx.graph_atlas_g()
          if g.number_of_nodes() == 4]
records = list(scan_graph_corpus(graphs, QuadExt(2), 2))
for g, r in zip(graphs, records):
    degs = sorted(int(x) for x in g.sum(axis=0))
    print(f"  graph #{r.index:2d} degrees {degs}: rank {r.rank}, feasible: {r.feasible}")
print(f"feasible: {sum(r.feasible for r in records)} of {len(records)}")
print("(the degree-[1,1,1,1] perfect matching is the unit square's graph)")

print()
print("An exact surd ratio keeps the rank decision exact, e.g. the n = 7")
print("candidate ratio (7+sqrt(33))/4:")
b2 = QuadExt.parse("(7+√33)/4")
empty9 = TwoDistGraph(np.zeros((9, 9), dtype=int), b2)
res = es_embeddable(empty9, 7)
print(f"  empty 9-vertex graph in R^7: rank {res.rank}, feasible: {res.embeddable}")
