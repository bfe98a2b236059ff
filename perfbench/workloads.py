"""The four workloads.

Each workload makes its inputs from the seed, then runs whole rounds of the
same operations; ``round_ops`` yields (key, operation) pairs and ``check``
compares one operation's output with an oracle from ``oracles``.  The
program is reached through ``hs``, the imported hidesign package, by
attribute lookup at call time, so the traced run's span recorders apply.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import measure
import oracles

HERE = Path(__file__).resolve().parent

# -- bound_grid -----------------------------------------------------------------

GRID_N = (3, 4, 5, 6, 8, 10, 16, 24, 40)
GRID_T = (4, 6, 8, 10, 12, 16, 20, 24, 32, 40, 50, 64, 80, 100)
GRID_CELLS = [(n, t) for n in GRID_N for t in GRID_T]
# cells that fail today, with a phrase their fault must contain
FAILING_CELLS = {
    (1000, 400): "zero-size array to reduction operation maximum",
    (200, 200): "integral=True",
}
TABLE_N = list(range(3, 11))
TABLE_T = list(range(4, 21, 2))
TABLE_CELLS = [(n, t) for n in TABLE_N for t in TABLE_T]


class Workload:
    name = ""
    setup_module = "hidesign"
    expected = {}  # key -> phrase of a known fault

    def __init__(self, seed: int, work: Path, src: Path, traced: bool):
        self.seed, self.work, self.src, self.traced = seed, work, src, traced

    def prepare(self, hs) -> None:
        self.hs = hs

    def warmup(self) -> None:
        pass

    def once(self) -> list[str]:
        """Untimed work done once per run; returns problems found."""
        return []

    def layer_extras(self) -> dict:
        return {}

    def summary(self) -> list[str]:
        """Lines describing the inputs, printed after the checks."""
        return []

    def peak_rss_mb(self, records) -> float:
        """Peak RSS of this process, which did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class BoundGrid(Workload):
    name = "bound_grid"
    expected = FAILING_CELLS

    def prepare(self, hs):
        super().prepare(hs)
        self.reference = oracles.load_reference()
        self.rng = random.Random(self.seed)
        self.cells = GRID_CELLS + sorted(FAILING_CELLS)
        self.render_ms = 0.0

    def _cell(self, n, t):
        r = self.hs.fisher_bound(n, t)
        return r.b, r.integral, self.hs.format_bound(r.b)

    def warmup(self):
        for n, t in ((3, 4), (5, 10), (8, 20)):
            self._cell(n, t)

    def once(self):
        t0 = time.perf_counter()
        text = self.hs.bounds.table_text(self.hs.bound_table(TABLE_N, TABLE_T), truncate=2)
        self.render_ms = (time.perf_counter() - t0) * 1e3
        return [f"72-cell table: {v}" for v in oracles.table_violations(self.reference, text, TABLE_N, TABLE_T)]

    def round_ops(self):
        order = list(self.cells)
        self.rng.shuffle(order)
        for n, t in order:
            yield (n, t), (lambda n=n, t=t: self._cell(n, t))

    def check(self, key, out):
        return oracles.bound_violations(self.reference[key], *out)

    def layer_extras(self):
        return {"bounds.render.ms": self.render_ms}


# -- design_check ---------------------------------------------------------------

# library designs: (generator, antipodal union?, file stem)
LIBRARY = [
    ("icosahedron-half", False, "icosahedron_half"),
    ("x0-plus", False, "x0_plus"),
    ("e8-half", False, "e8_half"),
    ("e8-half", True, "e8_full"),
    ("cell600-half", False, "cell600_half"),
    ("cell600-half", True, "cell600_full"),
]
# (file stem, "index" for one degree or "spherical" for degrees 1..t, t, tolerance)
LIBRARY_TASKS = [
    ("x0_plus", "index", 4, 1e-9),
    ("icosahedron_half", "index", 4, 1e-9),
    ("cell600_half", "index", 58, 1e-8),
    ("e8_half", "index", 10, 1e-9),
    ("cell600_full", "spherical", 11, 1e-9),
    ("e8_full", "spherical", 7, 1e-9),
]
# seeded random sets: (points m, dimension n, mode, t)
RANDOM_TASKS = [
    (30, 3, "index", 30),
    (60, 4, "index", 20),
    (200, 6, "spherical", 8),
    (500, 3, "spherical", 6),
    (600, 3, "spherical", 5),
    (700, 5, "index", 10),
    (800, 4, "spherical", 4),
    (1000, 4, "index", 8),
    (1200, 8, "index", 6),
    (2000, 5, "spherical", 2),
    (2000, 5, "spherical", 2),
]
# Per round, eight tasks cost well under half of e8_full's and eight well
# over twice, so the median latency is that task's and does not hop between
# two tasks of similar cost.  The two 2000-point sets give the tail at least
# ten samples of the costliest task even when a run fits only six rounds.


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def write_points(path: Path, points: np.ndarray, source: str) -> None:
    body = {"dim": points.shape[1], "points": [[format(v, ".17g") for v in row] for row in points],
            "labels": None, "source": source}
    path.write_text(json.dumps(body) + "\n", encoding="utf-8")


def construct(kind: str, work: Path, src: Path) -> np.ndarray:
    """A library design, made by the hidesign CLI in a child process."""
    res = measure.run_child([sys.executable, "-m", "hidesign", "construct", kind], work,
                            measure.child_env(src))
    if res.returncode != 0:
        raise RuntimeError(f"hidesign construct {kind} failed: {res.stderr[-2000:]}")
    return np.array([[float(v) for v in row] for row in json.loads(res.stdout)["points"]])


class DesignCheck(Workload):
    name = "design_check"

    def prepare(self, hs):
        super().prepare(hs)
        rng = np.random.default_rng(self.seed)
        made = {}
        for kind, full, stem in LIBRARY:
            if kind not in made:
                made[kind] = construct(kind, self.work, self.src)
            pts = made[kind]
            if full:
                pts = np.vstack([pts, -pts])
            write_points(self.work / f"{stem}.json", pts @ random_rotation(rng, pts.shape[1]).T,
                         f"{stem}, randomly rotated")
        self.tasks = []
        for stem, mode, t, tol in LIBRARY_TASKS:
            self.tasks.append((self.work / f"{stem}.json", mode, t, tol))
        for k, (m, n, mode, t) in enumerate(RANDOM_TASKS):
            pts = rng.normal(size=(m, n))
            pts /= np.linalg.norm(pts, axis=1)[:, None]
            path = self.work / f"random{k}_{m}_{n}.json"
            write_points(path, pts, f"random {m} points on S^{n - 1}")
            self.tasks.append((path, mode, t, 1e-9))
        self.oracle = {}

    def _certify(self, path, mode, t, tol):
        ps = self.hs.PointSet.load(path)
        if mode == "spherical":
            cert = self.hs.verify_spherical_design(ps, t, tol=tol)
        else:
            cert = self.hs.verify_harmonic_index(ps, t, tol=tol)
        return cert.degrees, cert.raw_sums, cert.passed

    def warmup(self):
        self._certify(*self.tasks[0])

    def round_ops(self):
        # a fixed order: the allocator's reuse of large freed blocks, and so
        # the peak RSS, depends on it
        for i, task in enumerate(self.tasks):
            yield i, (lambda task=task: self._certify(*task))

    def check(self, key, out):
        path, mode, t, tol = self.tasks[key]
        if key not in self.oracle:
            pts = oracles.read_points(path)
            degrees = list(range(1, t + 1)) if mode == "spherical" else [t]
            self.oracle[key] = (oracles.certificate(pts, degrees, tol), pts.shape)
        cert, (m, n) = self.oracle[key]
        degrees, raws, passed = out
        return [f"{path.name}: {v}" for v in oracles.certificate_violations(cert, degrees, raws, passed, m, n)]


# -- rank_scan ------------------------------------------------------------------

# (squared distance ratio, target dimension, {vertex count: graphs per round});
# the paper's two searches.  At n = 7 every 8-vertex graph passes the rank
# test (L is 7x7) and at n = 8 every 9-vertex graph does; random larger
# graphs almost always have full rank and are excluded.
CORPORA = [
    ("(7+√33)/4", 7, {8: 6, 9: 12, 10: 12}),
    ("3", 8, {8: 4, 9: 8, 10: 18}),
]


def graph6(adj) -> str:
    """McKay's graph6 encoding for graphs with at most 62 vertices."""
    n = len(adj)
    bits = [int(adj[i][j]) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6))
    return chr(63 + n) + body


def random_graph(rng: np.random.Generator, m: int) -> np.ndarray:
    upper = np.triu(rng.random((m, m)) < 0.5, k=1)
    return (upper | upper.T).astype(int)


def random_corpus(rng: np.random.Generator, mix: dict) -> list[np.ndarray]:
    graphs = [random_graph(rng, m) for m, count in sorted(mix.items()) for _ in range(count)]
    return [graphs[i] for i in rng.permutation(len(graphs))]


class RankScan(Workload):
    """Every round scans fresh graphs from the seeded stream, so the tail
    latency is an order statistic over many distinct graphs rather than
    the cost of the few hardest graphs of one small corpus."""

    name = "rank_scan"

    def prepare(self, hs):
        super().prepare(hs)
        self.rng = np.random.default_rng(self.seed)
        self.corpora = [(hs.QuadExt.parse(b2), oracles.parse_surd(b2), n, mix) for b2, n, mix in CORPORA]
        self.graphs = {}  # (round, corpus) -> graphs, in file order
        self.rounds = 0
        self.oracle = {}

    def _decoded(self, path, sink):
        for adj in self.hs.read_graph6(path):
            sink.append(adj)
            yield adj

    def _write(self, graphs, name):
        path = self.work / name
        path.write_text("".join(graph6(g) + "\n" for g in graphs), encoding="ascii")
        return path

    def warmup(self):
        b2, _, n, _ = self.corpora[0]
        path = self._write(random_corpus(np.random.default_rng(self.seed + 1), {10: 2}), "warmup.g6")
        list(self.hs.scan_graph_corpus(self.hs.read_graph6(path), b2, n))

    def round_ops(self):
        r = self.rounds
        self.rounds += 1
        for ci, (b2, _, n, mix) in enumerate(self.corpora):
            graphs = self.graphs[r, ci] = random_corpus(self.rng, mix)
            path = self._write(graphs, f"corpus{ci}.g6")
            decoded = []
            records = self.hs.scan_graph_corpus(self._decoded(path, decoded), b2, n)
            for i in range(len(graphs)):
                yield (r, ci, i), (lambda: (next(records), decoded[-1]))
            records.close()

    def check(self, key, out):
        r, ci, i = key
        _, b2, n, _ = self.corpora[ci]
        graph = self.graphs[r, ci][i]
        rank = self.oracle[key] = oracles.es_rank(graph.tolist(), b2)
        rec, adj = out
        problems = []
        if not np.array_equal(adj, graph):
            problems.append("decoded adjacency differs from the generated graph")
        if (rec.index, rec.vertex_count, rec.rank, rec.feasible) != (i, len(graph), rank, rank <= n):
            problems.append(f"record {rec.as_dict()} but the oracle rank is {rank} (n = {n})")
        return [f"round {r}, corpus {ci}, graph {i}: {p}" for p in problems]

    def summary(self):
        parts = []
        for ci, (_, _, n, _) in enumerate(self.corpora):
            ranks = [rank for (_, c, _), rank in self.oracle.items() if c == ci]
            excluded = sum(1 for rank in ranks if rank > n)
            parts.append(f"corpus {ci} (n = {n}): {excluded} of {len(ranks)} graphs excluded")
        return ["; ".join(parts)]


# -- cli_cold -------------------------------------------------------------------

CLI_TIGHT_N = 23
CLI_EMBED = ("(7+√33)/4", 7, {8: 3, 9: 3})


class CliCold(Workload):
    """Cold CLI processes, one at a time; each latency is the child's wall
    time from spawn until it has been reaped."""

    name = "cli_cold"
    setup_module = "hidesign.cli"

    def prepare(self, hs):
        super().prepare(hs)
        rng = np.random.default_rng(self.seed)
        e8 = construct("e8-half", self.work, self.src)
        self.e8_path = self.work / "e8_half.json"
        write_points(self.e8_path, e8 @ random_rotation(rng, 8).T, "e8_half, randomly rotated")
        b2_text, n, mix = CLI_EMBED
        self.graphs = random_corpus(rng, mix)
        self.g6_path = self.work / "small.g6"
        self.g6_path.write_text("".join(graph6(g) + "\n" for g in self.graphs), encoding="ascii")
        self.commands = [
            ("tight", ["tight", "--n", str(CLI_TIGHT_N)]),
            ("table", ["table", "--n", "3..10", "--t", "4..20", "--even", "--truncate", "2"]),
            ("verify", ["verify", "--in", str(self.e8_path), "--t", "10"]),
            ("embed", ["embed", "--graphs", str(self.g6_path), "--b2", b2_text, "--n", str(n)]),
        ]
        self.reference = oracles.load_reference()
        self.env = measure.child_env(self.src)
        self.times_path = self.work / "child_times.json"
        self.env["PERFBENCH_CHILD_TIMES"] = str(self.times_path)
        self.child_times = []
        self.oracle = {}

    def _invoke(self, argv):
        if self.traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py")] + argv
        else:
            cmd = [sys.executable, "-m", "hidesign"] + argv
        res = measure.run_child(cmd, self.work, self.env)
        if self.traced and res.returncode == 0:
            times = json.loads(self.times_path.read_text(encoding="utf-8"))
            times["scipy_ms"] = measure.importtime_self_ms(res.stderr, "scipy")
            times["networkx_ms"] = measure.importtime_self_ms(res.stderr, "networkx")
            self.child_times.append(times)
        return res

    def round_ops(self):
        for name, argv in self.commands:
            yield name, (lambda argv=argv: self._invoke(argv))

    def check(self, key, res):
        if key == "verify":
            expected_code = 0 if self._verify_oracle()["passed"] else 1
        else:
            expected_code = 0
        if res.returncode != expected_code:
            return [f"{key}: exit code {res.returncode}, expected {expected_code}: {res.stderr[-500:]}"]
        return [f"{key}: {p}" for p in getattr(self, "_check_" + key)(res)]

    def _check_tight(self, res):
        # b = (n+1)(n+2)/6 and alpha^2 = 3/(n+4).  At n = 23, b = 100 and
        # alpha = 1/3; a design of b points spans at least b/2 + 1 = 51
        # equiangular lines, more than the 44 that Lemmens and Seidel allow at
        # angle arccos(1/3), so the case is excluded.
        n = CLI_TIGHT_N
        b = Fraction((n + 1) * (n + 2), 6)
        alpha_sq = Fraction(3, n + 4)
        alpha = Fraction(math.isqrt(alpha_sq.numerator), math.isqrt(alpha_sq.denominator))
        if alpha * alpha != alpha_sq or alpha != Fraction(1, 3) or not b // 2 + 1 > 44:
            raise ValueError(f"the tight-design oracle covers n = 23 only, not n = {n}")
        want = [f"bound b = {b} = ", "(integer)", f"tight inner products: +-{alpha}", "status: excluded"]
        return [f"output lacks {w!r}" for w in want if w not in res.stdout]

    def _check_table(self, res):
        return oracles.table_violations(self.reference, res.stdout, TABLE_N, TABLE_T)

    def _verify_oracle(self):
        if "verify" not in self.oracle:
            self.oracle["verify"] = oracles.certificate(oracles.read_points(self.e8_path), [10], 1e-9)
        return self.oracle["verify"]

    def _check_verify(self, res):
        cert = self._verify_oracle()
        line = next((x for x in res.stdout.splitlines() if x.startswith("degree 10:")), None)
        if line is None:
            return ["no degree-10 line"]
        raw = float(line.split("kernel sum", 1)[1].split()[0])
        verdict = res.stdout.strip().splitlines()[-1]
        return oracles.certificate_violations(cert, [10], [raw], verdict == "verdict: pass", 120, 8)

    def _check_embed(self, res):
        b2_text, n, _ = CLI_EMBED
        b2 = oracles.parse_surd(b2_text)
        if "embed" not in self.oracle:
            self.oracle["embed"] = [oracles.es_rank(g.tolist(), b2) for g in self.graphs]
        ranks = self.oracle["embed"]
        got = [json.loads(x) for x in res.stdout.splitlines() if x.strip()]
        want = [{"index": i, "vertices": len(g), "rank": r, "feasible": r <= n}
                for i, (g, r) in enumerate(zip(self.graphs, ranks))]
        return [] if got == want else [f"records {got} differ from the oracle {want}"]

    def peak_rss_mb(self, records) -> float:
        """The largest peak RSS of any CLI child."""
        return max(res.maxrss_mb for _, res in records if isinstance(res, measure.ChildResult))

    def layer_extras(self):
        if not self.child_times:
            return {}
        pick = lambda k: measure.median([t[k] for t in self.child_times])  # noqa: E731
        return {"cli.import.ms": pick("import_ms"), "cli.main.ms": pick("main_ms"),
                "cli.import.scipy_ms": pick("scipy_ms"), "cli.import.networkx_ms": pick("networkx_ms")}


WORKLOADS = {w.name: w for w in (BoundGrid, DesignCheck, RankScan, CliCold)}
