"""Musin reduction, LRS integrality, Einhorn-Schoenberg rank test, dossiers
and their reduced Delsarte certificates."""

import inspect
import json
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from hidesign import tightness
from hidesign.bounds import tight_inner_product
from hidesign.exactnum import QuadExt, fraction_free_rank
from hidesign.tightness import (
    GraphFormatError,
    TwoDistGraph,
    es_embeddable,
    es_matrices,
    lrs_check,
    musin_reduce,
    read_adjacency_json,
    read_graph6,
    scan_graph_corpus,
    tightness_dossier,
)

SQUARE_DIAGONALS = np.array([
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
])


def four_vertex_graphs() -> list[np.ndarray]:
    """All 11 simple graphs on 4 vertices, from the networkx atlas."""
    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 4]
    assert len(graphs) == 11
    return [nx.to_numpy_array(g, dtype=int, nodelist=sorted(g.nodes())) for g in graphs]


class TestMusin:
    def test_sqrt_three_eighths(self):
        red = musin_reduce(QuadExt.sqrt(Fraction(3, 8)))
        assert red.plus == QuadExt(Fraction(-3, 5), Fraction(2, 5), 6)  # (2 sqrt 6 - 3)/5
        assert red.only_plus
        assert not red.degenerate

    def test_one_third(self):
        red = musin_reduce(QuadExt(Fraction(1, 3)))
        assert red.plus == Fraction(1, 4)
        assert red.minus == Fraction(-1, 2)
        assert not red.only_plus

    def test_one_half_degenerates(self):
        red = musin_reduce(QuadExt(Fraction(1, 2)))
        assert red.plus == Fraction(1, 3)
        assert red.minus == -1
        assert red.degenerate

    def test_outputs_stay_in_range(self):
        for a in (Fraction(1, 10), Fraction(2, 5), Fraction(3, 4), Fraction(9, 10)):
            red = musin_reduce(QuadExt(a))
            assert QuadExt(-1) < red.plus < QuadExt(1)
            if a != Fraction(1, 2):
                assert red.minus != -1

    def test_domain_checked(self):
        with pytest.raises(ValueError):
            musin_reduce(QuadExt(0))
        with pytest.raises(ValueError):
            musin_reduce(QuadExt(1))
        with pytest.raises(ValueError):
            musin_reduce(QuadExt(Fraction(3, 2)))


@pytest.mark.parametrize("check", [musin_reduce, lrs_check])
@pytest.mark.parametrize("alpha", [QuadExt(0), QuadExt(1), QuadExt(Fraction(3, 2))])
def test_alpha_domain_is_one_check(check, alpha):
    with pytest.raises(ValueError, match=f"^alpha must lie strictly between 0 and 1, got {alpha}$"):
        check(alpha)


class TestLRS:
    def test_one_third_gives_k2(self):
        assert lrs_check(QuadExt(Fraction(1, 3))) == 2

    def test_one_fifth_gives_k3(self):
        assert lrs_check(QuadExt(Fraction(1, 5))) == 3

    def test_surd_fails(self):
        assert lrs_check(QuadExt.sqrt(Fraction(3, 8))) is None

    def test_non_integer_rational_fails(self):
        assert lrs_check(QuadExt(Fraction(2, 5))) is None  # k = 7/4


class TestEinhornSchoenberg:
    def test_empty_graph_is_simplex_pattern(self):
        for m in (3, 5, 8):
            g = TwoDistGraph(np.zeros((m, m), dtype=int), QuadExt(2))
            L = es_matrices(g)
            for i in range(m - 1):
                for j in range(m - 1):
                    assert L[i][j] == (2 if i == j else 1)
            assert fraction_free_rank(L) == m - 1

    def test_single_edge(self):
        g = TwoDistGraph(np.array([[0, 1], [1, 0]]), QuadExt(Fraction(7, 4), Fraction(1, 4), 33))
        L = es_matrices(g)
        assert L == [[QuadExt(Fraction(7, 2), Fraction(1, 2), 33)]]  # 2 b^2
        assert fraction_free_rank(L) == 1

    def test_square_matches_coordinate_realization(self):
        # vertices (0,0),(1,0),(1,1),(0,1); edges join the two diagonals
        g = TwoDistGraph(SQUARE_DIAGONALS, QuadExt(2))
        L = [[v.as_fraction() for v in row] for row in es_matrices(g)]
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        expect = [
            [2 * sum((pts[i][k] - pts[0][k]) * (pts[j][k] - pts[0][k]) for k in range(2))
             for j in range(1, 4)]
            for i in range(1, 4)
        ]
        assert L == expect

    def test_square_embeds_in_plane_not_line(self):
        g = TwoDistGraph(SQUARE_DIAGONALS, QuadExt(2))
        assert es_embeddable(g, 2).embeddable
        assert not es_embeddable(g, 1).embeddable
        assert es_embeddable(g, 1).rank == 2

    def test_empty_ten_vertex_graph_needs_nine_dimensions(self):
        g = TwoDistGraph(np.zeros((10, 10), dtype=int), QuadExt(2))
        res = es_embeddable(g, 8)
        assert not res.embeddable
        assert res.rank == 9
        assert es_embeddable(g, 9).embeddable

    def test_realized_two_distance_sets_pass(self):
        # the regular pentagon (in the plane) and the icosahedron half (on
        # S^2) are 2-distance sets with exact squared ratio (3+sqrt(5))/2;
        # edges join the pairs at the larger distance
        from hidesign.designs import generate

        b2 = QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
        pent = generate("regular_polygon", m=5)
        gram = pent.gram()
        adj = (gram < np.cos(2 * np.pi / 5) - 0.1).astype(int)
        np.fill_diagonal(adj, 0)
        res = es_embeddable(TwoDistGraph(adj, b2), 2)
        assert res.embeddable and res.rank == 2

        ico = generate("icosahedron_half")
        gram = ico.gram()
        adj = (gram < 0).astype(int)
        np.fill_diagonal(adj, 0)
        res = es_embeddable(TwoDistGraph(adj, b2), 3)
        assert res.embeddable and res.rank == 3

    def test_validation(self):
        with pytest.raises(GraphFormatError):
            TwoDistGraph(np.array([[0, 1], [0, 0]]), QuadExt(2))  # asymmetric
        with pytest.raises(GraphFormatError):
            TwoDistGraph(np.array([[1, 0], [0, 1]]), QuadExt(2))  # loops
        with pytest.raises(ValueError, match="exceed 1"):
            TwoDistGraph(np.zeros((2, 2), dtype=int), QuadExt(Fraction(1, 2)))


class TestScan:
    def test_four_vertex_corpus_in_three_dimensions(self):
        records = list(scan_graph_corpus(four_vertex_graphs(), QuadExt(2), 3))
        assert len(records) == 11
        # rank of a 3x3 matrix never exceeds 3, so nothing is excluded
        assert all(r.feasible for r in records)

    def test_square_graph_feasible_in_plane(self):
        graphs = four_vertex_graphs() + [SQUARE_DIAGONALS]
        records = list(scan_graph_corpus(graphs, QuadExt(2), 2))
        feas = [g for g, r in zip(graphs, records) if r.feasible]
        # the perfect matching (the square with edges on its diagonals) passes
        assert any(sorted(g.sum(axis=0)) == [1, 1, 1, 1] for g in feas)
        assert any(np.array_equal(g, SQUARE_DIAGONALS) for g in feas)
        assert any(not r.feasible for r in records)  # the empty graph needs rank 3

    def test_order_preserved_and_indexed(self):
        records = list(scan_graph_corpus(four_vertex_graphs(), QuadExt(2), 3))
        assert [r.index for r in records] == list(range(11))

    def test_empty_stream(self):
        assert list(scan_graph_corpus([], QuadExt(2), 3)) == []

    def test_malformed_graph_reports_index(self):
        graphs = [np.zeros((3, 3), dtype=int), np.array([[0, 2], [2, 0]])]
        with pytest.raises(GraphFormatError, match="#1"):
            list(scan_graph_corpus(graphs, QuadExt(2), 3))

    @pytest.mark.parametrize("small", [np.zeros((1, 1), dtype=int), np.zeros((0, 0), dtype=int)])
    def test_fewer_than_two_vertices_reports_index(self, small):
        scan = scan_graph_corpus([SQUARE_DIAGONALS, small], QuadExt(2), 3)
        assert next(scan).index == 0
        with pytest.raises(GraphFormatError, match=r"graph #1: .*at least 2 vertices, got "):
            next(scan)

    def test_fewer_than_two_vertices_from_graph6(self):
        scan = scan_graph_corpus(read_graph6(["C~", "@"]), QuadExt(2), 3)
        assert next(scan).vertex_count == 4
        with pytest.raises(GraphFormatError, match="graph #1: .*got 1"):
            next(scan)

    @pytest.mark.parametrize("item", [
        TwoDistGraph(SQUARE_DIAGONALS, QuadExt(3)),  # carries its own b2; not an adjacency
        [[0, 1], [1]],
        None,
    ], ids=["TwoDistGraph", "ragged", "None"])
    def test_non_array_item_reports_index(self, item):
        scan = scan_graph_corpus([SQUARE_DIAGONALS, item], QuadExt(2), 3)
        assert next(scan).index == 0
        with pytest.raises(GraphFormatError, match=r"graph #1: "):
            next(scan)

    def test_caller_array_stays_writable(self):
        adj = np.array([[0, 1], [1, 0]], dtype=np.int64)
        list(scan_graph_corpus([adj], QuadExt(3), 2))
        g = TwoDistGraph(adj, QuadExt(3))
        assert adj.flags.writeable and not g.adjacency.flags.writeable
        adj[0, 1] = 0
        assert g.adjacency[0, 1] == 1

    def test_each_adjacency_checked_once(self, monkeypatch):
        calls = []
        check = tightness._check_adjacency
        monkeypatch.setattr(tightness, "_check_adjacency", lambda a: calls.append(1) or check(a))
        graphs = four_vertex_graphs()
        assert len(list(scan_graph_corpus(graphs, QuadExt(2), 3))) == len(graphs)
        assert len(calls) == len(graphs)


class TestGraphIO:
    def test_graph6_round_trip(self, tmp_path):
        graphs = four_vertex_graphs()
        lines = []
        for adj in graphs:
            g = nx.from_numpy_array(adj)
            lines.append(nx.to_graph6_bytes(g, header=False).decode("ascii").strip())
        path = tmp_path / "g4.g6"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        back = list(read_graph6(path))
        assert len(back) == 11
        for orig, re_read in zip(graphs, back):
            assert np.array_equal(orig, re_read)

    def test_graph6_header_skipped(self):
        assert len(list(read_graph6([">>graph6<<C?", "C~"]))) == 2

    def test_graph6_malformed_line_number(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            list(read_graph6(["C?", "\x01bad\x02"]))

    def test_graph6_matches_networkx_on_the_atlas(self):
        for g in nx.graph_atlas_g():  # every graph on 0..7 vertices
            line = nx.to_graph6_bytes(g, header=False).decode("ascii")
            expect = nx.to_numpy_array(g, dtype=int, nodelist=sorted(g.nodes()))
            (got,) = read_graph6([line])
            assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_graph6_matches_networkx_with_four_byte_counts(self):
        rng = np.random.default_rng(6)
        lines, expect = [], []
        for n in list(range(63, 91)) + [200]:
            g = nx.gnp_random_graph(n, float(rng.uniform(0.05, 0.95)), seed=int(rng.integers(1 << 31)))
            lines.append(nx.to_graph6_bytes(g, header=False).decode("ascii"))
            expect.append(nx.to_numpy_array(g, dtype=int, nodelist=sorted(g.nodes())))
        assert all(line.startswith("~") for line in lines)  # 126, then 18 bits of n
        got = list(read_graph6(lines))
        assert len(got) == len(expect)
        assert all(np.array_equal(a, b) for a, b in zip(got, expect))

    @pytest.mark.parametrize("record, message", [
        ("C>", "range"),  # ">" is 62, below the lowest graph6 byte 63
        ("C\x7f", "range"),
        ("C", "Expected 6 bits but got 0"),
        ("C~?", "Expected 6 bits but got 12"),
        ("~?@?", "Expected 2016 bits but got 0"),
        ("~??", "cut short"),
        ("~~??????", "8-byte"),
        ("Cé", "ascii"),
    ])
    def test_graph6_malformed_record_names_line(self, record, message):
        with pytest.raises(GraphFormatError, match=f"line 3: invalid graph6 record: .*{message}"):
            list(read_graph6(["C?", "", record]))

    def test_graph6_reader_is_a_generator(self):
        lines = iter(["C~", "C>"])
        graphs = read_graph6(lines)
        assert inspect.isgenerator(graphs)
        assert next(graphs).shape == (4, 4)
        with pytest.raises(GraphFormatError, match="line 2"):
            next(graphs)

    def test_adjacency_json(self):
        text = '{"graphs": [[[0,1],[1,0]], [[0,0],[0,0]]]}'
        out = list(read_adjacency_json(text))
        assert len(out) == 2 and out[0][0][1] == 1

    def test_adjacency_json_errors(self):
        with pytest.raises(GraphFormatError, match="#0"):
            list(read_adjacency_json("[[[0,2],[2,0]]]"))
        with pytest.raises(GraphFormatError, match="JSON"):
            list(read_adjacency_json("nope"))
        for bad in ('[[[0,1],[1,0]], [[0,1],[1]]]', '[[[0,1],[1,0]], null]'):  # ragged, not an array
            with pytest.raises(GraphFormatError, match="graph #1: "):
                list(read_adjacency_json(bad))


class TestDossier:
    def test_n23_excluded_by_delsarte_bound(self):
        d = tightness_dossier(23)
        assert d.status == "excluded"
        assert d.lrs_k == 2 and d.p == 3
        assert d.min_lines == 51
        assert d.alpha.as_fraction() == Fraction(1, 3)
        assert_delsarte_fail(d, "57")

    def test_n6_excluded_by_integrality(self):
        d = tightness_dossier(6)
        assert d.status == "excluded"
        assert not d.integral
        assert d.verdicts[0].criterion == "cardinality-integrality"
        assert d.verdicts[0].status == "fail"

    def test_n11_excluded_by_lrs(self):
        d = tightness_dossier(11)
        assert d.status == "excluded"
        assert d.lrs_applicable and d.lrs_k is None
        assert any(v.criterion == "lrs-integrality" and v.status == "fail" for v in d.verdicts)

    def test_n4_n5_n7_excluded_by_delsarte_bound(self):
        for n, bound in [(4, "20/9 + 4/9√6"), (5, "3 + √3"), (7, "44/9 + 5/9√33")]:
            assert_delsarte_fail(tightness_dossier(n), bound)

    def test_n8_n10_excluded_by_delsarte_bound(self):
        for n, bound in [(8, "10"), (10, "77/9 + 8/9√42")]:
            assert_delsarte_fail(tightness_dossier(n), bound)

    def test_n8_ratio_is_three(self):
        assert tightness_dossier(8).two_distance_ratio_sq == 3

    def test_n7_ratio(self):
        assert tightness_dossier(7).two_distance_ratio_sq == QuadExt(Fraction(7, 4), Fraction(1, 4), 33)

    def test_non_integer_n_named(self):
        with pytest.raises(ValueError, match="must be integers, got n=5.0, t=4$"):
            tightness_dossier(5.0)
        assert tightness_dossier(np.int64(23)).as_dict() == tightness_dossier(23).as_dict()

    def test_limit_of_the_exact_path(self):
        # n + 4 = 4294967291 is prime; beyond 2^32 the trial division of
        # 3(n+4), repeated in every QuadExt operation, took seconds
        assert tightness_dossier(4294967287).status == "excluded"
        for n in (2 ** 32, 4294967353, 10000000000000057):
            with pytest.raises(ValueError, match=f"takes n < 2\\^32, got n={n}$"):
                tightness_dossier(n)

    def test_nonnegative_p3_is_a_broken_invariant(self, monkeypatch):
        # the comment in tightness_dossier proves P_3 < 0 on the reduced
        # inner products for every n; a reduction breaking that raises
        fake = tightness.MusinReduction(QuadExt(Fraction(9, 10)), QuadExt(Fraction(-1, 2)), False, False)
        monkeypatch.setattr(tightness, "musin_reduce", lambda alpha: fake)
        with pytest.raises(ArithmeticError, match="^P_3 is not negative on the reduced inner products at n = 5$"):
            tightness_dossier(5)

    def test_n2_exists(self):
        d = tightness_dossier(2)
        assert d.status == "exists"

    def test_p5_excluded_by_delsarte_bound(self):
        d = tightness_dossier(71)
        assert d.lrs_k == 3 and d.p == 5
        assert_delsarte_fail(d, "415")

    def test_integrality_agrees_with_bound_table(self):
        from hidesign.bounds import fisher_bound

        for n in range(2, 40):
            d = tightness_dossier(n)
            assert d.integral == fisher_bound(n, 4).integral
            excluded_by_integrality = d.verdicts[0].status == "fail"
            assert excluded_by_integrality == (not fisher_bound(n, 4).integral)

    def test_b_is_the_exact_bound_as_a_float(self):
        for n in range(2, 41):
            d = tightness_dossier(n)
            assert d.b_exact == Fraction((n + 1) * (n + 2), 6)
            assert json.loads(json.dumps(d.as_dict()))["b"] == float(d.b_exact)

    def test_every_n_up_to_400_decided(self):
        statuses = {n: tightness_dossier(n).status for n in range(2, 401)}
        assert statuses.pop(2) == "exists"
        assert set(statuses.values()) == {"excluded"}

    def test_non_integral_dossier_has_no_delsarte_bound(self):
        d = tightness_dossier(6)
        assert d.delsarte_bound is None and "delsarte_bound" not in d.as_dict()
        assert [v.criterion for v in d.verdicts] == ["cardinality-integrality"]


def assert_delsarte_fail(d, bound: str):
    """The dossier is excluded by a failing delsarte-reduced verdict whose
    bound is exactly ``bound`` and names it and b - 1 in its note."""
    assert d.status == "excluded"
    (v,) = [v for v in d.verdicts if v.criterion == "delsarte-reduced"]
    assert v.status == "fail"
    assert d.delsarte_bound == QuadExt.parse(bound) and str(d.delsarte_bound) == bound
    assert f"at most {bound} of them, against b - 1 = {d.b_exact - 1}" in v.note


def gegenbauer3(m: int, x: QuadExt) -> QuadExt:
    """C_3^(lam)(x) / C_3^(lam)(1) with lam = (m-2)/2: the degree-3 Gegenbauer
    polynomial on R^m, from the three-term recurrence
    k C_k = 2(k+lam-1) x C_(k-1) - (k+2lam-2) C_(k-2)."""
    lam = Fraction(m - 2, 2)

    def c3(x):
        c0, c1 = QuadExt(1), 2 * lam * x
        c2 = (2 * (1 + lam) * x * c1 - 2 * lam * c0) / 2
        return (2 * (2 + lam) * x * c2 - (1 + 2 * lam) * c1) / 3

    return c3(x) / c3(QuadExt(1))


class TestDelsarteCertificate:
    """The delsarte-reduced bound, replayed outside ``tightness``."""

    INTEGRAL_N = [n for n in range(4, 401) if n % 3]

    def test_json_bound_replays_with_exactnum_alone(self):
        for n in self.INTEGRAL_N:
            body = json.loads(json.dumps(tightness_dossier(n).as_dict()))
            bound = QuadExt.parse(body["delsarte_bound"])
            red = musin_reduce(QuadExt.parse(body["alpha"]))
            # inner products below -1 cannot occur on the reduced sphere
            values = [gegenbauer3(n - 1, v) for v in (red.plus, red.minus) if v >= -1]
            assert all(x < 0 for x in values)
            assert bound == 1 + max(-1 / x for x in values)
            assert bound < Fraction(body["b_exact"]) - 1

    def test_p_family_closed_form(self):
        import sympy as sp

        p = sp.symbols("p", positive=True)
        m = 3 * p**2 - 5  # n = 3p^2 - 4 has alpha = 1/p and reduces to R^(n-1)
        b = (m + 2) * (m + 3) / 6
        P3 = lambda x: ((m + 2) * x**3 - 3 * x) / (m - 1)
        plus, minus = 1 / (p + 1), -1 / (p - 1)

        def same(x, y):
            return sp.simplify(x - y) == 0

        assert same(P3(plus), -2 / ((p + 1)**2 * (p**2 - 2)))
        assert same(P3(minus), -2 / ((p - 1)**2 * (p**2 - 2)))
        y_plus, y_minus = -1 / P3(plus), -1 / P3(minus)
        # y_plus - y_minus = 2p(p^2-2) > 0 for p >= 2, so y = y_plus
        assert same(y_plus - y_minus, 2 * p * (p**2 - 2))
        assert same(1 + y_plus, 1 + (p + 1)**2 * (p**2 - 2) / 2)
        assert same((b - 1) - (1 + y_plus), p * (p - 1) * (p**2 - 2))
        for q in (2, 3, 5, 7, 9, 11):
            d = tightness_dossier(3 * q * q - 4)
            assert d.delsarte_bound == 1 + (q + 1)**2 * (q * q - 2) // 2

    def test_float_lp_up_to_degree_40_agrees(self):
        from scipy.optimize import linprog
        from scipy.special import eval_gegenbauer

        ks = np.arange(1, 41)
        for n in self.INTEGRAL_N:
            red = musin_reduce(tight_inner_product(n))
            V = [float(red.plus)] if red.only_plus else [float(red.plus), float(red.minus)]
            lam = (n - 3) / 2  # Gegenbauer parameter on R^(n-1)
            rows = [eval_gegenbauer(ks, lam, v) / eval_gegenbauer(ks, lam, 1.0) for v in V]
            # minimize f(1) = 1 + sum f_k subject to f(v) <= 0 on V and f_k >= 0
            res = linprog(np.ones(ks.size), A_ub=np.array(rows), b_ub=-np.ones(len(V)),
                          bounds=(0, None), method="highs")
            assert res.status == 0, (n, res.message)
            bound = float(tightness_dossier(n).delsarte_bound)
            assert abs(1 + res.fun - bound) <= 1e-9 * bound, n

