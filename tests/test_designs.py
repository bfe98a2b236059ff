"""Point sets, generators, kernel certificates, lifting, explicit bases."""

import functools
import hashlib
import inspect
import json
import math
import re
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import chebyshev
from scipy.special import eval_chebyt, eval_gegenbauer

from hidesign import designs
from hidesign.designs import (
    FIVE_POINT_Z_MINPOLY,
    FIVE_POINT_Z_OCTICS,
    FIVE_POINT_Z_SCALE,
    InvalidPointSetError,
    PointSet,
    eval_h4_basis_sum,
    generate,
    harmonic_index_spectrum,
    inner_product_set,
    lift_design,
    separated_component_sums,
    verify_harmonic_index,
    verify_spherical_design,
)
from hidesign.exactnum import sturm_count_roots
from hidesign.orthopoly import ROOT_RESIDUAL_TOL, KernelSpec, _chebyshev_weights, dim_harmonic, q_eval, q_roots


def sorted_products(ps: PointSet) -> np.ndarray:
    g = ps.gram()
    return np.sort(g[np.triu_indices(len(ps), k=1)])


class TestPointSet:
    def test_rejects_empty(self):
        with pytest.raises(InvalidPointSetError, match="nonempty"):
            PointSet(3, np.zeros((0, 3)))

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidPointSetError, match="norm"):
            PointSet(2, [[1.0, 0.0], [0.5, 0.5]])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidPointSetError, match="distinct"):
            PointSet(2, [[1.0, 0.0], [1.0, 0.0]])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InvalidPointSetError, match="dim"):
            PointSet(3, [[1.0, 0.0]])

    def test_points_read_only(self):
        ps = generate("cross_polytope_half", n=3)
        with pytest.raises(ValueError):
            ps.points[0, 0] = 2.0

    def test_json_round_trip_is_exact(self):
        ps = generate("x0_plus")
        again = PointSet.from_json(ps.to_json())
        assert np.array_equal(again.points, ps.points)
        assert again.dim == ps.dim
        # 17 significant digits in the file
        body = json.loads(ps.to_json())
        assert all(len(v.replace("-", "").replace(".", "").lstrip("0")) >= 16
                   for row in body["points"] for v in row if float(v) != 0)

    def test_from_json_reports_which_invariant_failed(self):
        bad_norm = json.dumps({"dim": 2, "points": [["0.5", "0.0"]]})
        with pytest.raises(InvalidPointSetError, match="norm"):
            PointSet.from_json(bad_norm)
        bad_dup = json.dumps({"dim": 2, "points": [["1", "0"], ["1", "0"]]})
        with pytest.raises(InvalidPointSetError, match="distinct"):
            PointSet.from_json(bad_dup)
        with pytest.raises(InvalidPointSetError, match="JSON"):
            PointSet.from_json("{not json")
        with pytest.raises(InvalidPointSetError, match="points"):
            PointSet.from_json(json.dumps({"dim": 2}))

    @pytest.mark.parametrize("text", ["0.5", " 0.5 ", "\t5e-1\n", "+.5", "5_0e-2", "０.５", "5.000000000000000111e-1"])
    def test_coordinates_parse_as_float_does(self, text):
        body = json.dumps({"dim": 2, "points": [[text, str(math.sqrt(0.75))]]})
        assert PointSet.from_json(body).points[0, 0] == float(text)

    @pytest.mark.parametrize("points", [[["1", "0"], ["0"]], [["0x1", "0"]], [["1__0", "0"]], [["1 0", "0"]],
                                        [["", "1"]], [[{}, "1"]]])
    def test_unparseable_coordinates(self, points):
        with pytest.raises(InvalidPointSetError, match="not parseable numbers"):
            PointSet.from_json(json.dumps({"dim": 2, "points": points}))

    @pytest.mark.parametrize("dim", [2.9, 2.0, "2", True, [2], None, {"n": 2}])
    def test_dim_must_be_a_json_integer(self, dim):
        # int() once read 2.9 and "2" as 2 and true as 1; [2] and null raised TypeError
        body = json.dumps({"dim": dim, "points": [["1", "0"], ["0", "1"]]})
        with pytest.raises(InvalidPointSetError, match=r'"dim" must be an integer, got ' + re.escape(repr(dim))):
            PointSet.from_json(body)

    @pytest.mark.parametrize("labels", [5, "ab", [1, [2]], ["a", 2], {"a": 1}, True])
    def test_labels_must_be_null_or_strings(self, labels):
        # tuple() once raised TypeError on 5, split "ab" into ("a", "b") and took [1, [2]]
        body = json.dumps({"dim": 2, "points": [["1", "0"], ["0", "1"]], "labels": labels})
        with pytest.raises(InvalidPointSetError, match=r'"labels" must be null or a list of strings, got '
                                                       + re.escape(repr(labels))):
            PointSet.from_json(body)

    @pytest.mark.parametrize("labels", [None, ["a", "b"]])
    def test_valid_labels_load(self, labels):
        body = json.dumps({"dim": 2, "points": [["1", "0"], ["0", "1"]], "labels": labels})
        assert PointSet.from_json(body).labels == (None if labels is None else tuple(labels))

    def test_long_bad_labels_are_named_in_short(self):
        body = json.dumps({"dim": 2, "points": [["1", "0"], ["0", "1"]], "labels": list(range(1000))})
        with pytest.raises(InvalidPointSetError) as info:
            PointSet.from_json(body)
        assert str(info.value) == '"labels" must be null or a list of strings, got ' + repr(list(range(1000)))[:80]

    @pytest.mark.parametrize("flip", [lambda X: X.union_with_antipodes(), lambda X: X.with_flipped([0, 2])],
                             ids=["antipodes", "flipped"])
    @pytest.mark.parametrize("kind, params", [("cross_polytope_half", {"n": 3}), ("icosahedron_half", {}),
                                              ("cell600_half", {})])
    def test_flips_write_no_negative_zero(self, flip, kind, params):
        # negating whole vectors made each zero coordinate -0.0, written "-0"
        X = flip(generate(kind, **params))
        assert not np.any((X.points == 0) & np.signbit(X.points))
        assert '"-0"' not in X.to_json()

    @pytest.mark.parametrize("source", [None, 5, ["a"], True, {"a": 1}, 2.5])
    def test_source_must_be_a_string(self, source):
        # str() once read null as 'None', 5 as '5', ["a"] as "['a']" and true as 'True'
        body = json.dumps({"dim": 2, "points": [["1", "0"], ["0", "1"]], "source": source})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointSetError, match=r'"source" must be a string, got '
                                                           + re.escape(repr(source)) + "$"):
                PointSet.from_json(body)

    def test_source_string_or_absent(self):
        body = {"dim": 2, "points": [["1", "0"], ["0", "1"]]}
        assert PointSet.from_json(json.dumps(body)).source == ""
        X = PointSet.from_json(json.dumps({**body, "source": "None"}))
        assert X.source == "None" and PointSet.from_json(X.to_json()).source == "None"
        long = [str(i) for i in range(100)]
        with pytest.raises(InvalidPointSetError) as info:
            PointSet.from_json(json.dumps({**body, "source": long}))
        assert str(info.value) == '"source" must be a string, got ' + repr(long)[:80]

    @pytest.mark.parametrize("row", [["1e308", "0"], ["1e308", "1e308"], ["-1.7e308", "1"]])
    def test_overflowing_norm_is_reported_without_a_warning(self, row):
        # np.linalg.norm once printed "overflow encountered in multiply" first
        text = json.dumps({"dim": 2, "points": [row, ["0", "1"]]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidPointSetError, match="^point 0 has norm inf, not 1 within 1e-12$"):
                PointSet.from_json(text)
            with pytest.raises(InvalidPointSetError, match="^point 1 has norm inf"):
                PointSet(2, [[0.0, 1.0], [float(v) for v in row]])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_coordinates(self, bad):
        # nan > tol is False, so a NaN would slip past the norm and distinctness checks
        text = json.dumps({"dim": 2, "points": [["1", "0"], ["0", bad], ["0", "1"]]})
        with pytest.raises(InvalidPointSetError, match="point 1 has norm (nan|inf)"):
            PointSet.from_json(text)


def unit_pair(angle: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [math.cos(angle), math.sin(angle)]])


def random_points(m: int, n: int, seed: int = 0) -> np.ndarray:
    pts = np.random.default_rng(seed).normal(size=(m, n))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


# enough points for several upper-triangle Gram blocks
MULTI_BLOCK_M = 2 * math.isqrt(designs._GRAM_BLOCK)


class TestDistinctness:
    def test_close_pair_above_tolerance_accepted(self):
        pts = unit_pair(2e-9)
        # the Gram entry rounds to 1.0, so 2 - 2<x,y> alone would call them equal
        assert pts[0] @ pts[1] == 1.0
        assert len(PointSet(2, pts)) == 2

    def test_close_pair_below_tolerance_rejected(self):
        with pytest.raises(InvalidPointSetError, match="distinct"):
            PointSet(2, unit_pair(5e-10))

    def test_duplicate_in_different_row_blocks(self):
        m = MULTI_BLOCK_M
        assert designs._GRAM_BLOCK // m < m - 1  # rows 0 and m-1 lie in different blocks
        pts = random_points(m, 3)
        pts[m - 1] = pts[0]
        with pytest.raises(InvalidPointSetError, match=f"distinct.*points 0 and {m - 1} "):
            PointSet(3, pts)

    @pytest.mark.parametrize("where", ["leading square", "last block"])
    def test_duplicate_inside_a_block(self, where):
        m = MULTI_BLOCK_M
        pts = random_points(m, 3)
        starts = [i for i, _ in designs._gram_blocks(pts)] + [m]
        assert len(starts) > 3
        # rows i and j of one block: the pair sits in its leading square, in both orders
        first, end = starts[1:3] if where == "leading square" else starts[-2:]
        i, j = first + 1, end - 1
        pts[i] = pts[j]
        with pytest.raises(InvalidPointSetError, match=f"distinct.*points {i} and {j} "):
            PointSet(3, pts)

    def test_large_random_set_accepted(self):
        assert len(PointSet(3, random_points(MULTI_BLOCK_M, 3))) == MULTI_BLOCK_M


def probe_orthogonal_points(m: int, n: int, seed: int = 1) -> np.ndarray:
    """Random unit vectors in the hyperplane orthogonal to PointSet's probe:
    every projection is within rounding of 0, so every point is screened."""
    u = designs._probe(n)
    pts = random_points(m, n, seed)
    pts -= np.outer(pts @ u, u)
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def screened_points(monkeypatch, n: int, pts: np.ndarray) -> int:
    """How many points PointSet(n, pts) hands to the Gram-block screen."""
    seen, walk = [], designs._gram_blocks
    monkeypatch.setattr(designs, "_gram_blocks", lambda p: seen.append(len(p)) or walk(p))
    PointSet(n, pts)
    return sum(seen)


class TestProjectionScreen:
    """PointSet screens on the Gram blocks only points whose projection on
    designs._probe(dim) is within DISTINCT_TOL of a sorted neighbour's."""

    def test_probe_is_a_fixed_unit_vector(self):
        u = designs._probe(8)
        assert u is designs._probe(8) and not u.flags.writeable
        assert abs(np.linalg.norm(u) - 1) <= 1e-15

    def test_probe_is_the_normalised_square_roots_of_the_first_primes(self):
        import sympy
        for dim in (1, 2, 3, 8, 3000):
            u = designs._probe(dim)
            primes = list(sympy.primerange(2, sympy.prime(dim) + 1))
            assert np.rint(2 * (u / u[0]) ** 2).tolist() == primes
            assert np.allclose(u, np.sqrt(primes) / math.sqrt(sum(primes)), rtol=1e-14, atol=0)

    def test_random_set_skips_the_gram_screen(self, monkeypatch):
        assert screened_points(monkeypatch, 8, random_points(20000, 8, seed=5)) <= 4

    def test_every_point_orthogonal_to_the_probe_is_screened(self, monkeypatch):
        m = MULTI_BLOCK_M
        pts = probe_orthogonal_points(m, 3)
        assert np.abs(pts @ designs._probe(3)).max() <= 1e-13
        assert screened_points(monkeypatch, 3, pts) == m

    @pytest.mark.parametrize("dist, distinct", [(0.99e-9, False), (1.01e-9, True)])
    def test_close_pair_along_the_probe(self, dist, distinct):
        # x orthogonal to u and y = cos(d) x + sin(d) u: |x-y| and the gap of
        # their projections are both about d, so the screen's bound is tight here
        pts, u = random_points(100, 3, seed=2), designs._probe(3)
        x = probe_orthogonal_points(1, 3)[0]
        pts[17], pts[60] = x, math.cos(dist) * x + math.sin(dist) * u
        assert np.linalg.norm(pts[17] - pts[60]) == pytest.approx(dist, rel=1e-6)
        if distinct:
            assert len(PointSet(3, pts)) == 100
        else:
            with pytest.raises(InvalidPointSetError, match="distinct.*points 17 and 60 "):
                PointSet(3, pts)

    def test_worst_case_duplicate_reports_its_pair(self):
        m = MULTI_BLOCK_M
        pts = probe_orthogonal_points(m, 3)
        assert len(PointSet(3, pts)) == m
        pts[m - 1] = pts[0]
        with pytest.raises(InvalidPointSetError, match=f"distinct.*points 0 and {m - 1} "):
            PointSet(3, pts)

    @pytest.mark.parametrize("orthogonal", [False, True])
    def test_several_duplicates_report_a_true_pair(self, orthogonal):
        m, pairs = MULTI_BLOCK_M, {(3, 200), (10, 50), (100, 101), (7, 255)}
        pts = probe_orthogonal_points(m, 4) if orthogonal else random_points(m, 4)
        for i, j in pairs:
            pts[j] = pts[i]
        with pytest.raises(InvalidPointSetError, match="distinct") as exc:
            PointSet(4, pts)
        i, j = map(int, re.search(r"points (\d+) and (\d+) ", str(exc.value)).groups())
        assert (i, j) in pairs

    def test_twenty_thousand_points_memory(self):
        # the coordinates alone are 1.28 MB
        pts = random_points(20000, 8, seed=5)
        tracemalloc.start()
        try:
            PointSet(8, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestGenerators:
    def test_counts(self):
        assert len(generate("icosahedron_half")) == 6
        assert len(generate("e8_half")) == 120
        assert len(generate("cell600_half")) == 60
        assert len(generate("cross_polytope_half", n=5)) == 5
        assert len(generate("simplex", n=4)) == 5
        assert len(generate("regular_polygon", m=7)) == 7

    # parameters for the generators that take some; the rest take none
    PARAMS = {"regular_polygon": {"m": 7}, "two_point_s1": {"e": 3, "j": 1},
              "cross_polytope_half": {"n": 5}, "simplex": {"n": 6}}

    def test_no_negative_zero(self):
        # halving by negating whole vectors wrote "-0" for 1 coordinate of the
        # icosahedron half and 16 of the 600-cell half
        for kind in designs.list_generators():
            pts = generate(kind, **self.PARAMS.get(kind, {})).points
            assert not np.any((pts == 0) & np.signbit(pts)), kind

    # SHA-256 of to_json() as the vector-by-vector loops wrote it, each "-0" read as "0"
    DIGESTS = {
        "icosahedron_half": "47f89b9c09fd41bd1d6a354ded92289bc6707981f09438bb5cee4666a0a49f47",
        "e8_half": "50d29bb0c7cd6546df3de63b471e2401c57cf462678d11eb414de4cbcb940f55",
        "cell600_half": "b3a92b045585eabf62d18a015ec5660368d8b2b2960f2230d0cf3c8fe60aa54c",
    }

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_root_system_halves_pinned_byte_for_byte(self, kind):
        # bytes, not an array comparison, which takes -0.0 == 0.0
        assert hashlib.sha256(generate(kind).to_json().encode()).hexdigest() == self.DIGESTS[kind]

    def test_hyphenated_names(self):
        assert len(generate("cell600-half")) == 60

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("dodecahedron")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            generate("regular_polygon", m=1)
        with pytest.raises(ValueError, match="odd"):
            generate("two_point_s1", e=3, j=2)

    def test_simplex_inner_products(self):
        for n in (2, 3, 7):
            ps = generate("simplex", n=n)
            ips = inner_product_set(ps)
            assert len(ips.values) == 1
            assert ips.values[0] == pytest.approx(-1 / n, abs=1e-12)

    def test_x0_plus_matches_printed_coordinates(self):
        s30, s5 = math.sqrt(30), math.sqrt(5)
        big = math.sqrt(700 - 70 * s30)
        expect = np.array([
            [math.sqrt(525 + 70 * s30) / 35, big / 35, 0.0],
            [math.sqrt(525 + 70 * s30) / 35, (s5 - 1) / 140 * big, math.sqrt(10 + 2 * s5) / 140 * big],
            [math.sqrt(525 + 70 * s30) / 35, -(s5 + 1) / 140 * big, math.sqrt(10 - 2 * s5) / 140 * big],
            [math.sqrt(525 + 70 * s30) / 35, -(s5 + 1) / 140 * big, -math.sqrt(10 - 2 * s5) / 140 * big],
            [math.sqrt(525 + 70 * s30) / 35, (s5 - 1) / 140 * big, -math.sqrt(10 + 2 * s5) / 140 * big],
        ])
        got = generate("x0_plus").points
        assert np.allclose(np.sort(got, axis=0), np.sort(expect, axis=0), atol=1e-14)

    def test_x0_first_coordinates(self):
        s30 = math.sqrt(30)
        assert np.allclose(generate("x0_plus").points[:, 0], math.sqrt(525 + 70 * s30) / 35)
        assert np.allclose(generate("x0_minus").points[:, 0], math.sqrt(525 - 70 * s30) / 35)

    def test_halves_have_no_antipodal_pairs(self):
        for kind in ("icosahedron_half", "e8_half", "cell600_half"):
            ps = generate(kind)
            assert sorted_products(ps).min() > -1 + 1e-9


class TestVerification:
    def test_cross_polytope_half_degree_two(self):
        for n in (2, 3, 5, 8):
            assert verify_harmonic_index(generate("cross_polytope_half", n=n), 2).passed

    def test_antipodal_pair_odd_degrees(self):
        pair = PointSet(3, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        for t in (1, 3, 5, 9):
            assert verify_harmonic_index(pair, t).passed
        assert not verify_harmonic_index(pair, 2).passed

    def test_icosahedron_half(self):
        ico = generate("icosahedron_half")
        assert verify_harmonic_index(ico, 8).passed
        assert verify_harmonic_index(ico, 14).passed
        cert6 = verify_harmonic_index(ico, 6)
        assert not cert6.passed
        assert cert6.residuals[0] > 1e-2

    def test_two_point_circle_designs(self):
        for e in (1, 2, 5):
            for j in (1, 3, 5):
                assert verify_harmonic_index(generate("two_point_s1", e=e, j=j), 2 * e).passed

    def test_odd_polygon_spherical_design(self):
        for e in (2, 3, 4):
            cert = verify_spherical_design(generate("regular_polygon", m=2 * e + 1), 2 * e)
            assert cert.passed
            assert cert.degrees == tuple(range(1, 2 * e + 1))

    def test_e8_full_is_spherical_7_design(self):
        full = generate("e8_half").union_with_antipodes()
        assert len(full) == 240
        assert verify_spherical_design(full, 7).passed
        assert not verify_harmonic_index(full, 8).passed

    def test_single_point_fails_degree_one(self):
        one = PointSet(3, [[1.0, 0.0, 0.0]])
        cert = verify_spherical_design(one, 1)
        assert not cert.passed

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            verify_harmonic_index(generate("x0_plus"), 0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_all_degree_sums_match_single_degree_and_scipy(self, n):
        t = 6
        X = PointSet(n, random_points(MULTI_BLOCK_M, n, seed=n))
        cert = verify_spherical_design(X, t)
        gram = np.clip(X.gram(), -1.0, 1.0)
        m = len(X)
        for k, raw in zip(range(1, t + 1), cert.raw_sums):
            assert verify_harmonic_index(X, k).raw_sums == (raw,)
            if n == 2:
                ref = float((2 * np.cos(k * np.arccos(gram))).sum())
            else:
                scale = dim_harmonic(n, k) / math.comb(k + n - 3, k)
                ref = float(eval_gegenbauer(k, (n - 2) / 2, gram).sum()) * scale
            assert abs(raw - ref) <= 1e-12 * m * m * dim_harmonic(n, k)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("m", [1, 2, 127, 128, 129, MULTI_BLOCK_M + 1])
    def test_block_boundaries_against_full_gram(self, m, n):
        # one block up to m = isqrt(_GRAM_BLOCK); several past it, the last
        # ones holding fewer rows than their leading square allows
        t = 6
        X = PointSet(n, random_points(m, n, seed=m + n))
        gram = np.clip(X.gram(), -1.0, 1.0)
        for k, raw in zip(range(1, t + 1), verify_spherical_design(X, t).raw_sums):
            if n == 2:
                ref = float((2 * np.cos(k * np.arccos(gram))).sum())
            else:
                scale = dim_harmonic(n, k) / math.comb(k + n - 3, k)
                ref = float(eval_gegenbauer(k, (n - 2) / 2, gram).sum()) * scale
            assert abs(raw - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("n", [2, 5])
    def test_caller_arrays_unchanged(self, n):
        pts = random_points(MULTI_BLOCK_M + 1, n, seed=n)
        before = pts.copy()
        X = PointSet(n, pts)
        verify_spherical_design(X, 7)
        inner_product_set(X)
        assert np.array_equal(pts, before)

    @pytest.mark.parametrize("base, t", [(generate("regular_polygon", m=5), 4),
                                         (generate("cell600_half"), 2)])
    def test_lift_leaves_radius_unchanged(self, base, t):
        root = q_roots(KernelSpec(base.dim + 1, t))[-1]
        for r in (np.array(root), np.array([root])[0]):
            before = np.copy(r)
            lifted = lift_design(base, t, r)
            assert np.array_equal(r, before)
            assert np.all(lifted.points[:, 0] == root)

    def test_memory_stays_bounded_in_blocks(self):
        # one m x m float64 array at m = 2000 is 32 MB
        pts = random_points(2000, 4)
        tracemalloc.start()
        try:
            X = PointSet(4, pts)
            construct_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            verify_spherical_design(X, 4)
            verify_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert construct_peak < 32e6
        assert verify_peak < 32e6

    def test_certificate_dict(self):
        d = verify_harmonic_index(generate("x0_plus"), 4).as_dict()
        assert d["passed"] is True
        assert d["verdicts"] == ["pass"]


class TestSpectrum:
    def test_icosahedron_spectrum(self):
        spec = harmonic_index_spectrum(generate("icosahedron_half"), 15)
        assert 8 in spec and 14 in spec
        assert 6 not in spec

    def test_antipodal_pair_spectrum(self):
        pair = PointSet(2, [[1.0, 0.0], [-1.0, 0.0]])
        assert harmonic_index_spectrum(pair, 5) == [1, 3, 5]

    def test_cross_polytope_spectrum(self):
        assert 2 in harmonic_index_spectrum(generate("cross_polytope_half", n=3), 3)

    @pytest.mark.parametrize("X", [
        generate("icosahedron_half"),
        generate("regular_polygon", m=7),
        generate("cell600_half"),
        PointSet(3, random_points(MULTI_BLOCK_M, 3), None, "random_points"),
    ], ids=lambda X: X.source)
    def test_spectrum_is_the_certificates_passing_degrees(self, X):
        cert = verify_spherical_design(X, 20, tol=1e-8)
        passing = [k for k, ok in zip(cert.degrees, cert.passes) if ok]
        assert harmonic_index_spectrum(X, 20, tol=1e-8) == passing


def scipy_kernel_sums(X: PointSet, degrees) -> list[float]:
    """sum over all ordered pairs of Q_{n,k}(<x,y>), from scipy on the full Gram matrix, row by row."""
    n, gram = X.dim, np.clip(X.gram(), -1.0, 1.0)
    out = []
    for k in degrees:
        if n == 2:
            rows = [2 * eval_chebyt(k, row).sum() for row in gram]
        else:
            scale = dim_harmonic(n, k) / math.comb(k + n - 3, k)
            rows = [scale * eval_gegenbauer(k, (n - 2) / 2, row).sum() for row in gram]
        out.append(math.fsum(rows))
    return out


class TestChebyshevMoments:
    """Kernel sums from Chebyshev moments against independent evaluations."""

    # (points, dimension, largest degree): one block up to m = 128, several past it
    CASES = [(1, 3, 9), (7, 2, 30), (40, 2, 17), (90, 3, 30), (128, 5, 21), (129, 4, 13),
             (150, 2, 25), (200, 7, 11), (260, 10, 8), (300, 6, 15), (300, 9, 5)]

    @pytest.mark.parametrize("m, n, t", CASES)
    def test_certificate_against_scipy(self, m, n, t):
        X = PointSet(n, random_points(m, n, seed=1000 * n + m))
        ref = scipy_kernel_sums(X, range(1, t + 1))
        spherical = verify_spherical_design(X, t).raw_sums
        for k in range(1, t + 1):
            index = verify_harmonic_index(X, k).raw_sums[0]
            bound = 1e-12 * m * m * dim_harmonic(n, k)
            assert abs(spherical[k - 1] - ref[k - 1]) <= bound, k
            assert abs(index - ref[k - 1]) <= bound, k

    @pytest.mark.parametrize("n", range(2, 41))
    def test_weights_reproduce_q_eval(self, n):
        x = np.concatenate([np.linspace(-1, 1, 101), np.cos(np.linspace(0, math.pi, 67))])
        for t in range(61):
            c = _chebyshev_weights(n, t)
            assert len(c) == t // 2 + 1 and np.all(c >= 0) and abs(c.sum() - 1) <= 1e-15
            coef = np.zeros(t + 1)
            coef[t::-2] = c  # c[i] weighs T_{t-2i}
            dim = dim_harmonic(n, t)
            assert np.abs(dim * chebyshev.chebval(x, coef) - q_eval(KernelSpec(n, t), x)).max() <= 1e-13 * dim

    def test_circle_weights_are_the_leading_unit_vector(self):
        for t in range(40):
            assert _chebyshev_weights(2, t).tolist() == [1.0] + [0.0] * (t // 2)

    # set, last degree, and harmonic_index_spectrum up to it as the Gegenbauer recurrence gave it
    SPECTRA = {
        "icosahedron_half": (lambda: generate("icosahedron_half"), 30, [2, 4, 8, 14]),
        "e8_half": (lambda: generate("e8_half"), 30, [2, 4, 6, 10]),
        "cell600_half": (lambda: generate("cell600_half"), 60,
                         [2, 4, 6, 8, 10, 14, 16, 18, 22, 26, 28, 34, 38, 46, 58]),
        "x0_plus": (lambda: generate("x0_plus"), 30, [4]),
        "x0_minus": (lambda: generate("x0_minus"), 30, [4]),
        "simplex(3)": (lambda: generate("simplex", n=3), 30, [1, 2, 5]),
        "cross_polytope_half(4)": (lambda: generate("cross_polytope_half", n=4), 30, [2]),
        "regular_polygon(7)": (lambda: generate("regular_polygon", m=7), 30, [k for k in range(1, 31) if k % 7]),
        "e8_half+antipodes": (lambda: generate("e8_half").union_with_antipodes(), 30,
                              [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29]),
        "cell600_half+antipodes": (lambda: generate("cell600_half").union_with_antipodes(), 30,
                                   [k for k in range(1, 31) if k % 2 or k in (2, 4, 6, 8, 10, 14, 16, 18, 22, 26, 28)]),
    }

    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_library_spectra_pinned(self, name):
        build, t, spectrum = self.SPECTRA[name]
        X = build()
        assert harmonic_index_spectrum(X, t) == spectrum
        cert = verify_spherical_design(X, t)
        assert [k for k, ok in zip(cert.degrees, cert.passes) if ok] == spectrum
        assert all(verify_harmonic_index(X, k).passed == (k in spectrum) for k in range(1, t + 1))
        # passing degrees are exact designs: rounding alone is left
        assert max(r for r, ok in zip(cert.residuals, cert.passes) if ok) <= 1e-13

    @pytest.mark.parametrize("m, t", [(5, 4), (7, 6)])
    def test_lifted_spectra_pinned(self, m, t):
        base = generate("regular_polygon", m=m)
        for r in q_roots(KernelSpec(3, t)):
            assert harmonic_index_spectrum(lift_design(base, t, float(r)), 30) == [t]

    def test_beyond_float64_is_an_error_naming_n_and_t(self):
        # the parent recurrence overflowed with RuntimeWarnings, then raised OverflowError
        X = generate("cross_polytope_half", n=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n=1000, t=400 exceed float64"):
                verify_harmonic_index(X, 400)
            with pytest.raises(ValueError, match="n=1000, t=400 exceed float64"):
                verify_spherical_design(X, 400)

    def test_just_below_the_limit(self):
        # 200^2 * dim(200, 2426) < 1.8e308 <= 200^2 * dim(200, 2427): the last
        # degree certified, with weights down to 1e-124 and no overflow
        X = generate("cross_polytope_half", n=200)
        assert 200 ** 2 * dim_harmonic(200, 2426) <= sys.float_info.max < 200 ** 2 * dim_harmonic(200, 2427)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = verify_harmonic_index(X, 2426)
            c = _chebyshev_weights(200, 2426)
        assert np.all(c >= 0) and abs(c.sum() - 1) <= 1e-15 and 0 < c.min() < 1e-100
        # sum = m Q(1) + m(m-1) Q(0), and Q_{200,2426}(0) / Q(1) is below 1e-300
        assert cert.raw_sums[0] == pytest.approx(200 * float(dim_harmonic(200, 2426)), rel=1e-12)
        with pytest.raises(ValueError, match="n=200, t=2427"):
            verify_harmonic_index(X, 2427)


def loop_certificate(X: PointSet, degrees, tol: float = designs.DEFAULT_VERIFY_TOL) -> designs.KernelCertificate:
    """_certificate as it was with its own Chebyshev loop for the moments j >= 3:
    per Gram block, T_j = 2x T_{j-1} - T_{j-2} in place on three buffers, T_1 the
    block itself, and each needed T_j summed; mu_0..mu_2 from designs._low_moments."""
    degrees = tuple(degrees)
    n, top = X.dim, degrees[-1]
    weights = {k: _chebyshev_weights(n, k) for k in degrees}
    need = {k - 2 * i for k, c in weights.items() for i in np.flatnonzero(c).tolist()} - {0, 1, 2}
    mu = np.zeros(max(top, 2) + 1)
    mu[:3] = designs._low_moments(X.points)
    for _, x in designs._gram_blocks(X.points):
        s, two_x, prev, cur, spare = len(x), 2 * x, np.ones_like(x), x, np.empty_like(x)
        for j in range(1, top + 1):
            if j > 1:
                np.multiply(two_x, cur, out=spare)
                spare -= prev
                prev, cur, spare = cur, spare, prev
            if j in need:
                mu[j] += 2 * float(cur.sum()) - float(cur[:, :s].sum())
    sums = [float(c @ mu[k::-2]) for k, c in weights.items()]
    raws = tuple(dim_harmonic(n, k) * v for k, v in zip(degrees, sums))
    residuals = tuple(abs(v) / len(X) for v in sums)
    return designs.KernelCertificate(n, degrees, raws, residuals, tol)


def exact_moments(pts: np.ndarray, top: int) -> list[Fraction]:
    """mu_0..mu_top, mu_j = sum over ordered pairs of T_j(<x,y>), as exact rational
    sums over the float coordinates.  Each coordinate is an integer times 2^e, so
    <x,y> = g / D for an integer g and D = 4^-e, and U_j = D^j T_j(g / D) are the
    integers U_0 = 1, U_1 = g, U_j = 2g U_{j-1} - D^2 U_{j-2}, run on object arrays."""
    e = min(math.frexp(v)[1] for v in pts.ravel().tolist() if v) - 53
    ints = np.array([[int(Fraction(v) * 2 ** -e) for v in row] for row in pts.tolist()], dtype=object)
    gram, totals = ints @ ints.T, [0] * (top + 1)
    for g, weight in ((gram[np.triu_indices(len(pts), 1)], 2), (gram.diagonal().copy(), 1)):
        prev, cur, two_g = np.ones(len(g), dtype=object), g, 2 * g
        totals[0] += weight * len(g)
        for j in range(1, top + 1):
            totals[j] += weight * cur.sum()
            prev, cur = cur, two_g * cur - (prev << (-4 * e))
    return [Fraction(u, 1 << (-2 * e * j)) for j, u in enumerate(totals)]


def exact_kernel_sum(n: int, k: int, mu: list[Fraction]) -> Fraction:
    """dim * sum_i c_i mu_{k-2i} exactly, for the float weights c of _chebyshev_weights."""
    weights = _chebyshev_weights(n, k).tolist()
    return dim_harmonic(n, k) * sum(Fraction(c) * mu[k - 2 * i] for i, c in enumerate(weights))


# the kernel-sum error allowed against the exact sums, as a multiple of |X| Q(1): the
# bound on the relative residual's error, 1000 times below the default tolerance
KERNEL_SUM_BOUND = 1e-12
# exact moments up to this degree; the 300-gon's take a second there, growing as degree^2
ORACLE_TOP = 16

LOOP_SETS = {
    **{f"random m={m} n={n}": (lambda m=m, n=n: PointSet(n, random_points(m, n, seed=1000 * n + m)), t)
       for m, n, t in TestChebyshevMoments.CASES},
    **{f"random m={MULTI_BLOCK_M + 3} n={n}": (
        lambda n=n: PointSet(n, random_points(MULTI_BLOCK_M + 3, n, seed=n)), t) for n, t in [(2, 12), (3, 9), (8, 7)]},
    **{name: (lambda name=name: generate(name), 60) for name in ("icosahedron_half", "e8_half", "cell600_half")},
    **{f"{name}+antipodes": (lambda name=name: generate(name).union_with_antipodes(), 30)
       for name in ("icosahedron_half", "e8_half", "cell600_half")},
    "regular_polygon(300)": (lambda: generate("regular_polygon", m=300), 299),
}


@functools.lru_cache(maxsize=None)
def loop_set(name: str) -> tuple[PointSet, int, list[Fraction]]:
    """A LOOP_SETS set, its last degree and its exact moments up to ORACLE_TOP."""
    build, t = LOOP_SETS[name]
    X = build()
    return X, t, exact_moments(X.points, min(t, ORACLE_TOP))


class TestCertificateAgainstLoop:
    """The certificate's product moments against the former loop, which summed each
    T_j on the Gram walk: at degrees up to ORACLE_TOP both kernel sums lie within
    KERNEL_SUM_BOUND |X| Q(1) of the exact sums, above it within twice that of each
    other, and both give the same verdicts.  Across these sets the worst error seen is
    4.2e-13 |X| Q(1) with the product moments (the 300-gon at degree 12, a sum of
    squares near |X|^2 / 2 less |X|^2) and 8.9e-14 with the former loop."""

    @staticmethod
    def assert_within_bound(X, exact, cert, want):
        assert cert.degrees == want.degrees and cert.passes == want.passes
        for k, got, old in zip(cert.degrees, cert.raw_sums, want.raw_sums):
            bound = KERNEL_SUM_BOUND * len(X) * dim_harmonic(X.dim, k)
            if k < len(exact):
                ref = exact_kernel_sum(X.dim, k, exact)
                assert abs(Fraction(got) - ref) <= bound and abs(Fraction(old) - ref) <= bound, k
            else:
                assert abs(got - old) <= 2 * bound, k

    @pytest.mark.parametrize("name", list(LOOP_SETS))
    def test_spherical_mode(self, name):
        X, t, exact = loop_set(name)
        self.assert_within_bound(X, exact, verify_spherical_design(X, t), loop_certificate(X, range(1, t + 1)))

    @pytest.mark.parametrize("name", list(LOOP_SETS))
    def test_single_degree_mode(self, name):
        X, t, exact = loop_set(name)
        for k in sorted({1, 2, 3, t // 2, t - 1, t} - {0}):
            self.assert_within_bound(X, exact, verify_harmonic_index(X, k), loop_certificate(X, [k]))

    @pytest.mark.parametrize("name", list(LOOP_SETS))
    def test_modes_agree_bit_for_bit(self, name):
        build, t = LOOP_SETS[name]
        X = build()
        spherical = verify_spherical_design(X, t).raw_sums
        for k in sorted({1, 2, 3, t // 2, t - 1, t} - {0}):
            assert verify_harmonic_index(X, k).raw_sums == (spherical[k - 1],), k


PRODUCT_MOMENT_SETS = {
    **{f"random m={MULTI_BLOCK_M + 3} n={n}": (
        lambda n=n: PointSet(n, random_points(MULTI_BLOCK_M + 3, n, seed=n)), 16) for n in (3, 4, 8)},
    **{name: (lambda name=name: generate(name), 60) for name in ("icosahedron_half", "e8_half", "cell600_half")},
}


class TestProductMoments:
    """mu_j for j >= 3 from T_2k = 2 T_k^2 - 1 and T_2k-1 = 2 T_k T_k-1 - x: one
    vdot per moment and Gram block, the recurrence run to ceil(j / 2)."""

    @pytest.mark.parametrize("name", list(PRODUCT_MOMENT_SETS))
    def test_against_exact_sums(self, name):
        # the worst error seen is 3.0e-13 |X| (the icosahedron half at mu_60, the
        # same with the former loop); up to mu_16, 6.6e-14 |X| (random n=4, mu_4)
        build, top = PRODUCT_MOMENT_SETS[name]
        X = build()
        mu = designs._moments(X.points, set(range(3, top + 1)), top + 1)
        exact = exact_moments(X.points, top)
        for j in range(3, top + 1):
            assert abs(Fraction(mu[j]) - exact[j]) <= KERNEL_SUM_BOUND * len(X), j

    def test_only_the_needed_moments(self):
        X = PointSet(4, random_points(MULTI_BLOCK_M + 3, 4, seed=4))
        mu = designs._moments(X.points, {5, 8}, 10)
        exact = exact_moments(X.points, 9)
        assert [j for j in range(3, 10) if mu[j]] == [5, 8]
        for j in (0, 1, 2, 5, 8):
            assert abs(Fraction(mu[j]) - exact[j]) <= KERNEL_SUM_BOUND * len(X), j

    @pytest.mark.parametrize("verify, t, top", [(verify_harmonic_index, 12, 6), (verify_harmonic_index, 11, 6),
                                                (verify_spherical_design, 9, 5), (verify_spherical_design, 3, 2)])
    def test_recurrence_runs_to_half_the_degree(self, monkeypatch, verify, t, top):
        seen, rec = [], designs._recurrence
        monkeypatch.setattr(designs, "_recurrence", lambda n, k, x, buf: seen.append((n, k)) or rec(n, k, x, buf))
        verify(PointSet(3, random_points(MULTI_BLOCK_M + 3, 3, seed=1)), t)
        assert len(seen) > 1 and set(seen) == {(2, top)}


class TestWalkBuffers:
    """The certificate's Gram walk allocates its arrays once: every block is a view
    of one array, every T_k of another, and the peak does not grow with the blocks."""

    def test_one_array_for_the_blocks_and_one_for_the_recurrence(self, monkeypatch):
        blocks, yields, walk, rec = [], [], designs._gram_blocks, designs._recurrence

        def gram_blocks(pts):
            for i, block in walk(pts):
                blocks.append(block)
                yield i, block

        def recurrence(n, t, x, buf):
            for p in rec(n, t, x, buf):
                yields.append(p)
                yield p
        monkeypatch.setattr(designs, "_gram_blocks", gram_blocks)
        monkeypatch.setattr(designs, "_recurrence", recurrence)
        verify_spherical_design(PointSet(4, random_points(4 * MULTI_BLOCK_M, 4, seed=3)), 8)
        assert len(blocks) > 20 and len(yields) == 5 * len(blocks)
        assert all(b.base is blocks[0].base is not None for b in blocks)
        assert all(p.base is yields[0].base is not None for p in yields)
        assert not np.shares_memory(blocks[0].base, yields[0].base)

    def test_peak_does_not_grow_with_the_blocks(self):
        # 3 blocks against 135: both peaks are the block array and the recurrence's
        # four of _GRAM_BLOCK entries (655 kB), and vdot's copies of two leading
        # squares, each under _GRAM_BLOCK entries (772 kB in all at m = 259)
        peaks = []
        for m in (MULTI_BLOCK_M + 3, 8 * MULTI_BLOCK_M):
            X = PointSet(5, random_points(m, 5, seed=m))
            tracemalloc.start()
            try:
                verify_spherical_design(X, 8)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16e3
        assert max(peaks) <= 7 * 8 * designs._GRAM_BLOCK


LOW_MOMENT_SETS = {
    **{f"random m={m} n={n}": (lambda m=m, n=n: PointSet(n, random_points(m, n, seed=m + n)))
       for m, n in [(200, 3), (500, 5), (120, 8)]},
    **{name: (lambda name=name: generate(name)) for name in ("icosahedron_half", "e8_half", "cell600_half")},
    **{f"{name}+antipodes": (lambda name=name: generate(name).union_with_antipodes())
       for name in ("icosahedron_half", "e8_half", "cell600_half")},
}


class TestLowMoments:
    """mu_0..mu_2 in closed form: no Gram work at degrees 1 and 2."""

    @pytest.mark.parametrize("name", list(LOW_MOMENT_SETS))
    def test_against_exact_sums(self, name):
        # the worst error seen over these sets is 9.6e-14 |X| (random m=200 n=3)
        X = LOW_MOMENT_SETS[name]()
        m = len(X)
        mu0, mu1, mu2 = designs._low_moments(X.points)
        assert mu0 == m * m
        for got, want in zip((mu1, mu2), exact_moments(X.points, 2)[1:]):
            assert abs(Fraction(got) - want) <= 2.5e-13 * m

    @pytest.mark.parametrize("verify, t, degrees", [(verify_spherical_design, 2, [1, 2]),
                                                    (verify_harmonic_index, 1, [1]),
                                                    (verify_harmonic_index, 2, [2])])
    def test_degrees_up_to_two_form_no_gram_block(self, monkeypatch, verify, t, degrees):
        X = PointSet(5, random_points(2000, 5, seed=3))
        want = loop_certificate(X, degrees)

        def no_walk(pts):
            raise AssertionError("a Gram block was formed")
        monkeypatch.setattr(designs, "_gram_blocks", no_walk)
        assert verify(X, t) == want

    def test_frame_potential_from_the_smaller_gram(self):
        # m < n: |X X^T|_F^2 on the 3 x 3 Gram; the n x n one would be 72 MB
        X = PointSet(3000, np.eye(3000)[:3])
        tracemalloc.start()
        try:
            assert designs._low_moments(X.points) == (9.0, 3.0, -3.0)
            cert = verify_harmonic_index(X, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # sum Q_2 = dim * (c_0 mu_2 + c_1 mu_0) = m Q(1) + m(m-1) Q(0), Q(0) = -dim/(n-1)
        dim = dim_harmonic(3000, 2)
        assert cert.raw_sums[0] == pytest.approx(3 * dim - 6 * dim / 2999, rel=1e-12)


class TestLift:
    def test_pentagon_lift_congruent_to_x0(self):
        pent = generate("regular_polygon", m=5)
        roots = np.sort(q_roots(KernelSpec(3, 4)))[::-1]
        lifted_plus = lift_design(pent, 4, float(roots[0]))
        lifted_minus = lift_design(pent, 4, float(roots[1]))
        np.testing.assert_allclose(
            sorted_products(lifted_plus), sorted_products(generate("x0_plus")), atol=1e-12
        )
        np.testing.assert_allclose(
            sorted_products(lifted_minus), sorted_products(generate("x0_minus")), atol=1e-12
        )

    def test_default_root_tolerance_is_the_module_constant(self):
        default = inspect.signature(lift_design).parameters["root_tol"].default
        assert default == ROOT_RESIDUAL_TOL == 1e-9

    def test_lift_verifies(self):
        pent = generate("regular_polygon", m=5)
        for r in q_roots(KernelSpec(3, 4)):
            assert verify_harmonic_index(lift_design(pent, 4, float(r)), 4).passed

    def test_non_root_rejected(self):
        pent = generate("regular_polygon", m=5)
        with pytest.raises(ValueError, match="not a root"):
            lift_design(pent, 4, 0.5)
        with pytest.raises(ValueError, match="radius"):
            lift_design(pent, 4, 1.5)

    @pytest.mark.parametrize("r", [math.nan, -math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, r):
        # NaN passed abs(r) > 1 and the root check, and failed later on a NaN norm
        with pytest.raises(ValueError, match=re.escape(f"radius must lie in [-1, 1], got {r}") + "$"):
            lift_design(generate("regular_polygon", m=5), 4, r)

    def test_lift_size_and_dim(self):
        hept = generate("regular_polygon", m=9)
        r = float(q_roots(KernelSpec(3, 6)).max())
        lifted = lift_design(hept, 6, r)
        assert lifted.dim == 3 and len(lifted) == 9
        assert np.allclose(lifted.points[:, 0], r)


class TestInnerProducts:
    def test_cross_polytope(self):
        ips = inner_product_set(generate("cross_polytope_half", n=4))
        assert ips.values.tolist() == [0.0]
        assert ips.multiplicities.tolist() == [6]

    def test_read_only_arrays_and_equality(self):
        ips = inner_product_set(generate("icosahedron_half"))
        assert (ips.values.dtype, ips.multiplicities.dtype) == (np.float64, np.int64)
        for arr in (ips.values, ips.multiplicities):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert ips == inner_product_set(generate("icosahedron_half"))
        assert ips != inner_product_set(generate("icosahedron_half"), merge_tol=1e-6)
        assert ips != inner_product_set(generate("simplex", n=3))
        assert ips != (ips.values, ips.multiplicities, ips.symmetric, ips.merge_tol)

    def test_eight_values_across_derived_configurations(self):
        # inner products collected over the two pentagon lifts and variants
        # with one point flipped to its antipode: 4 values each for the small
        # and big pentagon families, 8 in all
        seen = []
        for kind in ("x0_plus", "x0_minus"):
            base = generate(kind)
            for cfg in (base, base.with_flipped([0])):
                seen.extend(sorted_products(cfg))
        seen = np.sort(np.array(seen))
        distinct = [seen[0]]
        for v in seen[1:]:
            if v - distinct[-1] > 1e-8:
                distinct.append(v)
        assert len(distinct) == 8
        # and the 8 values come in +- pairs
        assert np.allclose(np.array(distinct) + np.array(distinct)[::-1], 0, atol=1e-12)

    def test_symmetric_flag(self):
        pair = PointSet(2, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert inner_product_set(pair).symmetric
        assert not inner_product_set(generate("simplex", n=3)).symmetric


def loop_inner_product_set(X: PointSet, merge_tol: float = 1e-8):
    """Reference clustering: a plain loop over the sorted products."""
    vals = sorted_products(X)
    clusters: list[list[float]] = []
    for v in vals:
        if clusters and v - clusters[-1][-1] <= merge_tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    centers = tuple(float(np.mean(c)) for c in clusters)
    mults = tuple(len(c) for c in clusters)
    symmetric = all(
        abs(c + 1) <= merge_tol or any(abs(c + other) <= merge_tol for other in centers)
        for c in centers
    )
    return centers, mults, symmetric


class TestInnerProductsAgainstLoop:
    def check(self, ps: PointSet, merge_tol: float = 1e-8):
        centers, mults, symmetric = loop_inner_product_set(ps, merge_tol)
        ips = inner_product_set(ps, merge_tol)
        assert ips.multiplicities.tolist() == list(mults)
        assert ips.symmetric == symmetric
        np.testing.assert_allclose(ips.values, centers, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind, params", [
        ("regular_polygon", {"m": 7}), ("regular_polygon", {"m": 11}),
        ("two_point_s1", {"e": 3, "j": 1}), ("cross_polytope_half", {"n": 5}),
        ("simplex", {"n": 6}), ("icosahedron_half", {}), ("e8_half", {}),
        ("cell600_half", {}), ("x0_plus", {}), ("x0_minus", {}),
    ])
    def test_library_designs(self, kind, params):
        ps = generate(kind, **params)
        self.check(ps)
        self.check(ps.union_with_antipodes())
        self.check(ps.with_flipped([0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_random_sets(self, seed):
        pts = random_points(20 + 10 * seed, 2 + seed, seed)
        self.check(PointSet(pts.shape[1], pts))
        self.check(PointSet(pts.shape[1], np.vstack([pts, -pts])))
        # a loose tolerance chains many values into each cluster
        self.check(PointSet(pts.shape[1], pts), merge_tol=1e-3)

    def test_single_point(self):
        ips = inner_product_set(PointSet(2, [[1.0, 0.0]]))
        assert (ips.values.tolist(), ips.multiplicities.tolist(), ips.symmetric) == ([], [], True)

    def test_two_thousand_points_memory(self):
        # forming the m x m Gram and its two triu index arrays peaked at 206 MB;
        # the output (about 2e6 distinct centers) kept 79 MB as Python tuples
        # and keeps 32 MB as arrays; the peak, 95 MB, is the clustering's and
        # the symmetry test's temporaries
        X = PointSet(4, random_points(2000, 4, seed=7))
        tracemalloc.start()
        try:
            ips = inner_product_set(X)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(ips.multiplicities) == 2000 * 1999 // 2
        assert kept <= 35e6
        assert peak <= 100e6

    def test_two_thousand_points_under_two_seconds(self):
        pts = random_points(2000, 4, seed=7)
        start = time.perf_counter()
        ips = inner_product_set(PointSet(4, pts))
        assert time.perf_counter() - start < 2.0
        assert sum(ips.multiplicities) == 2000 * 1999 // 2


class TestSeparatedComponents:
    def test_pentagon_at_root_all_vanish(self):
        pent = generate("regular_polygon", m=5)
        r1 = float(q_roots(KernelSpec(3, 4)).max())
        comps = separated_component_sums(pent, r1, 4)
        assert len(comps) == 5
        assert max(comps) < 1e-9 * 5 * 9  # relative to |X| Q_{3,4}(1)

    def test_pentagon_at_non_root_only_radial_survives(self):
        from hidesign.orthopoly import q_eval

        pent = generate("regular_polygon", m=5)
        comps = separated_component_sums(pent, 0.5, 4)
        assert comps[0] == pytest.approx(5 * abs(q_eval(KernelSpec(3, 4), 0.5)), rel=1e-12)
        assert max(comps[1:]) < 1e-12

    def test_square_is_not_a_4_design(self):
        square = generate("regular_polygon", m=4)
        r1 = float(q_roots(KernelSpec(3, 4)).max())
        comps = separated_component_sums(square, r1, 4)
        assert comps[0] < 1e-12  # radial part vanishes at a root
        assert max(comps[1:]) > 1e-3  # sum of cos(4 theta) over the square is 4

    def test_requires_circle_base(self):
        with pytest.raises(ValueError, match="S\\^1"):
            separated_component_sums(generate("x0_plus"), 0.5, 4)

    @pytest.mark.parametrize("r", [math.nan, math.inf, 1.5])
    def test_radius_outside_unit_interval_rejected(self, r):
        # NaN once gave a list of NaNs
        with pytest.raises(ValueError, match=re.escape("radius must lie in [-1, 1]") + "$"):
            separated_component_sums(generate("regular_polygon", m=5), r, 4)


class TestH4Basis:
    def test_x0_sums_vanish(self):
        for kind in ("x0_plus", "x0_minus"):
            sums = eval_h4_basis_sum(generate(kind))
            assert np.abs(sums).max() < 1e-9

    def test_north_pole(self):
        north = PointSet(3, [[0.0, 0.0, 1.0]])
        sums = eval_h4_basis_sum(north)
        assert sums[-1] == pytest.approx(8.0)
        assert np.abs(sums[:-1]).max() == 0.0

    def test_equivalence_with_kernel_criterion(self):
        rng = np.random.default_rng(3)
        cases = [generate("x0_plus"), generate("x0_minus"),
                 generate("x0_plus").with_flipped([1, 3])]
        for _ in range(20):
            pts = rng.normal(size=(6, 3))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            cases.append(PointSet(3, pts))
        for ps in cases:
            kernel_zero = verify_harmonic_index(ps, 4, tol=1e-9).passed
            basis_zero = np.abs(eval_h4_basis_sum(ps)).max() <= 1e-9 * len(ps)
            assert kernel_zero == basis_zero

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            eval_h4_basis_sum(generate("regular_polygon", m=5))


class TestFivePointZData:
    def test_factorization_identity(self):
        a, b = FIVE_POINT_Z_OCTICS
        assert a * b == FIVE_POINT_Z_SCALE * FIVE_POINT_Z_MINPOLY

    def test_octics_split_over_the_reals(self):
        for p in FIVE_POINT_Z_OCTICS:
            assert sturm_count_roots(p) == 8

    def test_z_coordinates_in_normalized_frame_are_roots(self):
        # in the frame where the first point is (1,0,0) and the second lies
        # in the xy-plane, the z-coordinate of each remaining point of a
        # 5-point degree-4 design satisfies the degree-16 polynomial
        for kind in ("x0_plus", "x0_minus"):
            pts = generate(kind).points
            u1 = pts[0]
            u2 = pts[1] - (pts[1] @ u1) * u1
            u2 /= np.linalg.norm(u2)
            u3 = np.cross(u1, u2)
            for p in pts[2:]:
                z = float(p @ u3)
                assert abs(FIVE_POINT_Z_MINPOLY(z)) < 1e-10
