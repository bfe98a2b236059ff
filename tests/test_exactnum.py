"""Exact-arithmetic substrate: quadratic surds, polynomials, Sturm, rank."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hidesign.bounds import tight_inner_product
from hidesign.exactnum import (
    IncompatibleRadicandError,
    QuadExt,
    RationalPoly,
    fraction_free_rank,
    poly_gcd,
    squarefree_decompose,
    squarefree_part,
    sturm_count_roots,
)

OCTIC_A = RationalPoly([9, 0, -126, 0, 627, 0, -1302, 0, 931])
OCTIC_B = RationalPoly([9, 0, -144, 0, 732, 0, -1428, 0, 931])


class TestQuadExt:
    def test_conjugate_product(self):
        assert QuadExt(1, 1, 33) * QuadExt(1, -1, 33) == -32

    def test_subtraction(self):
        # (7+sqrt(33))/4 - 1 = (3+sqrt(33))/4
        v = QuadExt(Fraction(7, 4), Fraction(1, 4), 33) - 1
        assert v == QuadExt(Fraction(3, 4), Fraction(1, 4), 33)

    def test_sign_of_mixed_term(self):
        # (2*sqrt(6)-3)/5 > 0 because (2*sqrt(6))^2 = 24 > 9 = 3^2
        v = QuadExt(Fraction(-3, 5), Fraction(2, 5), 6)
        assert v.sign() == 1
        assert (-v).sign() == -1

    def test_division(self):
        alpha = QuadExt.sqrt(Fraction(3, 8))
        assert alpha == QuadExt(0, Fraction(1, 4), 6)
        assert alpha / (1 + alpha) == QuadExt(Fraction(-3, 5), Fraction(2, 5), 6)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1, 5) / QuadExt(0)

    def test_incompatible_radicands(self):
        with pytest.raises(IncompatibleRadicandError):
            QuadExt(0, 1, 2) + QuadExt(0, 1, 3)

    def test_rational_values_mix_with_any_radicand(self):
        assert QuadExt(2) + QuadExt(0, 1, 7) == QuadExt(2, 1, 7)
        assert QuadExt(0, 1, 7) * QuadExt(3) == QuadExt(0, 3, 7)

    def test_radicand_normalization(self):
        assert QuadExt(0, 1, 8) == QuadExt(0, 2, 2)
        assert QuadExt(0, 1, 9) == 3
        assert QuadExt.sqrt(Fraction(1, 4)) == Fraction(1, 2)

    def test_comparisons(self):
        assert QuadExt(0, 1, 2) < QuadExt(0, 2, 2)
        assert QuadExt(1, 1, 2) > 2  # 1 + 1.414...
        assert QuadExt(7, -4, 3) > 0  # 49 > 48
        assert QuadExt(7, -4, 3) < Fraction(1, 10)  # 0.0718 < 0.1

    @pytest.mark.parametrize("np_int", [np.int64, np.int32])
    def test_numpy_integers_in_every_slot(self, np_int):
        # a Fraction of a numpy integer kept it as numerator, and sign() then
        # raised TypeError: numpy boolean subtract
        for args in [(3,), (3, 1, 5), (-3, 1, 5), (7, -4, 3), (0, -2, 7)]:
            want = QuadExt(*args)
            for i in range(len(args)):
                got = QuadExt(*args[:i], np_int(args[i]), *args[i + 1:])
                assert got == want and got.sign() == want.sign(), (args, i)
                assert all(type(x.numerator) is int for x in (got.a, got.b)) and type(got.d) is int
        assert QuadExt(np_int(3)) > QuadExt(0, 1, 8)
        # as the other operand: subtraction, and so every ordering, went through Fraction
        assert QuadExt(0, 1, 2) < np_int(2) and QuadExt(0, 1, 2) > np_int(1)
        assert (QuadExt(0, 1, 2) - np_int(1)).sign() == 1

    def test_float(self):
        assert float(QuadExt(1, 2, 3)) == pytest.approx(1 + 2 * 3**0.5)

    def test_parse(self):
        assert QuadExt.parse("(7+√33)/4") == QuadExt(Fraction(7, 4), Fraction(1, 4), 33)
        assert QuadExt.parse("(7+sqrt(33))/4") == QuadExt(Fraction(7, 4), Fraction(1, 4), 33)
        assert QuadExt.parse("2") == 2
        assert QuadExt.parse("7/4") == Fraction(7, 4)
        assert QuadExt.parse("3/2-1/2√5") == QuadExt(Fraction(3, 2), Fraction(-1, 2), 5)
        assert QuadExt.parse("√2") == QuadExt(0, 1, 2)
        with pytest.raises(ValueError):
            QuadExt.parse("three")

    def test_text_round_trip(self):
        # str(q) is the text form the dossier JSON writes; parse reads it back
        rng = random.Random(20)

        def rational():
            return Fraction(rng.randint(-50, 50), rng.randint(1, 12))

        values = [QuadExt(Fraction(7, 4), Fraction(1, 4), 33), QuadExt(0, -1, 5), QuadExt(0, 1, 12),
                  QuadExt(Fraction(-7, 4), Fraction(-1, 4), 33), QuadExt(Fraction(-3, 2))]
        values += [QuadExt(rational(), rational(), rng.choice([1, 2, 3, 5, 6, 12, 33])) for _ in range(500)]
        for v in values:
            assert QuadExt.parse(str(v)) == v, str(v)

    def test_squarefree_decompose(self):
        assert squarefree_decompose(81) == (9, 1)
        assert squarefree_decompose(24) == (2, 6)
        assert squarefree_decompose(1) == (1, 1)

    def test_rational_values_hash_as_their_int_or_fraction(self):
        # equal values must hash alike: {2, QuadExt(2)} held two elements
        assert len({2, QuadExt(2)}) == 1
        assert hash(QuadExt(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert {Fraction(-3, 4): "x"}[QuadExt(Fraction(-3, 4))] == "x"
        assert hash(QuadExt(0, 1, 9)) == hash(3) and hash(QuadExt(0, 1, 8)) == hash(QuadExt(0, 2, 2))
        assert len({QuadExt(1, 1, 2), QuadExt(1, -1, 2), QuadExt(1, 1, 2) * 1}) == 2

    def test_radicand_limit(self):
        # trial division runs to sqrt(m): the largest prime below 2^40 is the
        # longest allowed; 2^61 - 1 (prime) did not finish in 5 minutes before the limit
        p = 2 ** 40 - 87
        assert squarefree_decompose(p) == (1, p)
        assert squarefree_decompose(4 * 3 ** 20) == (2 * 3 ** 10, 1)
        for m in (2 ** 40, 2 ** 61 - 1):
            with pytest.raises(ValueError, match=f"radicand {m} is not below 2\\^40"):
                squarefree_decompose(m)
        with pytest.raises(ValueError, match="radicand 2305843009213693951 "):
            QuadExt.parse("(1+√2305843009213693951)/2")
        # a square numerator or denominator leaves the radicand, so only the rest is limited
        assert QuadExt.sqrt(Fraction(1, 2 ** 40)) == Fraction(1, 1048576)
        assert QuadExt.sqrt(10 ** 14) == 10 ** 7
        assert QuadExt.sqrt(Fraction(3, 10 ** 12)) == QuadExt(0, Fraction(1, 10 ** 6), 3)
        assert QuadExt.sqrt(Fraction(10 ** 12, 3)) == QuadExt(0, Fraction(10 ** 6, 3), 3)
        with pytest.raises(ValueError, match="radicand 1649267441664 "):
            QuadExt.sqrt(Fraction(1, 3 * 2 ** 39))
        # the exact tightness path's radicands, 3(n+4) for n < 2^32, stay below 2^35
        assert tight_inner_product(2 ** 32 - 1) == QuadExt.sqrt(Fraction(3, 2 ** 32 + 3))


_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def _quadexts(draw, d=None):
    if d is None:
        d = draw(st.sampled_from([2, 3, 5, 6, 33]))
    return QuadExt(draw(_rationals), draw(_rationals), d)


def _assert_normal_form(r):
    """Fractions a and b, a square-free int d, d = 1 exactly when b = 0, and the
    same fields as the validating constructor gives for them."""
    assert type(r) is QuadExt
    assert type(r.a) is Fraction and type(r.b) is Fraction and type(r.d) is int
    assert r.d >= 1 and squarefree_decompose(r.d)[0] == 1
    assert (r.d == 1) == (r.b == 0)
    fresh = QuadExt(r.a, r.b, r.d)
    assert (type(fresh.a), type(fresh.b), type(fresh.d)) == (Fraction, Fraction, int)
    assert (fresh.a, fresh.b, fresh.d) == (r.a, r.b, r.d)


_parts = st.one_of(st.just(Fraction(0)), _rationals)
# square-free, and not: 24 = 2^2*6 and 81 = 9^2 normalise in the constructor
_radicands = st.sampled_from([1, 2, 3, 5, 33, 273, 24, 81])


class TestQuadExtNormalForm:
    """Arithmetic builds its results without the constructor's checks; each
    result must still be exactly what the constructor would have built."""

    @seed(20261021)
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_operation_keeps_normal_form(self, data):
        d = data.draw(_radicands)
        x = QuadExt(data.draw(_parts), data.draw(_parts), d)
        # the other operand: the same radicand, a rational, or a plain int or Fraction
        y = data.draw(st.one_of(
            st.builds(QuadExt, _parts, _parts, st.just(d)),
            st.builds(QuadExt, _parts),
            st.integers(-5, 5),
            _parts,
        ))
        results = [x + y, y + x, x - y, y - x, x * y, y * x, -x, x.conjugate(), x - x,
                   x * x.conjugate(), x + x.conjugate(), x - x.conjugate()]
        if y != 0:
            results += [x / y]
        if x != 0:
            results += [y / x, 1 / x]
        for r in results:
            _assert_normal_form(r)
        # the product's value against the four-product formula, y promoted first
        z = y if isinstance(y, QuadExt) else QuadExt(y)
        e = max(x.d, z.d)  # the square-free radicand of x, y or both
        product = QuadExt(x.a * z.a + e * x.b * z.b, x.a * z.b + x.b * z.a, e)
        assert (x * y, y * x) == (product, product)
        _assert_normal_form(QuadExt(x.a, x.b, d))
        for r in results + [x]:
            parsed = QuadExt.parse(str(r))
            _assert_normal_form(parsed)
            assert parsed == r
        q = abs(data.draw(_parts))
        root = QuadExt.sqrt(q)
        _assert_normal_form(root)
        assert root * root == q and root.sign() >= 0


class TestQuadExtFieldAxioms:
    @settings(max_examples=200)
    @given(st.data())
    def test_field_axioms(self, data):
        d = data.draw(st.sampled_from([2, 3, 5, 6, 33]))
        x = data.draw(_quadexts(d=d))
        y = data.draw(_quadexts(d=d))
        z = data.draw(_quadexts(d=d))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if x != 0:
            assert x * (1 / x) == 1

    @settings(max_examples=100)
    @given(_quadexts())
    def test_sign_matches_float(self, x):
        f = float(x)
        if abs(f) > 1e-9:
            assert x.sign() == (1 if f > 0 else -1)


class TestRationalPoly:
    def test_mul_identity(self):
        p = RationalPoly([1, 2, 3])
        assert p * RationalPoly([1]) == p

    def test_difference_of_squares(self):
        assert RationalPoly([-1, 1]) * RationalPoly([1, 1]) == RationalPoly([-1, 0, 1])

    def test_exact_eval(self):
        p = RationalPoly([Fraction(1, 3), 0, 1])
        assert p(Fraction(1, 2)) == Fraction(7, 12)

    def test_divmod(self):
        p = RationalPoly([-1, 0, 1])
        q, r = divmod(p, RationalPoly([-1, 1]))
        assert q == RationalPoly([1, 1]) and r.is_zero

    def test_gcd_and_squarefree(self):
        p = RationalPoly([-1, 1]) * RationalPoly([-1, 1]) * RationalPoly([1, 1])
        g = poly_gcd(p, p.derivative())
        assert g == RationalPoly([-1, 1])
        assert squarefree_part(p) == RationalPoly([-1, 0, 1])

    def test_float_point_runs_float_horner(self):
        # adding a Fraction to a float converts the Fraction first, so p(x) at a
        # float x takes the same IEEE steps as a float Horner loop
        rng = random.Random(16)
        for _ in range(300):
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(rng.randint(0, 16))]
            coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 40)))
            x = rng.uniform(-3.0, 3.0)
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * x + float(c)
            got = RationalPoly(coeffs)(x)
            assert type(got) is float and got.hex() == acc.hex()

    def test_json_round_trip(self):
        p = RationalPoly([Fraction(1, 3), Fraction(-2, 7), 1])
        assert RationalPoly.from_json(p.to_json()) == p
        assert p.to_json() == ["1/3", "-2/7", "1"]


class TestSturm:
    def test_octics_have_eight_real_roots(self):
        assert sturm_count_roots(OCTIC_A) == 8
        assert sturm_count_roots(OCTIC_B) == 8

    def test_no_real_roots(self):
        assert sturm_count_roots(RationalPoly([1, 0, 1])) == 0

    def test_half_open_interval(self):
        # roots of x^2 - 1 are +-1; (lo, hi] semantics
        p = RationalPoly([-1, 0, 1])
        assert sturm_count_roots(p, 0, 1) == 1
        assert sturm_count_roots(p, -1, 1) == 1
        assert sturm_count_roots(p, -2, 1) == 2
        assert sturm_count_roots(p, 1, 5) == 0
        assert sturm_count_roots(p, None, 0) == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            sturm_count_roots(RationalPoly([]))

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            sturm_count_roots(RationalPoly([1, 2, 1]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6, unique=True),
           st.integers(0, 1), st.integers(1, 9))
    def test_matches_companion_matrix_count(self, roots, extra_quad, c):
        # product of distinct linear factors, optionally times x^2 + c
        p = RationalPoly([1])
        for r in roots:
            p = p * RationalPoly([-r, 1])
        if extra_quad:
            p = p * RationalPoly([c, 0, 1])
        assert sturm_count_roots(p) == len(roots)
        # floating companion-matrix oracle
        eig = np.roots([float(x) for x in reversed(p.coeffs)])
        real = sorted(e.real for e in eig if abs(e.imag) < 1e-6)
        distinct = sum(1 for i, v in enumerate(real) if i == 0 or v - real[i - 1] > 1e-6)
        assert distinct == len(roots)


class TestFractionFreeRank:
    def test_identity(self):
        assert fraction_free_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_all_ones(self):
        assert fraction_free_rank([[1] * 4] * 4) == 1

    def test_empty(self):
        assert fraction_free_rank([]) == 0

    def test_unit_square_l_matrix(self):
        # L built from actual coordinates (0,0),(1,0),(1,1),(0,1):
        # L[i][j] = 2 <x_{i+1} - x_1, x_{j+1} - x_1>
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        L = [
            [2 * sum((pts[i][k] - pts[0][k]) * (pts[j][k] - pts[0][k]) for k in range(2))
             for j in range(1, 4)]
            for i in range(1, 4)
        ]
        assert L == [[2, 2, 0], [2, 4, 2], [0, 2, 2]]
        assert fraction_free_rank(L) == 2

    def test_quadext_rank(self):
        s2 = QuadExt(0, 1, 2)
        # rows (1, s2) and (s2, 2) are proportional
        assert fraction_free_rank([[1, s2], [s2, 2]]) == 1
        assert fraction_free_rank([[1, s2], [s2, 3]]) == 2

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            fraction_free_rank([[1, 2], [3]])

    def test_mixed_radicands_rejected(self):
        s2, s3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
        with pytest.raises(IncompatibleRadicandError):
            fraction_free_rank([[s2, s3]])  # one row: rejected before any elimination
        with pytest.raises(IncompatibleRadicandError):
            fraction_free_rank([[1, s2], [Fraction(1, 2), 1 + s3]])

    @pytest.mark.parametrize("d", [1, 2, 5, 33, 42])
    def test_matches_regular_representation_rank(self, d):
        # a + b*sqrt(d) acts on Q^2 as [[a, b*d], [b, a]], so the rational rank
        # of the blown-up matrix is twice the rank over Q(sqrt(d))
        rng = np.random.default_rng(1000 + d)

        def surd(a_scale=1, b_scale=1):
            a, b, p, q = (int(v) for v in rng.integers([-4, -3, 1, 1], [5, 4, 4, 4]))
            return QuadExt(Fraction(a * a_scale, p), Fraction(b * b_scale, q), d)

        def rational_rank(rows):
            rows, rank = [row[:] for row in rows], 0
            for c in range(len(rows[0]) if rows else 0):
                piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                for i in range(rank + 1, len(rows)):
                    f = rows[i][c] / rows[rank][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
                rank += 1
            return rank

        seen = set()
        for trial in range(60):
            m, n, k = (int(v) for v in rng.integers(1, 7, size=3))
            pure = trial % 5 == 1  # surd times rational: pivots with a zero rational part
            U = [[surd(a_scale=not pure) for _ in range(k)] for _ in range(m)]
            V = [[surd(b_scale=not pure) for _ in range(n)] for _ in range(k)]
            if trial % 3 == 0:
                U[0] = [QuadExt(0)] * k  # a zero first row: the first pivot needs a row swap
            if trial % 4 == 0:
                for row in V:
                    row[int(rng.integers(n))] = QuadExt(0)  # a zero column
            M = [[sum((U[i][l] * V[l][j] for l in range(k)), QuadExt(0)) for j in range(n)]
                 for i in range(m)]
            blown = [[x for e in row for x in ((e.a, e.b * e.d), (e.b, e.a))[half]]
                     for row in M for half in (0, 1)]
            rank = fraction_free_rank(M)
            assert 2 * rank == rational_rank(blown)
            seen.add((rank, m == n))
        assert len(seen) >= 6  # full-rank, deficient and zero-rank cases, square and not

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 12), st.integers(0, 1000))
    def test_matches_float_rank(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        k = min(k, m, n)
        # rank <= k by construction; entries are small rationals
        A = rng.integers(-3, 4, size=(m, k))
        B = rng.integers(-3, 4, size=(k, n))
        M = A @ B
        exact = fraction_free_rank([[Fraction(int(v), 2) for v in row] for row in M])
        s = np.linalg.svd(M.astype(float) / 2, compute_uv=False)
        float_rank = int((s > 1e-8 * max(s.max(initial=0.0), 1.0)).sum())
        assert exact == float_rank
