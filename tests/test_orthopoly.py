"""Kernel evaluation, roots, minima, and the Bessel series behind the asymptote."""

import math
import random
import re
from collections import deque
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hidesign.orthopoly import (
    ROOT_RESIDUAL_TOL,
    KernelSpec,
    MinimumReport,
    dim_harmonic,
    q_eval,
    q_min,
    q_roots,
    _chebyshev_weights,
    _recurrence,
    _roots,
    _scale,
)
from hidesign import bounds
from hidesign.exactnum import QuadExt


def laplacian_kernel_dim(n_vars: int, degree: int) -> int:
    """Independent oracle for dim_harmonic: harmonic polynomials are the
    kernel of the Laplacian acting on homogeneous polynomials, so the
    dimension is (#monomials of the degree) - rank(Laplacian matrix)."""
    monos = list(combinations_with_replacement(range(n_vars), degree))
    lower = list(combinations_with_replacement(range(n_vars), degree - 2))
    lower_index = {m: i for i, m in enumerate(lower)}
    mat = np.zeros((len(lower), len(monos)))
    for j, mono in enumerate(monos):
        exps = [mono.count(v) for v in range(n_vars)]
        for v in range(n_vars):
            if exps[v] >= 2:
                e2 = exps.copy()
                e2[v] -= 2
                key = tuple(v2 for v2, e in enumerate(e2) for _ in range(e))
                mat[lower_index[key], j] += exps[v] * (exps[v] - 1)
    return len(monos) - np.linalg.matrix_rank(mat)


class TestDimHarmonic:
    def test_3_4_against_laplacian_rank(self):
        assert dim_harmonic(3, 4) == 9
        assert laplacian_kernel_dim(3, 4) == 9

    def test_circle_gives_two(self):
        for t in range(1, 20):
            assert dim_harmonic(2, t) == 2

    def test_4_58(self):
        assert dim_harmonic(4, 58) == 3481
        assert dim_harmonic(4, 58) == math.comb(61, 58) - math.comb(59, 56)

    def test_small_degrees(self):
        assert dim_harmonic(5, 0) == 1
        assert dim_harmonic(5, 1) == 5

    def test_rejects_low_dimension(self):
        with pytest.raises(ValueError):
            dim_harmonic(1, 3)

    def test_rejects_non_integers_by_name(self):
        for n, t, message in [(3.5, 4, "must be integers, got n=3.5, t=4"),
                              (5, 4.0, "must be integers, got n=5, t=4.0"),
                              ("5", 4, "must be integers, got n='5', t=4")]:
            with pytest.raises(ValueError, match=re.escape(message)):
                dim_harmonic(n, t)
            with pytest.raises(ValueError, match=re.escape(message)):
                KernelSpec(n, t)
        assert dim_harmonic(np.int64(5), np.int64(4)) == dim_harmonic(5, 4) == 55


class TestQEval:
    def test_normalization_at_one(self):
        assert q_eval(KernelSpec(3, 4), 1.0) == pytest.approx(9.0, rel=1e-12)

    def test_value_at_zero_matches_explicit_polynomial(self):
        # Q_{3,4}(x) = (9/8)(35x^4 - 30x^2 + 3)
        explicit = lambda x: 9 / 8 * (35 * x**4 - 30 * x**2 + 3)
        assert q_eval(KernelSpec(3, 4), 0.0) == pytest.approx(27 / 8, rel=1e-14)
        for x in np.linspace(-1, 1, 17):
            assert q_eval(KernelSpec(3, 4), x) == pytest.approx(explicit(x), rel=1e-12, abs=1e-12)

    def test_degree_two_closed_form(self):
        # Q_{n,2}(x) = (n+2)/2 (n x^2 - 1)
        assert q_eval(KernelSpec(5, 2), 0.0) == pytest.approx(-3.5, rel=1e-14)
        for n in range(2, 9):
            for x in (-0.7, 0.0, 0.3, 1.0):
                expect = (n + 2) / 2 * (n * x * x - 1)
                assert q_eval(KernelSpec(n, 2), x) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_normalization_sweep(self):
        for n in range(2, 13):
            for t in range(1, 61):
                v = q_eval(KernelSpec(n, t), 1.0)
                assert abs(v - dim_harmonic(n, t)) <= 1e-12 * dim_harmonic(n, t)

    def test_parity(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1, 1, size=50)
        for n in (2, 3, 5, 8):
            for t in (1, 2, 5, 12):
                spec = KernelSpec(n, t)
                left = q_eval(spec, -xs)
                right = (-1) ** t * q_eval(spec, xs)
                np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_boundedness(self):
        xs = np.linspace(-1, 1, 1000)
        for n in (2, 3, 6, 12):
            for t in (2, 9, 30, 60):
                spec = KernelSpec(n, t)
                assert np.abs(q_eval(spec, xs)).max() <= spec.dim * (1 + 1e-10)

    def test_vectorized_matches_scalar(self):
        spec = KernelSpec(4, 7)
        xs = np.linspace(-1, 1, 9)
        np.testing.assert_allclose(q_eval(spec, xs), [q_eval(spec, float(x)) for x in xs])

    def test_scalar_path_equals_the_array_path_bit_for_bit(self):
        # a Python float, an int and an np.float64 run in Python floats; an array runs in numpy
        rng = random.Random(27)
        xs = [1.0, -1.0, 0.5, -0.5, 0.0, -0.0, 0.3] + [rng.uniform(-1, 1) for _ in range(5)]
        for n in range(2, 31):
            for t in range(101):
                spec = KernelSpec(n, t)
                want = [v.hex() for v in q_eval(spec, np.array(xs)).tolist()]
                for kind in (float, np.float64):
                    got = [q_eval(spec, kind(x)) for x in xs]
                    assert all(type(v) is float for v in got)
                    assert [v.hex() for v in got] == want, (n, t, kind)
                assert [q_eval(spec, k).hex() for k in (1, -1, 0)] == [want[0], want[1], want[4]], (n, t)

    def test_zero_dimensional_array_keeps_the_array_path(self):
        for t in (0, 7, 100):
            value = q_eval(KernelSpec(5, t), np.array(0.3))
            assert type(value) is float and value.hex() == q_eval(KernelSpec(5, t), 0.3).hex()


class TestRecurrenceBuffers:
    """The recurrence updates its buffers in place: inputs and results that
    a caller holds must never change underneath it."""

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("x", [np.array(0.3), np.linspace(-1, 1, 7)], ids=["0-d", "1-d"])
    def test_q_eval_leaves_input_unchanged(self, n, x):
        before = x.copy()
        for t in (0, 1, 2, 7):
            q_eval(KernelSpec(n, t), x)
            assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [2, 5])
    def test_q_eval_result_survives_later_calls(self, n):
        xs = np.linspace(-1, 1, 7)
        first = q_eval(KernelSpec(n, 6), xs)
        kept = first.copy()
        q_eval(KernelSpec(n, 6), xs)
        q_eval(KernelSpec(n, 9), -xs)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("n", [2, 5])
    def test_q_roots_result_survives_later_calls(self, n):
        roots = q_roots(KernelSpec(n, 8))
        kept = roots.copy()
        q_roots(KernelSpec(n, 8))
        q_roots(KernelSpec(n, 11))
        assert np.array_equal(roots, kept)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("t", [1, 2, 3, 8])
    def test_last_two_yields_are_distinct_and_intact(self, n, t):
        x = np.linspace(-1, 1, 11)
        before = x.copy()
        prev, cur = deque(_recurrence(n, t, x), maxlen=2)
        assert prev is not cur and cur is not x and prev is not x
        assert np.array_equal(x, before)
        # P_{t-1} and P_t, checked against independent evaluations
        lam = (n - 2) / 2
        if n == 2:
            want = [np.cos(k * np.arccos(x)) for k in (t - 1, t)]
        else:
            from scipy.special import eval_gegenbauer
            want = [eval_gegenbauer(k, lam, x) for k in (t - 1, t)]
        np.testing.assert_allclose(prev, want[0], rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(cur, want[1], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_last_two_yields_intact_at_every_step(self, n):
        # the contract designs._certificate relies on at n = 2: a Gram block
        # (2-d) is never written, and a yield survives the next one
        x = np.cos(np.linspace(0, 3, 35)).reshape(5, 7)
        before, held = x.copy(), []
        for p in _recurrence(n, 9, x):
            assert p.shape == x.shape and p is not x
            held = held[-1:] + [(p, p.copy())]
            assert all(np.array_equal(a, kept) for a, kept in held)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_given_buffer_gives_the_same_bits_and_never_writes_x(self, n):
        # designs._moments passes one array for every Gram block; only its first
        # 4 x.size entries are used, and each yield is a view of them
        x = np.cos(np.linspace(0, 3, 35)).reshape(5, 7)
        before, buf = x.copy(), np.full(4 * x.size + 9, np.nan)
        fresh = [p.copy() for p in _recurrence(n, 9, x)]
        held = []
        for p, want in zip(_recurrence(n, 9, x, buf), fresh, strict=True):
            assert p.shape == x.shape and p.base is buf and not np.shares_memory(p, x)
            assert np.array_equal(p, want)
            held = held[-1:] + [(p, want)]
            assert all(np.array_equal(a, kept) for a, kept in held)
        assert np.array_equal(x, before) and np.isnan(buf[4 * x.size:]).all()

    def test_one_buffer_across_shapes(self):
        # as on the Gram walk: blocks of several shapes, each a view of one array
        # that the buffer must not overlap, in turn through the same buffer
        blocks, buf = np.empty(64), np.empty(4 * 64)
        rng = np.random.default_rng(3)
        for shape in [(8, 8), (3, 7), (1, 5), (8, 8)]:
            x = blocks[:math.prod(shape)].reshape(shape)
            x[...] = rng.uniform(-1, 1, shape)
            before = x.copy()
            prev, cur = deque(_recurrence(2, 6, x, buf), maxlen=2)
            assert np.array_equal(x, before)
            np.testing.assert_allclose([prev, cur], [np.cos(k * np.arccos(x)) for k in (5, 6)], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 5])
    def test_degrees_zero_and_one(self, n):
        x = np.array([-0.5, 0.25])
        assert [p.tolist() for p in _recurrence(n, 0, x)] == [[1.0, 1.0]]
        ones, first = _recurrence(n, 1, x)
        assert ones.tolist() == [1.0, 1.0] and first.tolist() == (x if n == 2 else 2 * (n - 2) / 2 * x).tolist()
        assert first is not x
        assert list(_recurrence(n, 1, 0.5)) == [1.0, 0.5 if n == 2 else (n - 2) * 0.5]


def sympy_value(q) -> "sympy.Expr":
    """A Fraction or QuadExt as an exact sympy number."""
    import sympy as sp
    if isinstance(q, Fraction):
        return sp.Rational(q.numerator, q.denominator)
    return sympy_value(q.a) + sympy_value(q.b) * sp.sqrt(q.d)


class TestGenericRecurrence:
    """_recurrence has integer coefficients, so it runs unchanged on exact
    scalars: P_k equals sympy's Chebyshev T_k (n = 2) or Gegenbauer
    C_k^((n-2)/2) exactly, in the number type of x."""

    CASES = [(2, 0), (2, 1), (2, 3), (2, 9), (3, 0), (3, 1), (3, 7), (4, 3), (5, 10), (24, 6), (122, 6)]

    @staticmethod
    def oracle(n: int, k: int, x):
        import sympy as sp
        v = sp.Symbol("v")
        poly = sp.chebyshevt(k, v) if n == 2 else sp.gegenbauer(k, sp.Rational(n - 2, 2), v)
        return sp.expand(poly.subs(v, x))

    @pytest.mark.parametrize("n,t", CASES)
    @pytest.mark.parametrize("kind", ["Fraction", "QuadExt"])
    def test_exact_against_sympy(self, n, t, kind):
        import sympy as sp
        x = Fraction(1, 3) if kind == "Fraction" else QuadExt.sqrt(Fraction(3, n + 4))  # the tight alpha
        values = list(_recurrence(n, t, x))
        assert len(values) == t + 1
        for k, p in enumerate(values):
            assert type(p) is type(x), (k, p)
            assert sp.expand(sympy_value(p) - self.oracle(n, k, sympy_value(x))) == 0, (k, p)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_value_at_one(self, n):
        # T_t(1) = 1, C_t^lam(1) = (2 lam)_t / t! = C(t+n-3, t)
        for t, p in enumerate(_recurrence(n, 12, Fraction(1))):
            assert p == (1 if n == 2 else math.comb(t + n - 3, t))

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_decimal_matches_float(self, n):
        with localcontext() as ctx:
            ctx.prec = 60
            got = list(_recurrence(n, 20, Decimal("0.3")))
        assert all(isinstance(p, Decimal) for p in got)
        want = list(_recurrence(n, 20, 0.3))
        for a, b in zip(got, want):
            assert float(a) == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_scale_closed_form_is_bit_equal_to_the_binomial_ratio(self):
        for n in [*range(3, 80), 10 ** 6 + 1, 2 ** 40 + 3, 2 ** 52 + 5]:
            for k in [*range(60), 500, 2000]:
                assert _scale(n, k) == dim_harmonic(n, k) / math.comb(k + n - 3, k), (n, k)

    def test_chebyshev_weights_bit_equal_to_the_lambda_form(self):
        for n in range(2, 90, 3):
            for k in range(0, 150, 7):
                lam, j = (n - 2) / 2, np.arange(k // 2)
                c = np.cumprod(np.concatenate([[1.0], (lam + j) * (k - j) / ((j + 1) * (lam + k - 1 - j))]))
                c[:(k + 1) // 2] *= 2
                assert _chebyshev_weights(n, k).tobytes() == (c / c.sum()).tobytes(), (n, k)

    def test_float_kernels_refuse_n_and_t_from_2_to_the_1023(self):
        KernelSpec(2 ** 1023 - 1, 4)
        KernelSpec(3, 2 ** 1023 - 1)
        for n, t in [(2 ** 1023, 4), (3, 2 ** 1023), (10 ** 400, 1)]:
            with pytest.raises(ValueError, match=re.escape(f"below 2^1023, got n={n}, t={t}")):
                KernelSpec(n, t)


def circle_recurrence_before_hoisting(t: int, x) -> list:
    """T_0..T_t as the circle step was written before 2x was formed once per
    call: (x*2)*T_{k-1} - T_{k-2}, with x*2 formed at every step."""
    out = [np.ones_like(x) if isinstance(x, np.ndarray) else 1.0, x]
    for _ in range(2, t + 1):
        out.append((x * 2) * out[-1] - out[-2])
    return out[:t + 1]


def hex_values(v) -> list[str]:
    return [float(e).hex() for e in np.ravel(v)]


class TestCircleStepBits:
    """Forming 2x once changes no bit: x*2 is exact, so (2x)*T equals (x*2)*T."""

    POINTS = np.concatenate([np.linspace(-1, 1, 257), np.cos(np.linspace(0, math.pi, 101)),
                             np.random.default_rng(18).uniform(-1, 1, 200),
                             [-3.0, -1.5, 1.5, 3.0, 5e-324, -2.5e-310, 1e-200, 0.0, -0.0]])

    @pytest.mark.parametrize("t", [0, 1, 2, 3, 7, 30, 60])
    def test_arrays(self, t):
        # the buffers rotate, so each T_k is compared as it is yielded
        want = circle_recurrence_before_hoisting(t, self.POINTS)
        got = [hex_values(p) for p in _recurrence(2, t, self.POINTS)]
        assert got == [hex_values(p) for p in want]

    def test_floats(self):
        for x in self.POINTS[::3].tolist():
            for t in (0, 1, 2, 5, 31, 60):
                got = [float(p).hex() for p in _recurrence(2, t, x)]
                assert got == [float(p).hex() for p in circle_recurrence_before_hoisting(t, x)], (x, t)

    def test_q_eval_on_the_circle(self):
        for t in range(61):
            want = 2 * circle_recurrence_before_hoisting(t, self.POINTS)[-1] if t else np.ones_like(self.POINTS)
            assert hex_values(q_eval(KernelSpec(2, t), self.POINTS)) == hex_values(want)
            assert q_eval(KernelSpec(2, t), 0.3).hex() == hex_values(
                2 * circle_recurrence_before_hoisting(t, 0.3)[-1] if t else 1.0)[0]


class TestQRoots:
    def test_3_4_closed_form(self):
        # positive roots sqrt((525 +- 70 sqrt(30))/1225)
        s30 = math.sqrt(30)
        expect = sorted([
            -math.sqrt((525 + 70 * s30) / 1225), -math.sqrt((525 - 70 * s30) / 1225),
            math.sqrt((525 - 70 * s30) / 1225), math.sqrt((525 + 70 * s30) / 1225),
        ])
        np.testing.assert_allclose(q_roots(KernelSpec(3, 4)), expect, atol=1e-12)

    def test_2_2_closed_form(self):
        np.testing.assert_allclose(
            q_roots(KernelSpec(2, 2)), [-math.sqrt(2) / 2, math.sqrt(2) / 2], atol=1e-12
        )

    def test_degree_two_roots(self):
        for n in range(2, 10):
            np.testing.assert_allclose(
                q_roots(KernelSpec(n, 2)), [-1 / math.sqrt(n), 1 / math.sqrt(n)], atol=1e-12
            )

    def test_residuals_and_ordering(self):
        for n in (2, 3, 4, 8, 12):
            for t in (1, 5, 20, 58):
                spec = KernelSpec(n, t)
                roots = q_roots(spec)
                assert len(roots) == t
                assert np.all(np.diff(roots) > 0)
                assert np.all(np.abs(roots) < 1)
                assert np.abs(q_eval(spec, roots)).max() < 1e-9 * spec.dim

    def test_interlacing(self):
        for n in (2, 3, 5, 9):
            for t in (1, 2, 7, 20):
                inner = q_roots(KernelSpec(n, t))
                outer = q_roots(KernelSpec(n, t + 1))
                assert np.all(outer[:-1] < inner) and np.all(inner < outer[1:])

    def test_zero_on_the_grid_is_counted(self):
        # odd degree: 0 is a root and a point of the symmetric bracketing grid
        for n, t in [(2, 5), (3, 7), (9, 101)]:
            roots = q_roots(KernelSpec(n, t))
            assert len(roots) == t and roots[t // 2] == 0.0
            np.testing.assert_array_equal(roots, -roots[::-1])

    def test_first_grid_isolates_every_root(self):
        # q_roots has one bracketing grid and raises when it does not show t roots
        for n in range(2, 61):
            for t in range(1, 121):
                roots = q_roots(KernelSpec(n, t))
                assert len(roots) == t and np.all(np.diff(roots) > 0), (n, t)

    def test_overflow_is_an_error_naming_the_kernel(self):
        with np.errstate(all="ignore"), pytest.raises(
                RuntimeError, match=r"roots of Q_\{402,1000\} .*overflowed float64"):
            q_roots(KernelSpec(402, 1000))

    @pytest.mark.parametrize("n", [2**60, 2**70])
    def test_unallocatable_grid_is_an_error_naming_the_kernel(self, n):
        # a 2^60-point grid fails numpy's allocation, a 2^70-point one its size
        # check; both must say which kernel and grid size
        with pytest.raises(ValueError, match=rf"^cannot allocate the \d+-point root grid of Q_\{{{n},7\}}$") as exc:
            q_roots(KernelSpec(n, 7))
        # about 2(t + (n-2)/2 + 1) points, counted in float64
        assert int(re.search(r"the (\d+)-point", str(exc.value))[1]) == pytest.approx(n + 2 * 7 + 1, rel=1e-15)
        with pytest.raises(ValueError, match=rf"^cannot allocate the \d+-point root grid of Q_\{{{n + 2},6\}}$"):
            q_min(KernelSpec(n, 7))


def mp_kernel(n: int, t: int, x):
    """P_t(x) at mpmath precision, with the recurrence written out again here:
    Chebyshev T_t for n = 2, else the Gegenbauer C_t^lambda, lambda = (n-2)/2."""
    import mpmath as mp

    lam = mp.mpf(n - 2) / 2
    prev, cur = mp.mpf(1), x if n == 2 else 2 * lam * x
    for k in range(2, t + 1):
        if n == 2:
            prev, cur = cur, 2 * x * cur - prev
        else:
            prev, cur = cur, (2 * (k + lam - 1) * x * cur - (k + 2 * lam - 2) * prev) / k
    return cur


def _root_cases():
    rng = random.Random(20130)
    cases = {(2, rng.randrange(2, 90)) for _ in range(3)}  # the circle
    cases |= {(rng.randrange(3, 40), 2 * rng.randrange(1, 45) + 1) for _ in range(5)}  # odd t
    cases |= {(rng.randrange(41, 201), rng.randrange(2, 13)) for _ in range(5)}  # large n
    cases |= {(rng.randrange(3, 30), 2 * rng.randrange(2, 50)) for _ in range(4)}
    return sorted(cases) + [(2, 1), (3, 2000)]


class TestRootsAgainstMpmath:
    """Differential check of q_roots against a 30-digit recurrence.

    A sign change of the mpmath kernel on [r - 1e-13, r + 1e-13] puts an exact
    root within 1e-13 of the float root r; with t such disjoint intervals these
    are all the roots.  At degree 2000 a seeded sample of roots is checked.
    """

    DELTA = 1e-13

    @pytest.mark.parametrize("n,t", _root_cases())
    def test_roots_within_delta_of_mpmath(self, n, t):
        import mpmath as mp

        roots = q_roots(KernelSpec(n, t))
        assert len(roots) == t and np.all(np.diff(roots) > 2 * self.DELTA)
        assert np.abs(q_eval(KernelSpec(n, t), roots)).max() < ROOT_RESIDUAL_TOL * dim_harmonic(n, t)
        picks = range(t)
        if t > 200:
            rng = random.Random(t)
            picks = sorted({0, 1, t // 2, t - 2, t - 1} | set(rng.sample(range(t), 12)))
        with mp.workdps(30):
            for i in picks:
                r = mp.mpf(float(roots[i]))
                left, right = mp_kernel(n, t, r - self.DELTA), mp_kernel(n, t, r + self.DELTA)
                assert left * right < 0, (n, t, i, float(roots[i]))

    def test_degree_2000_minimum_against_mpmath(self):
        # c_{3,2000} is Q at the largest critical point, the largest root of
        # the derivative kernel C_1999^(3/2); polish it at 30 digits and compare
        import mpmath as mp

        n, t = 3, 2000
        rep = q_min(KernelSpec(n, t))
        with mp.workdps(30):
            x = mp.mpf(rep.argmin)
            crit = mp.findroot(lambda y: mp_kernel(n + 2, t - 1, y),
                               (x - self.DELTA, x + self.DELTA), solver="anderson")
            c = -dim_harmonic(n, t) * mp_kernel(n, t, crit) / mp_kernel(n, t, mp.mpf(1))
        assert abs(rep.argmin - float(crit)) < self.DELTA
        assert rep.c == pytest.approx(float(c), rel=1e-13)


class TestQMin:
    def test_3_4(self):
        rep = q_min(KernelSpec(3, 4))
        assert rep.c == pytest.approx(27 / 7, rel=1e-13)
        assert rep.argmin**2 == pytest.approx(3 / 7, rel=1e-12)
        assert rep.method == "derivative-roots"

    def test_circle_closed_form(self):
        for t in (1, 2, 17, 60):
            rep = q_min(KernelSpec(2, t))
            assert rep.c == 2.0
            assert rep.method == "chebyshev-closed-form"
            assert q_eval(KernelSpec(2, t), rep.argmin) == pytest.approx(-2.0, rel=1e-12)

    def test_degree_two(self):
        for n in range(3, 20):
            rep = q_min(KernelSpec(n, 2))
            assert rep.c == pytest.approx((n + 2) / 2, rel=1e-13)
            assert rep.argmin == pytest.approx(0.0, abs=1e-12)

    def test_degree_four_closed_form(self):
        for n in range(3, 30):
            rep = q_min(KernelSpec(n, 4))
            assert rep.c == pytest.approx(n * (n + 1) * (n + 6) / (4 * (n + 4)), rel=1e-12)
            assert rep.argmin**2 == pytest.approx(3 / (n + 4), rel=1e-10)

    def test_value_consistency(self):
        for n, t in [(3, 9), (5, 14), (10, 21)]:
            rep = q_min(KernelSpec(n, t))
            assert q_eval(KernelSpec(n, t), rep.argmin) == pytest.approx(-rep.c, rel=1e-12)

    def test_argmin_is_largest_derivative_root(self):
        # for even degrees (odd degrees bottom out at the endpoint -1)
        for n, t in [(3, 4), (4, 10), (7, 12), (5, 58)]:
            rep = q_min(KernelSpec(n, t))
            assert rep.argmin == q_roots(KernelSpec(n + 2, t - 1)).max()

    def test_odd_degree_minimum_at_endpoint(self):
        rep = q_min(KernelSpec(7, 13))
        assert rep.argmin == -1.0
        assert rep.c == pytest.approx(dim_harmonic(7, 13), rel=1e-12)


def every_critical_point_minimum(n: int, t: int) -> tuple[float, float]:
    """(c, argmin) from Q_{n,t} at every root of Q_{n+2,t-1} and at +-1, with
    q_min's tie rule: the minimum over all critical points, not only the largest.
    Degree 1 keeps q_min's closed form, Q_{n,1}(x) = n x."""
    if t == 1:
        return float(n), -1.0
    cand = np.concatenate([q_roots(KernelSpec(n + 2, t - 1)), [-1.0, 1.0]])
    vals = q_eval(KernelSpec(n, t), cand)
    vmin = vals.min()
    return -float(vmin), float(cand[vals <= vmin + 1e-12 * abs(vmin)].max())


class TestQMinOneCriticalPoint:
    """q_min polishes only the largest root of Q_{n+2,t-1}, in Python floats;
    by the Sonine lemma in its docstring that loses nothing, bit for bit."""

    def test_equals_minimum_over_every_critical_point(self):
        cells = [(n, t) for n in range(3, 41) for t in range(1, 81)] + [(3, 2000), (5, 58), (40, 100)]
        for n, t in cells:
            rep = q_min(KernelSpec(n, t))
            assert (rep.c, rep.argmin) == every_critical_point_minimum(n, t), (n, t)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 24, 100])
    def test_extremes_grow_strictly_toward_one(self, n):
        # the lemma itself: |Q_{n,t}| at the critical points in [0, 1] increases with the point
        for t in range(3, 61):
            crit = q_roots(KernelSpec(n + 2, t - 1))
            mags = np.abs(q_eval(KernelSpec(n, t), crit[crit >= 0]))
            assert np.all(np.diff(mags) > 0) and mags[-1] < dim_harmonic(n, t), (n, t)

    def test_recurrence_on_a_float_matches_a_one_element_array(self):
        for n in range(2, 13):
            for t in range(61):
                for x in (-1.0, -0.3, 0.0, 0.7, 1.0):
                    floats = list(_recurrence(n, t, x))
                    arrays = [float(p[0]) for p in _recurrence(n, t, np.array([x]))]
                    assert all(type(v) is float for v in floats)
                    assert [v.hex() for v in floats] == [v.hex() for v in arrays], (n, t, x)

    def test_overflow_still_raises_for_both_parities(self):
        # the largest root is polished for odd t too, so the bracketing pass still runs
        for t in (1001, 1000):
            with np.errstate(all="ignore"), pytest.raises(
                    RuntimeError, match=rf"roots of Q_\{{402,{t - 1}\}} .*overflowed float64"):
                q_min(KernelSpec(400, t))


def four_point_array_minimum(spec: KernelSpec) -> MinimumReport:
    """q_min with its four candidate values from one q_eval pass on a numpy array,
    as before those values came in Python floats."""
    n, t = spec.n, spec.t
    if n == 2:
        return MinimumReport(c=2.0, argmin=math.cos(math.pi / t), method="chebyshev-closed-form")
    if t == 1:
        return MinimumReport(c=float(n), argmin=-1.0, method="linear-closed-form")
    xi = _roots(n + 2, t - 1, largest=True)[-1]
    cand = np.array([-xi, xi, -1.0, 1.0])
    with np.errstate(all="ignore"):
        vals = q_eval(spec, cand)
    vmin = vals.min()
    near = cand[vals <= vmin + 1e-12 * abs(vmin)]
    return MinimumReport(c=-float(vmin), argmin=float(near.max()), method="derivative-roots")


# n = 2..30 to t = 100, large n to t = 400 (the kernel values overflow at (700, 400)
# and (1000, 400)), and three cells of tightness and integrality interest
SWEEP = ([(n, t) for n in range(2, 31) for t in range(1, 101)]
         + [(n, t) for n in (40, 50, 60, 80, 100, 150, 200, 300, 400, 500, 700, 1000)
            for t in (100, 150, 200, 250, 300, 400)]
         + [(186, 168), (177, 180), (24, 6)])


def minimum_or_error(f, spec: KernelSpec) -> tuple:
    try:
        rep = f(spec)
    except ValueError as err:
        return ("ValueError", str(err))
    return rep.c.hex(), rep.argmin.hex(), rep.method


class TestQMinScalarValues:
    """q_min takes Q at -xi, xi, -1 and 1 from four scalar q_eval calls."""

    def test_equals_the_four_point_array_pass(self):
        assert len(SWEEP) == 2975
        for n, t in SWEEP:
            spec = KernelSpec(n, t)
            # hex keeps the sign of a zero argmin (xi = 0 at t = 2)
            assert minimum_or_error(q_min, spec) == minimum_or_error(four_point_array_minimum, spec), (n, t)

    def test_overflow_error_text_comes_with_no_warning(self):
        # north-star defect 1, kept as it is: the values overflow to NaN and the empty
        # tie set fails in numpy's max; only the three numpy RuntimeWarnings are gone
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                bounds.fisher_bound(1000, 400)
        assert str(err.value) == "zero-size array to reduction operation maximum which has no identity"


def series_bessel(alpha: float, z: float, terms: int = 60) -> float:
    """Ascending-series oracle, reliable for small z."""
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * (z / 2) ** (2 * k + alpha) / (
            math.factorial(k) * math.gamma(k + alpha + 1)
        )
    return total


def bessel_j(alpha: float, z: float) -> float:
    """J_alpha(z) = (z/2)^alpha / Gamma(alpha+1) * 0F1(; alpha+1; -z^2/4), the package's series at 60 digits."""
    with localcontext(Context(prec=60)):
        series = bounds._hyp0f1(Decimal(alpha) + 1, -Decimal(z) ** 2 / 4)
    return (z / 2) ** alpha / math.gamma(alpha + 1) * float(series)


def bessel_first_zero(alpha: float) -> float:
    """j_{alpha,1} from the package's zero finder, at the precision asymptotic_bound would set."""
    a = Decimal(alpha) + 1
    with localcontext(Context(prec=bounds._digits(float(a)))):
        return float(bounds._first_zero(a))


class TestBessel:
    def test_half_order_closed_form(self):
        for z in (0.5, 1.0, 2.0, math.pi, 10.0):
            expect = math.sqrt(2 / (math.pi * z)) * math.sin(z)
            assert bessel_j(0.5, z) == pytest.approx(expect, rel=1e-12, abs=1e-12)
        assert abs(bessel_j(0.5, math.pi)) < 1e-12

    def test_j0_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0

    def test_against_ascending_series(self):
        for alpha in (0.0, 1.0, 2.5, 4.5):
            for z in (0.3, 1.7, 4.0, 7.5):
                assert bessel_j(alpha, z) == pytest.approx(series_bessel(alpha, z), rel=1e-10, abs=1e-13)

    def test_first_zero_half_order(self):
        assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-10)

    def test_first_zero_j0_series_bisection_oracle(self):
        lo, hi = 2.0, 3.0
        flo = series_bessel(0.0, lo)
        for _ in range(60):
            mid = (lo + hi) / 2
            fm = series_bessel(0.0, mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        oracle = (lo + hi) / 2
        z0 = bessel_first_zero(0.0)
        assert z0 == pytest.approx(oracle, abs=1e-9)
        assert z0 == pytest.approx(2.404825557, abs=1e-9)
        assert abs(bessel_j(0.0, z0)) < 1e-9

    def test_first_zero_j1_with_derivative_identity(self):
        z1 = bessel_first_zero(1.0)
        assert z1 == pytest.approx(3.831705970, abs=1e-9)
        # d/dz (z J_1(z)) = z J_0(z), checked by central differences
        h = 1e-6
        for z in (0.8, 2.0, z1):
            lhs = ((z + h) * bessel_j(1.0, z + h) - (z - h) * bessel_j(1.0, z - h)) / (2 * h)
            assert lhs == pytest.approx(z * bessel_j(0.0, z), rel=1e-7, abs=1e-8)

    def test_first_zeros_against_mpmath(self):
        import mpmath as mp

        with mp.workdps(30):
            for alpha in (0.0, 0.5, 1.0, 3.0, 3.5, 7.0, 10.5, 50.0, 159.5):
                z = bessel_first_zero(alpha)
                exact = mp.besseljzero(mp.mpf(alpha), 1)
                assert abs(mp.mpf(z) - exact) <= math.ulp(z), (alpha, z)

    def test_first_zero_at_order_1000_takes_few_points(self, monkeypatch):
        # eight scan points, 1000 to 1021 in steps of 3, then two series per Newton step
        series, calls = bounds._hyp0f1, []
        monkeypatch.setattr(bounds, "_hyp0f1", lambda a, w: calls.append(w) or series(a, w))
        bessel_first_zero(1000.0)
        assert 0 < len(calls) < 40

    @pytest.mark.parametrize("alpha", [499.5, 1000.0])
    def test_first_zero_at_large_order_ends_at_a_sign_change(self, alpha):
        import mpmath as mp

        z = bessel_first_zero(alpha)
        assert alpha < z < alpha + 2 * alpha ** (1 / 3) + 1
        lo, hi = z - 3 * math.ulp(z), z + 3 * math.ulp(z)
        with mp.workdps(40):
            assert mp.besselj(alpha, lo) > 0 > mp.besselj(alpha, hi)


class TestMehlerHeine:
    def test_scaled_kernel_converges_to_bessel(self):
        # alpha = (n-3)/2 = 0 for n = 3; renormalize Q to P with P(1) = C(t+alpha, t)
        import mpmath as mp

        n, z = 3, 1.0
        alpha = (n - 3) / 2
        target = float((z / 2) ** (-alpha) * mp.besselj(alpha, z))
        errs = []
        for t in (200, 400):
            spec = KernelSpec(n, t)
            scale = math.comb(t + 0, t) / dim_harmonic(n, t)  # binom(t+alpha,t) with alpha=0
            p_val = q_eval(spec, math.cos(z / t)) * scale
            errs.append(abs(t ** (-alpha) * p_val - target))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-2
