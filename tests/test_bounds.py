"""Fisher-type bounds, table formatting, Bessel asymptotics."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from hidesign import bounds
from hidesign.bounds import (
    asymptotic_bound,
    bound_table,
    fisher_bound,
    format_bound,
    table_csv,
    table_json,
    table_text,
    tight_inner_product,
)
from hidesign.exactnum import QuadExt


def mp_asymptote(n: int) -> tuple:
    """(j1, F, limit, limit_corrected) from mpmath's Bessel functions at 60 digits, rounded to float."""
    import mpmath as mp

    with mp.workdps(60):
        alpha = mp.mpf(n - 3) / 2
        j1 = mp.besseljzero(alpha + 1, 1)
        F = (j1 / 2) ** -alpha * mp.besselj(alpha, j1)
        return tuple(float(v) for v in (j1, F, 1 - 1 / F, 1 - 1 / (mp.gamma(alpha + 1) * F)))


class TestFisherBound:
    def test_non_integer_input_named(self):
        with pytest.raises(ValueError, match="must be integers, got n=3.5, t=4$"):
            fisher_bound(3.5, 4)
        with pytest.raises(ValueError, match="must be integers, got n=5, t=4.0$"):
            fisher_bound(5, 4.0)
        rep = fisher_bound(np.int64(5), np.int64(4))
        assert (rep.b, rep.c, rep.closed_form) == (fisher_bound(5, 4).b, fisher_bound(5, 4).c, 7)

    def test_3_4_is_ten_thirds(self):
        rep = fisher_bound(3, 4)
        assert rep.b == pytest.approx(10 / 3, rel=1e-13)
        assert rep.c == pytest.approx(27 / 7, rel=1e-13)
        assert rep.closed_form == Fraction(10, 3)
        assert not rep.integral

    def test_degree_two_is_dimension(self):
        for n in range(2, 30):
            rep = fisher_bound(n, 2)
            assert rep.b == pytest.approx(n, rel=1e-12)
            assert rep.integral
            assert rep.closed_form == n

    def test_circle_bound_is_two(self):
        for t in (2, 4, 17, 60):
            assert fisher_bound(2, t).b == pytest.approx(2.0, rel=1e-14)

    def test_8_10_printed_value(self):
        assert format_bound(fisher_bound(8, 10).b) == "21.97.."

    def test_odd_degree_note(self):
        rep = fisher_bound(3, 5)
        assert rep.note is not None and "2" in rep.note
        assert rep.b == pytest.approx(2.0, rel=1e-12)
        assert fisher_bound(3, 4).note is None

    def test_integrality_rule_degree_four(self):
        for n in range(2, 60):
            assert fisher_bound(n, 4).integral == (n % 3 != 0)

    def test_closed_form_exactness(self):
        for n in range(2, 51):
            assert abs(fisher_bound(n, 2).b - n) <= 1e-10 * n
            expect = (n + 1) * (n + 2) / 6
            assert abs(fisher_bound(n, 4).b - expect) <= 1e-10 * expect


class TestFormatting:
    def test_truncates_not_rounds(self):
        assert format_bound(3.3333333) == "3.33.."
        assert format_bound(29.689999) == "29.68.."  # rounding would give 29.69

    def test_integers_print_bare(self):
        assert format_bound(5.0000000004) == "5"
        assert format_bound(22.0) == "22"

    def test_extends_past_leading_zeros(self):
        assert format_bound(27.00401608) == "27.004.."
        assert format_bound(24.00467695) == "24.004.."

    def test_negative_decimals_rejected(self):
        for b in (3.3333333, 22.0):
            with pytest.raises(ValueError, match="decimals must be >= 0, got -1"):
                format_bound(b, -1)

    def test_zero_decimals_keep_the_integer_part(self):
        assert format_bound(3.3333333, 0) == "3.."
        assert format_bound(0.5, 0) == "0.."
        assert format_bound(27.00401608, 0) == "27.."
        assert format_bound(28.0, 0) == "28"
        assert format_bound(3.3333333) == "3.33.."

    def test_table_text_contains_grid(self):
        reports = bound_table([3, 4], [4, 6])
        text = table_text(reports, truncate=2)
        assert "3.33.." in text and "5.29.." in text

    def test_table_csv_columns(self):
        csv = table_csv(bound_table([5], [4]))
        header, row = csv.strip().splitlines()
        assert header == "n,t,c,b,b_printed,integral"
        fields = row.split(",")
        assert fields[0] == "5" and fields[4] == "7" and fields[5] == "true"

    def test_table_json_round_trip(self):
        import json

        data = json.loads(table_json(bound_table([3], [4])))
        assert data[0]["n"] == 3 and data[0]["closed_form"] == "10/3"

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bound_table([], [4])


class TestAsymptote:
    def test_reference_values(self):
        # published to 10 digits alongside the equiangular absolute bound
        expected = {3: 3.482871935, 7: 35.11842602, 10: 541.6547218}
        for n, value in expected.items():
            rep = asymptotic_bound(n)
            assert rep.limit == pytest.approx(value, rel=1e-9)
            assert rep.Fvalue < 0
            assert rep.limit > 1

    def test_gamma_factor_trivial_for_n3_n5(self):
        for n in (3, 5):
            rep = asymptotic_bound(n)
            assert rep.limit == pytest.approx(rep.limit_corrected, rel=1e-14)

    def test_corrected_limit_is_what_the_bounds_approach(self):
        # at n = 4 the sequence b_{4,t} has passed 5.0796 long before t = 100
        # and keeps climbing toward the Gamma-corrected value 5.6033
        rep = asymptotic_bound(4)
        b100 = fisher_bound(4, 100).b
        assert abs(b100 - rep.limit_corrected) < 5e-3
        assert abs(b100 - rep.limit) > 0.5

    def test_convergence_to_corrected_limit(self):
        for n in (5, 8):
            rep = asymptotic_bound(n)
            errs = [abs(fisher_bound(n, t).b - rep.limit_corrected) for t in (20, 40, 80)]
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] / rep.limit_corrected < 0.02

    def test_requires_n_at_least_three(self):
        with pytest.raises(ValueError):
            asymptotic_bound(2)

    @pytest.mark.parametrize("n", [7.5, 7.0, "7", None])
    def test_non_integer_n_named(self, n):
        # 7.5 once gave a report for a dimension that does not exist, 7.0 reported n=7.0
        with pytest.raises(ValueError, match=re.escape(f"asymptote requires an integer n, got {n!r}") + "$"):
            asymptotic_bound(n)

    def test_numpy_integer_stored_as_int(self):
        rep = asymptotic_bound(np.int64(7))
        assert type(rep.n) is int and rep == asymptotic_bound(7)
        # np.int64 in as_dict once made json.dumps raise TypeError
        assert json.loads(json.dumps(rep.as_dict())) == json.loads(json.dumps(asymptotic_bound(7).as_dict()))

    def test_n320_keeps_the_unguarded_values(self):
        # the last n before 1/F overflows: F is within a factor 300 of underflow
        rep = asymptotic_bound(320)
        assert (rep.j1, rep.Fvalue, rep.limit, rep.limit_corrected) == mp_asymptote(320)
        assert 1e307 < rep.limit < math.inf

    @pytest.mark.parametrize("n", [321, 400])
    def test_overflow_is_an_error_naming_n_and_the_field(self, n):
        # from n = 321, 1/F exceeds float64; from n = 345 Gamma((n-1)/2) does too,
        # and the raise comes before the series
        with pytest.raises(ValueError, match=f"asymptote at n = {n}: limit is inf, not finite"):
            asymptotic_bound(n)

    @pytest.mark.parametrize("n", [345, 400, 2 ** 32, 2 ** 1023 - 1])
    def test_refused_before_any_series_term(self, n, monkeypatch):
        # |0F1(; a; -z^2/4)| <= 1 puts |limit - 1| >= Gamma((n-1)/2), beyond float64 from n = 345
        def series(a, w):
            raise AssertionError("a series term was evaluated")

        monkeypatch.setattr(bounds, "_hyp0f1", series)
        with pytest.raises(ValueError, match=re.escape(f"asymptote at n = {n}: limit is inf, not finite in float64") + "$"):
            asymptotic_bound(n)

    def test_n344_runs_the_series_before_the_raise(self, monkeypatch):
        # Gamma(171.5) is still finite, so the limit is found infinite only from the series
        series, calls = bounds._hyp0f1, []
        monkeypatch.setattr(bounds, "_hyp0f1", lambda a, w: calls.append(w) or series(a, w))
        with pytest.raises(ValueError, match=re.escape("asymptote at n = 344: limit is inf, not finite in float64") + "$"):
            asymptotic_bound(344)
        assert calls


class TestAsymptoteAgainstMpmath:
    """Every value is correctly rounded (at most 0.5 ulp from mpmath at each n from 3 to 320,
    by an exact Gamma and the decimal series); the budget is 1 ulp."""

    @pytest.mark.parametrize("n", [*range(3, 11), 24, 100, 200, 320])
    def test_within_one_ulp(self, n):
        rep = asymptotic_bound(n)
        got = (rep.j1, rep.Fvalue, rep.limit, rep.limit_corrected)
        for name, value, exact in zip(("j1", "F", "limit", "limit_corrected"), got, mp_asymptote(n)):
            assert abs(value - exact) <= math.ulp(exact), (n, name, value, exact)


class TestHighPrecisionCrossCheck:
    """Recompute the contested table cells at 30-digit precision.

    The cells where the reference tabulation disagrees with this package are
    re-derived here with an mpmath pipeline that shares no code with the
    float path: the kernel recurrence in arbitrary precision, critical
    points located by a dense sign scan plus high-precision root polish.
    """

    @staticmethod
    def mp_bound(n, t):
        import mpmath as mp

        with mp.workdps(30):
            lam = mp.mpf(n - 2) / 2

            def gegenbauer(deg, x, par):
                prev, cur = mp.mpf(1), 2 * par * x
                if deg == 0:
                    return prev
                for k in range(2, deg + 1):
                    prev, cur = cur, (2 * (k + par - 1) * x * cur - (k + 2 * par - 2) * prev) / k
                return cur

            dim = math.comb(n + t - 1, t) - math.comb(n + t - 3, t - 2)
            scale = dim / gegenbauer(t, mp.mpf(1), lam)
            deriv_par = lam + 1  # derivative of degree t is proportional to this kernel
            xs = [mp.mpf(-1) + mp.mpf(2 * i) / 2000 for i in range(2001)]
            vals = [gegenbauer(t - 1, x, deriv_par) for x in xs]
            crit = [mp.findroot(lambda x: gegenbauer(t - 1, x, deriv_par),
                                (xs[i] + xs[i + 1]) / 2)
                    for i in range(2000) if mp.sign(vals[i]) != mp.sign(vals[i + 1])]
            cands = crit + [mp.mpf(-1), mp.mpf(1)]
            c = -min(scale * gegenbauer(t, x, lam) for x in cands)
            return 1 + dim / c

    @pytest.mark.parametrize("n,t,printed", [
        (8, 6, "18.66.."),
        (7, 14, "17.01.."),
        (7, 16, "17.22.."),
        (7, 18, "17.37.."),
        (9, 8, "27.004.."),
    ])
    def test_contested_cells(self, n, t, printed):
        high = float(self.mp_bound(n, t))
        low = fisher_bound(n, t).b
        assert low == pytest.approx(high, rel=1e-12)
        assert format_bound(high) == printed


@pytest.mark.xfail(
    strict=True,
    reason="b_{4,t} is monotone increasing on even t in [4,200]: it approaches "
    "the Gamma-corrected limit 5.6033 from below, so no decreasing pair exists; "
    "a decrease is only implied by the uncorrected limit 5.0796, which the "
    "sequence does not converge to",
)
def test_non_monotonicity_witness_for_n4():
    values = [(t, fisher_bound(4, t).b) for t in range(4, 201, 2)]
    assert any(
        values[i][1] > values[j][1] + 1e-12
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )


class TestTightInnerProduct:
    def test_n4(self):
        assert tight_inner_product(4) == QuadExt(0, Fraction(1, 4), 6)  # sqrt(3/8) = sqrt(6)/4

    def test_n23_is_one_third(self):
        v = tight_inner_product(23)
        assert v.is_rational and v.as_fraction() == Fraction(1, 3)

    def test_n8_is_one_half(self):
        assert tight_inner_product(8) == Fraction(1, 2)

    def test_defining_equation(self):
        for n in (2, 5, 11, 17, 100):
            v = tight_inner_product(n)
            assert v * v == Fraction(3, n + 4)
            assert v.sign() == 1

    @pytest.mark.parametrize("n", [4.0, 4.5, "4"])
    def test_non_integer_n_named(self, n):
        # Fraction once raised TypeError on 4.0 and 4.5
        with pytest.raises(ValueError, match=re.escape(f"must be integers, got n={n!r}, t=4") + "$"):
            tight_inner_product(n)

    def test_numpy_integer_accepted(self):
        assert tight_inner_product(np.int64(23)) == tight_inner_product(23) == Fraction(1, 3)

    def test_limit_of_the_exact_path(self):
        # n + 4 = 4294967291 is the largest prime below 2^32 + 4: the longest trial division allowed
        for n in (4294967287, 2 ** 32 - 1):
            v = tight_inner_product(n)
            assert v * v == Fraction(3, n + 4)
        for n in (2 ** 32, 4294967353, 10000000000000057, np.int64(2 ** 40)):
            with pytest.raises(ValueError, match=f"takes n < 2\\^32, got n={n}$"):
                tight_inner_product(n)
        with pytest.raises(ValueError, match="must be >= 2, got 1$"):
            tight_inner_product(1)
