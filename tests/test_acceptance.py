"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Expected values marked "reference" reproduce a published
tabulation; cells where careful recomputation (confirmed at 40-digit
precision during development) disagrees with the reference printing are
listed in RECOMPUTED_CELLS and flagged rather than forced to match.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from property_suites import ALL_SUITES

from hidesign.bounds import asymptotic_bound, bound_table, fisher_bound, format_bound
from hidesign.designs import (
    FIVE_POINT_Z_MINPOLY,
    FIVE_POINT_Z_OCTICS,
    FIVE_POINT_Z_SCALE,
    generate,
    lift_design,
    verify_harmonic_index,
)
from hidesign.exactnum import QuadExt, sturm_count_roots
from hidesign.orthopoly import KernelSpec, q_min, q_roots
from hidesign.tightness import (
    TwoDistGraph,
    es_embeddable,
    lrs_check,
    musin_reduce,
    tightness_dossier,
)
from hidesign.bounds import tight_inner_product


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


# Reference grid for n = 3..10 (columns) and even t = 4..20 (rows), printed
# with 2-decimal truncation.  Three cells of the reference printing disagree
# with recomputation; RECOMPUTED_CELLS holds our independently verified
# strings for them (the reference's n=7 column appears shifted at t=14,16,
# and its (8,6) entry appears rounded instead of truncated).
REFERENCE_TABLE = {
    4: ["3.33..", "5", "7", "9.33..", "12", "15", "18.33..", "22"],
    6: ["3.41..", "5.29..", "7.69..", "10.69..", "14.33..", "18.67..", "23.76..", "29.68.."],
    8: ["3.44..", "5.41..", "8.01..", "11.35..", "15.55..", "20.72..", "27.004..", "34.52.."],
    10: ["3.45..", "5.47..", "8.18..", "11.73..", "16.26..", "21.97..", "29.04..", "37.69.."],
    12: ["3.46..", "5.51..", "8.28..", "11.95..", "16.71..", "22.77..", "30.39..", "39.84.."],
    14: ["3.46..", "5.53..", "8.35..", "12.10..", "17.22..", "23.32..", "31.33..", "41.37.."],
    16: ["3.47..", "5.54..", "8.39..", "12.21..", "17.37..", "23.71..", "32.01..", "42.48.."],
    18: ["3.47..", "5.56..", "8.42..", "12.28..", "17.37..", "24.004..", "32.51..", "43.32.."],
    20: ["3.47..", "5.56..", "8.45..", "12.34..", "17.49..", "24.22..", "32.89..", "43.97.."],
}

RECOMPUTED_CELLS = {
    (8, 6): "18.66..",   # reference prints 18.67..; b = 18.66998...
    (7, 14): "17.01..",  # reference prints 17.22..; b = 17.01633...
    (7, 16): "17.22..",  # reference prints 17.37..; b = 17.22641...
}

REFERENCE_ASYMPTOTES = {
    3: 3.482871935, 4: 5.079602836, 5: 8.559751097, 6: 16.42679115,
    7: 35.11842602, 8: 81.85047703, 9: 204.5294426, 10: 541.6547218,
}


def test_criterion_1_reference_table_reproduction():
    with criterion("1. reference bound table, 72 cells"):
        start = time.perf_counter()
        reports = bound_table(range(3, 11), range(4, 21, 2))
        elapsed = time.perf_counter() - start
        cells = {(r.n, r.t): format_bound(r.b) for r in reports}
        assert len(cells) == 72
        mismatches = []
        for t, row in REFERENCE_TABLE.items():
            for n, printed in zip(range(3, 11), row):
                got = cells[(n, t)]
                if (n, t) in RECOMPUTED_CELLS:
                    assert got == RECOMPUTED_CELLS[(n, t)], (n, t, got)
                    print(f"  flagged ({n},{t}): reference prints {printed}, "
                          f"recomputed value is {got}")
                elif got != printed:
                    mismatches.append((n, t, got, printed))
        assert mismatches == [], f"unexpected mismatches: {mismatches}"
        assert elapsed < 5.0, f"table took {elapsed:.2f}s"


def test_criterion_2_closed_forms():
    with criterion("2. closed forms for b and c"):
        for n in range(2, 51):
            assert abs(fisher_bound(n, 2).b - n) <= 1e-10 * n
            b4 = (n + 1) * (n + 2) / 6
            assert abs(fisher_bound(n, 4).b - b4) <= 1e-10 * b4
        c34 = q_min(KernelSpec(3, 4)).c
        assert abs(c34 - 27 / 7) <= 1e-12 * (27 / 7)
        for t in range(1, 61):
            assert q_min(KernelSpec(2, t)).c == 2.0
        for n in range(2, 51):
            cn2 = q_min(KernelSpec(n, 2)).c
            assert abs(cn2 - (n + 2) / 2) <= 1e-12 * (n + 2) / 2


def test_criterion_3_design_verification_suite():
    with criterion("3. design verification suite"):
        start = time.perf_counter()
        for kind in ("x0_plus", "x0_minus"):
            cert = verify_harmonic_index(generate(kind), 4)
            assert cert.passed and cert.residuals[0] < 1e-9
        for n in (2, 3, 5, 8):
            assert verify_harmonic_index(generate("cross_polytope_half", n=n), 2).passed
        for e in range(2, 11):
            t = 2 * e
            base = generate("regular_polygon", m=2 * e + 1)
            for r in q_roots(KernelSpec(3, t)):
                assert verify_harmonic_index(lift_design(base, t, float(r)), t).passed
        ico = generate("icosahedron_half")
        assert verify_harmonic_index(ico, 8).passed
        assert verify_harmonic_index(ico, 14).passed
        cert6 = verify_harmonic_index(ico, 6)
        assert not cert6.passed and cert6.residuals[0] > 1e-2
        e8 = generate("e8_half")
        assert len(e8) == 120 and verify_harmonic_index(e8, 10).passed
        c600 = generate("cell600_half")
        cert58 = verify_harmonic_index(c600, 58)
        assert len(c600) == 60 and cert58.passed and cert58.residuals[0] < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"design suite took {elapsed:.2f}s"


def test_criterion_4_asymptotics():
    with criterion("4. Bessel asymptotics and convergence"):
        for n, expect in REFERENCE_ASYMPTOTES.items():
            rep = asymptotic_bound(n)
            assert abs(rep.limit - expect) <= 1e-6 * expect, (n, rep.limit)
        # b_{n,t} converges to the Gamma-corrected limit (the reference's
        # 1 - 1/F value omits the 1/Gamma((n-1)/2) factor hidden in the
        # binomial's growth, so for n not in {3,5} the sequence approaches a
        # different number; both limits are reported)
        for n in range(3, 11):
            limit = asymptotic_bound(n).limit_corrected
            errs = [abs(fisher_bound(n, t).b - limit) for t in (20, 40, 80)]
            assert errs[0] > errs[1] > errs[2], (n, errs)
            assert errs[2] <= 0.02 * limit, (n, errs[2] / limit)


def test_criterion_5_exact_suite():
    with criterion("5. exact arithmetic suite"):
        oct_a, oct_b = FIVE_POINT_Z_OCTICS
        assert sturm_count_roots(oct_a) == 8
        assert sturm_count_roots(oct_b) == 8
        assert oct_a * oct_b == FIVE_POINT_Z_SCALE * FIVE_POINT_Z_MINPOLY
        rng = np.random.default_rng(123)

        def rand_frac():
            return Fraction(int(rng.integers(-30, 31)), int(rng.integers(1, 13)))

        for _ in range(1000):
            d = int(rng.choice([2, 3, 5, 6, 33]))
            x = QuadExt(rand_frac(), rand_frac(), d)
            y = QuadExt(rand_frac(), rand_frac(), d)
            z = QuadExt(rand_frac(), rand_frac(), d)
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x and x * y == y * x
            if x != 0:
                assert x * (1 / x) == 1
            assert x + 0 == x and x * 1 == x


def test_criterion_6_tightness_suite():
    with criterion("6. tightness suite"):
        one_third = QuadExt(Fraction(1, 3))
        assert lrs_check(one_third) == 2
        d23 = tightness_dossier(23)
        assert d23.lrs_k == 2 and d23.p == 3 and d23.n == 3 * d23.p**2 - 4
        sqrt38 = QuadExt.sqrt(Fraction(3, 8))
        assert lrs_check(sqrt38) is None
        assert musin_reduce(sqrt38).plus == QuadExt(Fraction(-3, 5), Fraction(2, 5), 6)
        odd_p_dims = {3 * p * p - 4 for p in range(3, 60, 2)}
        for n in range(11, 10_001):
            k = lrs_check(tight_inner_product(n))
            if k is not None:
                assert n == 3 * (2 * k - 1) ** 2 - 4 and n in odd_p_dims
            else:
                assert n not in odd_p_dims
        square = TwoDistGraph(np.array([
            [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0],
        ]), QuadExt(2))
        assert es_embeddable(square, 2).embeddable
        assert not es_embeddable(square, 1).embeddable
        empty10 = TwoDistGraph(np.zeros((10, 10), dtype=int), QuadExt(2))
        res = es_embeddable(empty10, 8)
        assert not res.embeddable and res.rank == 9


def test_criterion_7_property_suites():
    with criterion("7. randomized property suites (6 x 100 trials)"):
        for name, suite in ALL_SUITES.items():
            failures = suite(trials=100)
            assert failures == [], f"{name}: {failures[:3]}"
            print(f"  {name}: 100 trials, 0 failures")
