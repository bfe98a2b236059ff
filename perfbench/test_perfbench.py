"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import make_reference
import measure
import oracles
import workloads


@pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
def test_mpmath_oracle_closed_forms(n):
    with mp.workdps(make_reference.DPS):
        assert abs(make_reference.mp_bound(n, 2) - n) < 1e-40
        assert abs(make_reference.mp_bound(n, 4) - mp.mpf((n + 1) * (n + 2)) / 6) < 1e-40


def test_stored_reference_matches_closed_form_at_t4():
    reference = oracles.load_reference()
    for n in workloads.GRID_N:
        b, integer = reference[(n, 4)]
        exact = Fraction((n + 1) * (n + 2), 6)
        assert integer == (exact.denominator == 1)
        assert abs(Fraction(b) - exact) < Fraction(1, 10**28)


def test_reference_covers_every_checked_cell():
    reference = oracles.load_reference()
    cells = set(workloads.GRID_CELLS) | set(workloads.TABLE_CELLS) | set(workloads.FAILING_CELLS)
    assert cells <= set(reference)


def test_regular_representation_rank_unit_square():
    # the larger distance of the unit square is its diagonal: b2 = 2
    square = [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert oracles.es_rank(square, oracles.parse_surd("2")) == 2


def test_regular_representation_rank_pentagon_irrational():
    # diagonal/side of the regular pentagon is the golden ratio: b2 = (3+sqrt5)/2
    pentagon = [[1 if (i - j) % 5 in (2, 3) else 0 for j in range(5)] for i in range(5)]
    assert oracles.es_rank(pentagon, oracles.parse_surd("(3+√5)/2")) == 2
    # at a ratio the pentagon cannot have, the five points span more dimensions
    assert oracles.es_rank(pentagon, oracles.parse_surd("3")) > 2


@pytest.mark.parametrize("count,expected", [
    (39, None), (40, (30, 75.0)), (100, (90, 90.0)), (1000, (990, 99.0)), (768, (758, 100 * 758 / 768)),
])
def test_tail_percentile_rule(count, expected):
    assert measure.tail_rank(count) == expected


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 201))
    stats = measure.latency_stats([s / 1e3 for s in samples])
    assert stats["tail"] == pytest.approx(190.0)
    assert sum(1 for s in samples if s > stats["tail"]) == 10
    few = measure.latency_stats([0.001] * 20 + [0.002] * 19)
    assert few["tail_pct"] == 50.0 and few["tail"] == few["p50"]


@pytest.mark.parametrize("printed,ref,integer,contradicts", [
    ("18.66..", "18.66998361848801685593", False, False),
    ("18.67..", "18.66998361848801685593", False, True),
    ("27.004..", "27.00401608450729453593", False, False),
    ("5", "5", True, False),
    ("13714462318375968", "13714462318375901.4434", False, True),
])
def test_printed_figure_rule(printed, ref, integer, contradicts):
    assert oracles.printed_contradicts(printed, Decimal(ref), integer) is contradicts


def test_kernel_sum_of_the_regular_simplex():
    # the n+1 vertices of a regular simplex form a spherical 2-design on S^(n-1)
    n = 4
    vertices = np.eye(n + 1) - 1.0 / (n + 1)
    basis = np.linalg.svd(vertices)[2][:n]
    pts = vertices @ basis.T
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    cert = oracles.certificate(pts, [1, 2, 3], 1e-9)
    assert cert["residuals"][0] < 1e-12 and cert["residuals"][1] < 1e-12
    assert cert["residuals"][2] > 1e-3 and not cert["passed"]


def test_graph6_encoder_round_trips_through_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    for m in (2, 7, 10, 13):
        adj = workloads.random_graph(rng, m)
        back = nx.to_numpy_array(nx.from_graph6_bytes(workloads.graph6(adj).encode()), dtype=int,
                                 nodelist=range(m))
        assert np.array_equal(back, adj)


def test_importtime_self_ms():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:      2000 |       2100 |   scipy",
        "import time:       500 |        500 | scipyx",
        "import time:        50 |         50 | networkx.utils",
    ])
    assert measure.importtime_self_ms(report, "scipy") == pytest.approx(2.1)
    assert measure.importtime_self_ms(report, "networkx") == pytest.approx(0.05)
