"""Rebuild ``bound_reference.json``: b_{n,t} in mpmath for every cell the
benchmark checks.

    python3 perfbench/make_reference.py        # about six minutes

b_{n,t} = 1 + C(1) / (-min_{[-1,1]} C) for the Gegenbauer polynomial
C = C_t^{(n-2)/2}; the harmonic dimension cancels.  The minimum lies at an
endpoint or at a critical point, a root of C_{t-1}^{(n-2)/2+1}, evaluated
by the three-term recurrence.  Those roots are bracketed by sign changes on
x = cos(theta) with theta evenly spaced, which crowds samples near +-1 where
the root spacing shrinks like t^-2; the scan is refined until it finds all
t-1 of them.  The minimum is evaluated again with mpmath's hypergeometric
gegenbauer(), and the two evaluations must agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FAILING_CELLS, GRID_CELLS, TABLE_CELLS  # noqa: E402

DPS = 50


def critical_points(n: int, t: int) -> list:
    lam1 = mp.mpf(n - 2) / 2 + 1
    g = lambda x: recurrence(t - 1, lam1, x)  # noqa: E731
    samples = 8 * t
    while True:
        # half-step offsets keep x = 0, a root of every odd-degree C, off the grid
        xs = [mp.cos(mp.pi * (k + mp.mpf(1) / 2) / samples) for k in range(samples)]
        vals = [g(x) for x in xs]
        brackets = [(xs[k + 1], xs[k]) for k in range(samples - 1) if vals[k] * vals[k + 1] < 0]
        if len(brackets) == t - 1:
            break
        if samples > 256 * t:
            raise RuntimeError(f"({n}, {t}): found {len(brackets)} of {t - 1} critical points")
        samples *= 2
    roots = []
    for lo, hi in brackets:
        r = mp.findroot(g, (lo, hi), solver="illinois", verify=False)
        if not lo <= r <= hi:
            raise RuntimeError(f"({n}, {t}): root {r} left its bracket [{lo}, {hi}]")
        roots.append(r)
    return roots


def recurrence(t: int, lam, x):
    prev, cur = mp.mpf(1), 2 * lam * x
    for k in range(2, t + 1):
        prev, cur = cur, (2 * (k + lam - 1) * x * cur - (k + 2 * lam - 2) * prev) / k
    return cur if t else prev


def mp_bound(n: int, t: int, dps: int = DPS):
    """b_{n,t} at dps digits, for n >= 3 and t >= 2."""
    with mp.workdps(dps):
        lam = mp.mpf(n - 2) / 2
        cands = critical_points(n, t) + [mp.mpf(-1), mp.mpf(1)]
        vals = [mp.gegenbauer(t, lam, x) for x in cands]
        k = min(range(len(vals)), key=lambda i: vals[i])
        vmin = vals[k]
        # the minimum again, by the three-term recurrence
        check = recurrence(t, lam, cands[k])
        if abs(check - vmin) > mp.mpf(10) ** (-dps + 15) * abs(vmin):
            raise RuntimeError(f"({n}, {t}): hypergeometric and recurrence values disagree")
        return 1 + mp.gegenbauer(t, lam, 1) / (-vmin)


def cell_record(n: int, t: int) -> dict:
    """b to DPS digits after the decimal point, so integrality is decided
    absolutely even when b has many digits before it."""
    whole_digits = int(mp.log10(mp_bound(n, t))) + 1
    dps = DPS + whole_digits
    with mp.workdps(dps):
        b = mp_bound(n, t, dps)
        nearest = mp.nint(b)
        integer = abs(b - nearest) < mp.mpf(10) ** (-DPS + 15)
        text = str(int(nearest)) if integer else mp.nstr(b, whole_digits + 30, min_fixed=-mp.inf,
                                                         max_fixed=mp.inf)
    return {"n": n, "t": t, "b": text, "integer": bool(integer)}


def main() -> int:
    cells = sorted(set(GRID_CELLS) | set(TABLE_CELLS) | set(FAILING_CELLS))
    records = []
    for n, t in cells:
        records.append(cell_record(n, t))
        print(f"({n}, {t}) {records[-1]['b']}", flush=True)
    body = {
        "about": "b_{n,t} = 1 + C(1)/(-min C), C the degree-t Gegenbauer polynomial with "
                 "parameter (n-2)/2, computed with mpmath; made by make_reference.py",
        "dps": DPS,
        "cells": records,
    }
    (HERE / "bound_reference.json").write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
