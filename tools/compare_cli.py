"""Compare the hidesign command line of two source trees, call by call.

    python tools/compare_cli.py OLD_SRC NEW_SRC

Runs a fixed list of invocations (every subcommand in every --format, with
and without --out, and the error cases of tests/test_cli.py) once per tree,
with that tree's ``src`` directory on PYTHONPATH and a fresh working
directory holding the same input files.  Prints one line per invocation
whose stdout, stderr, written files or exit code differ; exits 1 if any do.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

G4 = "C? C@ CB C` CJ CF Ck CN Cl C| C~".split()  # the 11 graphs on 4 vertices
# 10 vertices: the Petersen graph (a 2-distance set in R^4 at squared ratio 2:
# the sums e_i + e_j in R^5, edges on disjoint pairs), its complement, four
# G(10, 1/2) graphs and the empty graph
G10 = ["IheA@GUAo", "IUX|}vh|G", "ICd\\gRE_w", "Igu~ysX}O", "IC|jXApK?", "IkSUDtCbo", "I????????"]


def _sphere_points(m: int, n: int, seed: int, copies: tuple = ()) -> bytes:
    """m seeded random unit vectors in R^n as a point-set file; each (i, j)
    of copies makes point j a copy of point i."""
    rng, rows = random.Random(seed), []
    for _ in range(m):
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(math.fsum(x * x for x in v))
        rows.append([format(x / norm, ".17g") for x in v])
    for i, j in copies:
        rows[j] = rows[i]
    return json.dumps({"dim": n, "points": rows, "labels": None, "source": f"random {m} on S^{n - 1}"}).encode()


INPUTS = {
    "g4.g6": ("\n".join(G4) + "\n").encode(),
    "g10.g6": ("\n".join(G10) + "\n").encode(),
    "bad.g6": b"C?\n\x01\x02\n",
    "bad_ff.g6": b"C?\n\xff\n",
    "small.g6": b"C~\n@\n",
    "graphs.json": json.dumps([[[0, 1], [1, 0]]]).encode(),
    **{f"entry_{name}.json": json.dumps([[[0, 1], [1, 0]], [[0, v], [v, 0]]]).encode()
       for name, v in (("1.7", 1.7), ("0.5", 0.5), ("str1", "1"), ("true", True))},
    "bad.json": json.dumps({"dim": 2, "points": [["0.5", "0.0"]]}).encode(),
    "nan.json": json.dumps({"dim": 2, "points": [["1", "0"], ["nan", "0"]]}).encode(),
    "s2_500.json": _sphere_points(500, 3, 500),
    "dup_0_499.json": _sphere_points(500, 3, 500, copies=((0, 499),)),
    "huge.json": json.dumps({"dim": 2, "points": [["1e308", "0"], ["0", "1"]]}).encode(),
}
MADE = [("pent.json", "regular-polygon --m 5"), ("x0.json", "x0-plus"), ("ico.json", "icosahedron-half"),
        ("poly300.json", "regular-polygon --m 300"), ("c600.json", "cell600-half"),
        ("cross5.json", "cross-polytope-half --n 5")]
# (file, file of MADE, PointSet method call): flipped and antipodal sets, written by the old tree
DERIVED = [("ico_flipped.json", "ico.json", "with_flipped([0, 3])"),
           ("c600_full.json", "c600.json", "union_with_antipodes()")]

CASES = [  # (argv, extra environment)
    ("table --n 3..4 --t 5", {}),
    ("table --n 3..10 --t 4..20 --even --truncate 2", {}),
    ("table --n 3..5 --t 4..8 --format csv", {}),
    ("table --n 3..4 --t 4..6 --format json", {}),
    ("table --n 3..10 --t 4..20 --even --truncate 2 --out t/table.txt", {}),
    ("table --n 3..5 --t 4..8 --format csv --out table.csv", {}),
    ("table --n 3..4 --t 4..6 --format json --out table.json", {}),
    # c and b to 17 digits over many cells: the kernel minimum, bit for bit
    ("table --n 3..40 --t 40..120 --even --format csv", {}),
    ("table --n 3..40 --t 41..61 --format csv", {}),
    ("construct icosahedron-half", {}),
    ("construct e8-half --out e8.json", {}),
    ("construct cell600-half --out c600.json", {}),
    ("construct two-point-s1 --e 3 --j 1", {}),
    ("construct simplex --n 3 --out sub/simplex.json", {"HIDESIGN_OUTDIR": "outdir"}),
    ("construct lift --base pent.json --n 3 --t 4 --root-index 1", {}),
    ("construct lift --base pent.json --n 3 --t 4 --root-index 2 --out lifted.json", {}),
    ("verify --in x0.json --t 4", {}),
    ("verify --in x0.json --t 4 --format json", {}),
    ("verify --in x0.json --t 4 --out v.txt", {}),
    ("verify --in x0.json --t 4 --format json --out v.json", {}),
    ("verify --in ico.json --t 6", {}),
    ("verify --in ico.json --t 8 --format json", {}),
    ("verify --in pent.json --t 4 --spherical", {}),
    # several Gram blocks on the circle's Chebyshev branch
    ("verify --in poly300.json --t 299 --spherical", {}),
    ("verify --in poly300.json --t 299 --spherical --format json", {}),
    # several Gram blocks at n = 3; the 600-cell half at its top degree; negated points
    ("verify --in s2_500.json --t 6 --spherical", {}),
    ("verify --in c600.json --t 58", {}),
    ("verify --in c600.json --t 58 --format json", {}),
    ("verify --in ico_flipped.json --t 8", {}),
    ("verify --in ico_flipped.json --t 8 --spherical --format json", {}),
    ("verify --in c600_full.json --t 11 --spherical", {}),
    # degrees 1 and 2 from the closed forms, with no Gram walk: a failing set
    # and a passing harmonic-index 2 set
    ("verify --in s2_500.json --t 2 --spherical", {}),
    ("construct cross-polytope-half --n 5", {}),
    ("verify --in cross5.json --t 2", {}),
    ("asymptote --n 7", {}),
    ("asymptote --n 4 --format json", {}),
    ("asymptote --n 9 --out a.txt", {}),
    ("asymptote --n 9 --format json --out a.json", {}),
    # large Bessel orders: j1 at order 49.5 and 159.5
    ("asymptote --n 100", {}),
    ("asymptote --n 100 --format json", {}),
    ("asymptote --n 320", {}),
    ("asymptote --n 320 --format json", {}),
    # the decimal series: limit and limit_corrected keep their 10 digits, j1 and F
    # move only toward 60-digit mpmath
    ("asymptote --n 3", {}),
    ("asymptote --n 5 --format json", {}),
    ("asymptote --n 24", {}),
    ("asymptote --n 24 --format json", {}),
    ("asymptote --n 200", {}),
    ("asymptote --n 200 --format json", {}),
    ("tight --n 23", {}),
    ("tight --n 4", {}),
    ("tight --n 6", {}),
    ("tight --n 7", {}),
    ("tight --n 71 --format json", {}),
    ("tight --n 7 --out tight.txt", {}),
    ("tight --n 8 --format json --out tight.json", {}),
    ("tight --n 5", {}),
    ("tight --n 10", {}),
    ("tight --n 143 --format json", {}),
    ("embed --graphs g4.g6 --b2 2 --n 2", {}),
    ("embed --graphs g4.g6 --b2 (7+√33)/4 --n 7", {}),
    ("embed --graphs g4.g6 --b2 2 --n 3 --out scan.ndjson", {}),
    ("embed --graphs graphs.json --json-adjacency --b2 2 --n 1", {}),
    # 10 vertices: only the Petersen graph passes at n = 4; rank 9 over Q(sqrt(33))
    ("embed --graphs g10.g6 --b2 2 --n 4", {}),
    ("embed --graphs g10.g6 --b2 (7+√33)/4 --n 8 --out scan10.ndjson", {}),
    # error cases of tests/test_cli.py
    ("table --n 10..3 --t 4", {}),
    ("construct lift --base pent.json --n 3 --t 4 --radius 0.5", {}),
    ("verify --in bad.json --t 2", {}),
    ("verify --in nan.json --t 2", {}),
    # the only duplicate pair is the first and last point, in different Gram blocks
    ("verify --in dup_0_499.json --t 2", {}),
    ("asymptote --n 2", {}),
    ("embed --graphs bad.g6 --b2 2 --n 3", {}),
    ("embed --graphs bad_ff.g6 --b2 2 --n 3 --out records.ndjson", {}),
    ("embed --graphs g4.g6 --b2 x --n 3", {}),
    ("table", {}),
    # further invalid input
    ("table --n 3 --t x", {}),
    ("construct dodecahedron", {}),
    ("construct regular-polygon --e 3", {}),
    ("construct regular-polygon", {}),
    ("construct lift --n 3 --t 4", {}),
    ("construct lift --base pent.json --t 4", {}),
    ("construct lift --base pent.json --n 4 --t 4", {}),
    ("construct lift --base pent.json --n 3 --t 4 --root-index 9", {}),
    ("verify --in missing.json --t 4", {}),
    ("verify --in x0.json --t 0", {}),
    ("tight --n 1", {}),
    ("embed --graphs missing.g6 --b2 2 --n 3", {}),
    ("embed --graphs g4.g6 --b2 1/2 --n 3", {}),
    ("embed --graphs bad.json --json-adjacency --b2 2 --n 3", {}),
    ("verify --in x0.json --t 4 --format csv", {}),
    ("embed --graphs g4.g6 --b2 2 --n 3 --format json", {}),
    # defects this comparison is expected to show as fixed
    ("table --n 3..4 --t 4 --truncate -3", {}),
    ("embed --graphs small.g6 --b2 2 --n 3", {}),
    ("table --n 3..5 --t 4..6 --truncate 0", {}),
    ("asymptote --n 321 --format json", {}),
    ("asymptote --n 400", {}),
    ("table --n 400 --t 1001", {}),
    # (n-1)/2 = 2^51, the first Bessel order the scipy path refused; now refused as
    # every n >= 345 is, from Gamma((n-1)/2) alone
    ("asymptote --n 4503599627370497", {}),
    # the last n whose limit is found infinite from the series, the first refused
    # before it, and n = 2^32, where the scipy path scanned for 0.3 s before the raise
    ("asymptote --n 344", {}),
    ("asymptote --n 345", {}),
    ("asymptote --n 4294967296", {}),
    # a NaN radius passed the root check and failed on a NaN norm
    ("construct lift --base pent.json --n 3 --t 4 --radius nan", {}),
    # a base whose "source" is null was read as the string 'None'
    ("construct lift --base pent_null_source.json --n 3 --t 4", {}),
    # np.linalg.norm printed an overflow warning before the error line
    ("verify --in huge.json --t 2", {}),
    # n just above 2^32 with n + 4 prime: the exact path now refuses it at once
    ("tight --n 4294967353", {}),
    # n = 2^60: the 4 EiB root grid ended in a numpy traceback, exit 1
    ("table --n 1152921504606846976 --t 7", {}),
    # n = 2^70 was already one error line
    ("table --n 1180591620717411303424 --t 7", {}),
    # the irrational alpha at the largest n below 2^32 with n + 4 prime
    ("tight --n 4294967287", {}),
    # n or t beyond float64 ended in an OverflowError traceback, exit 1
    (f"table --n {10**400} --t 4", {}),
    (f"table --n 3 --t {10**400}", {}),
    (f"table --n 2 --t {10**400}", {}),
    (f"table --n {10**400} --t 1", {}),
    (f"asymptote --n {10**400}", {}),
    # the circle's Chebyshev weights: numpy's allocation texts named neither n nor t
    (f"verify --in pent.json --t {2**62}", {}),
    (f"verify --in pent.json --t {10**400}", {}),
    # --spherical listed every degree before checking the top one: an empty
    # MemoryError line at t = 2^62, an OverflowError traceback at t = 10^400
    (f"verify --in pent.json --t {2**62} --spherical", {}),
    (f"verify --in pent.json --t {10**400} --spherical", {}),
    # the kernel's four candidate values overflowed float64 in a numpy pass, which
    # printed three RuntimeWarnings before the error line; Python floats print none
    ("table --n 100000 --t 100", {}),
    ("table --n 1000 --t 400", {}),
    # adjacency entries were cast by int(): 1.7 and "1" made an edge and 0.5 a
    # non-edge without an error; true stays an edge
    ("embed --graphs entry_1.7.json --json-adjacency --b2 2 --n 1", {}),
    ("embed --graphs entry_0.5.json --json-adjacency --b2 2 --n 1", {}),
    ("embed --graphs entry_str1.json --json-adjacency --b2 2 --n 1", {}),
    ("embed --graphs entry_true.json --json-adjacency --b2 2 --n 1", {}),
]


def _run(src: Path, inputs: Path, argv: str, env_extra: dict) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "w"
        shutil.copytree(inputs, work)
        env = {k: v for k, v in os.environ.items() if k != "HIDESIGN_OUTDIR"}
        env.update(env_extra, PYTHONPATH=str(src.resolve()))
        proc = subprocess.run([sys.executable, "-m", "hidesign", *argv.split()], cwd=work,
                              env=env, capture_output=True)
        written = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*"))
                   if p.is_file() and not (inputs / p.relative_to(work)).exists()}
        return proc.returncode, proc.stdout, proc.stderr, written


def main() -> int:
    old, new = Path(sys.argv[1]), Path(sys.argv[2])
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        for name, data in INPUTS.items():
            (inputs / name).write_bytes(data)
        for name, kind in MADE:
            subprocess.run([sys.executable, "-m", "hidesign", "construct", *kind.split(),
                            "--out", str(inputs / name)], check=True,
                           env=dict(os.environ, PYTHONPATH=str(old.resolve())))
        pent = json.loads((inputs / "pent.json").read_text())
        (inputs / "pent_null_source.json").write_text(json.dumps({**pent, "source": None}))
        for name, made, call in DERIVED:
            code = (f"from hidesign.designs import PointSet; "
                    f"PointSet.load({str(inputs / made)!r}).{call}.save({str(inputs / name)!r})")
            subprocess.run([sys.executable, "-c", code], check=True,
                           env=dict(os.environ, PYTHONPATH=str(old.resolve())))
        differ = 0
        for argv, env_extra in CASES:
            a, b = _run(old, inputs, argv, env_extra), _run(new, inputs, argv, env_extra)
            if a != b:
                differ += 1
                parts = [name for name, x, y in zip(("exit", "stdout", "stderr", "files"), a, b)
                         if x != y]
                print(f"DIFFERS ({', '.join(parts)}): hidesign {argv}")
                for name, x, y in zip(("exit", "stdout", "stderr", "files"), a, b):
                    if x != y:
                        print(f"    old {name}: {x!r:.300}\n    new {name}: {y!r:.300}")
        print(f"{len(CASES)} invocations, {len(CASES) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
