"""Command-line interface: subcommands, exit codes, file formats."""

import hashlib
import json
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

from hidesign.cli import main
from hidesign.designs import PointSet, generate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_single_cell(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "5", "--t", "4")
        assert code == 0
        assert "7" in out.split()

    def test_reference_grid(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3..10", "--t", "4..20", "--even",
                           "--truncate", "2")
        assert code == 0
        assert "3.33.." in out and "43.97.." in out and "27.004.." in out

    def test_odd_degree_note(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3..4", "--t", "5")
        assert code == 0
        assert "note:" in out and "antipodal" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "5", "--t", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,t,c,b,b_printed,integral"

    def test_negative_truncate_exits_2(self, capsys):
        code, out, err = run(capsys, "table", "--n", "3..4", "--t", "4", "--truncate", "-3")
        assert code == 2 and out == ""
        assert err == "error: decimals must be >= 0, got -3\n"

    def test_zero_truncate_keeps_integer_parts(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "3..5", "--t", "4", "--truncate", "0")
        assert code == 0
        assert out.splitlines()[1].split() == ["4", "3..", "5", "7"]

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, "table", "--n", "10..3", "--t", "4")
        assert code == 2
        assert "error" in err

    def test_overflowing_kernel_exits_2(self, capsys):
        # the recurrence for Q_{402,1000} overflows float64, so q_roots raises RuntimeError
        code, out, err = run(capsys, "table", "--n", "400", "--t", "1001")
        assert code == 2 and out == ""
        assert err.startswith("error: could not isolate the 1000 roots of Q_{402,1000}")
        assert "overflowed float64" in err

    def test_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "table", "--n", "3..4", "--t", "4..8", "--format", "json")
        code2, out2, _ = run(capsys, "table", "--n", "3..4", "--t", "4..8", "--format", "json")
        assert code1 == code2 == 0 and out1 == out2

    def test_unallocatable_root_grid_is_one_error_line(self, capsys):
        # n = 2^60: a 4 EiB grid, beyond every address space, so numpy fails at
        # once; the line names the kernel q_min solves, Q_{n+2,t-1}, and the grid size
        code, out, err = run(capsys, "table", "--n", str(2**60), "--t", "7")
        assert (code, out) == (2, "")
        assert err == f"error: cannot allocate the {2**60 + 1}-point root grid of Q_{{{2**60 + 2},6}}\n"


class TestBeyondFloat64:
    """n or t too large for float64 ends in one error line naming them, exit 2;
    no case here allocates: each fails in a size check before numpy allocates."""

    @pytest.mark.parametrize("argv,named", [
        (["table", "--n", str(10**400), "--t", "4"], f"n={10**400}, t=4"),
        (["table", "--n", "3", "--t", str(10**400)], f"n=3, t={10**400}"),
        (["table", "--n", "2", "--t", str(10**400)], f"n=2, t={10**400}"),
        (["table", "--n", str(10**400), "--t", "1"], f"n={10**400}, t=1"),
        (["asymptote", "--n", str(10**400)], f"n={10**400}"),
    ])
    def test_table_and_asymptote(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and err.rstrip().endswith(named)

    @pytest.mark.parametrize("t", [2**62, 10**400])
    def test_verify_on_the_circle(self, tmp_path, capsys, t):
        pent = tmp_path / "pent.json"
        generate("regular-polygon", m=5).save(pent)
        code, out, err = run(capsys, "verify", "--in", str(pent), "--t", str(t))
        assert (code, out) == (2, "")
        assert err == f"error: cannot allocate the {t // 2 + 1} Chebyshev weights of Q_{{2,{t}}}\n"

    @pytest.mark.parametrize("t", [2**62, 10**400])
    def test_verify_spherical_on_the_circle(self, tmp_path, capsys, t):
        # the top degree is checked before degrees 1..t are listed: that list
        # once raised an empty MemoryError, or OverflowError with a traceback
        pent = tmp_path / "pent.json"
        generate("regular-polygon", m=5).save(pent)
        code, out, err = run(capsys, "verify", "--in", str(pent), "--t", str(t), "--spherical")
        assert (code, out) == (2, "")
        assert err == f"error: cannot allocate the {t // 2 + 1} Chebyshev weights of Q_{{2,{t}}}\n"


class TestConstructAndVerify:
    def test_icosahedron_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "icosa.json"
        code, _, _ = run(capsys, "construct", "icosahedron-half", "--out", str(out_file))
        assert code == 0
        ps = PointSet.load(out_file)
        assert len(ps) == 6 and ps.dim == 3

    def test_cell600(self, tmp_path, capsys):
        out_file = tmp_path / "c600.json"
        assert run(capsys, "construct", "cell600-half", "--out", str(out_file))[0] == 0
        assert len(PointSet.load(out_file)) == 60

    def test_construct_deterministic(self, capsys):
        _, out1, _ = run(capsys, "construct", "e8-half")
        _, out2, _ = run(capsys, "construct", "e8-half")
        assert out1 == out2

    def test_lift_pentagon_matches_x0_plus(self, tmp_path, capsys):
        base = tmp_path / "pentagon.json"
        run(capsys, "construct", "regular-polygon", "--m", "5", "--out", str(base))
        lifted_file = tmp_path / "lifted.json"
        code, _, _ = run(capsys, "construct", "lift", "--base", str(base), "--n", "3",
                         "--t", "4", "--root-index", "1", "--out", str(lifted_file))
        assert code == 0
        lifted = PointSet.load(lifted_file)
        x0 = generate("x0_plus")

        def products(ps):
            g = ps.gram()
            return np.sort(g[np.triu_indices(len(ps), k=1)])

        np.testing.assert_allclose(products(lifted), products(x0), atol=1e-12)

    def test_lift_non_root_radius_exits_2(self, tmp_path, capsys):
        base = tmp_path / "pentagon.json"
        run(capsys, "construct", "regular-polygon", "--m", "5", "--out", str(base))
        code, _, err = run(capsys, "construct", "lift", "--base", str(base), "--n", "3",
                           "--t", "4", "--radius", "0.5")
        assert code == 2 and "not a root" in err

    def test_lift_nan_radius_exits_2(self, tmp_path, capsys):
        # NaN passed the root check and ended in "point 0 has norm nan"
        base = tmp_path / "pentagon.json"
        run(capsys, "construct", "regular-polygon", "--m", "5", "--out", str(base))
        code, out, err = run(capsys, "construct", "lift", "--base", str(base), "--n", "3",
                             "--t", "4", "--radius", "nan")
        assert (code, out, err) == (2, "", "error: radius must lie in [-1, 1], got nan\n")

    def test_verify_pass_and_fail_exit_codes(self, tmp_path, capsys):
        x0_file = tmp_path / "x0.json"
        generate("x0_plus").save(x0_file)
        assert run(capsys, "verify", "--in", str(x0_file), "--t", "4")[0] == 0
        ico_file = tmp_path / "icosa.json"
        generate("icosahedron_half").save(ico_file)
        assert run(capsys, "verify", "--in", str(ico_file), "--t", "8")[0] == 0
        code, out, _ = run(capsys, "verify", "--in", str(ico_file), "--t", "6")
        assert code == 1 and "FAIL" in out

    def test_verify_invalid_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "points": [["0.5", "0.0"]]}))
        code, _, err = run(capsys, "verify", "--in", str(bad), "--t", "2")
        assert code == 2 and "norm" in err

    def test_verify_nan_coordinate_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps({"dim": 2, "points": [["1", "0"], ["nan", "0"]]}))
        code, out, err = run(capsys, "verify", "--in", str(bad), "--t", "2")
        assert code == 2 and "point 1 has norm nan" in err
        assert out == ""

    @pytest.mark.parametrize("field, value", [("dim", 2.9), ("dim", [2]), ("dim", None), ("dim", True),
                                              ("labels", 5), ("labels", "ab"), ("labels", [1, [2]])])
    def test_verify_malformed_field_exits_2(self, tmp_path, capsys, field, value):
        body = {"dim": 2, "points": [["1", "0"], ["0", "1"]], "labels": None, field: value}
        bad = tmp_path / "field.json"
        bad.write_text(json.dumps(body))
        code, out, err = run(capsys, "verify", "--in", str(bad), "--t", "2")
        assert code == 2 and f'error: "{field}" must be' in err and "Traceback" not in err
        assert out == ""

    def test_verify_spherical(self, tmp_path, capsys):
        f = tmp_path / "pent.json"
        generate("regular_polygon", m=5).save(f)
        code, out, _ = run(capsys, "verify", "--in", str(f), "--t", "4", "--spherical")
        assert code == 0
        assert out.count("degree") == 4

    def test_verify_json_format(self, tmp_path, capsys):
        f = tmp_path / "x0.json"
        generate("x0_plus").save(f)
        code, out, _ = run(capsys, "verify", "--in", str(f), "--t", "4", "--format", "json")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HIDESIGN_OUTDIR", str(tmp_path))
        code, _, _ = run(capsys, "construct", "simplex", "--n", "3", "--out", "sub/simplex.json")
        assert code == 0
        assert (tmp_path / "sub" / "simplex.json").exists()


class TestAsymptote:
    def test_reference_lines(self, capsys):
        # the leading line is "<limit to 10 digits> (<n(n+1)/2>)"; the
        # reference values are themselves only accurate to ~1e-9, so the
        # comparison is numeric rather than textual
        for n, expect, cap in ((7, 35.11842602, 28), (3, 3.482871935, 6), (9, 204.5294426, 45)):
            code, out, _ = run(capsys, "asymptote", "--n", str(n))
            assert code == 0
            first = out.splitlines()[0]
            value, bracket = first.split(" ")
            assert float(value) == pytest.approx(expect, rel=1e-6)
            assert bracket == f"({cap})"

    def test_json(self, capsys):
        import math

        code, out, _ = run(capsys, "asymptote", "--n", "4", "--format", "json")
        body = json.loads(out)
        assert code == 0
        assert body["limit"] == pytest.approx(5.079602836, rel=1e-9)
        expect_corr = 1 - 1 / (math.gamma(1.5) * body["F"])
        assert body["limit_corrected"] == pytest.approx(expect_corr, rel=1e-12)
        assert body["limit_corrected"] == pytest.approx(5.6033388, rel=1e-6)

    def test_too_small_n(self, capsys):
        assert run(capsys, "asymptote", "--n", "2")[0] == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n", [321, 400])
    def test_overflow_exits_2(self, capsys, n, fmt):
        code, out, err = run(capsys, "asymptote", "--n", str(n), "--format", fmt)
        assert code == 2 and out == ""
        assert err == f"error: asymptote at n = {n}: limit is inf, not finite in float64\n"

    def test_n320_still_reports(self, capsys):
        code, out, _ = run(capsys, "asymptote", "--n", "320", "--format", "json")
        assert code == 0 and 1e307 < json.loads(out)["limit"] < float("inf")


class TestTight:
    def test_n23(self, capsys):
        code, out, _ = run(capsys, "tight", "--n", "23")
        assert code == 0
        assert "p = 3" in out and "at most 57 of them" in out and "status: excluded" in out

    def test_n4(self, capsys):
        code, out, _ = run(capsys, "tight", "--n", "4")
        assert code == 0 and "status: excluded" in out

    @pytest.mark.parametrize("n, line", [
        (7, "bound b = 12 = 12 (integer)"),  # the float is 12.000000000000002
        (6, "bound b = 28/3 = 9.33333333333333 (not an integer)"),
        (23, "bound b = 100 = 100 (integer)"),
    ])
    def test_bound_float_keeps_15_digits(self, capsys, n, line):
        code, out, _ = run(capsys, "tight", "--n", str(n))
        assert code == 0 and out.splitlines()[1] == line

    def test_json(self, capsys):
        code, out, _ = run(capsys, "tight", "--n", "71", "--format", "json")
        body = json.loads(out)
        assert code == 0 and body["status"] == "excluded" and body["p"] == 5
        assert body["delsarte_bound"] == "415"


class TestEmbed:
    @pytest.fixture()
    def g6_file(self, tmp_path):
        lines = []
        for g in nx.graph_atlas_g():
            if g.number_of_nodes() == 4:
                lines.append(nx.to_graph6_bytes(g, header=False).decode().strip())
        path = tmp_path / "g4.g6"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_scan_plane(self, g6_file, capsys):
        code, out, err = run(capsys, "embed", "--graphs", str(g6_file), "--b2", "2", "--n", "2")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert len(records) == 11
        matching = [r for r in records if r["rank"] == 2 and r["feasible"]]
        assert matching  # the perfect matching realizes the unit square
        assert "scanned 11 graphs" in err

    def test_surd_ratio(self, g6_file, capsys):
        code, out, _ = run(capsys, "embed", "--graphs", str(g6_file), "--b2",
                           "(7+√33)/4", "--n", "7")
        assert code == 0
        assert all(json.loads(line)["feasible"] for line in out.strip().splitlines())

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("C?\n\x01\x02\n")
        code, out, err = run(capsys, "embed", "--graphs", str(path), "--b2", "2", "--n", "3")
        assert code == 2 and "line 2" in err
        # the record scanned before the bad line was already written
        assert [json.loads(line)["index"] for line in out.splitlines()] == [0]

    def test_malformed_line_keeps_written_records_in_out_file(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_bytes(b"C?\n\xff\n")
        out_file = tmp_path / "records.ndjson"
        code, _, err = run(capsys, "embed", "--graphs", str(path), "--b2", "2", "--n", "3",
                           "--out", str(out_file))
        assert code == 2 and "line 2" in err
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert [(r["index"], r["vertices"]) for r in records] == [(0, 4)]

    def test_graph_below_two_vertices_named(self, tmp_path, capsys):
        path = tmp_path / "small.g6"
        path.write_text("C~\n@\n")
        code, out, err = run(capsys, "embed", "--graphs", str(path), "--b2", "2", "--n", "3")
        assert code == 2
        assert err == "error: graph #1: a 2-distance graph needs at least 2 vertices, got 1\n"
        assert [json.loads(line)["index"] for line in out.splitlines()] == [0]

    def test_bad_b2_exits_2(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("C?\n")
        assert run(capsys, "embed", "--graphs", str(path), "--b2", "x", "--n", "3")[0] == 2

    def test_json_adjacency(self, tmp_path, capsys):
        path = tmp_path / "graphs.json"
        path.write_text(json.dumps([[[0, 1], [1, 0]]]))
        code, out, _ = run(capsys, "embed", "--graphs", str(path), "--json-adjacency",
                           "--b2", "2", "--n", "1")
        assert code == 0
        assert json.loads(out.strip())["rank"] == 1

    @pytest.mark.parametrize("entry", ["1.7", "0.5", '"1"'])
    def test_json_adjacency_non_integer_entry_exits_2(self, tmp_path, capsys, entry):
        # 1.7 and "1" were cast to an edge, 0.5 to a non-edge, without a word
        path = tmp_path / "graphs.json"
        path.write_text(f"[[[0,1],[1,0]], [[0,{entry}],[{entry},0]]]")
        code, out, err = run(capsys, "embed", "--graphs", str(path), "--json-adjacency",
                             "--b2", "2", "--n", "1")
        assert code == 2 and err == "error: graph #1: adjacency entries must be 0 or 1\n"
        assert [json.loads(line)["index"] for line in out.splitlines()] == [0]

    def test_json_adjacency_booleans_are_edges(self, tmp_path, capsys):
        path = tmp_path / "graphs.json"
        path.write_text("[[[false,true],[true,false]]]")
        code, out, _ = run(capsys, "embed", "--graphs", str(path), "--json-adjacency",
                           "--b2", "2", "--n", "1")
        assert code == 0 and json.loads(out)["rank"] == 1


class TestOutputPins:
    """SHA-256 of the dossier for n = 2..400 as `hidesign tight` prints it, in
    text and in JSON.  A change to the exact arithmetic keeps it byte for byte."""

    @pytest.mark.parametrize("fmt, digest", [
        ("text", "77481945e5aab16f8dde7a03e7fb93a66b7e7d126f1fa6d08ae94667555d405e"),
        ("json", "9a9a518f3d40b852564ccc71aaab2cf081b4fa540ab93ac05c6b4f9845d441af"),
    ], ids=["text", "json"])
    def test_dossier_n_2_to_400(self, capsys, fmt, digest):
        out = []
        for n in range(2, 401):
            code, text, err = run(capsys, "tight", "--n", str(n), "--format", fmt)
            assert (code, err) == (0, "")
            out.append(text)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


class TestParser:
    def test_construct_tol_default_is_the_root_tolerance(self):
        from hidesign.cli import build_parser
        from hidesign.orthopoly import ROOT_RESIDUAL_TOL

        args = build_parser().parse_args(["construct", "simplex"])
        assert args.tol == ROOT_RESIDUAL_TOL

    def test_generator_parameter_error_exits_2(self, capsys):
        code, out, err = run(capsys, "construct", "regular-polygon", "--e", "3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "'e'" in err


class TestSubprocess:
    def test_cli_import_loads_neither_networkx_nor_scipy_special(self):
        # nor any other scipy module: the runtime needs only numpy
        code = ("import sys, hidesign.cli; print(sorted(m for m in sys.modules "
                "if m == 'networkx' or m == 'scipy' or m.startswith(('networkx.', 'scipy.'))))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes any import of scipy raise ImportError
        pent, g4 = str(tmp_path / "pent.json"), tmp_path / "g4.g6"
        g4.write_text("C?\nC~\nCF\n")
        calls = [(["table", "--n", "3..5", "--t", "4..6"], 0),
                 (["construct", "regular-polygon", "--m", "5", "--out", pent], 0),
                 (["construct", "lift", "--base", pent, "--n", "3", "--t", "4"], 0),
                 (["construct", "lift", "--base", pent, "--n", "3", "--t", "4", "--radius", "nan"], 2),
                 (["verify", "--in", pent, "--t", "4", "--spherical"], 0),
                 (["verify", "--in", pent, "--t", "5", "--spherical"], 1),
                 (["tight", "--n", "23"], 0),
                 (["embed", "--graphs", str(g4), "--b2", "2", "--n", "3"], 0),
                 (["asymptote", "--n", "321"], 2),
                 (["asymptote", "--n", "400", "--format", "json"], 2)]
        calls += [(["asymptote", "--n", str(n), *fmt], 0) for n in range(3, 11) for fmt in ([], ["--format", "json"])]
        code = ("import sys; sys.modules['scipy'] = None; import hidesign.cli as c; "
                f"codes = [c.main(argv) for argv, _ in {calls!r}]; "
                "print(codes, sorted(m for m in sys.modules if m.startswith('scipy.')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[want for _, want in calls]} []"

    def test_exact_subcommands_run_with_numpy_blocked(self, tmp_path):
        # tight, asymptote and embed use no float array, so they load no numpy: with
        # sys.modules['numpy'] = None before import hidesign, any import of it would raise
        g6 = tmp_path / "g.g6"
        g6.write_text("\n".join(["C?", "C~", "CF", "CJ", "IheA@GUAo", "I????????"]) + "\n")
        bad = tmp_path / "bad.g6"
        bad.write_text("C?\nC>\n")
        calls = [["tight", "--n", "23"], ["tight", "--n", "23", "--format", "json"], ["tight", "--n", "7"],
                 ["asymptote", "--n", "7"], ["asymptote", "--n", "8", "--format", "json"],
                 ["embed", "--graphs", str(g6), "--b2", "2", "--n", "3"],
                 ["embed", "--graphs", str(g6), "--b2", "(7+√33)/4", "--n", "7"],
                 ["embed", "--graphs", str(bad), "--b2", "2", "--n", "3"]]
        blocked = ("import runpy, sys; sys.modules['numpy'] = None; import hidesign; "
                   "sys.argv[1:] = sys.argv[2:]; runpy.run_module('hidesign', run_name='__main__')")
        for argv in calls:
            free = subprocess.run([sys.executable, "-c", blocked, "--", *argv], capture_output=True, text=True)
            plain = subprocess.run([sys.executable, "-m", "hidesign", *argv], capture_output=True, text=True)
            assert (free.returncode, free.stdout, free.stderr) == (plain.returncode, plain.stdout, plain.stderr), argv
            assert free.returncode == (2 if argv[2] == str(bad) else 0) and free.stdout, argv

    def test_construct_and_verify_load_no_numpy_random(self, tmp_path):
        # PointSet's probe vector once came from numpy.random, 12 ms of import
        out = tmp_path / "e8.json"
        code = ("import sys, hidesign.cli as c; "
                f"c.main(['construct', 'e8-half', '--out', {str(out)!r}]); "
                f"c.main(['verify', '--in', {str(out)!r}, '--t', '7', '--spherical']); "
                "print('numpy.random' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hidesign", "table", "--n", "3", "--t", "4"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "3.333333333" in proc.stdout

    def test_overflowing_kernel_prints_only_the_error_line(self):
        # q_roots reports the overflow itself, so numpy's RuntimeWarnings stay silent
        proc = subprocess.run(
            [sys.executable, "-m", "hidesign", "table", "--n", "400", "--t", "1001"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: could not isolate the 1000 roots of Q_{402,1000} on 2403 grid "
                               "points: the recurrence overflowed float64\n")

    @pytest.mark.parametrize("body, message", [
        ({"dim": 2, "points": [["1e308", "0"], ["0", "1"]]}, "point 0 has norm inf, not 1 within 1e-12"),
        ({"dim": 2, "points": [["1", "0"], ["0", "1"]], "source": None}, '"source" must be a string, got None'),
    ], ids=["overflowing-norm", "null-source"])
    def test_bad_point_set_prints_only_the_error_line(self, tmp_path, body, message):
        # numpy's overflow warning once came before the error line
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(body))
        proc = subprocess.run([sys.executable, "-m", "hidesign", "verify", "--in", str(bad), "--t", "2"],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")

    def test_tight_beyond_the_exact_limit_exits_2_at_once(self):
        # n + 4 prime: the trial division of 3(n+4) once ran for every QuadExt
        # operation of the dossier; the second n did not finish in 30 s
        for n in (4294967353, 10000000000000057):
            proc = subprocess.run([sys.executable, "-m", "hidesign", "tight", "--n", str(n)],
                                  capture_output=True, text=True, timeout=30)
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr == f"error: the exact tightness path takes n < 2^32, got n={n}\n"

    def test_large_radicand_exits_2_at_once(self, tmp_path):
        # 2^61 - 1 is prime: the trial division of it did not finish in 5 minutes
        path = tmp_path / "small.g6"
        path.write_text("C~\n@\n")
        proc = subprocess.run([sys.executable, "-m", "hidesign", "embed", "--graphs", str(path),
                               "--b2", "(1+√2305843009213693951)/2", "--n", "7"],
                              capture_output=True, text=True, timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: --b2: radicand 2305843009213693951 is not below 2^40, "
                               "the limit of trial division\n")

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hidesign", "table"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
