"""Command-line front end.

Subcommands: ``table`` (bound grids), ``construct`` (point-set generators and
the lift), ``verify`` (kernel certificates), ``asymptote`` (large-degree
limits), ``tight`` (feasibility dossiers), ``embed`` (2-distance graph
scans).  Exit codes: 0 success or verification pass, 1 verification failure,
2 invalid input.  Relative ``--out`` paths are resolved against the
``HIDESIGN_OUTDIR`` environment variable when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import ContextManager, TextIO

# modules, not names: each runs on first use, so numpy loads only for the float work
from . import bounds, designs, exactnum, orthopoly, tightness

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BADINPUT = 2

OUTDIR_ENV = "HIDESIGN_OUTDIR"

# --format choices per subcommand, the default first; every subcommand takes --out
FORMATS = {"table": ["text", "csv", "json"], "verify": ["text", "json"],
           "asymptote": ["text", "json"], "tight": ["text", "json"]}


def _parse_range(text: str) -> list[int]:
    """Parse "5" or "3..10" (inclusive)."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _sink(args) -> ContextManager[TextIO]:
    """Standard output, or the ``--out`` file (parent directories created),
    a relative path taken under ``$HIDESIGN_OUTDIR`` when that is set."""
    if args.out is None:
        return nullcontext(sys.stdout)
    out = Path(args.out)
    base = os.environ.get(OUTDIR_ENV)
    if base and not out.is_absolute():
        out = Path(base) / out
    out.parent.mkdir(parents=True, exist_ok=True)
    return open(out, "w", encoding="utf-8")


def _emit(args, text: str) -> None:
    with _sink(args) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _report(args, result, lines: list[str]) -> None:
    """Emit ``result.as_dict()`` as JSON or the text ``lines``, per ``--format``."""
    _emit(args, json.dumps(result.as_dict(), indent=2) if args.format == "json" else "\n".join(lines))


# -- table -------------------------------------------------------------------


def cmd_table(args) -> int:
    n_values = _parse_range(args.n)
    t_values = _parse_range(args.t)
    if args.even:
        t_values = [t for t in t_values if t % 2 == 0]
    reports = bounds.bound_table(n_values, t_values)
    render = {"csv": bounds.table_csv, "json": bounds.table_json,
              "text": lambda r: bounds.table_text(r, truncate=args.truncate)}[args.format]
    _emit(args, render(reports))
    return EXIT_OK


# -- construct ----------------------------------------------------------------


def cmd_construct(args) -> int:
    if args.kind == "lift":
        if args.base is None:
            raise ValueError("lift requires --base FILE")
        base = designs.PointSet.load(args.base)
        n, t = args.n, args.t
        if n is None or t is None:
            raise ValueError("lift requires --n and --t")
        if n != base.dim + 1:
            raise ValueError(f"lift target dimension {n} does not match base dimension {base.dim} + 1")
        if args.radius is not None:
            r = args.radius
        else:
            positive = [x for x in orthopoly.q_roots(orthopoly.KernelSpec(n, t)) if x > 0]
            positive.sort(reverse=True)  # index 1 is the largest positive root
            idx = args.root_index
            if idx < 1 or idx > len(positive):
                raise ValueError(f"root index {idx} out of range 1..{len(positive)}")
            r = float(positive[idx - 1])
        ps = designs.lift_design(base, t, r, root_tol=args.tol)
    else:
        params = {k: getattr(args, k) for k in ("m", "e", "j", "n") if getattr(args, k) is not None}
        try:
            ps = designs.generate(args.kind, **params)
        except TypeError as exc:  # a parameter the generator does not take, or lacks
            raise ValueError(str(exc)) from exc
    _emit(args, ps.to_json())
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def cmd_verify(args) -> int:
    ps = designs.PointSet.load(args.infile)
    if args.spherical:
        cert = designs.verify_spherical_design(ps, args.t, tol=args.tol)
    else:
        cert = designs.verify_harmonic_index(ps, args.t, tol=args.tol)
    lines = [f"points: {len(ps)}  dim: {ps.dim}  tolerance: {cert.tol:g}"]
    for deg, raw, res, ok in zip(cert.degrees, cert.raw_sums, cert.residuals, cert.passes):
        lines.append(
            f"degree {deg}: kernel sum {format(raw, '.17g')}  "
            f"relative residual {res:.3e}  {'pass' if ok else 'FAIL'}"
        )
    lines.append("verdict: " + ("pass" if cert.passed else "FAIL"))
    _report(args, cert, lines)
    return EXIT_OK if cert.passed else EXIT_FAIL


# -- asymptote ----------------------------------------------------------------


def cmd_asymptote(args) -> int:
    report = bounds.asymptotic_bound(args.n)
    _report(args, report, [
        f"{report.limit:.10g} ({args.n * (args.n + 1) // 2})",
        f"first Bessel zero j_{{{(args.n - 1) / 2:g},1}} = {format(report.j1, '.17g')}",
        f"F_n at the zero = {format(report.Fvalue, '.17g')}",
        f"limit of b_{{n,t}} with the Gamma((n-1)/2) factor restored = {report.limit_corrected:.10g}",
    ])
    return EXIT_OK


# -- tight --------------------------------------------------------------------


def cmd_tight(args) -> int:
    dossier = tightness.tightness_dossier(args.n)
    lines = [
        f"n = {dossier.n}, t = {dossier.t}",
        f"bound b = {dossier.b_exact} = {format(dossier.b, '.15g')} "
        f"({'integer' if dossier.integral else 'not an integer'})",
        f"tight inner products: +-{dossier.alpha}",
        f"squared distance ratio: {dossier.two_distance_ratio_sq}",
    ]
    if dossier.min_lines is not None:
        lines.append(
            f"equiangular lines: needs >= {dossier.min_lines}, absolute bound {dossier.absolute_bound}"
        )
    if dossier.lrs_k is not None:
        lines.append(f"LRS parameter k = {dossier.lrs_k}, p = {dossier.p}")
    for v in dossier.verdicts:
        lines.append(f"[{v.status:>12}] {v.criterion}: {v.note}")
    lines.append(f"status: {dossier.status}")
    _report(args, dossier, lines)
    return EXIT_OK


# -- embed --------------------------------------------------------------------


def cmd_embed(args) -> int:
    try:
        b2 = exactnum.QuadExt.parse(args.b2)
    except ValueError as exc:
        raise ValueError(f"--b2: {exc}") from exc
    if args.json_adjacency:
        graphs = tightness.read_adjacency_json(Path(args.graphs).read_text(encoding="utf-8"))
    else:
        graphs = tightness.read_graph6(args.graphs)
    scanned = feasible = 0
    with _sink(args) as fh:
        for rec in tightness.scan_graph_corpus(graphs, b2, args.n):
            fh.write(json.dumps(rec.as_dict()) + "\n")
            scanned += 1
            feasible += rec.feasible
    print(f"scanned {scanned} graphs, {feasible} feasible", file=sys.stderr)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hidesign",
        description="Harmonic-index spherical designs: bounds, constructions, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="Fisher-type bound grid b_{n,t}")
    p.add_argument("--n", required=True, help='dimension or range, e.g. "5" or "3..10"')
    p.add_argument("--t", required=True, help='degree or range, e.g. "4" or "4..20"')
    p.add_argument("--even", action="store_true", help="keep only even degrees")
    p.add_argument("--truncate", type=int, default=None, metavar="D",
                   help="truncated display with D decimals and '..' suffix")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("construct", help="write a point-set JSON file")
    p.add_argument("kind", help="generator name (see docs) or 'lift'")
    p.add_argument("--m", type=int, default=None, help="polygon vertex count")
    p.add_argument("--e", type=int, default=None, help="half-degree for the two-point set")
    p.add_argument("--j", type=int, default=None, help="odd angle multiplier for the two-point set")
    p.add_argument("--n", type=int, default=None, help="ambient dimension")
    p.add_argument("--t", type=int, default=None, help="design degree (lift)")
    p.add_argument("--base", default=None, help="base design file (lift)")
    p.add_argument("--root-index", type=int, default=1, dest="root_index",
                   help="1-based index into the positive kernel roots, largest first")
    p.add_argument("--radius", type=float, default=None,
                   help="explicit lift radius; must be a kernel root")
    p.add_argument("--tol", type=float, default=orthopoly.ROOT_RESIDUAL_TOL,
                   help="root-residual tolerance for the lift radius")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="kernel-criterion certificate for a point-set file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tol", type=float, default=orthopoly.DEFAULT_VERIFY_TOL)
    p.add_argument("--spherical", action="store_true",
                   help="check every degree 1..t (full spherical design)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymptote", help="large-degree limit of b_{n,t}")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_asymptote)

    p = sub.add_parser("tight", help="feasibility dossier for minimum-size degree-4 designs")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_tight)

    p = sub.add_parser("embed", help="rank-test scan of a 2-distance graph corpus")
    p.add_argument("--graphs", required=True, help="graph6 file (one graph per line)")
    p.add_argument("--json-adjacency", action="store_true",
                   help="read a JSON list of adjacency matrices instead of graph6")
    p.add_argument("--b2", required=True, help='squared distance ratio, e.g. "2" or "(7+√33)/4"')
    p.add_argument("--n", type=int, required=True, help="target dimension")
    p.set_defaults(func=cmd_embed)

    for name, p in sub.choices.items():
        if name in FORMATS:
            p.add_argument("--format", choices=FORMATS[name], default=FORMATS[name][0])
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches our convention
        return int(exc.code) if exc.code is not None else EXIT_BADINPUT
    try:
        return args.func(args)
    # every package error type is a ValueError; a RuntimeError reports a float
    # computation that cannot finish, such as a kernel recurrence overflowing,
    # and a MemoryError an array too large to allocate, such as a root grid at huge n
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADINPUT


if __name__ == "__main__":
    sys.exit(main())
