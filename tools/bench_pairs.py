"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHANGE --workloads rank_scan bound_grid \
        --seeds 101..110 --seconds 15

PARENT and CHANGE are checkouts holding ``src/`` and ``perfbench/``.  Each
tree's ``src`` is first bytecode-compiled (``python -m compileall -q``), since
with PYTHONDONTWRITEBYTECODE set every fresh interpreter of a run would
otherwise compile it again.  For each workload and seed, one pair runs
``perfbench/run.py --trace 0`` once per tree with that seed: the parent first
in even pairs (0, 2, ...) and the change first in odd ones, so drift of the
machine falls on both sides.  From each run's last-line JSON it prints, per
workload and end-to-end metric, each side's median and quartiles, the
change/parent ratio of the medians, and in how many pairs the change was
better, the direction taken from the change's ``BENCHMARK.json``.  Exits 1
if any run exits non-zero or reports ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(tokens: list[str]) -> list[int]:
    """Seeds from ints and inclusive ranges A..B."""
    seeds = []
    for token in tokens:
        lo, sep, hi = token.partition("..")
        seeds += range(int(lo), int(hi) + 1) if sep else [int(lo)]
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run; its result JSON, or None if it failed."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or result is None or not result.get("correct"):
        print(f"  run failed: {tree} {workload} seed {seed}, exit {proc.returncode}", file=sys.stderr)
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
        return None
    return result


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(workload: str, runs: dict, better: dict) -> None:
    """Print one line per end-to-end metric over the pairs where both runs succeeded."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
    if not pairs:
        print(f"{workload}: no complete pair")
        return
    shares = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side) for side in zip(*pairs)]
    print(f"{workload}: {len(pairs)} complete pairs of {len(runs['parent'])}; "
          f"failed share parent {shares[0]:.2%}, change {shares[1]:.2%}")
    for name, direction in better.items():
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (n - o) > 0 for o, n in zip(old, new))
        (o1, o3), (n1, n3) = quartiles(old), quartiles(new)
        mo, mn = statistics.median(old), statistics.median(new)
        ratio = mn / mo if mo else float("nan")
        print(f"  {name:<12} parent {mo:.6g} [{o1:.6g}, {o3:.6g}]  change {mn:.6g} [{n1:.6g}, {n3:.6g}]"
              f"  ratio {ratio:.4f}  change better in {wins} of {len(pairs)} ({direction} is better)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="ints or inclusive ranges A..B")
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src").is_dir():
            parser.error(f"{tree} holds no perfbench/run.py and src/")
    seeds = seed_list(args.seeds)
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)
    ok = True
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                result = run_once(trees[side], workload, seed, args.seconds)
                ok &= result is not None
                runs[side].append(result)
                if result:
                    ops = result["metrics"]["ops_per_s"]["value"]
                    print(f"  {workload} seed {seed} {side}: ops_per_s {ops:.4g}", file=sys.stderr)
        report(workload, runs, better)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
