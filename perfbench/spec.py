"""The benchmark's fixed description: workloads, metrics and run length.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 perfbench/run.py --write-spec``, so the two never disagree.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 15

WORKLOADS = [
    ("bound_grid", "fisher_bound over a fixed (n, t) grid up to t = 100 plus the 72-cell table: "
                   "the q_roots bisection polish and many short q_eval calls"),
    ("design_check", "load point-set files and certify them: the O(m^2 n) PointSet distinctness "
                     "check and q_eval on m^2 Gram arrays"),
    ("rank_scan", "graph6 decoding and exact Bareiss rank over Q(sqrt d) on 8- to 10-vertex "
                  "2-distance graphs; no float kernel"),
    ("cli_cold", "cold hidesign CLI invocations: interpreter start-up, the scipy and networkx "
                 "imports, argparse and output formatting"),
]

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better); values are per round of the workload
PER_LAYER = [
    ("orthopoly.q_roots.calls", "count", "lower"),
    ("orthopoly.q_roots.ms", "ms", "lower"),
    ("orthopoly.q_roots.roots", "count", "lower"),
    ("orthopoly.q_eval.calls", "count", "lower"),
    ("orthopoly.q_eval.ms", "ms", "lower"),
    ("orthopoly.q_eval.steps", "count", "lower"),
    ("orthopoly.q_min.self_ms", "ms", "lower"),
    ("bounds.fisher_bound.self_ms", "ms", "lower"),
    ("bounds.render.ms", "ms", "lower"),
    ("designs.PointSet.ms", "ms", "lower"),
    ("designs.PointSet.points", "count", "lower"),
    ("designs.PointSet.bytes_computed", "bytes", "lower"),
    ("designs.verify.self_ms", "ms", "lower"),
    ("designs.verify.pair_degrees", "count", "lower"),
    ("exactnum.fraction_free_rank.calls", "count", "lower"),
    ("exactnum.fraction_free_rank.ms", "ms", "lower"),
    ("exactnum.fraction_free_rank.entries", "count", "lower"),
    ("tightness.read_graph6.ms", "ms", "lower"),
    ("tightness.es_matrices.ms", "ms", "lower"),
    ("tightness.scan.self_ms", "ms", "lower"),
    ("tightness.scan.excluded", "count", "higher"),
    ("cli.import.ms", "ms", "lower"),
    ("cli.import.scipy_ms", "ms", "lower"),
    ("cli.import.networkx_ms", "ms", "lower"),
    ("cli.main.ms", "ms", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return path
