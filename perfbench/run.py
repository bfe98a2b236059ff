"""Benchmark of hidesign: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload bound_grid --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all         # every workload in turn
    python3 perfbench/run.py --write-spec           # rewrite BENCHMARK.json

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run sets up fresh interpreters to time ``setup_s``, makes
its inputs from ``--seed``, runs whole rounds of operations for
``--seconds``, checks every output against an oracle that does not use
hidesign, and prints as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` span
recorders wrap the program's functions and the metrics are the per-layer
ones; spans go to ``.perfbench_out/traces/``, results to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import os

# one thread of the program: numpy must see these before it loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# fresh interpreters timed for setup_s before and again after the timed
# loop, so the median samples the machine at two moments of the run
SETUP_REPEATS = 3

import measure  # noqa: E402
import spec  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Fault:
    """An operation that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


def run_rounds(w, seconds: float, rec):
    """Whole rounds of w's operations until ``seconds`` have passed."""
    latencies, records = [], []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for key, op in w.round_ops():
            if rec is not None:
                rec.op = len(records)
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception as exc:  # an operation's failure is recorded, not fatal
                out = Fault(exc)
            latencies.append(time.perf_counter() - t0)
            records.append((key, out))
        rounds += 1
    return latencies, records, rounds


def classify(w, records):
    """Per operation: failed or not; known faults by key; unexpected problems."""
    failed, known, problems = [], {}, []
    for key, out in records:
        violations = [out.text] if isinstance(out, Fault) else w.check(key, out)
        failed.append(bool(violations))
        if not violations:
            continue
        phrase = w.expected.get(key)
        if phrase is not None and any(phrase in v for v in violations):
            known.setdefault(key, [0, violations])[0] += 1
        else:
            problems.extend(f"{key}: {v}" for v in violations)
    return failed, known, problems


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": spec.UNITS[name]}


def ops_per_s(latencies, failed) -> float:
    return sum(not bad for bad in failed) / sum(latencies)


def end_to_end(latencies, failed, setup_times, peak_mb, lines):
    stats = measure.latency_stats([x for x, bad in zip(latencies, failed) if not bad])
    ops = ops_per_s(latencies, failed)
    values = {
        "setup_s": measure.median(setup_times),
        "ops_per_s": ops,
        "op_ms_p50": stats["p50"],
        "op_ms_tail": stats["tail"],
        "peak_rss_mb": peak_mb,
    }

    lines.append(f"setup_s {values['setup_s']:.4f} s (median of {len(setup_times)} fresh interpreters: "
                 + ", ".join(f"{x:.3f}" for x in setup_times) + ")")
    lines.append(f"ops_per_s {ops:.4f} 1/s")
    lines.append(f"op_ms_p50 {stats['p50']:.4f} ms")
    lines.append(f"op_ms_tail {stats['tail']:.4f} ms (p{stats['tail_pct']:.2f} of {stats['n']} samples)")
    lines.append(f"peak_rss_mb {peak_mb:.2f} MB")
    return {k: metric(k, v) for k, v in values.items()}


def per_layer(w, rec, rounds, setup_times, setup_reports):
    values = {name: rec.totals.get(name, 0.0) / rounds for name, _, _ in spec.PER_LAYER}
    values["cli.import.ms"] = measure.median(setup_times) * 1e3
    values["cli.import.scipy_ms"] = measure.median(
        [measure.importtime_self_ms(r, "scipy") for r in setup_reports])
    values["cli.import.networkx_ms"] = measure.median(
        [measure.importtime_self_ms(r, "networkx") for r in setup_reports])
    values["cli.main.ms"] = 0.0
    values.update(w.layer_extras())
    return {k: metric(k, v) for k, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    cls = WORKLOADS[name]
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    lines = []
    try:
        setup_times, setup_reports = measure.measure_setup(cls.setup_module, SETUP_REPEATS, work, SRC,
                                                           importtime=traced, discard_first=True)
        sys.path.insert(0, str(SRC))
        import hidesign as hs
        if Path(hs.__file__).resolve().parent != (SRC / "hidesign").resolve():
            raise RuntimeError(f"imported hidesign from {hs.__file__}, not from {SRC}")
        w = cls(seed, work, SRC, traced)
        w.prepare(hs)
        w.warmup()
        problems = w.once()
        rec = spans.Recorder() if traced else None
        uninstall = spans.install(rec) if traced else None
        try:
            latencies, records, rounds = run_rounds(w, seconds, rec)
        finally:
            if uninstall is not None:
                uninstall()
        more_times, more_reports = measure.measure_setup(cls.setup_module, SETUP_REPEATS, work, SRC,
                                                         importtime=traced)
        setup_times += more_times
        setup_reports += more_reports
        peak_mb = w.peak_rss_mb(records)
        failed, known, more = classify(w, records)
        problems += more
        lines.append(f"workload {name}, seed {seed}: {rounds} rounds, {len(records)} operations attempted, "
                     f"{sum(failed)} failed")
        for key, (count, violations) in sorted(known.items()):
            lines.append(f"known fault at {key}, {count} times: {'; '.join(violations)}")
        lines += w.summary()
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        if all(failed):
            print(f"error: every one of the {len(records)} operations failed; no latency to report",
                  file=sys.stderr)
            return 1
        if traced:
            metrics = per_layer(w, rec, rounds, setup_times, setup_reports)
            lines.append(f"traced: ops_per_s {ops_per_s(latencies, failed):.4f} 1/s")
            if rec.spans:
                (OUT / "traces").mkdir(parents=True, exist_ok=True)
                rec.write_ndjson(OUT / "traces" / f"{name}-seed{seed}.ndjson")
        else:
            metrics = end_to_end(latencies, failed, setup_times, peak_mb, lines)
        result = {"correct": not problems, "attempted": len(records), "failed": sum(failed),
                  "metrics": metrics}
        (OUT / "results").mkdir(parents=True, exist_ok=True)
        (OUT / "results" / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
            json.dumps({**result, "rounds": rounds, "log": lines}, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "hidesign" / "__init__.py").is_file():
        print(f"error: no hidesign package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
