"""Timing helpers: percentiles, child processes and import times.

Every figure is a raw wall-clock time of the program's own work.  No
latency is rescaled by a second loop timed beside it: such a loop shares
the process's caches, allocator and collector with the operation before
it, so its speed would move with the program it is meant to correct for.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
MIN_TAIL_SAMPLES = 40
CHILD_TIMEOUT_S = 120.0


def tail_rank(n: int):
    """1-based nearest rank of the highest percentile with TAIL_BEYOND samples
    beyond it, and that percentile; None below MIN_TAIL_SAMPLES samples."""
    if n < MIN_TAIL_SAMPLES:
        return None
    rank = n - TAIL_BEYOND
    return rank, 100.0 * rank / n


def latency_stats(seconds: list[float]) -> dict:
    """Median and tail latency in ms.  With too few samples for a tail, the
    tail falls back to the median and its percentile reads 50."""
    ordered = sorted(seconds)
    p50 = statistics.median(ordered) * 1e3
    tr = tail_rank(len(ordered))
    if tr is None:
        return {"p50": p50, "tail": p50, "tail_pct": 50.0, "n": len(ordered)}
    rank, pct = tr
    return {"p50": p50, "tail": ordered[rank - 1] * 1e3, "tail_pct": pct, "n": len(ordered)}


class ChildResult:
    def __init__(self, returncode: int, wall_s: float, maxrss_mb: float, stdout: str, stderr: str):
        self.returncode = returncode
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv: list[str], workdir: Path, env: dict) -> ChildResult:
    """Run one child to completion; its wall time and its own peak RSS.

    Output goes to files so the wait can use wait4, which reports the
    child's resource usage alone.  The child is killed after
    CHILD_TIMEOUT_S.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=workdir)
        pid = 0
        try:
            while not pid:
                if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.0005)
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        finally:
            if not pid:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                       out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"))


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


_SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import {module}\n"
    "print(time.perf_counter() - t0)\n"
)


def importtime_self_ms(stderr: str, package: str) -> float:
    """Sum of the self times -X importtime reports for a package's modules."""
    total_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == package or name.startswith(package + "."):
            total_us += int(parts[0])
    return total_us / 1e3


def measure_setup(module: str, repeats: int, workdir: Path, src: Path, importtime: bool = False,
                  discard_first: bool = False):
    """Import ``module`` in ``repeats`` fresh interpreters, one at a time.

    With ``discard_first`` one more child runs first and is not counted: it
    may compile the package's bytecode.  Returns the import times in seconds
    and, with ``importtime``, each child's -X importtime report.
    """
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-c", _SETUP_CODE.format(module=module)]
    env = child_env(src)
    times, reports = [], []
    for i in range(repeats + discard_first):
        res = run_child(argv, workdir, env)
        if res.returncode != 0:
            raise RuntimeError(f"importing {module} failed:\n{res.stderr[-2000:]}")
        if i or not discard_first:
            times.append(float(res.stdout.strip().splitlines()[-1]))
            reports.append(res.stderr)
    return times, reports


def median(values):
    return statistics.median(values)

