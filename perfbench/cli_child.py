"""Run the hidesign CLI with its import and main() timed separately.

    PERFBENCH_CHILD_TIMES=times.json python3 -X importtime perfbench/cli_child.py tight --n 23

The traced cli_cold run uses this in place of ``python3 -m hidesign``; it
writes {"import_ms": ..., "main_ms": ...} to the file named by
PERFBENCH_CHILD_TIMES and exits with the CLI's exit code.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import hidesign.cli  # noqa: E402

t1 = time.perf_counter()
code = hidesign.cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.flush()
with open(os.environ["PERFBENCH_CHILD_TIMES"], "w", encoding="utf-8") as fh:
    json.dump({"import_ms": (t1 - t0) * 1e3, "main_ms": (t2 - t1) * 1e3}, fh)
sys.exit(code)
