"""One-off sweep of the traced per-layer times at three corpus sizes.

    python3 bench/sweep.py

Each size is 4x the last, so the growth of each stage between columns
shows its complexity class: about 4x per column is linear, about 16x
quadratic. For every workload it sets up once on seed 1, runs three traced
operations and prints the per-layer medians that workload reaches. This
is a reference figure for the README, not a workload of the benchmark.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SIZES = (50, 200, 800)
OPS = 3
SEED = 1


def measure(name: str, size: int) -> dict[str, float]:
    workdir = BENCH.parent / ".bench_out" / f"sweep-{name}-{os.getpid()}"
    tracer = tracing.install()
    try:
        tracer.op = "setup-0"
        workload = workloads.build(name, SEED, workdir, size)
        workload.check_setup()
        for op in range(OPS):
            tracer.op = op
            result = workload.op()
            workload.check(workload.capture(result))
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    return {metric: value for metric, (value, _) in tracing.summary(tracer).items()}


def main() -> int:
    for name in workloads.WORKLOADS:
        columns = [measure(name, size) for size in SIZES]
        print(f"\n{name}\n| metric | " + " | ".join(f"{size} stmts" for size in SIZES) + " |")
        print("|---" * (len(SIZES) + 1) + "|")
        for metric in tracing.METRICS:
            if any(column[metric] for column in columns):
                print(f"| `{metric}` | " + " | ".join(f"{column[metric]:.4g}" for column in columns) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
