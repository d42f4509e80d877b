"""Run one workload N times, one seed each, and print the spread.

    python3 bench/steady.py --workload query --runs 10 [--first-seed 1]

Runs `bench/run.py` as a child process per seed, one after another, each
for `run_seconds` of `BENCHMARK.json`, and prints for every end-to-end
metric the median, the quartiles (as `statistics.quantiles(values, n=4)`
gives them) and the distance between the quartiles as a share of the
median. Each spread should stay below a third of the metric's bound in
`BENCHMARK.json`.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# The statistics `run.py` logs on standard error but does not gate.
LOGGED = re.compile(
    r"([0-9.]+) ops/s; latency min [0-9.]+ ms, p10 ([0-9.]+) ms, p50 ([0-9.]+) ms, p90 ([0-9.]+) ms"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in config["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        logged = LOGGED.search(done.stderr)
        result["logged"] = dict(zip(("ops_per_s", "op_p10_ms", "op_p50_ms", "op_p90_ms"),
                                    map(float, logged.groups())))
        results.append(result)
        line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {seconds} s")
    print(f"{'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} {'bound':>6}")
    rows = [(name, [r["metrics"][name]["value"] for r in results], bounds[name]) for name in bounds]
    rows += [(name, [r["logged"][name] for r in results], "-") for name in results[0]["logged"]]
    for name, values, bound in rows:
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        print(f"{name:<12} {median:>10.4g} {q1:>10.4g} {q3:>10.4g} {spread:>8.3f} {bound:>6}")
    print("(the last four are logged on standard error, not gated)")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
