"""Benchmark for ndfluents: one workload, one run, one JSON line.

    python3 bench/run.py --workload convert|query|reason --seed N \
        --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/` next to
this directory; without it the run stops with exit code 2.

With `--trace 0` the run sets up, then repeats the workload's operation for
S seconds and prints the end-to-end metrics. With `--trace 1` it first runs
S/2 seconds untraced, then loads `tracing.py`, which replaces the program's
public functions with span-recording wrappers, sets up again and runs S/2
seconds traced. It prints the per-layer metrics and the tracing overhead,
and writes every span to `.bench_out/`.

The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated, once before the timed phase and then at even steps
# through it, and its fastest repeat reported: like the fastest operation,
# it comes from a moment the machine is not contended, and the repeats
# sample the machine over the whole run, not one burst (see README).
SETUP_REPEATS = 8

# Times the import of the given modules in a fresh interpreter, from after
# its start-up to the end of the imports, so that the program's imports can
# be repeated like the rest of set-up.
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); started = time.perf_counter()\n"
    "for name in sys.argv[2:]: __import__(name)\n"
    "print(time.perf_counter() - started)"
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("convert", "query", "reason"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Import ndfluents from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "ndfluents" / "__init__.py").is_file():
        sys.stderr.write(f"error: no ndfluents sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ndfluents

    if Path(ndfluents.__file__).resolve().parent != (SRC / "ndfluents").resolve():
        sys.stderr.write(f"error: imported ndfluents from {ndfluents.__file__}\n")
        sys.exit(2)


def time_imports() -> float:
    """Time the import of every program module the workloads loaded."""
    modules = sorted(name for name in sys.modules if name.split(".")[0] == "ndfluents")
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER, str(SRC), *modules],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as `statistics.quantiles(values, n=100)` gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """Set-up, the closed loop of operations, and the deferred checks."""

    def __init__(self, args: argparse.Namespace, workdir: Path, tracer=None):
        import workloads

        self.build = functools.partial(workloads.build, args.workload, args.seed, workdir)
        self.tracer = tracer
        self.import_times: list[float] = []
        self.setup_times: list[float] = []
        self.setup_failures: list[str] = []
        self.workload = self.set_up()
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def set_up(self):
        """Time the program's imports and one set-up (input generation,
        loading and one warm-up operation); then check what it loaded and
        the warm-up operation. A failed check makes the run incorrect but
        does not stop it."""
        self.import_times.append(time_imports())
        if self.tracer is not None:
            self.tracer.op = f"setup-{len(self.setup_times)}"
        gc.collect()
        started = time.perf_counter()
        workload = self.build()
        warm_up = workload.op()
        self.setup_times.append(time.perf_counter() - started)
        try:
            workload.check_setup()
            workload.check(workload.capture(warm_up))
        except AssertionError as failure:
            self.setup_failures.append(f"warm-up: {failure}")
        return workload

    def loop(self, seconds: float) -> float:
        """Run whole operations until `seconds` have passed, with the
        remaining set-up repeats between them; return the wall time of the
        timed phase less those set-ups. Checks run after the phase."""
        workload, tracer = self.workload, self.tracer
        gc.collect()
        gc.freeze()
        captured = []
        started = time.perf_counter()
        deadline = started + seconds
        step = seconds / SETUP_REPEATS
        in_setup = 0.0
        while True:
            if tracer is not None:
                tracer.op = len(self.latencies)
            result = None
            begin = time.perf_counter()
            try:
                result = workload.op()
            except Exception as error:  # noqa: BLE001 - any program error fails the operation
                self.latencies.append(time.perf_counter() - begin)
                captured.append(error)
            else:
                self.latencies.append(time.perf_counter() - begin)
                captured.append(workload.capture(result))
            del result
            gc.collect()
            now = time.perf_counter()
            if now >= deadline:
                break
            if len(self.setup_times) < SETUP_REPEATS and now >= started + step * len(self.setup_times):
                self.set_up()
                in_setup += time.perf_counter() - now
        wall = time.perf_counter() - started - in_setup
        gc.unfreeze()
        for item in captured:
            try:
                if isinstance(item, Exception):
                    raise AssertionError(f"{type(item).__name__}: {item}")
                workload.check(item)
            except AssertionError as failure:
                self.failures.append(str(failure))
        return wall


def latency_report(run: Run, wall: float) -> str:
    """Throughput, median and tail of the timed phase, for the log. They
    move with the share of the run the machine spends in its slow phase
    (see README), so they are reported but not gated."""
    latencies = [x * 1000 for x in run.latencies]
    p90 = quantile(latencies, 90)
    return (
        f"{len(latencies)} ops in {wall:.2f} s: {len(latencies) / wall:.3f} ops/s; "
        f"latency min {min(latencies):.2f} ms, p10 {quantile(latencies, 10):.2f} ms, "
        f"p50 {statistics.median(latencies):.2f} ms, p90 {p90:.2f} ms "
        f"({sum(1 for x in latencies if x > p90)} of {len(latencies)} samples beyond p90)\n"
    )


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (min(run.import_times) + min(run.setup_times), "s"),
        "op_min_ms": (min(run.latencies) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(BENCH))
    import workloads  # noqa: F401 - imported before the set-up spans

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        run = Run(args, workdir)
        wall = run.loop(seconds)
        metrics = end_to_end(run)
        sys.stderr.write(
            "set-up: imports " + ", ".join(f"{x:.4f}" for x in run.import_times)
            + " s; loading " + ", ".join(f"{x:.4f}" for x in run.setup_times) + " s\n"
        )
        sys.stderr.write(("untraced: " if args.trace else "") + latency_report(run, wall))
        attempted, failed = len(run.latencies), len(run.failures)
        failures = run.failures + run.setup_failures
        if args.trace:
            import tracing

            tracer = tracing.install()
            traced = Run(args, workdir, tracer)
            traced_wall = traced.loop(seconds)
            tracer.uninstall()
            sys.stderr.write("traced: " + latency_report(traced, traced_wall))
            metrics = tracing.summary(tracer)
            # Compared on the fastest operation of each half, which the
            # machine's slow phases move far less than ops/s (see README).
            metrics["trace.overhead_pct"] = (100 * (min(traced.latencies) / min(run.latencies) - 1), "%")
            path = tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl", metrics)
            sys.stderr.write(f"spans in {path}\n")
            attempted += len(traced.latencies)
            failed += len(traced.failures)
            failures += traced.failures + traced.setup_failures
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures[:5]:
        sys.stderr.write(f"check failed: {failure}\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"{name} = {value:.6g} {unit}\n")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
