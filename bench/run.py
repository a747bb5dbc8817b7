"""modcover benchmark: one workload, one seed, one process, every answer checked.

    python3 bench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

Run from the repository root; modcover is imported from ./src. The run
builds pass 0 of the workload's inputs, then measures whole passes until
it has measured at least --seconds, at least MIN_QUERIES queries and at
least the workload's fewest passes. It is single-threaded and starts
child processes only to time set-up and, when traced, the untraced pass.
Times are CPU time of the measuring thread, rescaled to reference machine
speed (bench/speed.py), and the run stops on that measured time, so a run
measures the same queries however busy the machine is.

--trace 0 prints the end-to-end metrics; --trace 1 runs pass 0 once with
spans around modcover's public functions and prints per-layer metrics.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See bench/README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
MIN_QUERIES = 100  # so that ten samples lie beyond the 90th percentile
SHOWN_FAILURES = 5
CHILD_TIMEOUT_S = 170
MAX_WALL_S = 100  # measuring stops after the pass that crosses it

CHECK_NAMES = (
    "sigma-agreement", "radical-agreement", "cyclicity", "localization",
    "finiteness", "maximal-count", "hdim-additivity",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: the child processes that time set-up and the untraced pass
    p.add_argument("--role", choices=("main", "setup", "pass"), default="main",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_argv(args, role):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--role", role]


def timed_setup(args) -> float:
    """CPU seconds a fresh interpreter spends until its workload is ready
    for the first query: interpreter start, import, input generation."""
    out = subprocess.run(child_argv(args, "setup"), stdout=subprocess.PIPE, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    word, seconds = out.stdout.split()
    if word != "ready":
        raise RuntimeError(f"set-up child printed {out.stdout!r}")
    return float(seconds)


def untraced_pass_seconds(args) -> float:
    out = subprocess.run(child_argv(args, "pass"), stdout=subprocess.PIPE, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.splitlines()[-1])["pass_s"]


class Outcome:
    """Latency of every query run, and the failures among them. With a
    `speed` module, each latency is also rescaled to reference speed."""

    def __init__(self, speed=None):
        self.speed = speed
        self.latencies = []  # wall seconds
        self.cpu = []  # CPU seconds
        self.adjusted = []  # CPU seconds at reference speed
        self.failures = []

    def run(self, queries, mismatch):
        wall = time.perf_counter
        clock = self.speed.clock if self.speed else wall
        # A collection owed to earlier queries' garbage would land in
        # whichever query happened to trip it, so each query starts from a
        # fresh collection. Freezing what exists before the pass (library,
        # inputs) keeps those collections short.
        gc.collect()
        gc.freeze()
        try:
            before = self.speed.kernel_seconds() if self.speed else None
            for query in queries:
                gc.collect()
                start_wall, start = wall(), clock()
                try:
                    query()
                except mismatch as exc:
                    self.failures.append(str(exc))
                except Exception as exc:  # any other raise is a failed query, reported below
                    self.failures.append(f"{type(exc).__name__}: {exc}")
                elapsed = clock() - start
                self.latencies.append(wall() - start_wall)
                self.cpu.append(elapsed)
                if self.speed:
                    after = self.speed.kernel_seconds()
                    self.adjusted.append(self.speed.at_reference_speed(elapsed, before, after))
                    before = after
        finally:
            gc.unfreeze()


def measure(workload, args, first_pass, mismatch, speed):
    """Whole passes until the speed-adjusted query time reaches --seconds,
    and at least the workload's `min_passes`. Stopping on adjusted rather
    than wall time keeps the number of passes, and so the mix of queries,
    the same on a busy machine as on a quiet one. Past MAX_WALL_S of wall
    time the run stops after its current pass, so that it ends in time."""
    outcome = Outcome(speed)
    passes = 0
    queries = first_pass
    start = time.perf_counter()
    while True:
        outcome.run(queries, mismatch)
        passes += 1
        done = (sum(outcome.adjusted) >= args.seconds and len(outcome.latencies) >= MIN_QUERIES
                and passes >= workload.min_passes)
        if done or time.perf_counter() - start > MAX_WALL_S:
            return outcome, passes
        queries = workload.make_pass(args.seed, passes)


def result_line(outcome, metrics) -> str:
    attempted = len(outcome.latencies)
    failed = len(outcome.failures)
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def report_failures(outcome):
    for text in outcome.failures[:SHOWN_FAILURES]:
        print(f"FAILED: {text}", file=sys.stderr)
    if len(outcome.failures) > SHOWN_FAILURES:
        print(f"... and {len(outcome.failures) - SHOWN_FAILURES} more", file=sys.stderr)


def end_to_end(args, workloads):
    import speed

    setups = [timed_setup(args) for _ in range(SETUP_SAMPLES)]
    workload = workloads.WORKLOADS[args.workload]()
    first_pass = workload.make_pass(args.seed, 0)
    outcome, passes = measure(workload, args, first_pass, workloads.Mismatch, speed)
    if "tracer" in sys.modules:
        raise RuntimeError("the tracer was loaded into a timed run")
    lat = outcome.adjusted
    # A kernel timed next to a set-up, which runs for a second or more in a
    # fresh process, did not follow its speed; the whole run's factor, from
    # hundreds of kernel timings a minute later, follows the machine's state,
    # though not fully (see bench/README.md).
    speed_factor = sum(lat) / sum(outcome.cpu)
    metrics = {
        "setup_s": (statistics.median(setups) * speed_factor, "s"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "query_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "query_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000, "ms"),
        "ok_ratio": ((len(lat) - len(outcome.failures)) / len(lat), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if hasattr(workload, "summary"):
        print(workload.summary())
    wall = outcome.latencies
    print(f"samples: {len(lat)} queries in {passes} passes over {sum(lat):.3f} s adjusted, "
          f"{sum(wall):.3f} s wall; {len(setups)} set-ups, median "
          f"{statistics.median(setups):.3f} s CPU")
    print(f"wall time: {len(wall) / sum(wall):.3f} queries/s, p50 "
          f"{statistics.median(wall) * 1000:.3f} ms; wall over adjusted "
          f"{sum(wall) / sum(lat):.3f}")
    return outcome, metrics


def per_layer(args, workloads):
    """Pass 0 with every public modcover function wrapped in a span. The
    overhead ratio compares its queries' speed-adjusted time with that of
    the same pass run untraced in a fresh process."""
    untraced = untraced_pass_seconds(args)
    import speed
    import tracer

    workload = workloads.WORKLOADS[args.workload]()
    outcome = Outcome(speed)
    trace = tracer.Tracer()
    trace.install()
    try:
        outcome.run(workload.make_pass(args.seed, 0), workloads.Mismatch)
    finally:
        trace.uninstall()
    traced = sum(outcome.adjusted)
    metrics = {name: (value, "s" if name.endswith("_s") else "count")
               for name, value in trace.metrics().items()}
    metrics["rings.maximal_ideals.useful_ratio"] = (
        metrics["rings.maximal_ideals.useful_ratio"][0], "ratio")
    stats = getattr(workload, "check_stats", {})
    for name in CHECK_NAMES:
        seconds, skipped = stats.get(name, (0.0, 0))
        metrics[f"harness.check.{name}.s"] = (seconds, "s")
        metrics[f"harness.check.{name}.skipped"] = (skipped, "count")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    print(f"samples: {len(outcome.latencies)} queries in pass 0; traced {traced:.3f} s, "
          f"untraced {untraced:.3f} s of speed-adjusted query time; "
          f"{len(trace.spans)} spans")
    return outcome, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modcover" / "__init__.py").is_file():
        print(f"error: no modcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.role == "setup":
        workloads.WORKLOADS[args.workload]().make_pass(args.seed, 0)
        print("ready", time.process_time(), flush=True)
        return 0
    if args.role == "pass":
        import speed

        outcome = Outcome(speed)
        outcome.run(workloads.WORKLOADS[args.workload]().make_pass(args.seed, 0),
                    workloads.Mismatch)
        print(json.dumps({"pass_s": sum(outcome.adjusted)}))
        return 0
    outcome, metrics = (per_layer if args.trace else end_to_end)(args, workloads)
    report_failures(outcome)
    print(result_line(outcome, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
