"""Run the benchmark repeatedly and summarize each metric.

    python3 bench/baseline.py --seeds 1 --repeat 10 --out bench/baseline.json
    python3 bench/baseline.py --seeds 2-11 --workloads sigma-search

Runs are sequential, one process at a time. For every workload and seed
set, each metric gets its values, median, quartiles (Python's
statistics.quantiles with n=4) and spread, the quartile distance as a
share of the median; each run's wall time is kept as wall_s. Results are
merged into --out under "<workload> seeds=<spec> trace=<0|1>".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds_from(spec):
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    p.add_argument("--seeds", default="1")
    p.add_argument("--repeat", type=int, default=1, help="runs per seed")
    p.add_argument("--seconds", type=int, default=config["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    seeds = [s for s in seeds_from(args.seeds) for _ in range(args.repeat)]
    found = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall_s={result['wall_s']:.1f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        names = runs[0]["metrics"]
        summary = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "metrics": {n: dict(unit=names[n]["unit"], **summarize(
                [r["metrics"][n]["value"] for r in runs])) for n in names},
        }
        key = f"{workload} seeds={args.seeds}x{args.repeat} trace={args.trace}"
        found[key] = summary
        if args.trace == 0:
            for n, s in summary["metrics"].items():
                print(f"  {n:14s} median {s['median']:.4g}  q1 {s['q1']:.4g}  "
                      f"q3 {s['q3']:.4g}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
